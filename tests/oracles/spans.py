"""numpy script-span segmenter: the oracle of the C segmenter
(``native.script_spans_scan_multi``, behind ``spans.script_spans_batch``
and its one-document form ``spans.script_spans``).

The document becomes one int32 codepoint array; the script LUT, run
boundaries and word-gap spaces are computed with numpy, and only the
script-run merge step is a Python loop over runs. The parity semantics
are those of ``cld2_ray.functions.spans``' module docstring.
"""

from __future__ import annotations

import numpy as np

from cld2_ray.functions import uscript as us
from cld2_ray.functions.spans import MAX_SCRIPT_BYTES, TEXT_LIMIT, ScriptSpan


def _codepoints(text: str) -> np.ndarray:
    """Vectorized str -> uint32 codepoint array (UTF-32 view)."""
    if not text:
        return np.empty(0, dtype=np.uint32)
    return np.frombuffer(text.encode("utf-32-le"), dtype="<u4")


def _scripts_of(cps: np.ndarray) -> np.ndarray:
    """Map codepoint array -> script-id array via the LUT (0 beyond range)."""
    lut = us.script_lut()
    out = np.zeros(cps.shape, dtype=np.uint8)
    in_range = cps < us.LUT_SIZE
    out[in_range] = lut[cps[in_range]]
    return out


def _lower_cps(cps: np.ndarray) -> np.ndarray:
    """Vectorized pinned lowercase over a codepoint array (1:1)."""
    lut = us.lower_lut()
    out = cps.copy()
    in_range = cps < us.LUT_SIZE
    out[in_range] = lut[cps[in_range]]
    return out


def _utf8_len_of(cps: np.ndarray) -> np.ndarray:
    """Per-codepoint UTF-8 encoded byte length (1..4), vectorized."""
    return (1 + (cps >= 0x80).astype(np.int64) + (cps >= 0x800) + (cps >= 0x10000))


def _absorb_single_foreign(letter_sc: np.ndarray,
                           letter_idx: np.ndarray) -> np.ndarray:
    """Effective per-letter scripts after the reference's
    single-foreign-letter continuation (getonescriptspan.cc:905-930):
    a length-1 foreign run joins the current span when the character
    after it is a non-letter ("Bc"/"B<end>" cases) or a letter of the
    span's script ("BA" case); otherwise it breaks ("BB"/"BD")."""
    n = letter_sc.size
    raw_starts = np.flatnonzero(
        np.concatenate([[True], letter_sc[1:] != letter_sc[:-1]]))
    if len(raw_starts) == 1:
        return letter_sc
    raw_ends = np.append(raw_starts[1:], n)
    eff = letter_sc.copy()
    cur_s = int(letter_sc[raw_starts[0]])
    cur_a, cur_b = int(raw_starts[0]), int(raw_ends[0])
    runs: list[tuple[int, int, int]] = []
    for k in range(1, len(raw_starts)):
        a, b = int(raw_starts[k]), int(raw_ends[k])
        s = int(letter_sc[a])
        if s == cur_s:
            cur_b = b
            continue
        if b - a == 1:
            j = a
            follows_nonletter = (j == n - 1
                                 or letter_idx[j + 1] != letter_idx[j] + 1)
            if follows_nonletter or (j + 1 < n
                                     and letter_sc[j + 1] == cur_s):
                cur_b = b          # absorbed; span script unchanged
                continue
        runs.append((cur_s, cur_a, cur_b))
        cur_s, cur_a, cur_b = s, a, b
    runs.append((cur_s, cur_a, cur_b))
    for s, a, b in runs:
        eff[a:b] = s
    return eff


def script_spans_numpy(text: str,
                       text_limit: int = TEXT_LIMIT) -> list[ScriptSpan]:
    """script_spans by numpy, one document at a time."""
    cps = _codepoints(text)
    if cps.size == 0:
        return []
    sc = _scripts_of(cps)
    letter_idx = np.flatnonzero(sc)
    if letter_idx.size == 0:
        return []
    low = _lower_cps(cps)   # pinned 1:1 remap — offsets preserved

    # per-document letter budget (the reference's 160KB scan cap):
    # truncate the letter stream, not just whole spans
    lb = _utf8_len_of(low[letter_idx])
    if int(lb.sum()) > text_limit:
        keep = np.searchsorted(np.cumsum(lb), text_limit, side="right")
        letter_idx = letter_idx[:max(int(keep), 1)]

    letter_sc = _absorb_single_foreign(sc[letter_idx], letter_idx)
    # word gap before letter i: any non-letter between it and previous letter
    gap = np.empty(letter_idx.size, dtype=bool)
    gap[0] = True
    np.not_equal(letter_idx[1:], letter_idx[:-1] + 1, out=gap[1:])
    # span break on (effective) script change
    brk = np.empty(letter_idx.size, dtype=bool)
    brk[0] = True
    np.not_equal(letter_sc[1:], letter_sc[:-1], out=brk[1:])

    span_starts = np.flatnonzero(brk)
    span_ends = np.append(span_starts[1:], letter_idx.size)

    utf8len = _utf8_len_of(low[letter_idx])

    out: list[ScriptSpan] = []
    letters_cp = low[letter_idx]
    for s, e in zip(span_starts.tolist(), span_ends.tolist()):
        script = int(letter_sc[s])
        # build " w1 w2 " with single spaces at word gaps, split at
        # MAX_SCRIPT_BYTES-ish boundaries for giant runs
        seg_cp = letters_cp[s:e]
        seg_gap = gap[s:e].copy()
        seg_gap[0] = False
        seg_bytes = utf8len[s:e]
        n = e - s
        # split points: cap spans at MAX_SCRIPT_BYTES utf8 bytes, at word gaps
        approx = np.cumsum(seg_bytes + seg_gap)
        n_chunks = int(approx[-1] // MAX_SCRIPT_BYTES) + 1
        if n_chunks == 1:
            bounds = [0, n]
        else:
            bounds = [0]
            gap_pos = np.flatnonzero(seg_gap)
            for k in range(1, n_chunks):
                target = int(np.searchsorted(approx, k * MAX_SCRIPT_BYTES))
                gi = np.searchsorted(gap_pos, target)
                pos = int(gap_pos[gi - 1]) if gi > 0 else target
                if pos > bounds[-1]:
                    bounds.append(pos)
            if bounds[-1] != n:
                bounds.append(n)
        for b0, b1 in zip(bounds[:-1], bounds[1:]):
            piece_cp = seg_cp[b0:b1]
            piece_gap = seg_gap[b0:b1].copy()
            piece_gap[0] = False
            # output array: letters + inserted spaces + frame
            n_sp = int(piece_gap.sum())
            out_cp = np.full(piece_cp.size + n_sp + 2, 32, dtype=np.uint32)
            pos_in_out = 1 + np.arange(piece_cp.size) + np.cumsum(piece_gap)
            out_cp[pos_in_out] = piece_cp
            s_text = out_cp.tobytes().decode("utf-32-le")
            out.append(ScriptSpan(
                text_utf8=s_text.encode("utf-8"),
                script=int(script),
                offset=int(letter_idx[s + b0]),
                text_bytes=int(seg_bytes[b0:b1].sum() + n_sp + 2),
                end_offset=int(letter_idx[s + b1 - 1]) + 1,
                letter_pos=letter_idx[s + b0: s + b1],
            ))
    return out
