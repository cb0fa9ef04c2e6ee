"""Script-run segmentation of extracted text (GetOneScriptSpan analogue).

Splits a document's extracted text into runs of same-script letters,
non-letters collapsed to single spaces, each span lowercased and framed
by a leading space and trailing spaces — the reference's LangSpan
format (reference: internal/getonescriptspan.cc:799-1027
GetOneScriptSpan + :1033-1065 LowerScriptSpan, langspan.h:28-36).

Parity semantics (round 2):
* lowercasing uses the PINNED 1:1 remap LUT (uscript.lower_lut — the
  utf8repl_lettermarklower.h analogue): only Latn/Cyrl/Grek/Armn
  change, never length, never Unicode-version drift,
* the single-foreign-letter continuation rule IS applied
  (getonescriptspan.cc:905-930 comment table): a lone letter of a
  different script is absorbed into the running span when its next
  character is a non-letter or a letter of the span's script; two
  consecutive foreign letters break the span.

Vectorized: the document becomes one int32 codepoint array; the script
LUT, run boundaries, and word-gap spaces are all computed with numpy;
only the (rare) script-run merge step is a Python loop over runs.
"""

from __future__ import annotations

import numpy as np

from . import uscript as us

MAX_SCRIPT_BYTES = 40960      # kMaxScriptBuffer (getonescriptspan.h:29-33)
TEXT_LIMIT = 160 * 1024       # FLAGS_cld_textlimit in KB (impl.cc:192,1811)


class ScriptSpan:
    """One same-script letter run: ``text`` is " word word word " —
    lowercased, space-framed. Backed by either a str or utf-8 bytes
    (``text_utf8``); each representation is derived lazily from the
    other, so the C segmenter can hand out bytes without paying a
    decode that most consumers (the utf-8 scoring kernels) re-encode.

    offset/end_offset: char index of the first letter / one past the
    last letter in the document. text_bytes: UTF-8 length of the
    letters+spaces content. letter_pos: int64[n_letters] original char
    index per span letter (offset-map back to the source text)."""

    __slots__ = ("_text", "_utf8", "script", "offset", "text_bytes",
                 "end_offset", "letter_pos")

    def __init__(self, text: str | None = None, script: int = 0,
                 offset: int = 0, text_bytes: int = 0,
                 end_offset: int = 0, letter_pos=None,
                 text_utf8: bytes | None = None):
        self._text = text
        self._utf8 = text_utf8
        self.script = script
        self.offset = offset
        self.text_bytes = text_bytes
        self.end_offset = end_offset
        self.letter_pos = letter_pos

    @property
    def text(self) -> str:
        if self._text is None:
            self._text = self._utf8.decode("utf-8")
        return self._text

    @property
    def text_utf8(self) -> bytes:
        if self._utf8 is None:
            self._utf8 = self._text.encode("utf-8")
        return self._utf8

    def __repr__(self):
        return (f"ScriptSpan(text={self.text!r}, script={self.script}, "
                f"offset={self.offset}, text_bytes={self.text_bytes}, "
                f"end_offset={self.end_offset})")


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


def _spans_of_meta(meta: np.ndarray, out_buf: np.ndarray,
                   lt_idx: np.ndarray) -> list[ScriptSpan]:
    """ScriptSpans from the C segmenter's meta rows (see
    native.script_spans_scan)."""
    out: list[ScriptSpan] = []
    for r in range(meta.shape[0]):
        sc_id, c0, c1, os_, ob, lp0, lp1 = (int(x) for x in meta[r])
        out.append(ScriptSpan(
            text_utf8=bytes(out_buf[os_:os_ + ob]),
            script=sc_id, offset=c0, text_bytes=ob,
            end_offset=c1,
            letter_pos=lt_idx[lp0:lp1],
        ))
    return out


def script_spans(text: str, text_limit: int = TEXT_LIMIT) -> list[ScriptSpan]:
    """Split extracted text into same-script letter spans in one C pass
    (native.script_spans_scan; _script_spans_numpy is its test oracle)."""
    from cld2_ray import native
    if not text:
        return []
    meta, out_buf, lt_idx = native.script_spans_scan(
        text.encode("utf-8"), us.script_lut(), us.lower_lut(),
        text_limit, MAX_SCRIPT_BYTES)
    # the native lt_idx is a REUSED scratch buffer (overwritten by the
    # next scan call): bulk-copy the used prefix once so every span's
    # letter_pos views private memory. One memcpy per call vs the
    # per-span slice copies this replaced (~5% of detect_batch on
    # span-dense batches).
    lt_idx = lt_idx[:int(meta[:, 6].max()) if len(meta) else 0].copy()
    return _spans_of_meta(meta, out_buf, lt_idx)


def script_spans_batch(texts: list[str],
                       text_limit: int = TEXT_LIMIT
                       ) -> list[list[ScriptSpan]]:
    """script_spans for a whole batch in ONE C call (the per-doc
    ctypes marshaling was ~15% of the fused stage). Bit-equal to
    [script_spans(t) for t in texts] — cross-checked in tests."""
    from cld2_ray import native
    bufs = [t.encode("utf-8") for t in texts]
    bounds = np.cumsum(np.array([len(b) for b in bufs], dtype=np.int64))
    cat = b"".join(bufs)
    meta, ns_doc, out_buf, lt_idx = native.script_spans_scan_multi(
        cat, bounds, us.script_lut(), us.lower_lut(),
        text_limit, MAX_SCRIPT_BYTES)
    # private copy of the reused lt_idx scratch, as in script_spans
    lt_idx = lt_idx[:int(meta[:, 6].max()) if len(meta) else 0].copy()
    ends = np.cumsum(ns_doc).tolist()
    return [_spans_of_meta(meta[a:b], out_buf, lt_idx)
            for a, b in zip([0, *ends[:-1]], ends)]


def _script_spans_numpy(text: str,
                        text_limit: int = TEXT_LIMIT) -> list[ScriptSpan]:
    """numpy segmenter: the tests' oracle for the C segmenter."""
    cps = us.codepoints(text)
    if cps.size == 0:
        return []
    sc = us.scripts_of(cps)
    letter_idx = np.flatnonzero(sc)
    if letter_idx.size == 0:
        return []
    low = us.lower_cps(cps)   # pinned 1:1 remap — offsets preserved

    # per-document letter budget (the reference's 160KB scan cap):
    # truncate the letter stream, not just whole spans
    lb = us.utf8_len_of(low[letter_idx])
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

    utf8len = us.utf8_len_of(low[letter_idx])

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
                text=s_text,
                script=int(script),
                offset=int(letter_idx[s + b0]),
                text_bytes=int(seg_bytes[b0:b1].sum() + n_sp + 2),
                end_offset=int(letter_idx[s + b1 - 1]) + 1,
                letter_pos=letter_idx[s + b0: s + b1],
            ))
    return out
