"""N-gram hit candidate extraction from script spans — the numpy
walks that model training uses and the C kernel (native/quadscan.c)
is tested against.

Reimplements the reference's sampling walks:

* ``quad_hits_dense`` — quadgram hashes at every letter alignment, the
  engine's documented dense deviation from GetQuadHits (reference:
  internal/cldutil.cc:315-405), repeats filtered with a last-2 ring,
* ``octa_word_and_pair_hits`` — GetOctaHits (cldutil.cc:416-533): one
  OctaHash40 per word plus the word-pair hashes,
* ``cjk_candidates`` — GetUniHits/GetBiHits (cldutil.cc:201-310):
  per-char unigram keys plus adjacent-pair bigram keys.

Windows are hashed in bulk by tools.ngram; only the
octa ring walk is a Python loop (a few ops per word).
"""

from __future__ import annotations

import numpy as np

from . import ngram


def _char_structure(b: bytes):
    """Byte-level char starts, per-char space flags and first bytes
    for a space-framed span byte string."""
    arr = np.frombuffer(b, dtype=np.uint8)
    is_start = (arr & 0xC0) != 0x80
    cstart = np.flatnonzero(is_start)
    first = arr[cstart]
    is_space = first == 0x20
    return arr, cstart, is_space, first


def quad_hits_dense(span_bytes: bytes, span_bounds=None):
    """Quadgram hashes at EVERY letter alignment, fully vectorized
    (no Python walk). Returns (hashes uint64, byte offsets).

    ``span_bounds``: sorted end offsets of concatenated spans — the
    dedupe ring is then applied per span, making batch scoring of a
    concatenation identical to span-by-span scoring.

    This engine samples densely both in training and at runtime: the
    reference's stride-2 + vowel-skip walk (GetQuadHits advance rules)
    is a speed optimization for its large trained tables; with small
    seed-trained tables, dense sampling doubles per-document evidence
    and is *cheaper* here because it removes the per-word Python loop.
    """
    arr, cstart, is_space, first = _char_structure(span_bytes)
    n = len(cstart)
    if n < 3:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    space_pos = np.flatnonzero(is_space)
    nxt = np.searchsorted(space_pos, np.arange(n))
    nxt = np.clip(nxt, 0, len(space_pos) - 1)
    next_space = space_pos[nxt]
    letters = np.flatnonzero(~is_space[:n - 1])
    if len(letters) == 0:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    e = np.minimum(letters + 4, next_space[letters])
    # drop 1-2 letter word-TAIL fragments (the reference's walk never
    # emits them — they alias with short whole words and add noise);
    # keep whole short words (letter preceded by a space)
    word_start = is_space[np.maximum(letters - 1, 0)]
    ok = ((e - letters) >= 3) | word_start
    letters, e = letters[ok], e[ok]
    s = cstart[letters]
    c = np.minimum(cstart[e] - s, 12)
    ok = c > 0
    s, c = s[ok], c[ok]
    buf = np.frombuffer(span_bytes + b" " * 16, dtype=np.uint8)
    wins = ngram.gather_windows(buf, s, 12)
    pre = arr[s - 1] == 0x20
    post = arr[np.minimum(s + c, len(arr) - 1)] == 0x20
    h = ngram.quad_hash(wins, c, pre, post).astype(np.uint64)
    if span_bounds is not None:
        sid = np.searchsorted(span_bounds, s, side="right")
        keep = dedupe_ring2(h, sid)
    else:
        keep = dedupe_ring2(h)
    return h[keep], s[keep]


def dedupe_ring2(hashes: np.ndarray,
                 span_ids: np.ndarray | None = None) -> np.ndarray:
    """Boolean keep-mask dropping candidates equal to either of the two
    previous candidates (the reference's last-2 repeat ring,
    cldutil.cc:334-335 — applied to the candidate stream). With
    ``span_ids``, the ring never crosses a span boundary, so scoring a
    concatenation of spans is bit-identical to scoring them one by one."""
    keep = np.ones(len(hashes), dtype=bool)
    if len(hashes) > 1:
        same = hashes[1:] == hashes[:-1]
        if span_ids is not None:
            same &= span_ids[1:] == span_ids[:-1]
        keep[1:] &= ~same
    if len(hashes) > 2:
        same = hashes[2:] == hashes[:-2]
        if span_ids is not None:
            same &= span_ids[2:] == span_ids[:-2]
        keep[2:] &= ~same
    return keep


def octa_candidates(span_bytes: bytes):
    """Per-word (start, bytecount) with the reference's 8-CHARACTER
    truncation (GetOctaHits, cldutil.cc:516-520: word_end stops
    advancing after the 8th char; the hash then sees up to 32 bytes
    and OctaHash40 itself ignores bytes past 24)."""
    arr, cstart, is_space, _ = _char_structure(span_bytes)
    space_char = np.flatnonzero(is_space)
    if len(space_char) < 2:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    w_first = space_char[:-1] + 1          # char index of word start
    w_last = space_char[1:]                # char index of the end space
    ok = w_last > w_first
    w_first, w_last = w_first[ok], w_last[ok]
    w_end8 = np.minimum(w_first + 8, w_last)
    starts = cstart[w_first]
    bc = cstart[w_end8] - starts
    return starts.astype(np.int64), bc.astype(np.int64)


def octa_word_and_pair_hits(span_bytes: bytes, span_bounds=None):
    """The GetOctaHits walk (cldutil.cc:416-533): per word an
    OctaHash40, filtered by the last-2 repeat ring (updated ONLY on
    non-repeat, :461-466), plus a PairHash(prev, cur) candidate at the
    PRIOR word's offset for consecutive distinct words (:468-483).

    Returns (word_hashes u64, word_offsets, pair_hashes u64,
    pair_offsets). ``span_bounds``: sorted end offsets of concatenated
    spans — rings and pairing never cross a span boundary, so batch
    scoring equals span-by-span scoring.
    """
    s, c = octa_candidates(span_bytes)
    if len(s) == 0:
        e = np.empty(0, np.uint64)
        z = np.empty(0, np.int64)
        return e, z, e.copy(), z.copy()
    buf = np.frombuffer(span_bytes + b" " * 36, dtype=np.uint8)
    wins = ngram.gather_windows(buf, s, 24)
    ones = np.ones(len(s), dtype=bool)  # words are space-framed
    # bc is UNCAPPED (up to 32 for 8 four-byte chars): OctaHash40 reads
    # at most 24 bytes but its final-word mask uses bc & 3 verbatim
    # (cldutil_shared.cc "ignores beyond 24")
    h = ngram.octa_hash40(wins, c, ones, ones)
    if span_bounds is not None:
        sid = np.searchsorted(span_bounds, s, side="right")
    else:
        sid = np.zeros(len(s), dtype=np.int64)

    # sequential ring walk (plain ints over numpy-derived lists; a few
    # ops per word — the C kernel fuses this same walk)
    hl = h.tolist()
    sl = s.tolist()
    il = sid.tolist()
    w_h: list[int] = []
    w_off: list[int] = []
    p_h: list[int] = []
    p_off: list[int] = []
    r1 = r2 = 0
    nxt = 0
    prior_start = -1
    cur_sid = -1
    for i in range(len(hl)):
        if il[i] != cur_sid:
            cur_sid = il[i]
            r1 = r2 = 0
            nxt = 0
            prior_start = -1
        hv = hl[i]
        if hv != r1 and hv != r2:
            if nxt == 0:
                r1 = hv
            else:
                r2 = hv
            nxt = 1 - nxt
            tmp_prior = r1 if nxt == 0 else r2
            if tmp_prior != 0 and tmp_prior != hv and prior_start >= 0:
                p_h.append((((tmp_prior >> 13)
                             | (tmp_prior << 51)) + hv)
                           & 0xFFFFFFFFFFFFFFFF)
                p_off.append(prior_start)
            w_h.append(hv)
            w_off.append(sl[i])
        prior_start = sl[i]
    return (np.array(w_h, dtype=np.uint64),
            np.array(w_off, dtype=np.int64),
            np.array(p_h, dtype=np.uint64),
            np.array(p_off, dtype=np.int64))


def cjk_candidates(span_text: str):
    """(uni_keys, uni_pos, bi_hashes, bi_pos) for a HANI span string.

    Unigram key = codepoint (every char, no repeat filtering —
    GetUniHits has none, cldutil.cc:201-244). Bigram = BiHashV2 over
    the raw UTF-8 bytes of two adjacent chars when their combined
    length is >= 2*kMinCJKUTF8CharBytes = 6 (GetBiHits,
    cldutil.cc:248-310; advancing one char, so bigrams overlap).
    Positions are char indices.
    """
    sb = span_text.encode("utf-8")
    arr = np.frombuffer(sb, dtype=np.uint8)
    cstart = np.flatnonzero((arr & 0xC0) != 0x80)
    if len(cstart) == 0:
        e = np.empty(0, np.uint64)
        z = np.empty(0, np.int64)
        return e, z, e.copy(), z.copy()
    clen = np.diff(np.append(cstart, len(arr)))
    first = arr[cstart]
    is_char = first != 0x20
    pos = np.flatnonzero(is_char)
    # unigram codepoints (decode only the kept chars)
    cps = np.frombuffer(span_text.encode("utf-32-le"), dtype="<u4")
    uni = cps[pos].astype(np.uint64)

    # bigrams: adjacent char positions, combined utf-8 length >= 6
    if len(pos) > 1:
        adj = np.flatnonzero((pos[1:] - pos[:-1]) == 1)
    else:
        adj = np.empty(0, np.int64)
    if len(adj):
        p1 = pos[adj]
        blen = clen[p1] + clen[p1 + 1]
        ok = blen >= 6
        p1, blen = p1[ok], blen[ok]
    else:
        p1 = np.empty(0, np.int64)
        blen = np.empty(0, np.int64)
    if len(p1):
        buf = np.frombuffer(sb + b"\x00" * 12, dtype=np.uint8)
        wins = ngram.gather_windows(buf, cstart[p1], 8)
        bi = ngram.bi_hash(wins, np.minimum(blen, 8)).astype(np.uint64)
    else:
        bi = np.empty(0, np.uint64)
    return uni, pos, bi, p1
