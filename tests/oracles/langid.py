"""numpy langid ranges chain: the oracle of the MANY-span C entry point
(``native.quad_octa_chunk_score``) and of
``Detector.detect_ranges`` / ``detect_batch(with_ranges=True)``.

The functions that read the model take the ``Detector`` as their first
argument. MANY-script spans go through ``many_hits`` (quad hits
merged with the ``octa_stream`` word-table hits) -> zeros-expected
chunk scoring (``score.score_chunks_multi``) -> ``sharpen_boundaries``
-> ``_many_span_ranges``; CJK and one-script spans through
``_score_span`` -> ``_one_range``. ``detect_ranges_numpy`` runs it span
by span and merges each document's ranges with ``_merge_ranges``, one
Python loop per span and per range, where the runtime makes one numpy
pass over the whole batch.
"""

from __future__ import annotations

import numpy as np

from cld2_ray.functions import langs, score, spans, uscript as us
from tests.oracles.docstage import DocTote, _tote_range_lang, _hint_payloads
from tests.oracles.spans import _codepoints
from tools import hits
from tools.langmodel import bucket_lookup, unpack_langprobs


def octa_stream(det, cat: bytes, bounds: np.ndarray,
                latin_of_span: np.ndarray):
    """Word-table hit stream over concatenated MANY spans: the
    GetOctaHits triple per word — distinct-octa word, delta-octa
    word, distinct-octa PairHash at the prior word's offset
    (cldutil.cc:416-533) — decoded per span script class, plus the
    seed-trained word table (model.socta). Emission order at equal
    offsets is [distinct word, delta word, seed word, pair], the
    reference's walk order with the seed stream appended.

    Distinct hits (word + pair) are flagged in the returned mask:
    the chunk scorer re-adds the last <= 4 of them to every
    chunk's tote (the AddDistinctBoost2/ScoreBoosts ring,
    scoreonescriptspan.cc:112-152; ring scoped to the span — the
    reference carries it across a document's scriptspans via
    ScoringContext, a documented deviation)."""
    wh, woff, ph, poff = hits.octa_word_and_pair_hits(
        cat, span_bounds=bounds)
    latw = latin_of_span[np.searchsorted(bounds, woff, side="right")]
    latp = latin_of_span[np.searchsorted(bounds, poff, side="right")]
    xv = bucket_lookup(det.model.xocta, wh, latw)
    dv = bucket_lookup(det.model.docta, wh, latw)
    sv = det.model.socta.lookup(wh)
    pv = bucket_lookup(det.model.xocta, ph, latp)
    vals = np.concatenate([xv, dv, sv, pv])
    offs = np.concatenate([woff, woff, woff, poff])
    rank = np.concatenate([
        np.zeros(len(wh), np.int8), np.ones(len(wh), np.int8),
        np.full(len(wh), 2, np.int8), np.full(len(ph), 3, np.int8)])
    # distinct-octa hits (word + pair) feed the boost ring
    dist = np.concatenate([
        np.ones(len(wh), bool), np.zeros(2 * len(wh), bool),
        np.ones(len(ph), bool)])
    m = vals != 0
    vals, offs, rank, dist = vals[m], offs[m], rank[m], dist[m]
    order = np.lexsort((rank, offs))
    return vals[order], offs[order], dist[order]


def many_hits(det, cat: bytes, bounds: np.ndarray,
              latin_of_span: np.ndarray):
    """Quad+word table hits over concatenated MANY spans, merged by
    offset (quads before word hits at equal offset)."""
    h, off = hits.quad_hits_dense(cat, span_bounds=bounds)
    vals = det.model.quad.lookup(h)
    m = vals != 0
    qv, qo = vals[m], off[m]
    ov, oo, od = octa_stream(det, cat, bounds, latin_of_span)
    all_vals = np.concatenate([qv, ov])
    all_off = np.concatenate([qo, oo])
    all_dist = np.concatenate([np.zeros(len(qv), bool), od])
    order = np.argsort(all_off, kind="stable")
    return all_vals[order], all_off[order], all_dist[order]


def _one_range(start: int, end: int, lid: int):
    """Whole-span (start_char, end_char, lid) numpy triple — the
    single-range form non-MANY spans and hitless MANY spans emit."""
    return (np.array([start], dtype=np.int64),
            np.array([end], dtype=np.int64),
            np.array([lid], dtype=np.int64))


def _many_span_ranges(offset: int, end_offset: int, span_utf8, letter_pos,
                      lang1, rel, starts_b):
    """Per-chunk arrays -> (start_char, end_char, lid) numpy triple for
    one MANY span (char range [offset, end_offset), framed text
    ``span_utf8``, document char index ``letter_pos`` of each of its
    letters): back boundaries up to the start of their word
    (ItemToVector semantics, scoreonescriptspan.cc:323-360) and gate
    unreliable chunks to UNKNOWN. ``starts_b`` are span-local byte
    offsets of each chunk's (sharpened) first hit."""
    nch = len(lang1)
    lids = np.where(np.asarray(rel) >= score.MIN_RELIABLE_KEEP_PERCENT,
                    np.asarray(lang1, dtype=np.int64), langs.UNKNOWN)
    if nch == 1:
        # single-chunk span: the range is the whole span
        return (np.array([offset], dtype=np.int64),
                np.array([end_offset], dtype=np.int64), lids)
    arr = np.frombuffer(span_utf8, dtype=np.uint8)
    cstart = np.flatnonzero((arr & 0xC0) != 0x80)
    letter_byte_starts = cstart[arr[cstart] != 0x20]
    lpos = np.asarray(letter_pos)
    li = np.searchsorted(letter_byte_starts, starts_b, side="right") - 1
    li = np.clip(li, 0, len(lpos) - 1)
    # back boundaries up to the start of their word — dense sampling
    # can land a chunk start mid-word
    gapmask = np.concatenate([[True], lpos[1:] != lpos[:-1] + 1])
    word_start_of = np.maximum.accumulate(
        np.where(gapmask, np.arange(len(lpos)), 0))
    chunk_char = lpos[word_start_of[li]].astype(np.int64)
    starts = chunk_char.copy()
    starts[0] = offset
    ends = np.concatenate([chunk_char[1:], [end_offset]])
    return starts, ends, lids


def _merge_ranges(text: str, parts) -> list[tuple[int, int, str]]:
    """Concatenate per-span (start_char, end_char, lid) triples, merge
    adjacent same-language ranges, and convert to original-text BYTE
    offsets by encoding each prefix."""
    parts = [p for p in parts if len(p[0])]
    if not parts or not text:
        return []
    starts = np.concatenate([p[0] for p in parts])
    ends = np.concatenate([p[1] for p in parts])
    lids = np.concatenate([p[2] for p in parts])
    out = []
    for k in range(len(lids)):
        if out and lids[k] == lids[k - 1]:
            out[-1][1] = ends[k]
        else:
            out.append([starts[k], ends[k], lids[k]])

    def nbytes(c):
        return len(text[:int(c)].encode("utf-8"))

    return [(nbytes(a), nbytes(e) - nbytes(a), langs.lang_code(int(lid)))
            for a, e, lid in out]


def _score_span(det, sp: spans.ScriptSpan, tote: DocTote,
                hints=None) -> None:
    """One CJK or RTYPE_ONE span into ``tote`` (numpy chain); ``hints``
    is the CJK span's packed hint payload."""
    rt = det._rtype(sp.script)
    if rt == us.RTYPE_CJK:
        uni, upos, bi, bpos = hits.cjk_candidates(sp.text)
        uvals = det.model.uni.lookup(uni)
        bvals = bucket_lookup(det.model.cjkbi, bi, False)
        all_vals = np.concatenate([uvals[uvals != 0], bvals[bvals != 0]])
        all_pos = np.concatenate([upos[uvals != 0], bpos[bvals != 0]])
        order = np.argsort(all_pos, kind="stable")
        l3, q3 = unpack_langprobs(all_vals[order])
        # positions are char indices; scale to bytes via span length
        c = _score_one_span(l3, q3, all_pos[order] * 3, sp.text_bytes,
                            score.CHUNKSIZE_UNIS, det.model.expected_uni,
                            hints=hints)
        tote.add_chunks(*c)
    elif rt == us.RTYPE_ONE:
        # script implies the language: score = bytes, reliability 100
        # (scoreonescriptspan.cc:1132-1160)
        lid = int(langs.SCRIPT_DEFAULT_LANG[sp.script])
        tote.add(lid, sp.text_bytes, sp.text_bytes, 100)
    # RTYPE_NONE: unsupported script -> ignored


def sharpen_boundaries(lang1: np.ndarray, l3: np.ndarray,
                       q3: np.ndarray, chunk_size: int,
                       nh: int) -> np.ndarray:
    """SharpenBoundaries / BetterBoundary port (reference:
    scoreonescriptspan.cc:671-774 + :781-845): for each chunk whose
    top language differs from the previous chunk's (and is not in
    the same close set), slide an 8-hit window of per-hit
    score(lang0)-score(lang1) differences over
    [prior_start, next_start) and move the boundary to the point
    maximizing (first-4 diffs) - (last-4 diffs), requiring both
    positive and negative diffs in the window.

    Returns the per-chunk boundary HIT index (default k*chunk_size).
    """
    nch = len(lang1)
    bidx = np.minimum(np.arange(nch) * chunk_size, nh - 1)
    prior_linear = 0
    for k in range(1, nch):
        this_linear = k * chunk_size
        next_linear = (k + 1) * chunk_size if k + 1 < nch else nh
        lang0, langk = int(lang1[k - 1]), int(lang1[k])
        if langk == lang0:
            prior_linear = this_linear
            continue
        cs0 = int(langs.CLOSE_SET[lang0])
        if cs0 > 0 and cs0 == int(langs.CLOSE_SET[langk]):
            prior_linear = this_linear
            continue
        linear0, linear2 = prior_linear, next_linear
        if linear2 - linear0 > 8:
            # per-hit score difference lang0 - lang1 from the
            # decoded langprob lanes (GetLangScore analogue)
            sl3 = l3[linear0:linear2]
            sq3 = q3[linear0:linear2]
            d = ((sq3 * (sl3 == lang0)).sum(axis=1)
                 - (sq3 * (sl3 == langk)).sum(axis=1)).astype(np.int64)
            c = np.concatenate([[0], np.cumsum(d)])
            n = len(d)
            # running[i] = sum(d[i:i+4]) - sum(d[i+4:i+8]),
            # window start i in [0, n-8)
            i_arr = np.arange(0, n - 8)
            running = (c[i_arr + 4] - c[i_arr]) \
                - (c[i_arr + 8] - c[i_arr + 4])
            pos = d > 0
            neg = d < 0
            cp = np.concatenate([[0], np.cumsum(pos)])
            cn = np.concatenate([[0], np.cumsum(neg)])
            has_pm = ((cp[i_arr + 8] - cp[i_arr]) > 0) \
                & ((cn[i_arr + 8] - cn[i_arr]) > 0)
            # first strictly-better maximum, matching the
            # sequential scan's "<" update rule
            cand = np.where(has_pm, running, np.iinfo(np.int64).min)
            best = int(np.argmax(cand))
            if cand[best] > 0:
                this_linear = linear0 + best + 4
        bidx[k] = this_linear
        prior_linear = this_linear
    return bidx


def detect_ranges_numpy(det, text: str,
                        hint_langs=None) -> list[tuple[int, int, str]]:
    """detect_ranges by the numpy chain, span by span: MANY spans
    through many_hits -> zeros-expected chunk scoring ->
    sharpen_boundaries, other spans through _score_span.
    ``hint_langs`` (detect_batch's per-document hints) add their
    priors to the chunk scores, as in detect_batch(with_ranges=True)."""
    if _codepoints(text).size == 0:
        return []
    hl = _hint_payloads(hint_langs)

    raw: list = []   # per-span (start_char, end_char, lid) triples
    for sp in spans.script_spans(text):
        rt = det._rtype(sp.script)
        if rt == us.RTYPE_MANY:
            sb = sp.text.encode("utf-8")
            vals, offs, rdist = many_hits(
                det, sb, np.array([len(sb)], dtype=np.int64),
                np.array([sp.script == us.LATIN]))
            if len(vals) == 0:
                raw.append(_one_range(sp.offset, sp.end_offset,
                                      langs.UNKNOWN))
                continue
            lat = sp.script == us.LATIN
            l3, q3 = unpack_langprobs(vals)
            # delta-reliability only for the per-chunk "un" gate:
            # the expected-rate check (exact 1.5x/4.0x ramp) is a
            # DOCUMENT-level calibration signal; at single-chunk
            # granularity in-vocabulary text overshoots the 4x
            # high cutoff and would shred one-language documents
            # into un fragments (expected=0 means "no estimate"
            # -> rel_e=100 -> rel=rel_delta)
            lang1, _cb, _s1, rel = _score_one_span(
                l3, q3, offs, len(sb), score.CHUNKSIZE_QUADS,
                np.zeros_like(det.model.expected_quad),
                distinct_mask=rdist,
                script4=int(us.LSCRIPT4[sp.script]),
                hints=hl[0 if lat else 1] if hl else None)
            bidx = sharpen_boundaries(
                lang1, l3, q3, score.CHUNKSIZE_QUADS, len(offs))
            raw.append(_many_span_ranges(
                sp.offset, sp.end_offset, sp.text_utf8, sp.letter_pos,
                lang1, rel, offs[bidx]))
        else:
            tote = DocTote()
            _score_span(det, sp, tote, hl[1] if hl else None)
            raw.append(_one_range(sp.offset, sp.end_offset,
                                  _tote_range_lang(tote)))
    return _merge_ranges(text, raw)


def _score_one_span(l3, q3, offsets, span_len: int, chunk_size: int,
                    expected_1kb, distinct_mask=None, script4: int = 3,
                    hints=None):
    """score.score_chunks_multi on one span: per-chunk (lang1, cbytes,
    s1, rel) — the numpy oracles' chunk scorer; ``hints`` is the span's
    packed hint payload."""
    return score.score_chunks_multi(
        l3, q3, offsets, np.zeros(len(offsets), dtype=np.int64),
        np.zeros(1, dtype=np.int64), np.array([span_len], dtype=np.int64),
        np.array([chunk_size], dtype=np.int64), expected_1kb,
        hint_payload_per_span=[hints] if hints else None,
        distinct_mask=distinct_mask,
        script4_of_span=np.array([script4], dtype=np.int64))[:4]
