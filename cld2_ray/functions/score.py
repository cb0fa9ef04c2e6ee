"""Chunk and document scoring — the Naive-Bayes summarization chain.

Reimplements, with the reference's exact integer math:

* chunking + per-chunk Tote top-2 (reference: internal/
  scoreonescriptspan.cc:978-1031 ChunkAll, :208-259 ScoreOneChunk;
  chunk sizes kChunksizeQuads=20 / kChunksizeUnis=50,
  scoreonescriptspan.h:91-92),
* ReliabilityDelta / ReliabilityExpected (cldutil.cc:553-605),
* DocTote accumulation with the 24-slot cap (tote.h:67-108),
* RefineScoredClosePairs (compact_lang_det_impl.cc:1152-1203),
* RemoveUnreliableLanguages with closest-alt merging
  (compact_lang_det_impl.cc:981-1101, threshold 41%),
* ExtractLangEtc percent rounding fix + normalized score
  (compact_lang_det_impl.cc:1268-1384),
* CalcSummaryLang — English/FIGS boilerplate rules, 26%/51%/20%
  thresholds, Tier-3 128-byte second-language rule
  (compact_lang_det_impl.cc:1414-1522).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import langs

CHUNKSIZE_QUADS = 40  # reference: 20 at stride-2 sampling (~40 letters);
                      # this engine samples densely, so 40 hits covers the
                      # same ~40-letter window per chunk
CHUNKSIZE_UNIS = 50
MIN_GRAM_COUNT = 3
MAX_GRAM_COUNT = 16
MIN_RELIABLE_KEEP_PERCENT = 41
DOC_TOTE_SLOTS = 24

GOOD_LANG1_PERCENT = 70
GOOD_LANG1AND2_PERCENT = 93
SHORT_TEXT_THRESH = 256
NON_EN_BOILERPLATE_MIN_PERCENT = 17
NON_FIGS_BOILERPLATE_MIN_PERCENT = 20
GOOD_FIRST_MIN_PERCENT = 26
GOOD_FIRST_RELIABLE_MIN_PERCENT = 51
IGNORE_MAX_PERCENT = 20
KEEP_MIN_PERCENT = 2
GOOD_SECOND_T1T2_MIN_BYTES = 15
GOOD_SECOND_T3_MIN_BYTES = 128


def reliability_delta(value1: np.ndarray, value2: np.ndarray,
                      gramcount: np.ndarray) -> np.ndarray:
    """Vectorized ReliabilityDelta (cldutil.cc:553-571)."""
    v1 = value1.astype(np.int64)
    v2 = value2.astype(np.int64)
    g = gramcount.astype(np.int64)
    max_rel = np.where(g < 8, 12 * g, 100)
    thresh = np.clip((g * 5) >> 3, MIN_GRAM_COUNT, MAX_GRAM_COUNT)
    delta = v1 - v2
    rel = np.where(delta >= thresh, max_rel,
                   np.where(delta <= 0, 0,
                            np.minimum(max_rel, (100 * delta) // thresh)))
    return rel


def reliability_expected_exact(actual_1kb: np.ndarray,
                               expected_1kb: np.ndarray) -> np.ndarray:
    """The reference's EXACT ReliabilityExpected (cldutil.cc:586-605):
    symmetric ratio; <= 1.5 -> 100%, > 4.0 -> 0%, linear between
    (int truncation as in the C code). Production uses this formula:
    the per-cell calibration of the expected table (data/calib.py)
    is what lets the exact 1.5..4.0 cutoffs hold."""
    a = actual_1kb.astype(np.int64)
    e = expected_1kb.astype(np.int64)
    out = np.full(len(a), 100, dtype=np.int64)
    has_exp = e != 0
    zero_act = (a == 0) & has_exp
    both = has_exp & ~zero_act
    af = a.astype(np.float64)
    ef = e.astype(np.float64)
    ratio = np.ones(len(a))
    hi = both & (e > a)
    lo = both & (e <= a)
    np.divide(ef, np.maximum(af, 1e-300), out=ratio, where=hi)
    np.divide(af, np.maximum(ef, 1e-300), out=ratio, where=lo)
    ramp = (100.0 * (4.0 - ratio) / (4.0 - 1.5)).astype(np.int64)
    sel = both & (ratio > 1.5)
    out[sel] = np.where(ratio[sel] > 4.0, 0, ramp[sel])
    out[zero_act] = 0
    return out


def _top2(scores: np.ndarray):
    """Deterministic per-chunk top-2: ties break toward the SMALLER
    language id (both here and in the C kernel — np.argsort's quicksort
    tie order is implementation-defined, which would make the two paths
    drift on equal-score chunks)."""
    nl = scores.shape[1]
    keyed = scores * np.int64(nl) + np.arange(nl - 1, -1, -1, dtype=np.int64)
    order = np.argsort(keyed, axis=1)
    top1 = order[:, -1]
    top2 = order[:, -2]
    s1 = np.take_along_axis(scores, top1[:, None], axis=1)[:, 0]
    s2 = np.take_along_axis(scores, top2[:, None], axis=1)[:, 0]
    return top1, top2, s1, s2


def _ring_add(scores: np.ndarray, lang3: np.ndarray, qprob3: np.ndarray,
              chunk_hi: np.ndarray, ring_floor: np.ndarray,
              distinct_mask: np.ndarray | None) -> None:
    """Distinct-boost ring (AddDistinctBoost2 + ScoreBoosts, reference
    scoreonescriptspan.cc:112-152): every chunk re-adds the langprobs
    of the <= 4 most recent DISTINCT hits seen so far (ring scoped to
    the span; ring_floor = per-chunk index of the span's first distinct
    hit in the distinct-index array)."""
    if distinct_mask is None or not distinct_mask.any():
        return
    D = np.flatnonzero(distinct_mask)
    kk = np.searchsorted(D, chunk_hi)              # distincts before hi
    lo = np.maximum(kk - 4, ring_floor)
    counts = (kk - lo).astype(np.int64)
    if counts.sum() == 0:
        return
    chunks = np.repeat(np.arange(len(chunk_hi)), counts)
    # flatten the per-chunk [lo, kk) ranges
    starts = np.repeat(lo, counts)
    within = np.arange(len(chunks)) - np.repeat(
        np.concatenate([[0], np.cumsum(counts)[:-1]]), counts)
    hits_idx = D[starts + within]
    flat = (np.repeat(chunks, lang3.shape[1]) * langs.NUM_LANGS
            + lang3[hits_idx].ravel().astype(np.int64))
    add = np.bincount(flat, weights=qprob3[hits_idx].ravel(),
                      minlength=scores.size).reshape(scores.shape)
    scores += add.astype(np.int64)
    scores[:, langs.UNKNOWN] = 0


def score_chunks_multi(lang3: np.ndarray, qprob3: np.ndarray,
                       offsets: np.ndarray, span_of: np.ndarray,
                       span_starts: np.ndarray, span_lens: np.ndarray,
                       chunk_sizes: np.ndarray, expected_1kb: np.ndarray,
                       hint_payload_per_span: list | None = None,
                       distinct_mask: np.ndarray | None = None,
                       script4_of_span: np.ndarray | None = None):
    """Score concatenated spans' hits in fixed-size chunks, per span.

    lang3/qprob3: (n_hits, lanes) decoded langprobs (4 lanes); offsets:
    byte offset of each hit, sorted by (span, offset) with
    quad-before-octa tie order; span_of: each hit's span. Returns per
    chunk (lang1, cbytes, s1, rel, span_of_chunk) — exactly what
    SummaryBufferToDocTote feeds the DocTote
    (scoreonescriptspan.cc:305-315).

    expected_1kb: int32[NUM_LANGS] or int32[NUM_LANGS, 4]; in the 2-D
    (kAvgDeltaOctaScore) layout each chunk reads its span's LScript4
    slot from ``script4_of_span`` (slot 3 when omitted).

    The numpy oracle of native.quad_octa_chunk_score and
    native.cjk_chunk_score, which run this chain at runtime. It stays
    in this module, not tests/oracles/, because it is both the oracles'
    chunk scorer and a patch point of perfbench/tracing.py.
    """
    nspans = len(span_lens)
    nh = len(offsets)
    if nh == 0:
        return (np.empty(0, np.int16), np.empty(0, np.int64),
                np.empty(0, np.int64), np.empty(0, np.int64),
                np.empty(0, np.int64))
    counts = np.bincount(span_of, minlength=nspans)
    first = np.concatenate([[0], np.cumsum(counts)[:-1]])
    local = np.arange(nh) - first[span_of]
    nchunks_span = np.maximum(counts // chunk_sizes,
                              (counts > 0).astype(np.int64))
    nchunks_span = np.where(counts > 0, nchunks_span, 0)
    chunk_base = np.concatenate([[0], np.cumsum(nchunks_span)[:-1]])
    chunk_local = np.minimum(local // chunk_sizes[span_of],
                             np.maximum(nchunks_span[span_of] - 1, 0))
    gchunk = chunk_base[span_of] + chunk_local
    total_chunks = int(nchunks_span.sum())

    flat = (np.repeat(gchunk, lang3.shape[1]) * langs.NUM_LANGS
            + lang3.ravel().astype(np.int64))
    scores = np.bincount(flat, weights=qprob3.ravel(),
                         minlength=total_chunks * langs.NUM_LANGS) \
        .reshape(total_chunks, langs.NUM_LANGS).astype(np.int64)
    scores[:, langs.UNKNOWN] = 0
    grams = np.bincount(gchunk, minlength=total_chunks)
    span_of_chunk = np.repeat(np.arange(nspans), nchunks_span)

    # distinct-boost ring, per chunk, scoped to its span
    if distinct_mask is not None and total_chunks:
        chunk_base_g = np.repeat(np.arange(nspans), nchunks_span)
        chunk_pos_g = np.arange(total_chunks) - chunk_base[chunk_base_g]
        chunk_hi_local = np.minimum(
            (chunk_pos_g + 1) * chunk_sizes[chunk_base_g],
            counts[chunk_base_g])
        is_last_g = chunk_pos_g == nchunks_span[chunk_base_g] - 1
        chunk_hi_local = np.where(is_last_g, counts[chunk_base_g],
                                  chunk_hi_local)
        chunk_hi_g = first[chunk_base_g] + chunk_hi_local
        D = np.flatnonzero(distinct_mask)
        ring_floor = np.searchsorted(D, first[chunk_base_g])
        _ring_add(scores, lang3, qprob3, chunk_hi_g, ring_floor,
                  distinct_mask)

    if hint_payload_per_span is not None:
        for si, hl in enumerate(hint_payload_per_span):
            if not hl or nchunks_span[si] == 0:
                continue
            idx = np.arange(chunk_base[si],
                            chunk_base[si] + nchunks_span[si])
            for v in hl:
                if v >= 0:
                    scores[idx, v & 0xFFFF] += (v >> 16)
                else:
                    scores[idx, -v] = 0

    top1, top2, s1, s2 = _top2(scores)

    hfirst = np.searchsorted(gchunk, np.arange(total_chunks))
    local_start = offsets[hfirst] - span_starts[span_of_chunk]
    chunk_pos = np.arange(total_chunks) - chunk_base[span_of_chunk]
    is_last = chunk_pos == nchunks_span[span_of_chunk] - 1
    next_start = np.append(local_start[1:], 0)
    ends = np.where(is_last, span_lens[span_of_chunk], next_start)
    cbytes = np.maximum(ends - local_start, 1)

    rel_d = reliability_delta(s1, s2, grams)
    cs1 = langs.CLOSE_SET[top1]
    same_set = (cs1 > 0) & (cs1 == langs.CLOSE_SET[top2])
    rel_d = np.where(same_set, 100, rel_d)
    actual_1kb = (s1 << 10) // cbytes
    if expected_1kb.ndim == 2:
        s4 = (script4_of_span[span_of_chunk].astype(np.int64)
              if script4_of_span is not None
              else np.full(total_chunks, 3, dtype=np.int64))
        exp = expected_1kb[top1, s4]
    else:
        exp = expected_1kb[top1]
    rel_e = reliability_expected_exact(actual_1kb, exp)
    rel = np.minimum(rel_d, rel_e)
    return top1.astype(np.int16), cbytes, s1, rel, span_of_chunk


def is_good(res: "DetectResult", total_text_bytes: int) -> bool:
    """The Repeats-retry accept rule (compact_lang_det_impl.cc:
    1979-2106): a first-pass result stands when the text is short, or
    when it is reliable and its top language (or top two) dominate."""
    return (total_text_bytes <= SHORT_TEXT_THRESH
            or (res.is_reliable
                and (res.percent3[0] >= GOOD_LANG1_PERCENT
                     or res.percent3[0] + res.percent3[1]
                     >= GOOD_LANG1AND2_PERCENT)))


@dataclass
class DocTote:
    """Per-document accumulator: lang -> (bytes, score, reliability*bytes)
    with the reference's 24-slot cap (tote.h:67-108, evict smallest)."""
    bytes_: dict[int, int] = field(default_factory=dict)
    score: dict[int, int] = field(default_factory=dict)
    rel: dict[int, int] = field(default_factory=dict)

    def add(self, lang: int, nbytes: int, score: int, reliability: int) -> None:
        if lang in self.bytes_:
            self.bytes_[lang] += nbytes
            self.score[lang] += score
            self.rel[lang] += reliability * nbytes
            return
        if len(self.bytes_) >= DOC_TOTE_SLOTS:
            smallest = min(self.bytes_, key=lambda k: self.bytes_[k])
            if self.bytes_[smallest] >= nbytes:
                return
            del self.bytes_[smallest], self.score[smallest], self.rel[smallest]
        self.bytes_[lang] = nbytes
        self.score[lang] = score
        self.rel[lang] = reliability * nbytes

    def add_chunks(self, lang1, cbytes, s1, rel) -> None:
        for i in range(len(lang1)):
            li = int(lang1[i])
            if li != langs.UNKNOWN:
                self.add(li, int(cbytes[i]), int(s1[i]), int(rel[i]))

    def merge(self, src: int, dst: int, new_rel_percent: int | None = None) -> None:
        nb = self.bytes_.pop(src, 0)
        ns = self.score.pop(src, 0)
        nr = self.rel.pop(src, 0)
        if dst in self.bytes_:
            self.bytes_[dst] += nb
            self.score[dst] += ns
            self.rel[dst] += nr
        else:
            self.bytes_[dst] = nb
            self.score[dst] = ns
            self.rel[dst] = nr
        if new_rel_percent is not None:
            self.rel[dst] = new_rel_percent * self.bytes_[dst]


def refine_close_pairs(tote: DocTote) -> None:
    """RefineScoredClosePairs (compact_lang_det_impl.cc:1152-1203):
    within a statistically-close set, move the loser's bytes/score to
    the winner."""
    by_set: dict[int, list[int]] = {}
    for lid in list(tote.bytes_):
        cs = langs.language_close_set(lid)
        if cs:
            by_set.setdefault(cs, []).append(lid)
    for members in by_set.values():
        if len(members) < 2:
            continue
        members.sort(key=lambda lid: (-tote.score.get(lid, 0), lid))
        winner = members[0]
        for loser in members[1:]:
            tote.merge(loser, winner)


def remove_unreliable(tote: DocTote) -> None:
    """RemoveUnreliableLanguages (compact_lang_det_impl.cc:997-1101):
    languages with reliability% < 41 are merged into their closest-alt
    language if it is present, else deleted. zh/zh-Hant pair is never
    fully deleted — both merge into zh."""
    zh, zht = langs.lang_id("zh"), langs.lang_id("zh-Hant")

    def rel_pct(lid: int) -> int:
        b = tote.bytes_.get(lid, 0)
        return tote.rel.get(lid, 0) // b if b else 0

    for lid in sorted(tote.bytes_):
        if lid not in tote.bytes_ or rel_pct(lid) >= MIN_RELIABLE_KEEP_PERCENT:
            continue
        alt = int(langs.CLOSEST_ALT[lid])
        if alt and alt in tote.bytes_:
            rp, ra = rel_pct(lid), rel_pct(alt)
            # merge into the more reliable of the two
            src, dst = (lid, alt) if (ra > rp or (ra == rp and alt < lid)) else (alt, lid)
            newpct = max(rp, ra, MIN_RELIABLE_KEEP_PERCENT)
            tote.merge(src, dst, newpct)

    both_zh = zh in tote.bytes_ and zht in tote.bytes_
    for lid in sorted(tote.bytes_):
        if lid in tote.bytes_ and rel_pct(lid) < MIN_RELIABLE_KEEP_PERCENT:
            if both_zh and lid in (zh, zht):
                if lid == zht:
                    tote.merge(zht, zh, MIN_RELIABLE_KEEP_PERCENT)
                continue
            del tote.bytes_[lid], tote.score[lid], tote.rel[lid]


@dataclass
class DetectResult:
    summary_lang: int
    language3: tuple[int, int, int]
    percent3: tuple[int, int, int]
    normalized_score3: tuple[float, float, float]
    text_bytes: int
    is_reliable: bool

    @property
    def summary_code(self) -> str:
        return langs.lang_code(self.summary_lang)


def extract_lang_etc(tote: DocTote, total_text_bytes: int):
    """ExtractLangEtc (compact_lang_det_impl.cc:1277-1384) — top-3 by
    bytes, cumulative-difference percent rounding, normalized scores."""
    top = sorted(tote.bytes_, key=lambda k: (-tote.bytes_[k], k))[:3]
    language3 = [langs.UNKNOWN] * 3
    bytecount = [0, 0, 0]
    nscore = [0.0, 0.0, 0.0]
    relpct = [0, 0, 0]
    for i, lid in enumerate(top):
        language3[i] = lid
        bytecount[i] = tote.bytes_[lid]
        b = bytecount[i] or 1
        relpct[i] = tote.rel[lid] // b
        nscore[i] = float((tote.score[lid] << 10) // b) if bytecount[i] > 0 else 0.0

    total12 = bytecount[0] + bytecount[1]
    total123 = total12 + bytecount[2]
    total = max(total_text_bytes, total123)
    div = max(1, total)
    p0 = (bytecount[0] * 100) // div
    p1 = (total12 * 100) // div
    p2 = (total123 * 100) // div
    p2 -= p1
    p1 -= p0
    # explicit roundoff fix (impl.cc:1353-1362)
    if p1 < p2:
        p1 += 1
        p2 -= 1
    if p0 < p1:
        p0 += 1
        p1 -= 1
    percent3 = [p0, p1, p2]

    is_reliable = False
    if language3[0] != langs.UNKNOWN:
        is_reliable = relpct[0] >= MIN_RELIABLE_KEEP_PERCENT
    ignore_percent = 100 - sum(percent3)
    if ignore_percent > IGNORE_MAX_PERCENT:
        is_reliable = False
    return language3, percent3, nscore, total, is_reliable


def calc_summary_lang(language3, percent3, total_text_bytes,
                      best_effort: bool = False, declared=None):
    """CalcSummaryLang (compact_lang_det_impl.cc:1414-1522).

    ``declared`` (optional, a set of lang ids; default None = exact
    reference behavior): languages the PAGE explicitly declares
    (content-language meta / lang= attribute — not TLD or charset).
    The En/FIGS boilerplate flips below exist to discount navigation
    boilerplate in the top language (impl.cc:1452-1455 "assume the
    English is boilerplate"); when the page explicitly declares the
    top language, that premise is contradicted, so the flip is
    suppressed. Pipeline-level refinement, OFF by default — the
    per-document public API keeps reference-exact summaries."""
    slot = [0, 1, 2]
    ignore_percent = 0
    return_percent = percent3[0]
    summary = language3[0]
    reliable = True
    if percent3[0] < KEEP_MIN_PERCENT:
        reliable = False
    # (TG_UNKNOWN removal does not apply: this engine has no "ignore"
    # pseudo-language in its doc tote)

    second = language3[slot[1]]
    second_bytes = (total_text_bytes * percent3[slot[1]]) // 100
    minbytes = (GOOD_SECOND_T3_MIN_BYTES
                if langs.TIER[second] == 3 else GOOD_SECOND_T1T2_MIN_BYTES)

    first = language3[slot[0]]
    first_declared = bool(declared) and first in declared
    if (first == langs.ENGLISH and second != langs.ENGLISH
            and second != langs.UNKNOWN
            and not first_declared
            and percent3[slot[1]] >= NON_EN_BOILERPLATE_MIN_PERCENT
            and second_bytes >= minbytes):
        ignore_percent += percent3[slot[0]]
        return_percent = (percent3[slot[1]] * 100) // (101 - ignore_percent)
        summary = second
        if percent3[slot[1]] < KEEP_MIN_PERCENT:
            reliable = False
    elif (first in langs.FIGS and second not in langs.EFIGS
            and second != langs.UNKNOWN
            and not first_declared
            and percent3[slot[1]] >= NON_FIGS_BOILERPLATE_MIN_PERCENT
            and second_bytes >= minbytes):
        ignore_percent += percent3[slot[0]]
        return_percent = (percent3[slot[1]] * 100) // (101 - ignore_percent)
        summary = second
        if percent3[slot[1]] < KEEP_MIN_PERCENT:
            reliable = False
    elif second == langs.ENGLISH and first != langs.ENGLISH:
        ignore_percent += percent3[slot[1]]
        return_percent = (percent3[slot[0]] * 100) // (101 - ignore_percent)
    elif second in langs.FIGS and first not in langs.EFIGS:
        ignore_percent += percent3[slot[1]]
        return_percent = (percent3[slot[0]] * 100) // (101 - ignore_percent)

    if return_percent < GOOD_FIRST_MIN_PERCENT and not best_effort:
        summary = langs.UNKNOWN
        reliable = False
    if return_percent < GOOD_FIRST_RELIABLE_MIN_PERCENT:
        reliable = False
    ignore = 100 - sum(percent3)
    if ignore > IGNORE_MAX_PERCENT:
        reliable = False

    # Declared-language preference (pipeline-level, opt-in like the
    # flip suppression above; None = reference-exact): when the page
    # explicitly declares one of the DETECTED languages and the
    # calculus chose a different one, the declaration outweighs a
    # byte-majority from an embedded foreign-language section (the
    # common mixed-page case: a site-language page quoting a long CJK
    # passage, where 3-byte chars win the byte count). Applied after
    # the reliability gates with `reliable` untouched, so keep/drop
    # and the reliability column are unchanged — only the summary
    # attribution moves, and only to a language that carries at least
    # the boilerplate-grade share of the page.
    if declared and summary not in declared and summary != langs.UNKNOWN:
        for s in range(3):
            lid = language3[s]
            if lid == langs.UNKNOWN or lid not in declared:
                continue
            thresh = (NON_EN_BOILERPLATE_MIN_PERCENT
                      if lid == langs.ENGLISH
                      else NON_FIGS_BOILERPLATE_MIN_PERCENT)
            lbytes = (total_text_bytes * percent3[s]) // 100
            if percent3[s] >= thresh and lbytes >= GOOD_SECOND_T1T2_MIN_BYTES:
                summary = lid
                break
            # a declared lang below ITS threshold doesn't end the
            # search: a later declared ENGLISH slot has a lower
            # threshold (17 vs 20) and can still qualify
    return summary, reliable
