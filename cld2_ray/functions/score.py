"""Chunk scoring and the detection result types.

Reimplements, with the reference's exact integer math:

* chunking + per-chunk Tote top-2 (reference: internal/
  scoreonescriptspan.cc:978-1031 ChunkAll, :208-259 ScoreOneChunk;
  chunk sizes kChunksizeQuads=20 / kChunksizeUnis=50,
  scoreonescriptspan.h:91-92),
* ReliabilityDelta / ReliabilityExpected (cldutil.cc:553-605).

The document stage that turns chunk scores into a result (DocTote with
its 24-slot cap, RefineScoredClosePairs, RemoveUnreliableLanguages,
ExtractLangEtc, CalcSummaryLang; compact_lang_det_impl.cc:981-1522)
runs for a whole batch in one C call, quadscan.c ``doc_stage``; its
Python oracle is tests/oracles/docstage.py. ``DetectColumns`` holds
that call's per-document columns and reads as a sequence of
``DetectResult``; ``Ranges`` holds the language ranges of a batch.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import langs

CHUNKSIZE_QUADS = 40  # reference: 20 at stride-2 sampling (~40 letters);
                      # this engine samples densely, so 40 hits covers the
                      # same ~40-letter window per chunk
CHUNKSIZE_UNIS = 50
MIN_GRAM_COUNT = 3
MAX_GRAM_COUNT = 16
MIN_RELIABLE_KEEP_PERCENT = 41


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
    the per-cell calibration of the expected table (tools/calib.py)
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


@dataclass(eq=False)
class DetectColumns(Sequence):
    """Per-document detection results of a batch as numpy columns (the
    outputs of native.doc_stage), readable as a Sequence[DetectResult].

    summary int64[n]; lang3, pct3 int64[n, 3]; nscore3 float64[n, 3];
    text_bytes int64[n]; reliable bool[n]; good bool[n] is the first
    scoring pass's Repeats-retry test (False: the document was
    re-scored)."""
    summary: np.ndarray
    lang3: np.ndarray
    pct3: np.ndarray
    nscore3: np.ndarray
    text_bytes: np.ndarray
    reliable: np.ndarray
    good: np.ndarray

    _RESULT = ("summary", "lang3", "pct3", "nscore3", "text_bytes",
               "reliable")

    def __len__(self) -> int:
        return len(self.summary)

    def __getitem__(self, i: int) -> DetectResult:
        return self._result(*(getattr(self, k)[i].tolist()
                              for k in self._RESULT))

    def __iter__(self):
        return map(self._result,
                   *(getattr(self, k).tolist() for k in self._RESULT))

    @staticmethod
    def _result(summary, lang3, pct3, nscore3, text_bytes, reliable):
        return DetectResult(summary, tuple(lang3), tuple(pct3),
                            tuple(nscore3), text_bytes, reliable)

    def take_rows(self, rows: np.ndarray, src: "DetectColumns",
                  src_rows: np.ndarray) -> None:
        """Overwrite the result columns of ``rows`` with ``src``'s
        ``src_rows`` (``good`` keeps the first pass's test)."""
        for k in self._RESULT:
            getattr(self, k)[rows] = getattr(src, k)[src_rows]


@dataclass(eq=False)
class Ranges(Sequence):
    """Per-document language ranges of a batch as numpy columns (the
    ranges pass of langid.Detector), readable as a sequence of
    [(byte_offset, byte_len, lang_code), ...] lists: document d owns
    entries doc_ptr[d]:doc_ptr[d+1], whose start/end are byte offsets
    into its text and lid the range's language."""
    doc_ptr: np.ndarray
    start: np.ndarray
    end: np.ndarray
    lid: np.ndarray

    def __len__(self) -> int:
        return len(self.doc_ptr) - 1

    def __getitem__(self, d: int) -> list[tuple[int, int, str]]:
        k = slice(self.doc_ptr[d], self.doc_ptr[d + 1])
        return [(a, e - a, langs.lang_code(lid)) for a, e, lid in zip(
            self.start[k].tolist(), self.end[k].tolist(),
            self.lid[k].tolist())]
