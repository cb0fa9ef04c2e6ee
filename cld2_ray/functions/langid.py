"""Document-level language detection — the DetectLanguageSummaryV2
analogue (reference: internal/compact_lang_det_impl.cc:1707-2106).

Every scoring call runs one batch pass, ``Detector.detect_batch``
(detect() is a batch of one; detect_ranges reads the same pass's
ranges output), column-wise over the whole batch. It encodes the
texts once, into one UTF-8 buffer (native.utf8_cat), and every step
that reads text reads that buffer or one made from it:
  CheapSqueeze pre-pass (one native.cheap_squeeze call: the gate and
  the rewrite, the batch copied otherwise) -> script spans as one
  span table (spans.SpanTable) -> one fused C hit-scan + chunk-score
  call per script class over the table's buffer (_fill_totes) -> the
  document stage in one C call (_finalize: DocTote, close-pair
  refinement, unreliable removal, top-3 + percents, summary calculus,
  good test) -> one more pass with repeat-word removal for every doc
  that is not good (the Repeats retry, impl.cc:1979-2106), accepted
  by numpy over the result columns.

Hints and declared languages arrive as arrays (hints.Priors,
hints.Declared; list inputs are converted to them): each distinct
prior row is encoded once (hints.payloads), into one payload table
per batch that both passes gather into the kernels' CSR (_payloads).

detect_batch returns score.DetectColumns: numpy columns that also read
as a sequence of DetectResult; with_ranges adds score.Ranges from a few
numpy passes over the whole batch (_span_ranges, _text_ranges, which
maps chars to bytes on the entry buffer). The flagship kernel
(stages.core.fused_batch) and the single-process oracle call the same
Detector, which is what makes pipeline-vs-oracle equality exact.
tests/oracles/docstage.py is the Python document stage this pass is
held to, tests/oracles/langid.py the numpy ranges chain.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

import numpy as np

from . import langs, score, spans, uscript as us
from cld2_ray import native
from . import hints as hints_mod

# native.doc_stage's language table: close set, closest alternative,
# tier, 1=FIGS | 2=EFIGS
_LANG_PROPS = np.stack([
    langs.CLOSE_SET.astype(np.int64), langs.CLOSEST_ALT.astype(np.int64),
    langs.TIER.astype(np.int64),
    np.array([(lid in langs.FIGS) | 2 * (lid in langs.EFIGS)
              for lid in range(langs.NUM_LANGS)], dtype=np.int64)], axis=1)
_LANG_IDS = np.array([langs.UNKNOWN, langs.ENGLISH, langs.lang_id("zh"),
                      langs.lang_id("zh-Hant")], dtype=np.int64)


def _csr(lists: list) -> tuple[np.ndarray, np.ndarray]:
    """Per-item int lists (None = empty) -> CSR form (csr int64[n+1],
    flat int64[]): item k is flat[csr[k]:csr[k+1]]."""
    csr = np.cumsum([0] + [len(hl) if hl else 0 for hl in lists])
    return csr, np.fromiter(chain.from_iterable(hl for hl in lists if hl),
                            dtype=np.int64, count=int(csr[-1]))


def _priors(hints_list, n: int) -> hints_mod.Priors:
    """detect_batch's hints argument as hints.Priors: None (no hints),
    Priors as they are, or a list of per-document entries, each None or
    a list of lang ids (an explicit caller hint: LANGUAGE_WEIGHT each,
    SetCLDLanguageHint, hint_code.cc:1503-1506) or of (lang_id, weight)
    priors."""
    if isinstance(hints_list, hints_mod.Priors):
        return hints_list
    rows = [[h if isinstance(h, tuple) else (h, hints_mod.LANGUAGE_WEIGHT)
             for h in hl] if hl else [] for hl in hints_list or [None] * n]
    pri = np.zeros((2, n, max(map(len, rows), default=0) or 1),
                   dtype=np.int64)
    for d, row in enumerate(rows):
        if row:
            pri[:, d, :len(row)] = np.array(row, dtype=np.int64).T
    return hints_mod.Priors(*pri)


def _declared(declared_list, n: int) -> hints_mod.Declared:
    """detect_batch's declared argument as hints.Declared: None (none
    declared), Declared as it is, or a list of per-document sets of
    lang ids (None = empty)."""
    if isinstance(declared_list, hints_mod.Declared):
        return declared_list
    return hints_mod.Declared(*_csr(declared_list or [None] * n))


def _payloads(pri: hints_mod.Priors):
    """The chunk kernels' hint payloads of each document: (lo, hi)
    int64[n, 2] and flat, document d's Latin-class payload
    flat[lo[d, 0]:hi[d, 0]] and its other-class payload
    flat[lo[d, 1]:hi[d, 1]]. hints.payloads runs once per distinct
    prior row."""
    n, k = pri.lid.shape
    if not pri.lid.any():
        zero = np.zeros((n, 2), dtype=np.int64)
        return zero, zero, np.zeros(0, dtype=np.int64)
    rows, inv = np.unique(np.concatenate([pri.lid, pri.w], axis=1),
                          axis=0, return_inverse=True)
    per_row = [hints_mod.payloads([(lid, w) for lid, w in zip(r[:k], r[k:])
                                   if lid]) for r in rows.tolist()]
    lens = np.array([len(p) for row in per_row for p in row],
                    dtype=np.int64)
    ends = np.cumsum(lens)
    flat = np.fromiter(chain.from_iterable(p for row in per_row for p in row),
                       dtype=np.int64, count=int(ends[-1]))
    inv = inv.reshape(-1)
    return (ends - lens).reshape(-1, 2)[inv], ends.reshape(-1, 2)[inv], flat


def _gather_csr(lo: np.ndarray, hi: np.ndarray, flat: np.ndarray):
    """The kernels' per-span CSR (csr, flat) of the payload slices
    flat[lo[k]:hi[k]]."""
    csr, idx = spans.index_runs(lo, hi)
    return csr, flat[idx]


def _span_ranges(table: spans.SpanTable, many: np.ndarray, c,
                 span_lid: np.ndarray):
    """(doc, start_char, end_char, lid) of every range of ``table``'s
    spans, in table order. A span is one range (offset, end_offset,
    span_lid) unless ``c``, the ranges output of
    native.quad_octa_chunk_score over the MANY rows ``many``, splits it
    into chunks: chunk k > 0 starts at the letter of its sharpened
    first hit (the kernel's ``cletter``), backed up to the start of its
    word (ItemToVector, scoreonescriptspan.cc:323-360), where chunk
    k - 1 ends. A chunk below MIN_RELIABLE_KEEP_PERCENT delta
    reliability reads UNKNOWN."""
    n = len(table.doc)
    cnt = np.ones(n, dtype=np.int64)
    lang1, _, _, _, soc, rel, cletter = c or (np.empty(0, np.int64),) * 7
    nch = np.bincount(soc, minlength=len(many))
    cnt[many] = np.maximum(nch, 1)
    row = np.repeat(np.arange(n), cnt)
    start, end = table.offset[row], table.end_offset[row]
    lid = span_lid[row]
    # chunk j is chunk k[j] of span row crow[j], range pos[j]
    crow = many[soc]
    k = np.arange(len(soc)) - (np.cumsum(nch) - nch)[soc]
    pos = (np.cumsum(cnt) - cnt)[crow] + k
    lid[pos] = np.where(rel >= score.MIN_RELIABLE_KEEP_PERCENT, lang1,
                        langs.UNKNOWN)
    split = np.flatnonzero(k > 0)
    if len(split):
        li = table.lp_start[crow[split]] + cletter[split]
        # the first letter of its word: a word is a run of consecutive
        # char indexes within one span
        lp = table.letter_pos
        gap = np.ones(len(lp), dtype=bool)
        gap[1:] = lp[1:] != lp[:-1] + 1
        gap[table.lp_start[table.lp_end > table.lp_start]] = True
        words = np.flatnonzero(gap)
        ch = lp[words[np.searchsorted(words, li, side="right") - 1]]
        start[pos[split]] = ch
        end[pos[split] - 1] = ch
    return table.doc[row], start, end, lid


def _text_ranges(texts, doc, start, end, lid) -> score.Ranges:
    """score.Ranges of ``texts``, an Arrow string column, from the
    (doc, start_char, end_char, lid) ranges of their spans, in document
    order: adjacent ranges of a document with the same language merge,
    and char offsets become byte offsets of the text."""
    new = np.ones(len(doc), dtype=bool)
    new[1:] = (doc[1:] != doc[:-1]) | (lid[1:] != lid[:-1])
    first = np.flatnonzero(new)
    last = (np.append(first[1:], len(doc)) - 1)[:len(first)]
    doc = doc[first]
    # byte offset of char c of text d: its char start, or the text's
    # end for c at or past its last char
    data, offsets = native.utf8_cat(texts)
    cs = np.append(np.flatnonzero((data & 0xC0) != 0x80), len(data))
    cp = np.searchsorted(cs, offsets)

    def to_bytes(ch):
        return cs[cp[doc] + np.minimum(ch, cp[doc + 1] - cp[doc])] \
            - offsets[doc]

    return score.Ranges(np.searchsorted(doc, np.arange(len(texts) + 1)),
                        to_bytes(start[first]), to_bytes(end[last]),
                        lid[first])


class Detector:
    """Holds the immutable LangModel; one instance per worker process
    (default_detector)."""

    def __init__(self, model=None, score_as_quads: bool = False,
                 echo: bool = False):
        """score_as_quads: the kCLDFlagScoreAsQuads analogue
        (compact_lang_det.h:342, scoreonescriptspan.cc:1318-1320) —
        scripts normally detected solely by their Unicode script
        (RTypeOne/None) are scored via quadgrams instead (CJK is
        unaffected). echo: the kCLDFlagEcho analogue — write each
        input's first 80 bytes to stderr before scoring."""
        if model is None:
            from cld2_ray.state.model import default_model
            model = default_model()
        self.model = model
        self.score_as_quads = score_as_quads
        self.echo = echo
        self._rtypes = np.array([self._rtype(sc)
                                 for sc in range(us.NUM_SCRIPTS)])

    def _rtype(self, script: int) -> int:
        rt = us.script_rtype(script)
        if (self.score_as_quads and rt != us.RTYPE_CJK
                and rt != us.RTYPE_MANY):
            return us.RTYPE_MANY
        return rt

    # -- scoring pass -------------------------------------------------------

    def _fill_totes(self, table: spans.SpanTable, payloads,
                    with_ranges: bool = False):
        """Batch span scorer over a span table (``len(table)`` documents):
        all MANY spans score through ONE fused C hit-scan + chunk-score
        call, all CJK spans through another, both reading the spans in
        place in the table's buffer; RTYPE_ONE spans add their bytes at
        reliability 100 (scoreonescriptspan.cc:1132-1160), RTYPE_NONE
        spans are ignored. ``payloads`` are the documents' _payloads.
        Returns the DocTote add streams for
        _finalize: (doc, lang, bytes, score, rel) of the RTYPE_ONE
        spans, then of the MANY chunks, then of the CJK chunks — the
        order each document's tote takes them in.

        with_ranges=True returns (streams, raw_ranges) from the SAME
        pass — the ResultChunkVector path (the reference emits the
        vector in the scoring pass that fills the tote,
        scoreonescriptspan.cc:1099-1111). raw_ranges are the unmerged
        (doc, start_char, end_char, lid) arrays of _span_ranges, for
        _text_ranges. Chunk scoring sees the per-span
        hint priors the document scoring uses, so a hinted page's chunk
        vector agrees with its summary (detect_ranges passes no
        hints)."""
        m = self.model
        rt = self._rtypes[table.script]
        doc, script, nbytes = table.doc, table.script, table.text_bytes
        lo, hi, flat = payloads

        one = np.flatnonzero(rt == us.RTYPE_ONE)
        streams = [(doc[one], langs.SCRIPT_DEFAULT_LANG[script[one]],
                    nbytes[one], nbytes[one], np.full(len(one), 100))]
        span_lid = np.where(rt == us.RTYPE_ONE,
                            langs.SCRIPT_DEFAULT_LANG[script],
                            langs.UNKNOWN)
        c = None
        many = np.flatnonzero(rt == us.RTYPE_MANY)
        if len(many):
            d, sc = doc[many], script[many]
            lat = sc == us.LATIN
            cls = (~lat).astype(np.int64)
            c = native.quad_octa_chunk_score(
                table.buf, table.start[many], table.end[many], m.quad,
                m.socta, m.docta, m.xocta, lat, score.CHUNKSIZE_QUADS,
                m.expected_quad, langs.CLOSE_SET,
                *_gather_csr(lo[d, cls], hi[d, cls], flat),
                us.LSCRIPT4[sc], with_ranges=with_ranges)
            lang1, cbytes, s1, rel, span_of_chunk = c[:5]
            streams.append((d[span_of_chunk], lang1, cbytes, s1, rel))
        cjk = np.flatnonzero(rt == us.RTYPE_CJK)
        if len(cjk):
            d = doc[cjk]
            lang1, cbytes, s1, rel, span_of_chunk = native.cjk_chunk_score(
                table.buf, table.start[cjk], table.end[cjk], nbytes[cjk],
                m.uni, m.cjkbi,
                score.CHUNKSIZE_UNIS, m.expected_uni, langs.CLOSE_SET,
                *_gather_csr(lo[d, 1], hi[d, 1], flat))
            streams.append((d[span_of_chunk], lang1, cbytes, s1, rel))
            if with_ranges:
                # one range per CJK span: the top language of a fresh
                # per-span tote (the document stage's DS_TOTE_TOP mode)
                span_lid[cjk] = self._doc_stage(
                    len(cjk), [(span_of_chunk, lang1, cbytes, s1, rel)],
                    np.zeros(len(cjk), np.int64), None,
                    native.DS_TOTE_TOP)["summary"]
        if not with_ranges:
            return streams
        return streams, _span_ranges(table, many, c, span_lid)

    @staticmethod
    def _doc_stage(n_docs: int, streams, totals, declared,
                   flags: int) -> dict:
        """native.doc_stage with this module's language tables;
        ``declared`` as detect_batch takes it (see _declared)."""
        return native.doc_stage(n_docs, streams, totals,
                                *_declared(declared, n_docs), flags,
                                _LANG_PROPS, _LANG_IDS)

    def _finalize(self, streams, totals: np.ndarray, best_effort: bool,
                  declared: hints_mod.Declared) -> score.DetectColumns:
        """The document stage of every document in ONE C call
        (quadscan.c doc_stage): each DocTote filled from the add
        ``streams`` of _fill_totes, then RefineScoredClosePairs,
        RemoveUnreliableLanguages (not under best_effort,
        impl.cc:1998), ExtractLangEtc, CalcSummaryLang with the
        document's declared set, and the Repeats-retry good test on
        ``totals`` (letter bytes per document)."""
        return score.DetectColumns(**self._doc_stage(
            len(totals), streams, totals, declared,
            native.DS_BEST_EFFORT if best_effort else 0))

    @staticmethod
    def _repeats_spans(table: spans.SpanTable,
                       docs: np.ndarray) -> spans.SpanTable:
        """Span table of the Repeats retry of ``docs``: each of their
        spans with its predicted words dropped (CheapRepWords,
        impl.cc:610-692), all in one native pass over the table's
        buffer. The rows keep the original script, offsets and
        text_bytes (which the RTYPE_ONE tote adds and the CJK chunk
        extents read); document k of the new table is docs[k]."""
        rows = table.rows_of(docs)
        out, out_end = native.rep_words_multi(
            table.buf, table.start[rows], table.end[rows])
        counts = table.doc_ptr[docs + 1] - table.doc_ptr[docs]
        return spans.SpanTable(
            buf=out, start=np.concatenate([[0], out_end[:-1]]),
            end=out_end,
            doc=np.repeat(np.arange(len(docs), dtype=np.int64), counts),
            script=table.script[rows], text_bytes=table.text_bytes[rows],
            offset=table.offset[rows], end_offset=table.end_offset[rows],
            lp_start=table.lp_start[rows], lp_end=table.lp_end[rows],
            letter_pos=table.letter_pos,
            doc_ptr=np.concatenate([[0], np.cumsum(counts)]))

    # -- public API ---------------------------------------------------------

    def detect_batch(self, texts: list[str], hints_list=None,
                     best_effort: bool = False,
                     default_to_english: bool = False,
                     declared_list=None, with_ranges: bool = False):
        """Batch detection: one concatenated scoring pass for the whole
        batch — the one scoring path every public call runs. Returns
        score.DetectColumns (a Sequence[DetectResult]).

        hints_list: per-doc language-prior hints, hints.Priors or a
        per-doc list (see _priors; functions/hints.py payloads encodes
        them). default_to_english: the non-Ext entry-point behavior
        (UNKNOWN -> ENGLISH, compact_lang_det.cc:90-94). declared_list:
        per-doc page-declared lang ids, hints.Declared or a list of sets
        (see _declared and tests/oracles/docstage.py
        _calc_summary_lang); None = reference-exact summaries.

        with_ranges=True additionally returns the per-doc language
        ranges (score.Ranges, text byte offsets) computed from the SAME
        scoring pass (results, ranges) — the single-pass
        ResultChunkVector path; results are bit-identical to
        with_ranges=False. Squeeze-triggered docs (rare junk pages)
        get the unhinted ranges of their raw text instead (see _ranges),
        since the main pass scores their squeezed rewrite whose offsets
        don't map back."""
        n = len(texts)
        priors, declared = _priors(hints_list, n), _declared(declared_list, n)
        self._echo(texts)
        # the batch's one encode: every later step reads these buffers
        data, offsets = native.utf8_cat(texts)
        # CheapSqueeze pre-pass (impl.cc:1867-1901): long repetitive
        # documents are squeezed before scoring
        squeezed, *sq_batch = native.cheap_squeeze(data, offsets)
        table = spans.script_spans_batch(native.utf8_array(*sq_batch))
        # per-doc hint payloads, built once for both passes
        lo, hi, flat = payloads = _payloads(priors)
        streams = self._fill_totes(table, payloads, with_ranges)
        if with_ranges:
            streams, raw_ranges = streams
        out = self._finalize(streams, table.doc_totals(table.text_bytes),
                             best_effort, declared)
        retry = np.flatnonzero(~out.good)
        if len(retry):
            # Repeats retry (impl.cc:1979-2106) for every not-good doc
            # in ONE more batch pass over the spans the first pass
            # scored (the squeeze gate is not re-run)
            table2 = self._repeats_spans(table, retry)
            streams2 = self._fill_totes(table2, (lo[retry], hi[retry], flat))
            out2 = self._finalize(
                streams2,
                np.maximum(table2.doc_totals(table2.end - table2.start), 1),
                best_effort, declared.take(retry))
            # keep the retry result if it reached a conclusion
            # (impl.cc accepts the second-pass answer unconditionally)
            take = np.flatnonzero((out2.summary != langs.UNKNOWN)
                                  | (out.summary[retry] == langs.UNKNOWN))
            out.take_rows(retry[take], out2, take)
        if default_to_english:
            out.summary[out.summary == langs.UNKNOWN] = langs.ENGLISH
        if with_ranges:
            return out, self._ranges(native.utf8_array(data, offsets),
                                     squeezed, raw_ranges)
        return out

    def _ranges(self, texts, squeezed: np.ndarray,
                raw_ranges) -> score.Ranges:
        """score.Ranges of ``texts`` (an Arrow string column) from their
        raw_ranges; ``squeezed`` docs take the unhinted ranges of their
        raw text from ONE more hint-free _fill_totes pass over all of
        them."""
        sq = np.flatnonzero(squeezed)
        if len(sq):
            keep = ~squeezed[raw_ranges[0]]
            doc2, *rest = self._fill_totes(
                spans.script_spans_batch(texts.take(sq)),
                _payloads(_priors(None, len(sq))), with_ranges=True)[1]
            both = [np.concatenate([a[keep], b])
                    for a, b in zip(raw_ranges, (sq[doc2], *rest))]
            order = np.argsort(both[0], kind="stable")
            raw_ranges = [a[order] for a in both]
        return _text_ranges(texts, *raw_ranges)

    def detect(self, text: str, best_effort: bool = False,
               hint_langs: list[int] | None = None,
               default_to_english: bool = False,
               declared=None) -> score.DetectResult:
        """Detect language(s) of already-extracted plain text:
        detect_batch on a batch of one (see there for the arguments;
        hint_langs and declared are this document's entries)."""
        return self.detect_batch([text], [hint_langs], best_effort,
                                 default_to_english, [declared])[0]

    def _echo(self, texts) -> None:
        """kCLDFlagEcho: each input's first 80 chars to stderr."""
        if self.echo:
            import sys
            for t in texts:
                print(f"[cld2_ray echo] {(t or '')[:80]!r}",
                      file=sys.stderr)

    def detect_ranges(self, text: str) -> list[tuple[int, int, str]]:
        """Per-document language ranges in ORIGINAL text BYTE offsets —
        the ResultChunkVector analogue (reference: SummaryBufferToVector,
        scoreonescriptspan.cc:389-509 + offset back-mapping
        getonescriptspan.cc:1076-1078): the ranges of
        detect_batch([text], with_ranges=True), with no hints.

        MANY-script spans split at chunk granularity, then boundaries
        between different-language chunks are refined with the 8-hit
        BetterBoundary slide and backed up to the start of their word
        (ItemToVector semantics). Adjacent same-language ranges merge;
        unreliable chunks report "un". The flagship ``chunks`` column
        (stages.core.fused_batch(with_chunks=True)) gives the same
        ranges, hinted, in raw page byte offsets.

        Returns [(byte_offset, byte_len, lang_code), ...].
        """
        return self.detect_batch([text], with_ranges=True)[1][0]


@lru_cache(maxsize=1)
def default_detector() -> Detector:
    """The process's one default-configured Detector, built on first
    use: the fused kernel, the langid query and detect_language share
    it, so the model loads once per worker process."""
    return Detector()
