"""Document-level language detection — the DetectLanguageSummaryV2
analogue (reference: internal/compact_lang_det_impl.cc:1707-2106).

Every scoring call runs one batch pass, ``Detector.detect_batch``
(detect() is a batch of one; detect_ranges reads the same pass's
ranges output), column-wise over the whole batch:
  CheapSqueeze pre-pass (one native gate call) -> script spans as one
  span table (spans.SpanTable) -> one fused C hit-scan + chunk-score
  call per script class over the table's buffer (_fill_totes) -> the
  document stage in one C call (_finalize: DocTote, close-pair
  refinement, unreliable removal, top-3 + percents, summary calculus,
  good test) -> one more pass with repeat-word removal for every doc
  that is not good (the Repeats retry, impl.cc:1979-2106), accepted
  by numpy over the result columns.

detect_batch returns score.DetectColumns: numpy columns that also read
as a sequence of DetectResult. The flagship kernel
(stages.core.fused_batch) and the single-process oracle call the same
Detector, which is what makes pipeline-vs-oracle equality exact.
tests/oracles/docstage.py is the Python document stage this pass is
held to, tests/oracles/langid.py the numpy ranges chain.
"""

from __future__ import annotations

import numpy as np

from . import langs, score, spans, uscript as us
from cld2_ray import native
from .extract import extract_text, text_to_raw_ranges, valid_utf8_prefix
from . import hints as hints_mod
from .repeats import squeeze, squeeze_triggers

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
    csr = np.zeros(len(lists) + 1, dtype=np.int64)
    flat: list[int] = []
    for k, hl in enumerate(lists):
        if hl:
            flat.extend(hl)
        csr[k + 1] = len(flat)
    return csr, np.asarray(flat, dtype=np.int64)


def _gather_csr(lo: np.ndarray, hi: np.ndarray, flat: np.ndarray):
    """The kernels' per-span CSR (csr, flat) of the payload slices
    flat[lo[k]:hi[k]]."""
    n = hi - lo
    csr = np.zeros(len(n) + 1, dtype=np.int64)
    np.cumsum(n, out=csr[1:])
    return csr, flat[np.repeat(lo - csr[:-1], n) + np.arange(csr[-1])]


def _one_range(start: int, end: int, lid: int):
    """Whole-span (start_char, end_char, lid) numpy triple — the
    single-range form non-MANY spans and hitless MANY spans emit."""
    return (np.array([start], dtype=np.int64),
            np.array([end], dtype=np.int64),
            np.array([lid], dtype=np.int64))


class Detector:
    """Holds the immutable LangModel; one instance per worker process
    (stages.core keeps it behind an lru_cache)."""

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

    @staticmethod
    def _norm_hints(hint_langs):
        """Normalize the public hint argument to per-script-class
        packed payloads (see functions/hints.py payloads):
        - None/empty -> None
        - list[(lang_id, weight)] priors -> payloads(priors)
        - list[int] lang ids (legacy caller hint) -> weight
          LANGUAGE_WEIGHT each (SetCLDLanguageHint,
          hint_code.cc:1503-1506)
        - an already-normalized (latn, othr) tuple passes through."""
        if not hint_langs:
            return None
        if isinstance(hint_langs, tuple) and len(hint_langs) == 2 \
                and all(isinstance(x, list) for x in hint_langs):
            return hint_langs
        if isinstance(hint_langs[0], tuple):
            priors = list(hint_langs)
        else:
            priors = [(int(lid), hints_mod.LANGUAGE_WEIGHT)
                      for lid in hint_langs]
        return hints_mod.payloads(priors)

    def _rtype(self, script: int) -> int:
        rt = us.script_rtype(script)
        if (self.score_as_quads and rt != us.RTYPE_CJK
                and rt != us.RTYPE_MANY):
            return us.RTYPE_MANY
        return rt

    # -- scoring pass -------------------------------------------------------

    def _fill_totes(self, table: spans.SpanTable,
                    hints_list: list[list[int] | None],
                    with_ranges: bool = False):
        """Batch span scorer over a span table (``len(table)`` documents):
        all MANY spans score through ONE fused C hit-scan + chunk-score
        call, all CJK spans through another, both reading the spans in
        place in the table's buffer; RTYPE_ONE spans add their bytes at
        reliability 100 (scoreonescriptspan.cc:1132-1160), RTYPE_NONE
        spans are ignored. Returns the DocTote add streams for
        _finalize: (doc, lang, bytes, score, rel) of the RTYPE_ONE
        spans, then of the MANY chunks, then of the CJK chunks — the
        order each document's tote takes them in.

        with_ranges=True returns (streams, raw_ranges) from the SAME
        pass — the ResultChunkVector path (the reference emits the
        vector in the scoring pass that fills the tote,
        scoreonescriptspan.cc:1099-1111). raw_ranges[di] is the doc's
        unmerged list of (start_char, end_char, lid) numpy triples in
        span order, for _merge_ranges. Chunk scoring sees the per-span
        hint priors the document scoring uses, so a hinted page's chunk
        vector agrees with its summary (detect_ranges passes no
        hints)."""
        m = self.model
        rt = self._rtypes[table.script]
        doc, script, nbytes = table.doc, table.script, table.text_bytes
        # per-doc hint payloads, the Latin class's then the others'
        norm = [self._norm_hints(h) for h in hints_list]
        csr_l, flat_l = _csr([h[0] if h else None for h in norm])
        csr_o, flat_o = _csr([h[1] if h else None for h in norm])
        csr_o += len(flat_l)
        flat = np.concatenate([flat_l, flat_o])

        one = np.flatnonzero(rt == us.RTYPE_ONE)
        streams = [(doc[one], langs.SCRIPT_DEFAULT_LANG[script[one]],
                    nbytes[one], nbytes[one], np.full(len(one), 100))]
        span_lid = np.where(rt == us.RTYPE_ONE,
                            langs.SCRIPT_DEFAULT_LANG[script],
                            langs.UNKNOWN)
        many_ranges = {}
        many = np.flatnonzero(rt == us.RTYPE_MANY)
        if len(many):
            d, sc = doc[many], script[many]
            lat = sc == us.LATIN
            c = native.quad_octa_chunk_score(
                table.buf, table.start[many], table.end[many], m.quad,
                m.socta, m.docta, m.xocta, lat, score.CHUNKSIZE_QUADS,
                m.expected_quad, langs.CLOSE_SET,
                *_gather_csr(np.where(lat, csr_l[d], csr_o[d]),
                             np.where(lat, csr_l[d + 1], csr_o[d + 1]),
                             flat),
                us.LSCRIPT4[sc], with_ranges=with_ranges)
            lang1, cbytes, s1, rel, span_of_chunk = c[:5]
            streams.append((d[span_of_chunk], lang1, cbytes, s1, rel))
            if with_ranges:
                many_ranges = self._many_ranges(table, many, c)
        cjk = np.flatnonzero(rt == us.RTYPE_CJK)
        if len(cjk):
            d = doc[cjk]
            lang1, cbytes, s1, rel, span_of_chunk = native.cjk_chunk_score(
                table.buf, table.start[cjk], table.end[cjk], nbytes[cjk],
                m.uni, m.cjkbi,
                score.CHUNKSIZE_UNIS, m.expected_uni, langs.CLOSE_SET,
                *_gather_csr(csr_o[d], csr_o[d + 1], flat))
            streams.append((d[span_of_chunk], lang1, cbytes, s1, rel))
            if with_ranges:
                # one range per CJK span: the top language of a fresh
                # per-span tote (the document stage's DS_TOTE_TOP mode)
                span_lid[cjk] = self._doc_stage(
                    len(cjk), [(span_of_chunk, lang1, cbytes, s1, rel)],
                    np.zeros(len(cjk), np.int64), [None] * len(cjk),
                    native.DS_TOTE_TOP)["summary"]
        if not with_ranges:
            return streams
        parts = [many_ranges.get(k) or _one_range(o, e, lid)
                 for k, (o, e, lid) in enumerate(zip(
                     table.offset.tolist(), table.end_offset.tolist(),
                     span_lid.tolist()))]
        ptr = table.doc_ptr.tolist()
        return streams, [parts[a:b] for a, b in zip(ptr[:-1], ptr[1:])]

    def _many_ranges(self, table: spans.SpanTable, many: np.ndarray,
                     c) -> dict:
        """Span row -> range triple (_many_span_ranges) of each MANY span
        with chunks; ``c`` is the ranges output of
        native.quad_octa_chunk_score over the rows ``many``. Hitless
        spans have no entry (their range is the whole span, UNKNOWN)."""
        lang1, _, _, _, span_of_chunk, rel_delta, cstart = c
        bounds = np.searchsorted(span_of_chunk,
                                 np.arange(len(many) + 1)).tolist()
        out = {}
        for k in np.flatnonzero(np.diff(bounds)).tolist():
            lo, hi, r = bounds[k], bounds[k + 1], int(many[k])
            out[r] = self._many_span_ranges(
                int(table.offset[r]), int(table.end_offset[r]),
                table.buf[table.start[r]:table.end[r]],
                table.letter_pos[table.lp_start[r]:table.lp_end[r]],
                lang1[lo:hi], rel_delta[lo:hi], cstart[lo:hi])
        return out

    @staticmethod
    def _doc_stage(n_docs: int, streams, totals, declared_list,
                   flags: int) -> dict:
        """native.doc_stage with this module's language tables."""
        return native.doc_stage(n_docs, streams, totals,
                                *_csr(declared_list), flags,
                                _LANG_PROPS, _LANG_IDS)

    def _finalize(self, streams, totals: np.ndarray, best_effort: bool,
                  declared_list) -> score.DetectColumns:
        """The document stage of every document in ONE C call
        (quadscan.c doc_stage): each DocTote filled from the add
        ``streams`` of _fill_totes, then RefineScoredClosePairs,
        RemoveUnreliableLanguages (not under best_effort,
        impl.cc:1998), ExtractLangEtc, CalcSummaryLang with the
        document's declared set, and the Repeats-retry good test on
        ``totals`` (letter bytes per document)."""
        return score.DetectColumns(**self._doc_stage(
            len(totals), streams, totals, declared_list,
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

    def detect_batch(self, texts: list[str],
                     hints_list: list[list[int] | None] | None = None,
                     best_effort: bool = False,
                     default_to_english: bool = False,
                     declared_list=None, with_ranges: bool = False):
        """Batch detection: one concatenated scoring pass for the whole
        batch — the one scoring path every public call runs. Returns
        score.DetectColumns (a Sequence[DetectResult]).

        hints_list: per-doc language-prior hints (see functions/hints.py
        and _norm_hints). default_to_english: the non-Ext entry-point
        behavior (UNKNOWN -> ENGLISH, compact_lang_det.cc:90-94).
        declared_list: per-doc sets of page-declared lang ids (see
        tests/oracles/docstage.py _calc_summary_lang); None =
        reference-exact summaries.

        with_ranges=True additionally returns per-doc language ranges
        [(byte_offset, byte_len, code), ...] computed from the SAME
        scoring pass (results, ranges) — the single-pass
        ResultChunkVector path; results are bit-identical to
        with_ranges=False. Squeeze-triggered docs (rare junk pages)
        get detect_ranges' unhinted ranges of the raw text instead,
        since the main pass scores their squeezed rewrite whose offsets
        don't map back."""
        n = len(texts)
        if hints_list is None:
            hints_list = [None] * n
        if declared_list is None:
            declared_list = [None] * n
        self._echo(texts)
        orig_texts = texts
        # CheapSqueeze pre-pass (impl.cc:1867-1901): long repetitive
        # documents are squeezed before scoring
        squeezed = squeeze_triggers(texts)
        texts = [squeeze(t) if sq else (t or "")
                 for t, sq in zip(texts, squeezed.tolist())]
        table = spans.script_spans_batch(texts)
        if with_ranges:
            streams, raw_ranges = self._fill_totes(table, hints_list,
                                                   with_ranges=True)
        else:
            streams = self._fill_totes(table, hints_list)
        out = self._finalize(streams, table.doc_totals(table.text_bytes),
                             best_effort, declared_list)
        retry = np.flatnonzero(~out.good)
        if len(retry):
            # Repeats retry (impl.cc:1979-2106) for every not-good doc
            # in ONE more batch pass over the spans the first pass
            # scored (the squeeze gate is not re-run)
            table2 = self._repeats_spans(table, retry)
            streams2 = self._fill_totes(table2,
                                        [hints_list[i] for i in retry])
            out2 = self._finalize(
                streams2,
                np.maximum(table2.doc_totals(table2.end - table2.start), 1),
                best_effort, [declared_list[i] for i in retry])
            # keep the retry result if it reached a conclusion
            # (impl.cc accepts the second-pass answer unconditionally)
            take = np.flatnonzero((out2.summary != langs.UNKNOWN)
                                  | (out.summary[retry] == langs.UNKNOWN))
            out.take_rows(retry[take], out2, take)
        if default_to_english:
            out.summary[out.summary == langs.UNKNOWN] = langs.ENGLISH
        if with_ranges:
            rng = [self._unhinted_ranges(orig_texts[i] or "")
                   if squeezed[i]
                   else self._merge_ranges(texts[i], raw_ranges[i])
                   for i in range(n)]
            return out, rng
        return out

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

    @staticmethod
    def _many_span_ranges(offset: int, end_offset: int, span_utf8,
                          letter_pos, lang1, rel, starts_b):
        """Per-chunk arrays -> (start_char, end_char, lid) numpy
        triple for one MANY span (char range [offset, end_offset),
        framed text ``span_utf8``, document char index ``letter_pos``
        of each of its letters): back boundaries up to the start of
        their word (ItemToVector semantics,
        scoreonescriptspan.cc:323-360) and gate unreliable chunks to
        UNKNOWN. Shared by the ranges pass of _fill_totes and its numpy
        oracle. ``starts_b`` are span-local byte offsets of each
        chunk's (sharpened) first hit; the triples stay numpy until
        _merge_ranges converts the few MERGED ranges to tuples."""
        nch = len(lang1)
        lids = np.where(np.asarray(rel) >= score.MIN_RELIABLE_KEEP_PERCENT,
                        np.asarray(lang1, dtype=np.int64),
                        langs.UNKNOWN)
        if nch == 1:
            # single-chunk span (common): the range is the whole span
            # — k=0 uses the span offset and the last chunk ends at
            # end_offset, so the word-backup math is moot
            return (np.array([offset], dtype=np.int64),
                    np.array([end_offset], dtype=np.int64), lids)
        arr = np.frombuffer(span_utf8, dtype=np.uint8)
        cstart = np.flatnonzero((arr & 0xC0) != 0x80)
        letter_byte_starts = cstart[arr[cstart] != 0x20]
        lpos = np.asarray(letter_pos)
        li = np.searchsorted(letter_byte_starts, starts_b,
                             side="right") - 1
        li = np.clip(li, 0, len(lpos) - 1)
        # back boundaries up to the start of their word — dense
        # sampling can land a chunk start mid-word
        gapmask = np.concatenate([[True],
                                  lpos[1:] != lpos[:-1] + 1])
        word_start_of = np.maximum.accumulate(
            np.where(gapmask, np.arange(len(lpos)), 0))
        chunk_char = lpos[word_start_of[li]].astype(np.int64)
        starts = chunk_char.copy()
        starts[0] = offset
        ends = np.concatenate([chunk_char[1:], [end_offset]])
        return starts, ends, lids

    @staticmethod
    def _merge_ranges(text: str, parts) -> list[tuple[int, int, str]]:
        """Concatenate per-span (start_char, end_char, lid) triples,
        merge adjacent same-language ranges, and convert to
        original-text BYTE offsets (detect_ranges' tail)."""
        parts = [p for p in parts if len(p[0])]
        if not parts or not text:
            return []
        starts = np.concatenate([p[0] for p in parts])
        ends = np.concatenate([p[1] for p in parts])
        lids = np.concatenate([p[2] for p in parts])
        keep = np.concatenate([[True], lids[1:] != lids[:-1]])
        ki = np.flatnonzero(keep)
        ms = starts[ki]
        me = np.concatenate([ends[ki[1:] - 1], [ends[-1]]])
        # char -> byte offsets: the merged ranges are FEW, so one
        # incremental prefix encode over the sorted positions (total
        # work = one pass over the text) beats a full per-codepoint
        # utf-8-length cumsum
        pos = np.concatenate([ms, me])
        order = np.argsort(pos, kind="stable")
        out_b = np.empty(len(pos), dtype=np.int64)
        b = 0
        last = 0
        for idx in order:
            p = int(pos[idx])
            if p > last:
                b += len(text[last:p].encode("utf-8"))
                last = p
            out_b[idx] = b
        k = len(ms)
        return [(int(a), int(e - a), langs.lang_code(int(li)))
                for a, e, li in zip(out_b[:k], out_b[k:], lids[ki])]

    def _unhinted_ranges(self, text: str) -> list[tuple[int, int, str]]:
        """The ranges pass of _fill_totes on one text, hint-free."""
        _, raw = self._fill_totes(spans.script_spans_batch([text]), [None],
                                  with_ranges=True)
        return self._merge_ranges(text, raw[0])

    def detect_ranges(self, text: str) -> list[tuple[int, int, str]]:
        """Per-document language ranges in ORIGINAL text BYTE offsets —
        the ResultChunkVector analogue (reference: SummaryBufferToVector,
        scoreonescriptspan.cc:389-509 + offset back-mapping
        getonescriptspan.cc:1076-1078), from the ranges pass of
        _fill_totes with no hints and no squeeze.

        MANY-script spans split at chunk granularity, then boundaries
        between different-language chunks are refined with the 8-hit
        BetterBoundary slide and backed up to the start of their word
        (ItemToVector semantics). Adjacent same-language ranges merge;
        unreliable chunks report "un".

        Returns [(byte_offset, byte_len, lang_code), ...].
        """
        self._echo([text])
        return self._unhinted_ranges(text)

    def detect_ranges_html(self, html: bytes) -> list[tuple[int, int, str]]:
        """Language ranges in RAW PAGE byte offsets: detect_ranges on
        the extracted text of the valid UTF-8 prefix, mapped back
        through the extractor's source map (text_to_raw_ranges) — the
        reference's map2original chain."""
        h = html[:valid_utf8_prefix(html)]
        return text_to_raw_ranges(h, self.detect_ranges(extract_text(h)))
