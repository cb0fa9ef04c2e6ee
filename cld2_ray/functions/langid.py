"""Document-level language detection — the DetectLanguageSummaryV2
analogue (reference: internal/compact_lang_det_impl.cc:1707-2106).

Every scoring call runs one batch pass, ``Detector.detect_batch``
(detect() is a batch of one; detect_ranges reads the same pass's
ranges output):
  CheapSqueeze pre-pass -> script spans -> one fused C hit-scan +
  chunk-score call per script class (_fill_totes) -> DocTote ->
  close-pair refinement -> unreliable removal -> top-3 + percents ->
  summary language calculus -> one more pass with repeat-word removal
  for every doc that is not good (the Repeats retry,
  impl.cc:1979-2106).

The flagship kernel (stages.core.fused_batch) and the single-process
oracle call the same Detector, which is what makes pipeline-vs-oracle
equality exact. The numpy ranges chain in tests/oracles/langid.py is
the tests' independent reference for this pass.
"""

from __future__ import annotations

import numpy as np

from . import langs, score, spans, uscript as us
from cld2_ray import native
from .extract import extract_text, text_to_raw_ranges, valid_utf8_prefix
from . import hints as hints_mod
from .repeats import SQUEEZE_TEST_THRESH, remove_repeated_words_batch, \
    squeeze, squeeze_trigger


def _bulk_tote_add(totes: list, doc_of_chunk: np.ndarray,
                   lang1: np.ndarray, cbytes: np.ndarray,
                   s1: np.ndarray, rel: np.ndarray) -> None:
    """Vectorized DocTote fill: chunk streams aggregate per (doc, lang)
    with numpy, then land in each tote in first-seen order. Equivalent
    to per-chunk DocTote.add because add() is pure accumulation until
    the 24-slot cap; any doc whose entry count could reach the cap
    (where eviction order matters) falls back to the sequential loop."""
    m = lang1 != langs.UNKNOWN
    if not m.any():
        return
    doc = doc_of_chunk[m].astype(np.int64)
    lang = lang1[m].astype(np.int64)
    nb = cbytes[m].astype(np.int64)
    sc = s1[m].astype(np.int64)
    rl = rel[m].astype(np.int64)
    rb = rl * nb
    key = doc * np.int64(langs.NUM_LANGS) + lang
    uniq, first_idx, inv = np.unique(key, return_index=True,
                                     return_inverse=True)
    k = len(uniq)
    b_sum = np.zeros(k, np.int64)
    s_sum = np.zeros(k, np.int64)
    r_sum = np.zeros(k, np.int64)
    np.add.at(b_sum, inv, nb)
    np.add.at(s_sum, inv, sc)
    np.add.at(r_sum, inv, rb)
    # first-seen order inside each doc (same dict insertion order as
    # the sequential loop)
    order = np.argsort(first_idx, kind="stable")
    u_doc = (uniq // langs.NUM_LANGS)[order]
    u_lang = (uniq % langs.NUM_LANGS)[order]
    b_sum, s_sum, r_sum = b_sum[order], s_sum[order], r_sum[order]
    n_new = np.bincount(u_doc, minlength=len(totes))
    seq_docs = set()
    for d in np.nonzero(n_new)[0].tolist():
        if len(totes[d].bytes_) + int(n_new[d]) > score.DOC_TOTE_SLOTS:
            seq_docs.add(d)
    if seq_docs:
        for i in range(len(doc)):
            d = int(doc[i])
            if d in seq_docs:
                totes[d].add(int(lang[i]), int(nb[i]), int(sc[i]),
                             int(rl[i]))
    for j in range(k):
        d = int(u_doc[j])
        if d in seq_docs:
            continue
        t = totes[d]
        li = int(u_lang[j])
        t.bytes_[li] = t.bytes_.get(li, 0) + int(b_sum[j])
        t.score[li] = t.score.get(li, 0) + int(s_sum[j])
        t.rel[li] = t.rel.get(li, 0) + int(r_sum[j])


def _hint_csr(hl_list: list) -> tuple[np.ndarray, np.ndarray]:
    """Per-span hint payloads -> the kernels' CSR form (csr int64[n+1],
    flat int64[]): span k's payload is flat[csr[k]:csr[k+1]]."""
    csr = np.zeros(len(hl_list) + 1, dtype=np.int64)
    flat: list[int] = []
    for k, hl in enumerate(hl_list):
        if hl:
            flat.extend(hl)
        csr[k + 1] = len(flat)
    return csr, np.asarray(flat, dtype=np.int64)


def _one_range(sp, lid: int):
    """Whole-span (start_char, end_char, lid) numpy triple — the
    single-range form non-MANY spans and hitless MANY spans emit."""
    return (np.array([sp.offset], dtype=np.int64),
            np.array([sp.end_offset], dtype=np.int64),
            np.array([lid], dtype=np.int64))


def _tote_range_lang(tote: score.DocTote) -> int:
    """A whole-span range's language: the span tote's top language by
    bytes (ties -> smaller id), UNKNOWN below 41% reliability."""
    if not tote.bytes_:
        return langs.UNKNOWN
    lid = max(tote.bytes_, key=lambda k: (tote.bytes_[k], -k))
    rp = tote.rel[lid] // max(tote.bytes_[lid], 1)
    return lid if rp >= score.MIN_RELIABLE_KEEP_PERCENT else langs.UNKNOWN


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

    def _fill_totes(self, doc_spans: list[list[spans.ScriptSpan]],
                    hints_list: list[list[int] | None],
                    with_ranges: bool = False):
        """Batch span scorer: all documents' MANY spans score through ONE
        fused C hit-scan + chunk-score call, all CJK spans through
        another; RTYPE_ONE spans add their bytes at reliability 100
        (scoreonescriptspan.cc:1132-1160), RTYPE_NONE spans are ignored.
        Returns the per-doc DocTotes.

        with_ranges=True returns (totes, raw_ranges) from the SAME pass —
        the ResultChunkVector path (the reference emits the vector in
        the scoring pass that fills the tote,
        scoreonescriptspan.cc:1099-1111). raw_ranges[di] is the doc's
        unmerged list of (start_char, end_char, lid) numpy triples in
        span order, for _merge_ranges; the totes do not change. Chunk
        scoring sees the per-span hint priors the document scoring uses,
        so a hinted page's chunk vector agrees with its summary
        (detect_ranges passes no hints)."""
        totes = [score.DocTote() for _ in doc_spans]
        ranges = ([[None] * len(sl) for sl in doc_spans]
                  if with_ranges else None)
        many: list[tuple[int, int, spans.ScriptSpan, object]] = []
        cjk: list[tuple[int, int, spans.ScriptSpan, object]] = []
        hints_list = [self._norm_hints(h) for h in hints_list]
        for di, sl in enumerate(doc_spans):
            hl = hints_list[di]
            for pos, sp in enumerate(sl):
                rt = self._rtype(sp.script)
                if rt == us.RTYPE_MANY:
                    many.append((di, pos, sp, hl))
                elif rt == us.RTYPE_CJK:
                    cjk.append((di, pos, sp, hl))
                elif rt == us.RTYPE_ONE:
                    lid = int(langs.SCRIPT_DEFAULT_LANG[sp.script])
                    totes[di].add(lid, sp.text_bytes, sp.text_bytes, 100)
                    if with_ranges:
                        ranges[di][pos] = _one_range(sp, lid)
                elif with_ranges:
                    ranges[di][pos] = _one_range(sp, langs.UNKNOWN)

        if many:
            bufs = [sp.text_utf8 for _, _, sp, _ in many]
            script_of_span = np.array([sp.script for _, _, sp, _ in many],
                                      dtype=np.int64)
            hl_list = [hl[0 if sp.script == us.LATIN else 1] if hl else None
                       for _, _, sp, hl in many]
            c = native.quad_octa_chunk_score(
                b"".join(bufs), np.cumsum([len(b) for b in bufs]),
                self.model.quad, self.model.socta, self.model.docta,
                self.model.xocta, script_of_span == us.LATIN,
                score.CHUNKSIZE_QUADS, self.model.expected_quad,
                langs.CLOSE_SET, *_hint_csr(hl_list),
                us.LSCRIPT4[script_of_span], with_ranges=with_ranges)
            lang1, cbytes, s1, rel, span_of_chunk = c[:5]
            docs_of_span = np.array([di for di, _, _, _ in many])
            _bulk_tote_add(totes, docs_of_span[span_of_chunk],
                           lang1, cbytes, s1, rel)
            if with_ranges:
                # the "un" gate reads the zeros-expected reliability
                # (see tests/oracles/langid.py detect_ranges_numpy)
                rel_delta, cstart = c[5:]
                for k, (di, pos, sp, _) in enumerate(many):
                    lo, hi = np.searchsorted(span_of_chunk, [k, k + 1])
                    ranges[di][pos] = (
                        self._many_span_ranges(sp, lang1[lo:hi],
                                               rel_delta[lo:hi],
                                               cstart[lo:hi])
                        if lo < hi else _one_range(sp, langs.UNKNOWN))

        if cjk:
            bufs = [sp.text_utf8 for _, _, sp, _ in cjk]
            c = native.cjk_chunk_score(
                b"".join(bufs), np.cumsum([len(b) for b in bufs]),
                np.array([sp.text_bytes for _, _, sp, _ in cjk],
                         dtype=np.int64),
                self.model.uni, self.model.cjkbi, score.CHUNKSIZE_UNIS,
                self.model.expected_uni, langs.CLOSE_SET,
                *_hint_csr([hl[1] if hl else None for _, _, _, hl in cjk]))
            lang1, cbytes, s1, rel, span_of_chunk = c
            docs_of_span = np.array([di for di, _, _, _ in cjk])
            _bulk_tote_add(totes, docs_of_span[span_of_chunk],
                           lang1, cbytes, s1, rel)
            if with_ranges:
                # one range per CJK span: the majority language of a
                # fresh per-span tote (exact incl. the 24-slot eviction)
                for k, (di, pos, sp, _) in enumerate(cjk):
                    lo, hi = np.searchsorted(span_of_chunk, [k, k + 1])
                    t = score.DocTote()
                    t.add_chunks(lang1[lo:hi], cbytes[lo:hi], s1[lo:hi],
                                 rel[lo:hi])
                    ranges[di][pos] = _one_range(sp, _tote_range_lang(t))
        return (totes, ranges) if with_ranges else totes

    def _finalize(self, tote: score.DocTote, total_letter_bytes: int,
                  best_effort: bool,
                  declared=None) -> score.DetectResult:
        score.refine_close_pairs(tote)
        if not best_effort:
            # best-effort skips unreliable-language removal
            # (impl.cc:1998 "if (!FlagBestEffort(flags))")
            score.remove_unreliable(tote)
        language3, percent3, nscore3, total, is_rel = \
            score.extract_lang_etc(tote, total_letter_bytes)
        summary, rel2 = score.calc_summary_lang(language3, percent3, total,
                                                best_effort, declared)
        return score.DetectResult(
            summary_lang=summary,
            language3=tuple(language3),
            percent3=tuple(percent3),
            normalized_score3=tuple(nscore3),
            text_bytes=total,
            is_reliable=is_rel and rel2,
        )

    @staticmethod
    def _repeats_spans(doc_spans: list[list[spans.ScriptSpan]]):
        """Spans of the Repeats retry: each span with its predicted
        words dropped (CheapRepWords, impl.cc:610-692), all docs' spans
        in one native pass. Returns (spans, per-doc bytes, at least 1).
        The new spans keep the original script, offset and text_bytes."""
        outs = iter(remove_repeated_words_batch(
            [sp.text_utf8 for sl in doc_spans for sp in sl]))
        spans2 = [[spans.ScriptSpan(text_utf8=next(outs), script=sp.script,
                                    offset=sp.offset,
                                    text_bytes=sp.text_bytes)
                   for sp in sl] for sl in doc_spans]
        totals2 = [max(sum(len(sp.text_utf8) for sp in sl), 1)
                   for sl in spans2]
        return spans2, totals2

    # -- public API ---------------------------------------------------------

    def detect_batch(self, texts: list[str],
                     hints_list: list[list[int] | None] | None = None,
                     best_effort: bool = False,
                     default_to_english: bool = False,
                     declared_list=None, with_ranges: bool = False):
        """Batch detection: one concatenated scoring pass for the whole
        batch — the one scoring path every public call runs.

        hints_list: per-doc language-prior hints (see functions/hints.py
        and _norm_hints). default_to_english: the non-Ext entry-point
        behavior (UNKNOWN -> ENGLISH, compact_lang_det.cc:90-94).
        declared_list: per-doc sets of page-declared lang ids (see
        calc_summary_lang); None = reference-exact summaries.

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
        squeezed = [bool(t and len(t) > SQUEEZE_TEST_THRESH
                         and squeeze_trigger(t)) for t in texts]
        texts = [squeeze(t) if sq else (t or "")
                 for t, sq in zip(texts, squeezed)]
        doc_spans = spans.script_spans_batch(texts)
        totals = [sum(sp.text_bytes for sp in sl) for sl in doc_spans]
        if with_ranges:
            totes, raw_ranges = self._fill_totes(doc_spans, hints_list,
                                                 with_ranges=True)
        else:
            totes = self._fill_totes(doc_spans, hints_list)
        out: list[score.DetectResult] = []
        retry: list[int] = []
        for i in range(n):
            res = self._finalize(totes[i], totals[i], best_effort,
                                 declared_list[i])
            if not score.is_good(res, totals[i]):
                retry.append(i)
            elif default_to_english and res.summary_lang == langs.UNKNOWN:
                res.summary_lang = langs.ENGLISH
            out.append(res)
        if retry:
            # Repeats retry (impl.cc:1979-2106) for every not-good doc
            # in ONE more batch pass over the spans the first pass
            # scored (squeeze_trigger is not re-run). Retry spans keep
            # the original text_bytes, which the RTYPE_ONE tote and the
            # CJK chunk lens consume.
            spans2, totals2 = self._repeats_spans(
                [doc_spans[i] for i in retry])
            totes2 = self._fill_totes(spans2,
                                      [hints_list[i] for i in retry])
            for k, i in enumerate(retry):
                res2 = self._finalize(totes2[k], totals2[k], best_effort,
                                      declared_list[i])
                # keep the retry result if it reached a conclusion
                # (impl.cc accepts the second-pass answer
                # unconditionally)
                res = out[i]
                res = res2 if (res2.summary_lang != langs.UNKNOWN
                               or res.summary_lang == langs.UNKNOWN) \
                    else res
                if default_to_english and res.summary_lang == langs.UNKNOWN:
                    res.summary_lang = langs.ENGLISH
                out[i] = res
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
    def _many_span_ranges(sp, lang1, rel, starts_b):
        """Per-chunk arrays -> (start_char, end_char, lid) numpy
        triple for one MANY span: back boundaries up to the start of
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
            # — k=0 uses sp.offset and the last chunk ends at
            # sp.end_offset, so the word-backup math is moot
            return (np.array([sp.offset], dtype=np.int64),
                    np.array([sp.end_offset], dtype=np.int64), lids)
        sb = sp.text_utf8
        arr = np.frombuffer(sb, dtype=np.uint8)
        cstart = np.flatnonzero((arr & 0xC0) != 0x80)
        letter_byte_starts = cstart[arr[cstart] != 0x20]
        lpos = np.asarray(sp.letter_pos)
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
        starts[0] = sp.offset
        ends = np.concatenate([chunk_char[1:], [sp.end_offset]])
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
        _, raw = self._fill_totes([spans.script_spans(text)], [None],
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

    def detect_html(self, html: bytes,
                    url: str = "") -> tuple[score.DetectResult, str, int]:
        """UTF-8 gate + extraction + detection for raw page bytes.
        Hints (lang= attrs, Content-Language, TLD) are derived from the
        raw page. Returns (result, extracted_text, valid_prefix_bytes)."""
        vp = valid_utf8_prefix(html)
        if vp < len(html):
            # invalid UTF-8 input -> UNKNOWN, like
            # ExtDetectLanguageSummaryCheckUTF8 (compact_lang_det.cc:317-334)
            text = extract_text(html[:vp]) if vp else ""
            return (score.DetectResult(langs.UNKNOWN,
                                       (langs.UNKNOWN,) * 3, (0, 0, 0),
                                       (0.0, 0.0, 0.0), vp, False),
                    text, vp)
        text = extract_text(html)
        hl = (hints_mod.priors_from_page(url, html)
              if (url or html) else None)
        return self.detect(text, hint_langs=hl), text, vp
