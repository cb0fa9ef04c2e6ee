"""Python document stage: the oracle of quadscan.c ``doc_stage``
(``native.doc_stage``, behind ``Detector._finalize``) and, through
``detect_oracle``, of ``Detector.detect_batch`` one document at a time.

With the reference's exact integer math:

* DocTote accumulation with the 24-slot cap (tote.h:67-108, evict the
  entry with the fewest bytes, the earliest inserted on a tie),
* RefineScoredClosePairs (compact_lang_det_impl.cc:1152-1203),
* RemoveUnreliableLanguages with closest-alt merging
  (compact_lang_det_impl.cc:981-1101, threshold 41%),
* ExtractLangEtc percent rounding fix + normalized score
  (compact_lang_det_impl.cc:1268-1384),
* CalcSummaryLang — English/FIGS boilerplate rules, 26%/51%/20%
  thresholds, Tier-3 128-byte second-language rule
  (compact_lang_det_impl.cc:1414-1522),
* the Repeats-retry accept rule (compact_lang_det_impl.cc:1979-2106).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from cld2_ray import native
from cld2_ray.functions import hints as hints_mod, langs, spans, uscript as us
from cld2_ray.functions.langid import _csr
from cld2_ray.functions.score import (CHUNKSIZE_QUADS, CHUNKSIZE_UNIS,
                                      MIN_RELIABLE_KEEP_PERCENT,
                                      DetectResult)
from tests.oracles.repeats import (SQUEEZE_TEST_THRESH, remove_repeated_words,
                                   squeeze, squeeze_trigger)

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
        if len(totes[d].bytes_) + int(n_new[d]) > DOC_TOTE_SLOTS:
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


def _refine_close_pairs(tote: DocTote) -> None:
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


def _remove_unreliable(tote: DocTote) -> None:
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


def _extract_lang_etc(tote: DocTote, total_text_bytes: int):
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


def _calc_summary_lang(language3, percent3, total_text_bytes,
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


def is_good(res: DetectResult, total_text_bytes: int) -> bool:
    """The Repeats-retry accept rule (compact_lang_det_impl.cc:
    1979-2106): a first-pass result stands when the text is short, or
    when it is reliable and its top language (or top two) dominate."""
    return (total_text_bytes <= SHORT_TEXT_THRESH
            or (res.is_reliable
                and (res.percent3[0] >= GOOD_LANG1_PERCENT
                     or res.percent3[0] + res.percent3[1]
                     >= GOOD_LANG1AND2_PERCENT)))


def finalize(tote: DocTote, total_letter_bytes: int, best_effort: bool,
             declared=None) -> DetectResult:
    """One document's result from its filled tote (refines ``tote``
    in place)."""
    _refine_close_pairs(tote)
    if not best_effort:
        # best-effort skips unreliable-language removal
        # (impl.cc:1998 "if (!FlagBestEffort(flags))")
        _remove_unreliable(tote)
    language3, percent3, nscore3, total, is_rel = \
        _extract_lang_etc(tote, total_letter_bytes)
    summary, rel2 = _calc_summary_lang(language3, percent3, total,
                                       best_effort, declared)
    return DetectResult(
        summary_lang=summary,
        language3=tuple(language3),
        percent3=tuple(percent3),
        normalized_score3=tuple(nscore3),
        text_bytes=total,
        is_reliable=is_rel and rel2,
    )


def _tote_range_lang(tote: DocTote) -> int:
    """A whole-span range's language: the span tote's top language by
    bytes (ties -> smaller id), UNKNOWN below 41% reliability."""
    if not tote.bytes_:
        return langs.UNKNOWN
    lid = max(tote.bytes_, key=lambda k: (tote.bytes_[k], -k))
    rp = tote.rel[lid] // max(tote.bytes_[lid], 1)
    return lid if rp >= MIN_RELIABLE_KEEP_PERCENT else langs.UNKNOWN


def _hint_payloads(hints):
    """One document's hints as detect_batch's list form takes them
    (None, lang ids at LANGUAGE_WEIGHT each, or (lang_id, weight)
    priors) -> its (latn, othr) payloads (hints.payloads), or None."""
    if not hints:
        return None
    return hints_mod.payloads(
        [h if isinstance(h, tuple) else (int(h), hints_mod.LANGUAGE_WEIGHT)
         for h in hints])


def _doc_tote(det, sl: list, hints) -> DocTote:
    """One document's tote from its ScriptSpans in the runtime's add
    order: RTYPE_ONE spans, then the MANY spans' chunks, then the CJK
    spans' chunks (chunk scores from the C kernels on this document's
    spans alone)."""
    tote = DocTote()
    hl = _hint_payloads(hints)
    m = det.model
    many = [sp for sp in sl if det._rtype(sp.script) == us.RTYPE_MANY]
    cjk = [sp for sp in sl if det._rtype(sp.script) == us.RTYPE_CJK]
    for sp in sl:
        if det._rtype(sp.script) == us.RTYPE_ONE:
            lid = int(langs.SCRIPT_DEFAULT_LANG[sp.script])
            tote.add(lid, sp.text_bytes, sp.text_bytes, 100)
    if many:
        bufs = [sp.text_utf8 for sp in many]
        sc = np.array([sp.script for sp in many], dtype=np.int64)
        ends = np.cumsum([len(b) for b in bufs])
        c = native.quad_octa_chunk_score(
            b"".join(bufs), ends - [len(b) for b in bufs], ends, m.quad,
            m.socta, m.docta, m.xocta, sc == us.LATIN, CHUNKSIZE_QUADS, m.expected_quad, langs.CLOSE_SET,
            *_csr([hl[0 if s == us.LATIN else 1] if hl else None
                   for s in sc.tolist()]), us.LSCRIPT4[sc])
        _bulk_tote_add([tote], np.zeros(len(c[0]), np.int64), *c[:4])
    if cjk:
        bufs = [sp.text_utf8 for sp in cjk]
        ends = np.cumsum([len(b) for b in bufs])
        c = native.cjk_chunk_score(
            b"".join(bufs), ends - [len(b) for b in bufs], ends,
            np.array([sp.text_bytes for sp in cjk], dtype=np.int64),
            m.uni, m.cjkbi, CHUNKSIZE_UNIS, m.expected_uni,
            langs.CLOSE_SET, *_csr([hl[1] if hl else None] * len(cjk)))
        _bulk_tote_add([tote], np.zeros(len(c[0]), np.int64), *c[:4])
    return tote


def detect_oracle(det, text: str, hint_langs=None, best_effort=False,
                  default_to_english=False, declared=None) -> DetectResult:
    """Detector.detect_batch's result for one document, by the Python
    document stage: squeeze gate, ScriptSpans, tote, finalize, and the
    Repeats retry over the spans with predicted words dropped (keeping
    each span's original text_bytes)."""
    text = text or ""
    if len(text) > SQUEEZE_TEST_THRESH and squeeze_trigger(text):
        text = squeeze(text)
    sl = spans.script_spans(text)
    total = sum(sp.text_bytes for sp in sl)
    res = finalize(_doc_tote(det, sl, hint_langs), total, best_effort,
                   declared)
    if not is_good(res, total):
        sl2 = [spans.ScriptSpan(
            text_utf8=remove_repeated_words(sp.text).encode("utf-8"),
            script=sp.script, offset=sp.offset, text_bytes=sp.text_bytes)
            for sp in sl]
        total2 = max(sum(len(sp.text_utf8) for sp in sl2), 1)
        res2 = finalize(_doc_tote(det, sl2, hint_langs), total2,
                        best_effort, declared)
        if (res2.summary_lang != langs.UNKNOWN
                or res.summary_lang == langs.UNKNOWN):
            res = res2
    if default_to_english and res.summary_lang == langs.UNKNOWN:
        res.summary_lang = langs.ENGLISH
    return res
