"""CLDHints derivation + application (reference: internal/
compact_lang_det_hint_code.cc).

Hint sources, as in the reference:
* TLD from the url (tld_hint; :1446-1462, per-entry packed strengths
  from kCLDTLDHintTable, Boost-merged +2 on repeats),
* ``lang="xx"`` / ``xml:lang`` attributes and Content-Language metas
  scanned in the first 8KB of HTML (:1557-1612,
  FLAGS_cld_max_lang_tag_scan_kb = 8), looked up in the long/short
  lang-tag tables (kCLDLangTagsHintTable1/2, Max-merged),
* legacy encoding (kCLDPriorEncodingWeight = 4),
* an explicit caller hint (kCLDPriorLanguageWeight = 8).

The per-entry strengths, table contents and per-script-class language
sets are parsed from the reference at build time
(scripts/gen_hintdata.py -> cld2_ray/data/hintdata.py). Application
follows ApplyHints (compact_lang_det_impl.cc:1589-1686): priors are
trimmed to the 4 largest absolute weights; positive priors become
per-chunk score boosts of their weight on spans whose script class
can carry the language; when exactly ONE member of a statistically
close set is hinted, the other members are whacked (zeroed) per chunk
(:1656-1683 + AddCloseLangWhack).

Payload encoding (shared with the C kernel): one int64 per entry;
boost = lang_id | (weight << 16), whack = -lang_id.

The one runtime scanner is C: ``scan_batch`` runs
native.page_hints_scan over a batch's html and url columns in place,
with its tables built at first use from data/hintdata.py and
ENCODING_HINTS (``_scan_tables``), and returns per-page columns
(``PageHints``): the trimmed signed priors as ``Priors`` arrays, the
declared ids as ``Declared`` CSR and tld_lang. ``page_hints`` is the
Python scan it reproduces, kept as its test oracle (the benchmark's
per-document oracle calls it and its tracer wraps it). The Detector
takes hints in the same array form (``Priors``), encodes each distinct
prior row once with ``payloads`` and gathers the rows' payloads into
the chunk kernels' per-span CSR.

What the flagship kernel passes differs from the above.
stages.core._fused hands langid only the ids of the positive priors,
each at LANGUAGE_WEIGHT (8), as for an explicit caller hint
(``Priors.positive_ids``). So the per-source strengths (lang= W10, TLD
W2-W8, charset W4) never reach the scorer, and a negative TLD secondary
does not block a close-set whack: a .ba page's priors are
[(bs, 8), (hr, -4)], whose payloads boost bs and whack nothing, but
the kernel scores with ([bs|8<<16, -hr, -sr], [bs|8<<16, -sr]). The
per-document oracles pass the same ids, so passing the weighted priors
instead would change the output.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import langs
from cld2_ray.data.hintdata import (LANGTAG_LONG, LANGTAG_SHORT,
                                    LATN_LANGS, OTHR_LANGS, TLD_PRIORS)

MAX_SCAN_BYTES = 8192   # first 8KB of HTML (FLAGS_cld_max_lang_tag_scan_kb)
ENCODING_WEIGHT = 4     # kCLDPriorEncodingWeight
LANGUAGE_WEIGHT = 8     # kCLDPriorLanguageWeight (explicit caller hint)
MAX_PRIORS = 4          # TrimCLDLangPriors(4, ...)

# legacy-encoding -> likely language (the encoding_hint analogue,
# compact_lang_det.h:133-138 + the hint boost table
# compact_lang_det_hint_code.cc:647-1390): only encodings that are
# strongly language-identifying carry a hint; universal encodings
# (utf-8, iso-8859-1, windows-1252, ascii) map to none.
ENCODING_HINTS: dict[str, str] = {
    "shift_jis": "ja", "shift-jis": "ja", "sjis": "ja", "euc-jp": "ja",
    "iso-2022-jp": "ja",
    "gb2312": "zh", "gbk": "zh", "gb18030": "zh", "hz-gb-2312": "zh",
    "big5": "zh-Hant", "big5-hkscs": "zh-Hant",
    "euc-kr": "ko", "iso-2022-kr": "ko", "ks_c_5601-1987": "ko",
    "koi8-r": "ru", "koi8-u": "uk",
    "windows-1251": "ru", "iso-8859-5": "ru",
    "windows-1253": "el", "iso-8859-7": "el",
    "windows-1254": "tr", "iso-8859-9": "tr",
    "windows-1255": "he", "iso-8859-8": "he", "iso-8859-8-i": "he",
    "windows-1256": "ar", "iso-8859-6": "ar",
    "windows-1258": "vi",
    "tis-620": "th", "windows-874": "th", "iso-8859-11": "th",
    "iso-8859-2": "pl", "windows-1250": "pl",
    "windows-1257": "lt", "iso-8859-13": "lt",
    "iscii-devanagari": "hi", "x-mac-cyrillic": "ru",
}

_CHARSET_RE = re.compile(
    rb"""charset\s*=\s*["']?\s*([A-Za-z0-9_\-]+)""", re.IGNORECASE)

_HOST_RE = re.compile(r"^[a-z]+://([^/:?#]+)", re.IGNORECASE)
# a lang= / xml:lang= attribute at a given start, for the find()-seeded
# scan in _iter_lang_attrs, which checks the left boundary itself (a
# regex lookbehind tried at every byte of the 8KB head was ~90% of hint
# cost)
_LANG_ATTR_AT_RE = re.compile(
    rb"""(?:lang|xml:lang)\s*=\s*["']?\s*([A-Za-z]{2,3})(?:[-_][A-Za-z]{2,8})?""",
    re.IGNORECASE)


def _iter_lang_attrs(head: bytes):
    """The lang= attributes of ``head``, left to right without overlap,
    each preceded by neither a letter nor '-': the reference requires
    ' lang' / ':lang' before '=' (GetLangTagsFromHtml,
    compact_lang_det_hint_code.cc), so hreflang="xx" on <link
    rel=alternate> supplies no hint. Seeded by substring find: every
    match starts at a literal 'lang' or 'xml:lang', so anchored
    probes at each 'lang' occurrence (trying the 'xml:lang' start
    first, as leftmost-first does) enumerate the same matches in the
    same order. last_end reproduces finditer's non-overlap rule —
    candidates inside a previous match (e.g. a value like 'xml' or
    'lan' followed by '=') are skipped, as the engine resumes scanning
    at the previous match's end."""
    low = head.lower()
    pos = 0
    last_end = 0
    while True:
        p = low.find(b"lang", pos)
        if p < 0:
            return
        starts = []
        if p >= 4 and low[p - 4:p] == b"xml:":
            starts.append(p - 4)
        starts.append(p)
        for s in starts:
            if s < last_end:
                continue
            prev = head[s - 1:s]
            if prev and (prev.isalpha() or prev == b"-"):
                continue  # the (?<![A-Za-z-]) boundary
            m = _LANG_ATTR_AT_RE.match(head, s)
            if m:
                yield m
                last_end = m.end()
                break
        pos = p + 4
_CONTENT_LANG_RE = re.compile(
    rb"""content-language["']?\s+content\s*=\s*["']?\s*([A-Za-z]{2,3})""",
    re.IGNORECASE)
# tag contexts the reference skips when scanning for lang= attributes
# (link/script/a tags and comments carry hreflang/JS/outbound-locale
# noise, not the page's own language)
_SKIP_TAG_RE = re.compile(
    rb"""<!--.*?(?:-->|$)|<script\b.*?(?:</script\s*>|$)"""
    rb"""|<(?:link|a|area|font|img)\b[^>]*(?:>|$)""",
    re.IGNORECASE | re.DOTALL)


def tld_of(url: str) -> str:
    """Last dns label of the host ('' if unparseable)."""
    m = _HOST_RE.match(url)
    if not m:
        return ""
    host = m.group(1)
    return host.rsplit(".", 1)[-1].lower() if "." in host else ""


def _merge_max(priors: list[list], code: str, w: int) -> None:
    """MergeCLDLangPriorsMax (hint_code.cc:941-955)."""
    for p in priors:
        if p[0] == code:
            p[1] = max(p[1], w)
            return
    priors.append([code, w])


def _merge_boost(priors: list[list], code: str, w: int) -> None:
    """MergeCLDLangPriorsBoost (hint_code.cc:958-971): +2 on repeat."""
    for p in priors:
        if p[0] == code:
            p[1] += 2
            return
    priors.append([code, w])


def _langtag_priors(tag: str, priors: list[list]) -> None:
    """One lang tag value -> Max-merged priors (SetCLDLangTagsHint,
    hint_code.cc:1394-1435: long table first, else short table with
    the code truncated at the first hyphen)."""
    tag = tag.strip().lower()
    if not tag or len(tag) > 16:
        return
    entry = LANGTAG_LONG.get(tag)
    if entry is None:
        short = tag.split("-", 1)[0]
        if len(short) <= 3:
            entry = LANGTAG_SHORT.get(short)
    if entry:
        for code, w in entry:
            _merge_max(priors, code, w)


def page_hints(url: str, html: bytes):
    """One scan of the page head -> (priors, declared, tld_lang): the
    Python oracle of native.page_hints_scan (``scan_batch``).

    priors: (lang_id, signed_weight) from every hint source — lang=
      attrs + content-language metas (Max merge), charset (encoding
      weight, Boost merge), TLD (per-entry strengths, Boost merge) —
      trimmed to the 4 largest absolute weights (TrimCLDLangPriors).
    declared: tuple of lang ids the page EXPLICITLY declares
      (content-language meta / lang= attributes only — TLD and charset
      are inferences, not declarations).
    tld_lang: the TLD prior table's strongest positive language
      (0 when the TLD carries no prior), for metadata fallback on
      zero-signal pages."""
    priors: list[list] = []   # [code, weight], insertion-ordered
    declared: tuple = ()

    raw_head = html[:MAX_SCAN_BYTES]
    # fast substring pre-filter: the three regexes each scan the full
    # 8KB head; a lowercase copy + find is ~10x cheaper than one regex
    # pass, and most pages carry no content-language/charset at all
    low = raw_head.lower()
    has_lang = b"lang" in low
    has_cl = b"content-language" in low
    has_cs = b"charset" in low
    if has_lang or has_cl or has_cs:
        head = _SKIP_TAG_RE.sub(b" ", raw_head)
        if has_lang:
            for m in _iter_lang_attrs(head):
                _langtag_priors(m.group(1).decode("ascii"), priors)
        if has_cl:
            m = _CONTENT_LANG_RE.search(head)
            if m:
                _langtag_priors(m.group(1).decode("ascii"), priors)
        declared = tuple(lid for lid in
                         (langs.lang_id(c) for c, w in priors if w > 0)
                         if lid)
        if has_cs:
            m = _CHARSET_RE.search(head)
            if m:
                enc = m.group(1).decode("ascii").lower()
                code = ENCODING_HINTS.get(enc, "")
                if code:
                    _merge_boost(priors, code, ENCODING_WEIGHT)
    tld_entry = TLD_PRIORS.get(tld_of(url))
    tld_lang = 0
    if tld_entry:
        for code, w in tld_entry:
            _merge_boost(priors, code, w)
        best = max((p for p in tld_entry if p[1] > 0),
                   key=lambda p: p[1], default=None)
        if best:
            tld_lang = langs.lang_id(best[0])

    # TrimCLDLangPriors(4): keep largest |weight|, stable on ties
    priors.sort(key=lambda p: -abs(p[1]))
    out = []
    for code, w in priors[:MAX_PRIORS]:
        lid = langs.lang_id(code)
        if lid:
            out.append((lid, w))
    return out, declared, tld_lang


# close set -> member lang ids (computed once; _whacks used to loop
# all NUM_LANGS per hinted language, ~4% of whole-pipeline profile)
_SET_MEMBERS: dict[int, list[int]] = {}
for _lid in range(langs.NUM_LANGS):
    _cs = langs.language_close_set(_lid)
    if _cs:
        _SET_MEMBERS.setdefault(_cs, []).append(_lid)


def _whacks(priors) -> list[int]:
    """Close-set whack targets (ApplyHints, impl.cc:1656-1683): when
    exactly one member of a close set carries a prior, suppress the
    other members; zh/zh-Hant are a whack-pair here even though they
    are not a close set elsewhere."""
    zh, zht = langs.lang_id("zh"), langs.lang_id("zh-Hant")
    set_count: dict[int, int] = {}
    zh_count = 0
    for lid, _w in priors:
        cs = langs.language_close_set(lid)
        if cs:
            set_count[cs] = set_count.get(cs, 0) + 1
        if lid in (zh, zht):
            zh_count += 1
    out: list[int] = []
    for lid, w in priors:
        if w <= 0:
            continue
        cs = langs.language_close_set(lid)
        if cs and set_count.get(cs) == 1:
            out.extend(o for o in _SET_MEMBERS[cs] if o != lid)
        if lid in (zh, zht) and zh_count == 1:
            out.append(zht if lid == zh else zh)
    return out


def payloads(priors) -> tuple[list[int], list[int]]:
    """(latn_payload, othr_payload): packed per-chunk hint entries,
    filtered by script class (AddLangPriorBoost/AddOneWhack,
    impl.cc:1524-1562: a hint only applies to spans whose script class
    can carry the language). Boost = lid | (w << 16); whack = -lid;
    boosts precede whacks (ScoreBoosts applies whacks last).

    Cached on the priors tuple: pages repeat the same small set of
    hint combinations (TLDs, lang= values), and the per-page Python
    cost of re-deriving class filters + whacks was ~5% of the whole
    fused pipeline."""
    lat, oth = _payloads_cached(tuple(priors))
    return list(lat), list(oth)


@lru_cache(maxsize=4096)
def _payloads_cached(priors):
    latn: list[int] = []
    othr: list[int] = []
    for lid, w in priors:
        if w <= 0:
            continue
        code = langs.lang_code(lid)
        v = lid | (w << 16)
        if code in LATN_LANGS:
            latn.append(v)
        if code in OTHR_LANGS:
            othr.append(v)
    wh = _whacks(priors)
    hinted_latn = any(langs.lang_code(lid) in LATN_LANGS
                      for lid, w in priors if w > 0)
    hinted_othr = any(langs.lang_code(lid) in OTHR_LANGS
                      for lid, w in priors if w > 0)
    for lid in wh:
        code = langs.lang_code(lid)
        if hinted_latn and code in LATN_LANGS:
            latn.append(-lid)
        if hinted_othr and code in OTHR_LANGS:
            othr.append(-lid)
    return latn, othr


class Priors(NamedTuple):
    """Per-document hint priors, the Detector's one hint form: document
    d's priors are the (lid[d, k], w[d, k]) with lid[d, k] != 0, in k
    order (int64 arrays of one shape; id 0, UNKNOWN, pads a row)."""
    lid: np.ndarray
    w: np.ndarray

    def positive_ids(self) -> "Priors":
        """The ids of the positive priors, each at LANGUAGE_WEIGHT (an
        explicit caller hint): what the flagship passes (module
        docstring)."""
        pos = self.w > 0
        return Priors(np.where(pos, self.lid, 0),
                      np.where(pos, LANGUAGE_WEIGHT, 0))


class Declared(NamedTuple):
    """Per-document declared lang ids, the Detector's one declared
    form: document d's are flat[csr[d]:csr[d+1]] (int64)."""
    csr: np.ndarray
    flat: np.ndarray

    def take(self, rows) -> "Declared":
        from .spans import index_runs
        csr, idx = index_runs(self.csr[rows], self.csr[rows + 1])
        return Declared(csr, self.flat[idx])

    def first(self) -> np.ndarray:
        """Each document's first declared id, 0 if it declares none."""
        has = self.csr[1:] > self.csr[:-1]
        return np.where(has, np.append(self.flat, 0)[self.csr[:-1]], 0)


class PageHints(NamedTuple):
    """``scan_batch``'s columns: per page, what page_hints(url,
    html[:valid]) gives — the trimmed signed priors (at most
    MAX_PRIORS), the declared ids and tld_lang (int64[n])."""
    priors: Priors
    declared: Declared
    tld_lang: np.ndarray


@lru_cache(maxsize=1)
def _scan_tables() -> tuple:
    """native.page_hints_scan's tables, built from the hint tables of
    data/hintdata.py and ENCODING_HINTS: every prior code numbered
    (code_lid: its lang id, 0 if it has none), one native.table_build
    table of lang tag values (the 2-3 letter keys a lang= or
    Content-Language value can reach: the long table's, else the short
    table's) and of TLDs -> entry + 1, the entries' (code, weight)
    pairs as CSR, the encoding names with their codes, and the bound
    (longest tag entry, distinct positive tag codes) of the declared
    ids."""
    from cld2_ray import native
    tags = {k: LANGTAG_LONG.get(k, LANGTAG_SHORT.get(k))
            for k in {*LANGTAG_LONG, *LANGTAG_SHORT}
            if 2 <= len(k) <= 3 and k.isascii() and k.isalpha()
            and k.islower()}
    tables = ((1 << 56, tags), (2 << 56, TLD_PRIORS))
    codes = sorted({c for _, t in tables for e in t.values() if e
                    for c, _ in e} | set(ENCODING_HINTS.values()))
    num = {c: i for i, c in enumerate(codes)}
    kv, entries = {}, []
    for kind, table in tables:
        for key, entry in table.items():
            if entry:
                assert len(key) <= 7 and key.isascii()
                entries.append(entry)
                kv[kind | int.from_bytes(key.encode("ascii"),
                                         "little")] = len(entries)
    names = sorted(ENCODING_HINTS)
    pos_codes = {c for e in tags.values() if e for c, w in e if w > 0}

    def arr(x):
        return np.array(x, dtype=np.int64)

    return (*native.table_build(kv),
            arr(np.cumsum([0] + [len(e) for e in entries])),
            arr([num[c] for e in entries for c, _ in e]),
            arr([w for e in entries for _, w in e]),
            np.frombuffer("".join(names).encode("ascii"), dtype=np.uint8),
            arr(np.cumsum([0] + [len(k) for k in names])),
            arr([num[ENCODING_HINTS[k]] for k in names]),
            arr([langs.lang_id(c) for c in codes]),
            (max(len(e) for e in tags.values() if e), len(pos_codes)))


def scan_batch(htmls, valid, urls) -> PageHints:
    """page_hints of every page in one C pass (native.page_hints_scan):
    page d's head is the first min(valid[d], MAX_SCAN_BYTES) bytes of
    htmls[d] (valid: each page's valid UTF-8 prefix length, as
    extract.extract_batch returns it), its url urls[d]. htmls and urls
    are Arrow binary / string columns, read in place (a null reads as
    empty), or lists of bytes / str."""
    import pyarrow as pa
    from cld2_ray import native
    if not isinstance(htmls, (pa.Array, pa.ChunkedArray)):
        htmls = pa.array(htmls, type=pa.binary())
    if not isinstance(urls, (pa.Array, pa.ChunkedArray)):
        urls = pa.array(urls, type=pa.string())
    lid, w, csr, flat, tld_lang = native.page_hints_scan(
        *native.arrow_docs(htmls), valid, *native.arrow_docs(urls),
        _scan_tables())
    return PageHints(Priors(lid, w), Declared(csr, flat), tld_lang)
