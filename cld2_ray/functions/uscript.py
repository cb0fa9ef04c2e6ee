"""Unicode-letter script classification (ULScript analogue).

Mirrors the reference's per-character "Unicode Letters script" property
(reference: internal/utf8prop_lettermarkscriptnum.h via
GetUTF8LetterScriptNum, getonescriptspan.cc:1083-1088) with all CJK
scripts merged into one HANI bucket (reference: lang_script.h:44-52).

We load a flat ``uint8`` lookup table over codepoints 0..0x2FFFF once
per process from the committed ``unicode_luts.npz`` (letters and
combining marks get their script id, everything else 0) and classify
whole documents as numpy int32 codepoint arrays — the vectorized
equivalent of the reference's byte-at-a-time UTF-8 state machine.
"""

from __future__ import annotations

import hashlib
import os
import unicodedata
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# Script ids. 0 = not-a-letter (or unsupported script -> treated as non-letter).
COMMON = 0
LATIN = 1
CYRILLIC = 2
GREEK = 3
ARABIC = 4
HEBREW = 5
DEVANAGARI = 6
BENGALI = 7
GURMUKHI = 8
GUJARATI = 9
ORIYA = 10
TAMIL = 11
TELUGU = 12
KANNADA = 13
MALAYALAM = 14
SINHALA = 15
THAI = 16
LAO = 17
TIBETAN = 18
MYANMAR = 19
GEORGIAN = 20
ETHIOPIC = 21
KHMER = 22
ARMENIAN = 23
HANI = 24  # Han + Hiragana + Katakana + Hangul + Bopomofo, merged like ULScript_Hani
# remaining RTypeOne scripts of the reference (generated_ulscript.cc:
# 350-450): each implies exactly one language
SYRIAC = 25
THAANA = 26
CHEROKEE = 27
CANS = 28       # Canadian Aboriginal syllabics
MONGOLIAN = 29  # the vertical Mong script (Cyrillic mn is quadgram-scored)
TAGALOG = 30    # Baybayin (Latin tl is quadgram-scored)
LIMBU = 31

NUM_SCRIPTS = 32

# LScript4 slot compaction (reference cldutil.cc / generated score
# tables: kAvgDeltaOctaScore[lang*4 + LScript4(ulscript)]): the
# expected-score table keeps 4 per-language slots — Latn=0, Cyrl=1,
# Arab=2, every other script=3 — because per-KB hit rates differ by
# SCRIPT for multi-script languages (kk Cyrl vs kk Latn etc.).
LSCRIPT4 = np.full(NUM_SCRIPTS, 3, dtype=np.uint8)
LSCRIPT4[LATIN] = 0
LSCRIPT4[CYRILLIC] = 1
LSCRIPT4[ARABIC] = 2

SCRIPT_NAMES = [
    "Common", "Latn", "Cyrl", "Grek", "Arab", "Hebr", "Deva", "Beng",
    "Guru", "Gujr", "Orya", "Taml", "Telu", "Knda", "Mlym", "Sinh",
    "Thai", "Laoo", "Tibt", "Mymr", "Geor", "Ethi", "Khmr", "Armn",
    "Hani", "Syrc", "Thaa", "Cher", "Cans", "Mong", "Tglg", "Limb",
]

LUT_SIZE = 0x30000

# Recognition type per script (reference: generated_ulscript.h:26 ULScriptRType)
RTYPE_NONE = 0   # unsupported -> default language, score by bytes
RTYPE_ONE = 1    # script implies exactly one language
RTYPE_MANY = 2   # quadgram scoring
RTYPE_CJK = 3    # unigram scoring

_RTYPE = np.zeros(NUM_SCRIPTS, dtype=np.uint8)
# quadgram-scored (RTypeMany) scripts per the reference's
# kULScriptToRtype (generated_ulscript.cc:348-380). HEBREW became
# RTypeMany in round 3 (Hebr carries he+yi, Beng bn+as, Ethi am+ti),
# TIBETAN in round 4 (Tibt carries bo+dz, seeds in data/seeds_r4.py) —
# all with authored seed corpora.
_RTYPE[[LATIN, CYRILLIC, ARABIC, DEVANAGARI, HEBREW, BENGALI,
        ETHIOPIC, TIBETAN]] = RTYPE_MANY
_RTYPE[HANI] = RTYPE_CJK
for _s in (GREEK, GURMUKHI, GUJARATI, ORIYA, TAMIL, TELUGU,
           KANNADA, MALAYALAM, SINHALA, THAI, LAO, MYANMAR, GEORGIAN,
           KHMER, ARMENIAN, SYRIAC, THAANA, CHEROKEE, CANS, MONGOLIAN,
           TAGALOG, LIMBU):
    _RTYPE[_s] = RTYPE_ONE


def script_rtype(script: int) -> int:
    return int(_RTYPE[script])


# raw ULScript numbers (reference generated_ulscript.h:31-55) -> this
# engine's script ids, for every script the engine scores; reference
# letters of any other script stay 0 (non-letter/unsupported), same as
# before the parsed tables landed.
_ULSCRIPT_TO_ID = {
    1: LATIN, 2: GREEK, 3: CYRILLIC, 4: ARMENIAN, 5: HEBREW, 6: ARABIC,
    7: SYRIAC, 8: THAANA,
    9: DEVANAGARI, 10: BENGALI, 11: GURMUKHI, 12: GUJARATI, 13: ORIYA,
    14: TAMIL, 15: TELUGU, 16: KANNADA, 17: MALAYALAM, 18: SINHALA,
    19: THAI, 20: LAO, 21: TIBETAN, 22: MYANMAR, 23: GEORGIAN, 24: HANI,
    25: ETHIOPIC, 26: CHEROKEE, 27: CANS, 30: KHMER, 31: MONGOLIAN,
    41: TAGALOG, 45: LIMBU,
}

ARTIFACT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "state", "artifacts", "unicode_luts.npz")


@lru_cache(maxsize=1)
def _ref_luts():
    """(ulscript uint8[0x30000], lower uint32[0x30000]) parsed from the
    reference's utf8statetable headers (tools/refparse.py:
    ulscript_prop_lut / lettermark_lower_lut), verified against the
    artifact's sha256 manifest. Raises FileNotFoundError if the
    artifact is missing: there is no second source of these tables."""
    z = np.load(ARTIFACT)
    want = dict(e.split(":") for e in z["manifest"])
    out = {}
    for name in ("ulscript", "lower"):
        arr = z[name]
        if hashlib.sha256(arr.tobytes()).hexdigest() != want[name]:
            raise ValueError(
                f"unicode_luts artifact corrupted: {name} checksum "
                "mismatch — rebuild with python -m tools.refparse")
        out[name] = arr
    return out["ulscript"], out["lower"]


@lru_cache(maxsize=1)
def script_lut() -> np.ndarray:
    """uint8[0x30000]: codepoint -> script id (0 for non-letter).

    The reference's own letter/mark/script property state machine
    (internal/utf8prop_lettermarkscriptnum.h via
    GetUTF8LetterScriptNum, getonescriptspan.cc:1083-1088), parsed into
    the unicode_luts artifact and remapped to this engine's script ids."""
    remap = np.zeros(256, dtype=np.uint8)
    for uls, sid in _ULSCRIPT_TO_ID.items():
        remap[uls] = sid
    return remap[_ref_luts()[0]]


@lru_cache(maxsize=1)
def lower_lut() -> np.ndarray:
    """uint32[0x30000]: the pinned 1:1 lowercase remap.

    The reference's utf8repl_lettermarklower.h replace table (applied
    by ScriptScanner::LowerScriptSpan, getonescriptspan.cc:1033-1053),
    parsed per codepoint into the unicode_luts artifact — every
    replacement in that table is exactly one codepoint (asserted at
    build), including İ->i and Georgian Asomtavruli->Mkhedruli, so
    offsets stay 1:1."""
    return _fold_arabic_presentation(_ref_luts()[1].astype(np.uint32))


def _fold_arabic_presentation(lut: np.ndarray) -> np.ndarray:
    """Fold Arabic presentation forms (U+FB50-FDFF, U+FE70-FEFF) to
    their base letters in the pinned lowercase remap.

    Documented deviation: the reference leaves presentation forms
    unmapped and instead carries presentation-form quadgrams in its
    web-trained tables (its kk-Arab unittest string is entirely
    contextual-form codepoints). This engine's tables are trained on
    base-form text, so the 1:1 remap folds each positional variant to
    its NFKC base letter; multi-letter ligatures (lam-alef and the
    FDxx word ligatures) keep only the first base letter — a bounded
    approximation affecting only ligature-encoded text."""
    out = lut.copy()
    for lo, hi in ((0xFB50, 0xFDFF), (0xFE70, 0xFEFF)):
        for cp in range(lo, hi + 1):
            base = unicodedata.normalize("NFKC", chr(cp))
            if not base:
                continue
            b0 = ord(base[0])
            if b0 != cp and 0x0600 <= b0 <= 0x06FF \
                    and unicodedata.category(base[0]).startswith("L"):
                out[cp] = lut[b0] if b0 < len(lut) else b0
    return out


class LowerTables(NamedTuple):
    """Python's str.lower as native.lower_docs reads it: ``low[cp]`` is
    the lowered codepoint of each cp < len(low) (past it a cp lowers to
    itself), or bit 31 | k for the two chars ext[2k], ext[2k+1]; the
    case class (LOW_CASED, LOW_IGNORABLE or 0) of cp is cls[i] of the
    last run i with cls_start[i] <= cp. The class only serves U+03A3,
    whose lowering depends on its neighbours."""
    low: np.ndarray
    ext: np.ndarray
    cls_start: np.ndarray
    cls: np.ndarray


LOW_CASED = 1       # quadscan.c LOW_CASED
LOW_IGNORABLE = 2   # quadscan.c LOW_IGNORABLE
_PLANE = 0x10000


def _lower_str(cps: np.ndarray) -> np.ndarray:
    """str.lower of the string of codepoints ``cps``, as codepoints."""
    return np.frombuffer(cps.astype("<u4", copy=False).tobytes()
                         .decode("utf-32-le")
                         .lower().encode("utf-32-le"), dtype="<u4")


def _lower_each(cps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, second): the chars of str.lower(chr(c)) for each c in
    cps, second 0 where it is one char. A run of chars is lowered as one
    string, halved until each part lowers to as many chars as it holds:
    only U+03A3 lowers by context, and always to one char."""
    first = np.empty(len(cps), dtype=np.uint32)
    second = np.zeros(len(cps), dtype=np.uint32)
    todo = [(0, len(cps))]
    while todo:
        a, b = todo.pop()
        got = _lower_str(cps[a:b])
        if len(got) == b - a:
            first[a:b] = got
        elif b - a == 1:
            if len(got) != 2:
                raise ValueError(f"U+{cps[a]:04X} lowers to {len(got)} "
                                 "chars; lower_docs takes at most 2")
            first[a], second[a] = got
        else:
            todo += [(a, (a + b) // 2), ((a + b) // 2, b)]
    return first, second


def _final_sigma(cps: np.ndarray, width: np.ndarray, after: str):
    """Whether U+03A3 lowers to final sigma in "a\u03a3" + c + after,
    for each c in cps (lowering to ``width`` chars), all probed in one
    str.lower call."""
    probe = np.empty((len(cps), 4), dtype=np.uint32)
    probe[:] = [ord("a"), 0x3A3, 0, ord(after)]
    probe[:, 2] = cps
    got = _lower_str(probe.reshape(-1))
    start = np.cumsum(3 + width) - (3 + width)
    return got[start + 1] == 0x3C2


def _utf8_len(cps: np.ndarray) -> np.ndarray:
    return 1 + (cps >= 0x80) + (cps >= 0x800) + (cps >= 0x10000)


@lru_cache(maxsize=1)
def str_lower_tables() -> LowerTables:
    """The running interpreter's str.lower as LowerTables, probed a
    plane of codepoints at a time (the surrogates lower to themselves):

    - each char lowered alone gives ``low`` (U+0130, the only char
      that lowers to two, gives ``ext``);
    - U+03A3 lowers to final sigma after a cased char when the next
      char that is not case-ignorable is not cased, or there is none
      (CPython's handle_capital_sigma), so the probe "a\u03a3" + c +
      "a" is final only for a c that is neither, and for the others
      "a\u03a3" + c + " " is final when c is case-ignorable and not
      final when c is cased (and not case-ignorable).

    No char may lower to more than two chars or to more than 3/2 of its
    UTF-8 bytes, the bound native.lower_docs sizes its output by: an
    interpreter whose str.lower breaks either raises ValueError."""
    n = 0x110000
    low = np.arange(n, dtype=np.uint32)
    cls = np.zeros(n, dtype=np.uint8)
    ext: list[int] = []
    for lo in range(0, n, _PLANE):
        cps = np.arange(lo, lo + _PLANE, dtype=np.uint32)
        cps = cps[(cps < 0xD800) | (cps > 0xDFFF)]
        first, second = _lower_each(cps)
        two = second > 0
        if (2 * (_utf8_len(first) + two * _utf8_len(second))
                > 3 * _utf8_len(cps)).any():
            raise ValueError("a char lowers to more than 3/2 of its UTF-8 "
                             "bytes, past lower_docs' output bound")
        low[cps] = first
        for c, f, g in zip(cps[two], first[two], second[two]):
            low[c] = 1 << 31 | len(ext) // 2
            ext += [f, g]
        # not final before an "a": c is cased or case-ignorable
        some = ~_final_sigma(cps, 1 + two, "a")
        cls[cps[some]] = np.where(
            _final_sigma(cps[some], 1 + two[some], " "), LOW_IGNORABLE,
            LOW_CASED)
    changed = np.flatnonzero(low != np.arange(n))
    starts = np.flatnonzero(np.diff(cls, prepend=255))
    return LowerTables(low[:changed[-1] + 1].copy(),
                       np.array(ext or [0, 0], dtype=np.uint32),
                       starts.astype(np.uint32), cls[starts])


def lowered(texts, order: np.ndarray, cap: int = -1, frame: bool = False):
    """(data, offsets) of texts[order] lowered as str.lower lowers them,
    back to back in one C pass (native.lower_docs): each text first cut
    to at most ``cap`` bytes at a char boundary when cap >= 0, and
    framed by a space on each side when ``frame`` is set. ``texts`` is a
    list of str (None reads as empty) or an Arrow string column, read in
    place."""
    from cld2_ray import native
    return native.lower_docs(*native.utf8_cat(texts), order,
                             str_lower_tables(), cap, frame)
