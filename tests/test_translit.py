"""Properties of the seed-corpus orthography transliterators
(data/translit.py). These feed artifact training (tools/langmodel.py), so
the load-bearing property is DETERMINISM: the committed langmodel.npz
is only reproducible if every transliterator is a pure function of its
input. The mapping-quality checks are statistical (right target
script), matching the module's own contract ("statistically faithful,
not philologically perfect")."""

import unicodedata

from hypothesis import given, settings
from hypothesis import strategies as st

from cld2_ray.data import translit as T

TRANSLITERATORS = [
    T.sr_to_latin, T.ro_to_cyrillic, T.uz_to_cyrillic, T.kk_to_latin,
    T.tt_to_latin, T.tk_to_cyrillic, T.ug_to_cyrillic, T.ug_to_latin,
    T.sa_to_iast, T.az_to_arabic, T.uz_to_arabic, T.ky_to_arabic,
    T.kk_to_arabic, T.ku_to_arabic, T.deva_scramble,
]


@given(st.text(max_size=200))
@settings(max_examples=50)
def test_deterministic(s):
    for fn in TRANSLITERATORS:
        assert fn(s) == fn(s), fn.__name__


def _dominant_script(s: str) -> str:
    counts: dict[str, int] = {}
    for ch in s:
        if ch.isalpha():
            try:
                name = unicodedata.name(ch)
            except ValueError:
                continue
            for script in ("CYRILLIC", "ARABIC", "LATIN", "DEVANAGARI"):
                if name.startswith(script):
                    counts[script] = counts.get(script, 0) + 1
                    break
            else:
                counts["OTHER"] = counts.get("OTHER", 0) + 1
    return max(counts, key=counts.get) if counts else ""


def test_target_scripts():
    cases = [
        (T.sr_to_latin, "школа је важно место за децу", "LATIN"),
        (T.ro_to_cyrillic, "școala este un loc important", "CYRILLIC"),
        (T.uz_to_cyrillic, "maktab juda muhim joy", "CYRILLIC"),
        (T.kk_to_latin, "мектеп балалар үшін маңызды орын", "LATIN"),
        (T.tt_to_latin, "мәктәп балалар өчен мөһим урын", "LATIN"),
        (T.tk_to_cyrillic, "mekdep çagalar üçin möhüm ýer", "CYRILLIC"),
        (T.ug_to_cyrillic, "مەكتەپ بالىلار ئۈچۈن مۇھىم جاي", "CYRILLIC"),
        (T.ug_to_latin, "مەكتەپ بالىلار ئۈچۈن مۇھىم جاي", "LATIN"),
        (T.sa_to_iast, "विद्यालयः बालकानां कृते", "LATIN"),
        (T.az_to_arabic, "məktəb uşaqlar üçün vacib yerdir", "ARABIC"),
        (T.uz_to_arabic, "maktab juda muhim joy", "ARABIC"),
        (T.ky_to_arabic, "мектеп балдар үчүн маанилүү жер", "ARABIC"),
        (T.kk_to_arabic, "мектеп балалар үшін маңызды орын", "ARABIC"),
        (T.ku_to_arabic, "xwendegeh ji bo zarokan giring e", "ARABIC"),
    ]
    for fn, src, want in cases:
        assert _dominant_script(fn(src)) == want, fn.__name__


def test_kk_arabic_uses_legacy_heh():
    """kk trains with ARABIC LETTER HEH (U+0647) for е, NOT the Töte
    ae U+06D5 — presentation forms on legacy pages fold to heh
    (uscript._fold_arabic_presentation), so training must match."""
    out = T.kk_to_arabic("мектеп")
    assert "ه" in out and "ە" not in out


def test_deva_scramble_preserves_content():
    """Scrambling only INSERTS spaces — the non-space codepoint stream
    is unchanged, in order."""
    src = "यत्किञ्चेह करोति तत् सर्वं कर्मणस्तस्य फलेन युक्तः"
    out = T.deva_scramble(src)
    assert out.replace(" ", "") == src.replace(" ", "")
    # and it actually fragments (more tokens than the source)
    assert len(out.split()) > len(src.split())


def test_deva_scramble_short_words_pass_through():
    assert T.deva_scramble("ab cd") == "ab cd"
