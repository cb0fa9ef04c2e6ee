"""Conformance tests for the language detector — the engine's analogue
of cld2_unittest (reference: internal/cld2_unittest.cc OneTest):
held-out per-language strings must detect as the expected language, or
at worst its statistically-close sibling (lang_script.cc:260-308);
bad UTF-8 must fail; empty text must be UNKNOWN."""

import pytest

from cld2_ray.data.seeds import HELDOUT
from cld2_ray.functions import langs
from cld2_ray.functions.extract import extract_text
from cld2_ray.functions.langid import Detector
from tests.oracles.langid import detect_ranges_numpy


@pytest.fixture(scope="module")
def det():
    return Detector()


def _close_or_equal(expected: str, got: str) -> bool:
    if expected not in langs.CODE_TO_ID:
        # script-variant heldout key like "mn-Mong" / "tl-Tglg": the
        # expected summary language is the base code
        expected = expected.split("-")[0]
    if expected == got:
        return True
    e, g = langs.lang_id(expected), langs.lang_id(got)
    cs = langs.CLOSE_SET[e]
    return bool(cs and cs == langs.CLOSE_SET[g])


@pytest.mark.parametrize("code", sorted(HELDOUT))
def test_heldout_sentence(det, code):
    r = det.detect(HELDOUT[code])
    assert _close_or_equal(code, r.summary_code), \
        f"{code} detected as {r.summary_code}"


@pytest.mark.parametrize("code", sorted(HELDOUT))
def test_heldout_long(det, code):
    """4x repeated sentence: must be reliable and (close-)correct."""
    r = det.detect((HELDOUT[code] + " ") * 4)
    assert _close_or_equal(code, r.summary_code)
    assert r.percent3[0] >= 90
    assert r.is_reliable


# exact-match set: every held-out language that must NOT fall to a
# close sibling. Only bs/sk/rn are excluded — they legitimately fall
# within their reference close sets (lang_script.cc:260-308).
EXACT = ["en", "fr", "de", "es", "it", "pt", "nl", "ru", "uk", "ja", "ko",
         "zh", "el", "th", "he", "ar", "hi", "ta", "tr", "fi", "hu", "vi",
         "bg", "cs", "da", "fa", "id", "pl", "ro", "sv", "zh-Hant",
         "af", "be", "ca", "cy", "et", "eu", "ga", "hr", "is", "lt",
         "lv", "mk", "mr", "ms", "mt", "ne", "sl", "sq", "sr", "sw",
         "tl", "ur", "gl", "no",
         # round-3 additions (reference word tables + authored seeds)
         "eo", "la", "az", "uz", "nn", "fo", "fy", "lb", "oc", "co",
         "br", "gd", "ht", "jv", "su", "ceb", "ha", "yo", "zu", "xh",
         "sn", "so", "mg", "mi", "sm", "haw", "sco", "ia", "kk", "ky",
         "mn", "tg", "ps", "yi", "bn", "as", "am", "ti",
         # batch 2 (rn falls to rw inside their reference close set)
         "rw", "ny", "st", "tn", "ts", "lg", "ln", "wo", "om", "gn",
         "qu", "ay", "to", "fj", "bi", "tk", "ku", "tt", "ba", "sa",
         "bh"]


@pytest.mark.parametrize("code", EXACT)
def test_exact_language(det, code):
    r = det.detect(HELDOUT[code])
    assert r.summary_code == code


def test_empty_is_unknown(det):
    r = det.detect("")
    assert r.summary_code == "un"
    assert not r.is_reliable


def test_numbers_only_unknown(det):
    r = det.detect("12345 67890 ... !!! 42")
    assert r.summary_code == "un"


def test_no_letters_row(det):
    """A text without letters scores as the row the fused kernel gives
    a page without text: UNKNOWN, zero columns, unreliable and good
    (no retry), whatever hints and declared languages it carries."""
    fr, de = langs.lang_id("fr"), langs.lang_id("de")
    texts = ["", "   \n\t ", "!!! ... ?!", "12, 34 — «»",
             "　　"]
    hints = [[fr], [(de, 10), (langs.lang_id("nl"), -4)], None,
             [langs.lang_id("ja")], [langs.lang_id("cs")]]
    declared = [frozenset([fr]), None, frozenset([de]), frozenset([fr]),
                None]
    for with_ranges in (False, True):
        out = det.detect_batch(list(texts), hints, declared_list=declared,
                               with_ranges=with_ranges)
        if with_ranges:
            out, rng = out
            assert list(rng) == [[]] * len(texts)
        assert (out.summary == langs.UNKNOWN).all()
        for col in (out.lang3, out.pct3, out.nscore3, out.text_bytes):
            assert not col.any()
        assert not out.reliable.any()
        assert out.good.all()


def test_detect_html_end_to_end():
    import cld2_ray
    html = ("<html><head><script>var x='english junk';</script></head>"
            "<body><p>" + HELDOUT["fr"] + " " + HELDOUT["fr"] + "</p>"
            "</body></html>").encode("utf-8")
    res = cld2_ray.detect_language(html, is_plain_text=False)
    assert res.summary_code == "fr"
    assert "english junk" not in extract_text(html)


def test_mixed_document_percents(det):
    fr = (HELDOUT["fr"] + " ") * 8
    en = (HELDOUT["en"] + " ") * 2
    r = det.detect(fr + en)
    assert r.summary_code == "fr"
    codes = [langs.lang_code(l) for l in r.language3]
    assert "en" in codes
    assert sum(r.percent3) <= 100


def test_english_boilerplate_rule(det):
    """English 60% + French 40% -> French wins (the X>=17% boilerplate
    rule, compact_lang_det_impl.cc:1449-1466)."""
    en = (HELDOUT["en"] + " ") * 6
    fr = (HELDOUT["fr"] + " ") * 4
    r = det.detect(en + fr)
    assert r.summary_code == "fr"


def test_rtype_one_scripts(det):
    assert det.detect(HELDOUT["th"]).summary_code == "th"
    assert det.detect(HELDOUT["el"]).summary_code == "el"
    assert det.detect(HELDOUT["ta"]).summary_code == "ta"


def test_cjk_discrimination(det):
    assert det.detect(HELDOUT["zh"]).summary_code == "zh"
    assert det.detect(HELDOUT["ja"]).summary_code == "ja"
    assert det.detect(HELDOUT["ko"]).summary_code == "ko"


def test_frozen_goldens(det):
    """Conformance goldens frozen against the current tables — the
    engine's analogue of the reference's build-date canary
    (cld2_unittest.cc:183-187): any change to tables or scoring that
    shifts results must consciously regenerate tests/goldens.json
    (python -m pytest fails loudly here otherwise)."""
    import json
    import os
    with open(os.path.join(os.path.dirname(__file__), "goldens.json")) as f:
        goldens = json.load(f)
    for code, want in goldens.items():
        r = det.detect(HELDOUT[code])
        assert r.summary_code == want["summary"], code
        assert [langs.lang_code(l) for l in r.language3] \
            == want["language3"], code
        assert list(r.percent3) == want["percent3"], code
        assert r.is_reliable == want["is_reliable"], code
        assert r.text_bytes == want["text_bytes"], code


class TestRetryGoldens:
    """Documents that take the Repeats retry (three languages each, CJK
    and Greek/Thai among them; two re-trigger the squeeze test on
    their squeezed text), frozen from per-doc detect():
    tests/retry_goldens.json, built by scripts/make_retry_goldens.py.
    detect_batch and detect() must both reproduce every field."""

    @pytest.fixture(scope="class")
    def docs(self):
        import json
        import os
        path = os.path.join(os.path.dirname(__file__), "retry_goldens.json")
        with open(path) as f:
            return json.load(f)

    @staticmethod
    def _fields(r):
        return {"summary": r.summary_code,
                "language3": [langs.lang_code(l) for l in r.language3],
                "percent3": list(r.percent3),
                "normalized_score3": list(r.normalized_score3),
                "text_bytes": r.text_bytes,
                "is_reliable": r.is_reliable}

    def test_fixture_takes_the_retry(self, docs):
        assert sum(d["retry"] for d in docs) >= 25
        assert any(d["retrigger"] for d in docs)

    def test_detect(self, det, docs):
        for d in docs:
            assert self._fields(det.detect(d["text"])) == d["want"], \
                d["codes"]

    def test_detect_batch(self, det, docs):
        got = det.detect_batch([d["text"] for d in docs])
        for d, r in zip(docs, got):
            assert self._fields(r) == d["want"], d["codes"]


class TestFlagsSurface:
    """Public-use flags parity (compact_lang_det.h:342-349)."""

    def test_score_as_quads_reroutes_one_scripts(self):
        """kCLDFlagScoreAsQuads: RTypeOne scripts score via quadgrams
        instead of script identity. With tables that carry no quadgram
        entries for those scripts the result is UNKNOWN — exactly the
        reference's documented caveat ('The default tables do not
        support this use', compact_lang_det.h:356-360)."""
        from cld2_ray.data.seeds import HELDOUT, SEEDS
        from cld2_ray.functions.langid import Detector
        el = (HELDOUT.get("el") or SEEDS.get("el"))[:500]
        d0 = Detector()
        dq = Detector(score_as_quads=True)
        assert d0.detect(el).summary_code == "el"
        assert dq.detect(el).summary_code == "un"
        # CJK is unaffected by the flag (scoreonescriptspan.cc:1318)
        zh = (SEEDS.get("zh") or HELDOUT.get("zh"))[:500]
        assert dq.detect(zh).summary_code == d0.detect(zh).summary_code

    def test_echo_writes_stderr(self, capfd):
        """kCLDFlagEcho echoes every input once, whichever public call
        scores it."""
        from cld2_ray.functions.langid import Detector
        d = Detector(echo=True)
        d.detect_batch(["hello world this is a test"])
        d.detect("bonjour tout le monde")
        d.detect_ranges("guten Tag alle zusammen")
        err = capfd.readouterr().err
        for t in ("hello world", "bonjour tout", "guten Tag"):
            assert t in err
        assert err.count("cld2_ray echo") == 3

    def test_best_effort_short_text(self):
        from cld2_ray.functions.langid import Detector
        d = Detector()
        # best_effort gives an answer below the 26% confidence floor
        r = d.detect("ok", best_effort=True)
        assert r is not None

    def test_best_effort_skips_unreliable_removal(self, det):
        """impl.cc:1998: RemoveUnreliableLanguages only runs when
        best_effort is OFF — the best-effort result must keep at least
        whatever the default path kept."""
        mixed = HELDOUT["en"][:120] + " " + HELDOUT["fr"][:120]
        r0 = det.detect(mixed)
        r1 = det.detect(mixed, best_effort=True)
        kept0 = {l for l in r0.language3 if l != 0}
        kept1 = {l for l in r1.language3 if l != 0}
        assert kept0 <= kept1


class TestDeclaredAndFallback:
    """Pipeline-level refinements (documented deviations, OFF by
    default in the per-document API): declared-language protection of
    the boilerplate summary flip, and metadata fallback for
    zero-signal pages."""

    def test_declared_protects_boilerplate_flip(self, det):
        """en 60% + fr 40%: reference flips the summary to fr (the
        X>=17% boilerplate rule); when the page explicitly declares
        en, the flip's boilerplate premise is contradicted -> en."""
        en = (HELDOUT["en"] + " ") * 6
        fr = (HELDOUT["fr"] + " ") * 4
        assert det.detect(en + fr).summary_code == "fr"
        r = det.detect(en + fr, declared=frozenset({langs.lang_id("en")}))
        assert r.summary_code == "en"
        # declaring an UNINVOLVED language does not protect
        r2 = det.detect(en + fr, declared=frozenset({langs.lang_id("de")}))
        assert r2.summary_code == "fr"

    def test_declared_preference_on_mixed_page(self, det):
        """A declared-language page with an embedded CJK passage whose
        3-byte chars win the byte count: the calculus picks the CJK
        language, but the declaration moves the summary back to the
        declared language when it carries a boilerplate-grade share
        (the declared preference of tests/oracles/docstage.py
        _calc_summary_lang and quadscan.c doc_stage; reliability and
        keep/drop untouched)."""
        en = (HELDOUT["en"] + " ") * 4
        ja = (HELDOUT["ja"] + " ") * 8
        base = det.detect(en + ja)
        assert base.summary_code == "ja"
        r = det.detect(en + ja, declared=frozenset({langs.lang_id("en")}))
        assert r.summary_code == "en"
        assert r.is_reliable == base.is_reliable
        # a declared language NOT among the detected top-3 cannot win
        r2 = det.detect(en + ja, declared=frozenset({langs.lang_id("de")}))
        assert r2.summary_code == "ja"

    def test_stage_metadata_fallback(self):
        """Zero-signal pages get the declared lang, else the TLD
        prior's lang, else the reference's DetectLanguage English
        default (M25), with lang_reliable=False (stages/core.py)."""
        import pyarrow as pa
        from cld2_ray.stages.core import fused_batch
        junk = " ".join(f"img{i % 9}.jpg" for i in range(300)).encode()
        rows = pa.table({
            "url": ["https://a.example.ru/1",      # TLD fallback
                    "https://b.example.com/2",     # declared fallback
                    "https://c.example.com/3"],    # nothing -> en default
            "html": [b"<html><body><p>" + junk + b"</p></body></html>",
                     b"<html lang='tr'><body><p>" + junk
                     + b"</p></body></html>",
                     b"<html><body><p>" + junk + b"</p></body></html>"],
            "warc_ts": [0] * 3,          # passthrough columns
            "lang": [""] * 3,
        })
        out = fused_batch(rows)
        assert out["lang_summary"].to_pylist() == ["ru", "tr", "en"]
        assert out["lang_reliable"].to_pylist() == [False, False, False]

    def test_fallback_to_a_language_without_lm(self):
        """A page without text that declares a language the perplexity
        artifact has no LM for (ids past its thresholds: iu, nr) falls
        back to it and scores (0.0, False), without failing the batch."""
        import pyarrow as pa
        from cld2_ray.stages.core import fused_batch
        rows = pa.table({"url": ["https://a.example.com/"] * 2,
                         "html": [b"<html lang='iu'></html>",
                                  b"<html lang=nr><p>1 2</p></html>"],
                         "warc_ts": [0] * 2, "lang": [""] * 2})
        out = fused_batch(rows)
        assert out["lang_summary"].to_pylist() == ["iu", "nr"]
        assert out["ppl"].to_pylist() == [0.0, 0.0]


def test_top_level_detect_language():
    """Package-level DetectLanguage analogue: plain text, raw HTML with
    hints, and the default-to-English wrapper."""
    import cld2_ray
    r = cld2_ray.detect_language(
        "Le chat est sur le tapis et il dort toute la journée.")
    assert r.summary_code == "fr" and r.is_reliable
    r2 = cld2_ray.detect_language(
        b"<html lang='de'><p>Der Hund schl&auml;ft im Garten unter dem "
        b"Baum, w&auml;hrend die Kinder spielen.</p></html>",
        is_plain_text=False, url="http://example.de")
    assert r2.summary_code == "de"
    assert cld2_ray.detect_language(
        "", default_to_english=True).summary_code == "en"
    # a page that is not valid UTF-8 throughout is UNKNOWN_LANGUAGE,
    # unreliable (CheckUTF8), however clear its valid prefix
    fr = "<p>" + HELDOUT["fr"] + "</p>"
    assert cld2_ray.detect_language(
        fr, is_plain_text=False).summary_code == "fr"
    for page in (b"<p>ok</p>\xfe\xffrest", fr.encode() + b"\xfe\xff more",
                 fr.encode() + b"\xc3"):
        r3 = cld2_ray.detect_language(page, is_plain_text=False)
        assert (r3.summary_code, r3.is_reliable, r3.text_bytes) == \
            ("un", False, 0)


def test_top_level_detect_language_plain_bytes():
    """Plain-text BYTES input (the reference's buffer parameter): valid
    UTF-8 is decoded and scored; an invalid suffix gives
    UNKNOWN_LANGUAGE, unreliable (CheckUTF8)."""
    import cld2_ray
    r = cld2_ray.detect_language(
        b"Hello world this is a plain byte buffer of English text.")
    assert r.summary_code == "en"
    fr = "Bonjour le monde entier ce matin.".encode()
    assert cld2_ray.detect_language(fr).summary_code == "fr"
    for bad in (fr + b"\xfe\xff", fr + b"\xe2\x82", b"\xff" + fr):
        r2 = cld2_ray.detect_language(bad)
        assert (r2.summary_code, r2.is_reliable) == ("un", False)


def test_top_level_detect_language_lone_surrogate():
    """A str holding a lone surrogate is not valid UTF-8: UNKNOWN,
    unreliable, no text bytes, as plain text and as a page."""
    import cld2_ray
    for text in ("abc \ud800 def", "\udfff",
                 "Bonjour le monde entier ce matin. \udc80"):
        for plain in (True, False):
            r = cld2_ray.detect_language(text, is_plain_text=plain)
            assert (r.summary_code, r.is_reliable, r.text_bytes) == \
                ("un", False, 0), (text, plain)


class TestArtifactVerify:
    """Dump -> verify -> load round trip + corruption detection (the
    cld2_dynamic_data_tool --verify analogue, cld2_unittest.cc:296-401)."""

    def test_roundtrip_and_corruption(self, tmp_path):
        import numpy as np
        import pytest
        from cld2_ray.state import model as M
        from tools import langmodel as build

        src = M.LangModel.load()
        p = str(tmp_path / "lm.npz")
        build.save(src, p)
        build.verify_artifact(p)                   # clean verify passes
        again = M.LangModel.load(p)                # clean load passes
        assert (again.quad.keys == src.quad.keys).all()

        # corrupt one table value inside the npz
        z = np.load(p, allow_pickle=False)
        arrays = {k: np.array(z[k]) for k in z.files}
        arrays["quad_vals"] = arrays["quad_vals"].copy()
        arrays["quad_vals"][0] ^= np.uint64(1)
        np.savez_compressed(p, **arrays)
        with pytest.raises(ValueError, match="checksum|corrupt"):
            build.verify_artifact(p)
        with pytest.raises(ValueError, match="checksum|corrupt"):
            M.LangModel.load(p)

    def test_missing_manifest_rejected(self, tmp_path):
        import numpy as np
        import pytest
        from tools import langmodel as build
        p = str(tmp_path / "nomanifest.npz")
        np.savez_compressed(p, quad_keys=np.zeros(8, np.uint64))
        with pytest.raises(ValueError, match="manifest"):
            build.verify_artifact(p)


def test_reliability_expected_exact_reference_values():
    """Bit-check against cldutil.cc:586-605 (kRatio100=1.5, kRatio0=4.0,
    int truncation): ratio 1.0..1.5 -> 100, 2.0 -> 80, 3.0 -> 40,
    4.0 -> 0(+eps), no-data expected=0 -> 100, actual=0 -> 0. The
    formula is symmetric above/below expected."""
    import numpy as np
    from cld2_ray.functions.score import reliability_expected_exact as rx

    def one(actual, expected):
        return int(rx(np.array([actual]), np.array([expected]))[0])

    assert one(1000, 0) == 100          # no reliability data yet
    assert one(0, 1000) == 0            # zero score
    assert one(1000, 1000) == 100       # ratio 1.0
    assert one(1000, 1500) == 100       # ratio 1.5 boundary
    assert one(1500, 1000) == 100       # symmetric
    assert one(1000, 2000) == 80        # ratio 2.0 -> 80 (code comment)
    assert one(2000, 1000) == 80
    assert one(1000, 3000) == 40        # ratio 3.0 -> 100*(1/2.5)
    assert one(1000, 4000) == 0         # ratio 4.0 -> 0
    assert one(1000, 4001) == 0         # past the ramp
    assert one(4001, 1000) == 0
    # int truncation, not rounding: ratio 2.1 -> 100*1.9/2.5 = 76.0
    assert one(1000, 2100) == 76
    # ratio 1.6 -> 100*2.4/2.5 = 96
    assert one(1000, 1600) == 96


class TestBatchWithRanges:
    """detect_batch(with_ranges=True): results bit-identical to the
    plain call; unhinted ranges from it and from detect_ranges equal
    the numpy oracle detect_ranges_numpy per document (hints are the
    documented deviation — none here), for both rtype routings."""

    def test_results_and_ranges_parity(self):
        import cld2_ray.sources.pages as P
        from cld2_ray.data.seeds import HELDOUT, SEEDS
        from cld2_ray.functions.extract import extract_text, \
            valid_utf8_prefix
        texts = [SEEDS["en"][:600] + " " + SEEDS["de"][:600],
                 (HELDOUT["fr"] + " ") * 3 + (HELDOUT["ru"] + " ") * 3,
                 "", "12345 !!!", SEEDS["ja"][:400],
                 SEEDS["zh"][:300] + " hello world " * 10,
                 SEEDS["ko"][:200], SEEDS["ru"][:500],
                 SEEDS["hi"][:400], SEEDS["ar"][:400],
                 HELDOUT["el"] + " " + HELDOUT["th"],   # RTYPE_ONE
                 "spam spam spam spam " * 40]   # squeeze-trigger path
        for h in P.page_batch(0, 150, 42)["html"].to_pylist():
            vp = valid_utf8_prefix(h or b"")
            if vp == len(h or b""):
                texts.append(extract_text(h or b""))
        for d in (Detector(), Detector(score_as_quads=True)):
            plain = d.detect_batch(list(texts))
            both, rngs = d.detect_batch(list(texts), with_ranges=True)
            for a, b in zip(plain, both):
                assert (a.summary_lang, a.language3, a.percent3,
                        a.normalized_score3, a.is_reliable,
                        a.text_bytes) \
                    == (b.summary_lang, b.language3, b.percent3,
                        b.normalized_score3, b.is_reliable, b.text_bytes)
            n_split = 0
            for t, r in zip(texts, rngs):
                want = detect_ranges_numpy(d, t or "")
                assert r == want
                assert d.detect_ranges(t or "") == want
                n_split += len(want) > 1
            assert n_split >= 3


class TestCalibrationDriftGuard:
    def test_calib_fingerprint_current(self):
        """CALIB_K (tools/calib.py) was learned against the current
        seeds + scoring constants + expected tables; any of them
        moving without a calibrate_expected.py rerun silently
        invalidates the learned scales. Red here means: rerun
        scripts/calibrate_expected.py, rebuild the artifact, then
        `python scripts/calibrate_expected.py --stamp`."""
        from tools import calib
        assert calib.current_fingerprint() == calib.CALIB_FINGERPRINT, (
            "seed corpora / scoring constants / expected tables moved "
            "since CALIB_K was calibrated — rerun "
            "scripts/calibrate_expected.py (then --stamp)")


class TestDocStageOracle:
    """detect_batch's columns against the Python document stage one
    document at a time (tests/oracles/docstage.py detect_oracle: squeeze
    gate, ScriptSpans, DocTote, finalize, Repeats retry) on the
    tests/goldens.json texts, the retry goldens and sources.pages pages
    with the hints and declared sets stages.core.fused_batch passes."""

    @staticmethod
    def _check(det, texts, hints, declared, **flags):
        from tests.oracles.docstage import detect_oracle
        got = det.detect_batch(texts, hints, declared_list=declared,
                               **flags)
        assert len(got) == len(texts)
        for k, (t, h, dec) in enumerate(zip(texts, hints, declared)):
            want = detect_oracle(det, t, h, declared=dec, **flags)
            assert got[k] == want, (k, (t or "")[:80])
            assert got.summary[k] == want.summary_lang
            assert tuple(got.pct3[k].tolist()) == want.percent3
        return got

    def test_goldens_and_retry_texts(self, det):
        import json
        import os
        here = os.path.dirname(__file__)
        with open(os.path.join(here, "goldens.json")) as f:
            texts = [HELDOUT[code] for code in json.load(f)]
        with open(os.path.join(here, "retry_goldens.json")) as f:
            texts += [d["text"] for d in json.load(f)]
        texts += ["", None, "12345 !!!", "spam spam spam spam " * 300]
        n = len(texts)
        for flags in ({}, {"best_effort": True},
                      {"default_to_english": True}):
            got = self._check(det, texts, [None] * n, [None] * n, **flags)
            assert (~got.good).sum() >= 25

    def test_pages_with_hints_and_declared(self, det):
        import cld2_ray.sources.pages as P
        from cld2_ray.functions.extract import extract_text, \
            valid_utf8_prefix
        from cld2_ray.functions.hints import page_hints
        b = P.page_batch(0, 300, seed=17)
        texts, hints, declared = [], [], []
        for url, h in zip(b["url"].to_pylist(), b["html"].to_pylist()):
            h = (h or b"")[:valid_utf8_prefix(h or b"")]
            pri, dec, _ = page_hints(url or "", h)
            texts.append(extract_text(h))
            hints.append([lid for lid, w in pri if w > 0])
            declared.append(frozenset(dec) or None)
        assert sum(d is not None for d in declared) >= 10
        assert sum(bool(h) for h in hints) >= 10
        for flags in ({}, {"best_effort": True}):
            self._check(det, texts, hints, declared, **flags)
        self._check(Detector(score_as_quads=True), texts, hints, declared)
