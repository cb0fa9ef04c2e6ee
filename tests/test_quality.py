"""Quality rules, scrub, aux langid, perplexity tests."""

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings, strategies as st

from cld2_ray.data.seeds import HELDOUT
from cld2_ray.functions import fastlangid, langs, perplexity, quality, uscript
from cld2_ray.functions.quality import apply_rules
from cld2_ray.functions.scrub import scrub_series
from cld2_ray.state import model
from tests.oracles.quality import apply_rules_arrow
from tests.oracles.repeats import (count_predicted_bytes,
                                   remove_repeated_words, squeeze,
                                   squeeze_trigger)
from tests.oracles.scrub import scrub_text

GOOD = (HELDOUT["en"] + " ") * 5


class TestQualityRules:
    def test_good_text_kept(self):
        q = apply_rules(pd.Series([GOOD]))
        assert q.keep[0]
        assert q.drop_reason[0] == ""

    def test_too_short_dropped(self):
        q = apply_rules(pd.Series(["hello world"]))
        assert not q.keep[0]
        assert q.drop_reason[0] == "too_few_words"

    def test_brace_dropped(self):
        q = apply_rules(pd.Series(["{ x } " + GOOD]))
        assert q.drop_reason[0] == "brace_source_code"

    def test_lorem_dropped(self):
        q = apply_rules(pd.Series(["Lorem Ipsum dolor " + GOOD]))
        assert q.drop_reason[0] == "lorem_ipsum"

    def test_lorem_long_s_not_folded(self):
        """'lorem ipſum' (U+017F long s) is not 'lorem ipsum' under
        lower(): the C scan and the Arrow reference agree on that."""
        texts = pd.Series(["Lorem ipſum dolor " + GOOD,
                           "LOREM IPSUM dolor " + GOOD])
        for q in (apply_rules_arrow(texts), apply_rules(texts)):
            assert q.drop_reason.tolist() == ["", "lorem_ipsum"]

    def test_dup_lines_dropped(self):
        text = "\n".join(["the same line here again ok now"] * 10)
        q = apply_rules(pd.Series([text]))
        assert q.drop_reason[0] == "dup_lines"

    def test_first_failing_rule_wins(self):
        q = apply_rules(pd.Series(["{ }"]))
        assert q.drop_reason[0] == "too_few_words"

    def test_empty(self):
        q = apply_rules(pd.Series(["", None]))
        assert not q.keep.any()


class TestScrub:
    def test_email_phone(self):
        out = scrub_text("mail a@b.com or call +1 555-123-4567 now")
        assert "<EMAIL>" in out and "<PHONE>" in out
        assert "a@b.com" not in out

    def test_ssn_ip(self):
        out = scrub_text("ssn 123-45-6789 from 192.168.1.1")
        assert "<SSN>" in out and "<IP>" in out

    def test_series_counts(self):
        df = scrub_series(pd.Series(["a@b.com c@d.org", "clean text"]))
        assert df.n_pii[0] == 2
        assert df.n_pii[1] == 0
        assert df.scrubbed_text[1] == "clean text"

    def test_oracle_matches_series(self):
        texts = ["call 555 123 4567", "x@y.zz and 1.2.3.4", "nothing"]
        df = scrub_series(pd.Series(texts))
        for i, t in enumerate(texts):
            assert df.scrubbed_text[i] == scrub_text(t)

    # pieces of PII and near-PII: emails, phones, IPs, ASCII digits, and
    # digits that RE2's \d does not read (Arabic-Indic, fullwidth)
    PII_PIECES = ["a@b.com", "x.y@mail.example.org", "@", "+1 555-123-4567",
                  "555 123 4567", "192.168.1.1", "123-45-6789",
                  "4111 1111 1111 1111", "7", "42", "\u0663\u0663\u0663",
                  "\uff13\uff14\uff15", "\u0663@", "word", "the", " ",
                  "\n", ".", "-"]

    @settings(deadline=None, max_examples=150)
    @given(st.lists(st.lists(st.sampled_from(PII_PIECES), max_size=12)
                    .map("".join), min_size=1, max_size=8))
    def test_gate_equals_ungated(self, texts):
        """scrub_arrow gated by rule_columns' pii_candidate mask equals
        the ungated scrub on every output."""
        import pyarrow as pa
        from cld2_ray.functions.quality import rule_columns
        from cld2_ray.functions.scrub import scrub_arrow
        arr = pa.array(texts, type=pa.large_string())
        mask = rule_columns(arr)["pii_candidate"]
        assert mask.tolist() == [any(c in "0123456789@" for c in t)
                                 for t in texts]
        gated, ungated = scrub_arrow(arr, mask), scrub_arrow(arr)
        assert gated[0].equals(ungated[0])
        for a, b in zip(gated[1:], ungated[1:]):
            assert np.array_equal(a, b)


class TestFastLangid:
    @pytest.mark.parametrize("code", ["en", "fr", "de", "ru", "zh", "ja",
                                      "ko", "el", "th", "ar", "he"])
    def test_classify(self, code):
        lang, _ = fastlangid.classify_batch([HELDOUT[code]])
        assert lang.to_pylist() == [code]

    def test_empty(self):
        lang, conf = fastlangid.classify_batch([""])
        assert (lang.to_pylist(), conf.tolist()) == (["un"], [0.0])

    def test_top_two_keeps_argsort_ties(self):
        """classify_batch's top-two pass gives the last two columns of
        np.argsort on rows built with ties: a tied top pair, a tied
        second and third, all equal, and rows without ties."""
        rng = np.random.default_rng(0)
        sc = rng.standard_normal((64, 114)).astype(np.float32)
        sc[0, [3, 90]] = sc[1, [90, 3]] = 9.0        # tied top pair
        sc[2, 7], sc[2, [40, 41]] = 9.0, 8.0         # tied 2nd and 3rd
        sc[3] = 1.0                                   # all equal
        sc[4, [5, 6, 7]] = 9.0                        # three-way top tie
        sc[8:] = rng.integers(0, 4, (56, 114))        # many ties
        order = np.argsort(sc, axis=1)
        top, s_top, s_sec = fastlangid._top_two(sc)
        rows = np.arange(len(sc))
        assert np.array_equal(top, order[:, -1])
        assert np.array_equal(s_top, sc[rows, order[:, -1]])
        assert np.array_equal(s_sec, sc[rows, order[:, -2]])
        t, _, _ = fastlangid._top_two(sc[10:12].copy())
        assert np.array_equal(t, order[10:12, -1])

    # sha256 of the weight row of every present bucket in bucket order,
    # then the bucket ids and the language columns
    WEIGHTS_SHA256 = ("f534302c12968fe53220fc1ca0b24dac"
                      "ee9c92909e0ce6eff948e5a17e12cd5f")

    def test_weights_digest(self):
        """The model the committed artifact holds, bucket by bucket. A
        renumbering of the rows (tools/fastlangid_rows.py hot_first)
        leaves the digest as it is; a changed value, bucket or column
        fails it."""
        w, idx, col_langs = fastlangid.weights()
        b = np.flatnonzero(idx)
        h = hashlib.sha256(np.ascontiguousarray(w[idx[b]]).tobytes())
        h.update(b.astype("<i8").tobytes())
        h.update(col_langs.astype("<i4").tobytes())
        assert h.hexdigest() == self.WEIGHTS_SHA256


class TestModelArtifacts:
    """Each model is one object loaded from its committed artifact:
    nothing depends on call order, and a missing artifact is an error,
    not a silent retrain into a different model."""

    def test_index_read_first_in_fresh_process(self):
        import pathlib
        import subprocess
        import sys
        root = pathlib.Path(__file__).resolve().parent.parent
        code = ("from cld2_ray.functions import fastlangid as f\n"
                "idx = f.weights().bucket_index\n"
                "w = f.weights()\n"
                "assert idx is w.bucket_index\n"
                "assert w.table.shape == (idx.max() + 1, len(w.col_langs))\n"
                "print(f.classify_batch(['the quick brown fox jumps over "
                "the lazy dog'])[0][0])\n")
        proc = subprocess.run([sys.executable, "-c", code], cwd=root,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["en"]

    # sha256 of each committed artifact file. The checksum manifests in
    # langmodel.npz and unicode_luts.npz catch a corrupted array, but a
    # replaced file brings its own fresh manifest, and fastlangid.npz
    # and perplexity.npz are source data with no trainer left.
    ARTIFACT_SHA256 = {
        "fastlangid.npz": "dccd6fc05216609cb5cfcb28b822c72a"
                          "b3e5e60111f5026b57f80d304f44598e",
        "langmodel.npz": "9c8d98dea5028357cb4d0e231c18b5bc"
                         "12bb6433ca1f85117004602780001324",
        "perplexity.npz": "dc36792de569fe00de7696c26552c7c0"
                          "ffef78a62af30e287c526504efd25c67",
        "unicode_luts.npz": "075c81b1b6f91ad5e612011f8f88f351"
                            "2870c2d1e34d98399b438e88f2ce4f44",
    }

    def test_artifact_sha256(self):
        import pathlib
        d = pathlib.Path(fastlangid.ARTIFACT).parent
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(d.glob("*.npz"))}
        assert got == self.ARTIFACT_SHA256

    @pytest.mark.parametrize("mod, load", [(fastlangid, "weights"),
                                           (perplexity, "models"),
                                           (uscript, "_ref_luts"),
                                           (model, "default_model")])
    def test_missing_artifact_raises(self, mod, load, monkeypatch,
                                     tmp_path):
        missing = str(tmp_path / "absent.npz")
        loader = getattr(mod, load)
        loader.cache_clear()
        monkeypatch.setattr(mod, "ARTIFACT", missing)
        try:
            with pytest.raises(FileNotFoundError) as e:
                loader()
            assert e.value.filename == missing and missing in str(e.value)
        finally:
            loader.cache_clear()
            monkeypatch.undo()
        assert loader() is loader()


class TestPerplexity:
    def test_fluent_low_junk_high(self):
        (p_good, p_junk), (flag_good, flag_junk) = perplexity.score_batch(
            [HELDOUT["en"], "zzz qqq xxw jkq " * 20], ["en", "en"])
        assert p_good < p_junk
        assert not flag_good
        assert flag_junk

    def test_empty_text(self):
        """An empty or null text scores (0.0, False)."""
        ppl, flag = perplexity.score_batch(["", None], ["en", "en"])
        assert ppl.tolist() == [0.0, 0.0] and flag.tolist() == [False, False]


class TestLanguageIds:
    """langs.ids is the one reader of a language column: the rules and
    perplexity give the same outputs for ids as for the same languages
    as codes, in a list, a Series (NaN) or an Arrow column (nulls), and
    reject a column of the wrong length."""

    # spaceless, stopword-gated, other, UNKNOWN and unregistered codes
    CODES = ["en", "fr", "ru", "zh", "ja", "th", "zh-Hant", "km", "tr",
             "un", "xx", None]

    def _batch(self):
        # each language's own text and two others' under its code, so
        # the word-shape and stopword rules see every pairing
        src = ["en", "zh", "tr", "ja", "ru", "th", "fr"]
        texts, codes = [], []
        for i, c in enumerate(self.CODES):
            for k in range(3):
                lang = c if k == 0 and c in HELDOUT else \
                    src[(i + k) % len(src)]
                texts.append((HELDOUT[lang] + " ") * (1 + i % 3))
                codes.append(c)
        ids = np.array([langs.lang_id(c) for c in codes], dtype=np.int64)
        return texts, codes, ids

    def _forms(self, codes):
        return [codes, np.array(codes, dtype=object),
                pd.Series(codes, dtype=object).fillna(np.nan),
                pa.array(codes), pa.array(codes, type=pa.large_string()),
                pa.chunked_array([codes[:5], codes[5:]])]

    def test_ids_of_every_form(self):
        _, codes, ids = self._batch()
        assert np.array_equal(langs.ids(ids, len(ids)), ids)
        for form in self._forms(codes):
            got = langs.ids(form, len(codes))
            assert got.dtype == np.int64
            assert np.array_equal(got, ids), type(form)
        assert np.array_equal(langs.ids(None, 4), np.zeros(4))
        assert langs.codes(ids).to_pylist() == [
            c if c in langs.CODE_TO_ID else "un" for c in codes]

    def test_rule_columns_ids_equal_codes(self):
        texts, codes, ids = self._batch()
        want = quality.rule_columns(texts, ids)
        plain = quality.rule_columns(texts)
        # the languages change some verdicts, so the comparison bites
        assert (want["drop_reason"] != plain["drop_reason"]).any()
        assert (want["drop_reason"] == "too_few_stopwords").any()
        for form in self._forms(codes):
            got = quality.rule_columns(texts, form)
            for k in want:
                assert np.array_equal(got[k], want[k]), (type(form), k)
        frame = apply_rules(pd.Series(texts), pd.Series(codes))
        for k in frame.columns:
            assert frame[k].tolist() == want[k].tolist(), k

    def test_score_batch_ids_equal_codes(self):
        texts, codes, ids = self._batch()
        want = perplexity.score_batch(texts, ids)
        assert (want[0] > 0).any() and (want[0] == 0).any()
        for form in self._forms(codes):
            got = perplexity.score_batch(texts, form)
            assert np.array_equal(got[0], want[0]), type(form)
            assert np.array_equal(got[1], want[1]), type(form)

    def test_rule_languages_are_registered(self):
        """Every code of the rules' language sets has an id (an
        unregistered one could never match)."""
        assert quality.SPACELESS_LANGS | quality.STOPWORD_LANGS <= \
            langs.CODE_TO_ID.keys()

    def test_length_mismatch_raises(self):
        texts = [GOOD] * 3
        with pytest.raises(ValueError, match="1 languages for 3 texts"):
            quality.rule_columns(texts, ["zh"])
        with pytest.raises(ValueError, match="1 languages for 3 texts"):
            perplexity.score_batch(texts, ["en"])
        with pytest.raises(ValueError, match="4 languages for 3 texts"):
            langs.ids(np.zeros(4, dtype=np.int64), 3)

    def test_id_out_of_range_raises(self):
        texts = [GOOD] * 2
        for bad in ([0, -1], [langs.NUM_LANGS, 0]):
            lid = np.array(bad, dtype=np.int64)
            with pytest.raises(ValueError, match="outside"):
                langs.ids(lid, 2)
            with pytest.raises(ValueError, match="outside"):
                quality.rule_columns(texts, lid)
            with pytest.raises(ValueError, match="outside"):
                perplexity.score_batch(texts, lid)


class TestRepeats:
    def test_repetitive_text_predicted(self):
        rep = "foo.jpg bar.jpg foo.jpg bar.jpg " * 20
        assert count_predicted_bytes(rep) > len(rep) / 2

    def test_normal_text_not_predicted(self):
        assert count_predicted_bytes(HELDOUT["en"]) < len(HELDOUT["en"]) / 3

    def test_trigger(self):
        assert squeeze_trigger("abc.jpg " * 64)
        assert not squeeze_trigger(HELDOUT["en"])

    def test_remove_repeated_words(self):
        span = " " + "selva " * 40 + "fox jumps quick "
        out = remove_repeated_words(span)
        assert len(out) < len(span) / 2
        assert out.startswith(" ") and out.endswith(" ")

    def test_squeeze_drops_spacey_chunks(self):
        text = "a b c d e f g h i j " * 20
        assert len(squeeze(text)) < len(text)


class TestC4LineFilter:
    def _run(self, docs):
        import pandas as pd
        from cld2_ray.functions.quality import c4_line_filter
        return c4_line_filter(pd.Series(docs, dtype=object))

    def test_lorem_long_s_not_folded(self):
        r = self._run(["Lorem ipſum dolor sit amet consectetur.\n" * 3,
                       "LOREM IPSUM dolor sit amet consectetur.\n" * 3])
        assert r.drop_reason.tolist() == ["", "lorem_ipsum"]

    def test_line_rules_priority(self):
        """javascript beats few_words beats no_punct; counters are
        exclusive (each line counted under its first failing rule)."""
        r = self._run([
            "Good line with five words here.\n"      # kept
            "js\n"                                    # few_words (no js word)
            "Enable javascript now\n"                 # javascript (first)
            "No punctuation but plenty of words here\n"  # no_punct
            "Second good line with enough words!\n"
            "Third good line has enough words too."]).iloc[0]
        assert r.n_lines == 6
        assert r.n_kept_lines == 3
        assert (r.drop_javascript, r.drop_few_words, r.drop_no_punct) \
            == (1, 1, 1)
        assert r.keep and r.drop_reason == ""
        assert r.kept_text.count("\n") == 2

    def test_page_rules(self):
        got = self._run([
            # lorem beats brace beats sentences
            "Lorem Ipsum dolor sit amet friend.\nAlso a brace { here.",
            "code { x }\nA good line with five words.",
            "Only one good sentence lives here.",
            ""])
        assert list(got.drop_reason) == [
            "lorem_ipsum", "brace", "too_few_sentences",
            "too_few_sentences"]
        assert not got.keep.any()

    def test_trim_and_terminal_quote(self):
        """Lines are trimmed before rules; end quotation marks are
        terminal (C4's rule includes closing quotes)."""
        r = self._run(['  She said it was "entirely fine today."  \n'
                       'He agreed with every word said.\n'
                       'A third sentence settles the matter.']).iloc[0]
        assert r.n_kept_lines == 3 and r.keep
        assert not r.kept_text.startswith(" ")

    def test_oracle_parity(self):
        """Ray-side derived-lines + filter == SQL_C4_LINE_FILTER on a
        corpus slice with residues that fire every injected marker."""
        import duckdb
        import pandas as pd
        import pyarrow as pa
        from cld2_ray.functions.quality import c4_line_filter
        from cld2_ray.pipelines.queries import (
            SQL_C4_LINE_FILTER, _derived_lines)
        docs = ["alpha beta gamma delta epsilon zeta eta theta iota",
                "one two", "", "x " * 30, "tab\there now you see"]
        ids = [0, 89, 97, 3, 8633]   # 8633 = 89*97 fires both markers
        df = pd.DataFrame({"doc_id": ids,
                           "text": pd.Series(docs, dtype=object)})
        t = pa.Table.from_pandas(df, preserve_index=False)
        ml = _derived_lines(t)
        got = c4_line_filter(pd.Series(ml.to_pylist()))
        got.insert(0, "doc_id", df["doc_id"])
        con = duckdb.connect()
        con.register("documents", df)
        want = con.execute(SQL_C4_LINE_FILTER).df()
        got = got.sort_values("doc_id").reset_index(drop=True)
        want = want.sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True), want[got.columns],
            check_dtype=False)


class TestBlocklistFilter:
    def test_basic(self):
        import pandas as pd
        from cld2_ray.functions.quality import blocklist_filter
        got = blocklist_filter(
            pd.Series(["clean page here", "a SLOW page", "slow slow go",
                       "", None, "slowly does it", 'so "Slow." it ends',
                       "(slow)"]),
            ["slow"])
        assert list(got.n_blocked_tokens) == [0, 1, 2, 0, 0, 0, 1, 1]
        assert list(got.keep) == [True, False, False, True, True, True,
                                  False, False]

    def test_oracle_parity(self):
        import duckdb
        import pandas as pd
        from cld2_ray.functions.quality import blocklist_filter
        from cld2_ray.pipelines.queries import (
            SQL_BLOCKLIST_FILTER, BLOCKLIST_WORDS)
        docs = ["slow stream vector", "fast table scan", "Vector math",
                "", "  stream  ", None, "streams are fine"]
        df = pd.DataFrame({"doc_id": range(len(docs)),
                           "text": pd.Series(docs, dtype=object)})
        got = blocklist_filter(df["text"], BLOCKLIST_WORDS)
        got.insert(0, "doc_id", df["doc_id"])
        con = duckdb.connect()
        con.register("documents", df)
        want = con.execute(SQL_BLOCKLIST_FILTER).df()
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True), want[got.columns],
            check_dtype=False)


class TestWebtextVerdict:
    def test_dup_and_top_thresholds(self):
        """Every Gopher threshold branch fires on a crafted doc, in the
        documented priority. Thresholds are the Rae et al. 2021 Table
        A1 percentages via exact integer cross-multiplication."""
        import pandas as pd
        from cld2_ray.pipelines.queries import webtext_verdict

        # two distinct 5-grams repeated twice + 30 distinct fillers:
        # n=50 1-char tokens, total_chars=99. dup5 = 20/99 > 15%;
        # top4 = 14/99 <= 16%, top3 = 10/99 <= 18%, top2 = 6/99 <= 20%.
        fill = [chr(ord('A') + i) for i in range(30)]
        doc_dup5 = " ".join(["v w x y z"] * 2 + ["p q r s t"] * 2 + fill)
        docs = pd.Series([
            "the cat " * 30,                 # top2 66% -> top_2gram
            doc_dup5,                        # -> dup_5gram
            "a b c " * 30,                   # 'a b' 30x = 50% -> top_2gram
            " ".join(f"w{i}" for i in range(40)),  # all distinct -> keep
            "",                              # empty -> keep (no signal)
            "contains the dup word here",    # blocklist beats gopher
        ])
        v = webtext_verdict(docs)
        assert list(v.drop_reason) == [
            "top_2gram", "dup_5gram", "top_2gram", "", "", "blocklist"]
        assert list(v.keep) == [False, False, False, True, True, False]

    def test_dup_priority_on_long_repeat(self):
        """A repeated 10-gram trips every dup-{5..10} threshold (same
        coverage, descending thresholds); dup_5gram must win by
        priority. 20 repeat tokens + 30 1-char fillers: n=50,
        total_chars=99 — dup cov 20/99 > 15%, top4 14/99 <= 16%."""
        import pandas as pd
        from cld2_ray.pipelines.queries import webtext_verdict
        g10 = "q w e r t y u i o p"
        fill = [chr(ord('A') + i) for i in range(30)]
        doc = " ".join([g10, g10] + fill)
        v = webtext_verdict(pd.Series([doc]))
        assert v.drop_reason[0] == "dup_5gram"


class TestLineDedup:
    def test_basic(self):
        import pandas as pd
        from cld2_ray.functions.quality import dedup_lines_within_doc
        r = dedup_lines_within_doc(pd.Series(
            ["a\nb\na\n\n\nb\nc", "", None, "x\nx\nx", "one\ntwo"]))
        assert list(r.cleaned_text) == ["a\nb\n\n\nc", "", "", "x",
                                        "one\ntwo"]
        assert list(r.dup_line_count) == [2, 0, 0, 2, 0]
        assert list(r.dup_line_chars) == [2, 0, 0, 2, 0]

    def test_empty_lines_pass_through(self):
        """Blank separator lines are structural, not boilerplate —
        repeats of '' are kept."""
        import pandas as pd
        from cld2_ray.functions.quality import dedup_lines_within_doc
        r = dedup_lines_within_doc(pd.Series(["p\n\nq\n\np"]))
        assert r.cleaned_text[0] == "p\n\nq\n"
        assert r.dup_line_count[0] == 1

    def test_oracle_parity(self):
        import duckdb
        import pandas as pd
        import pyarrow as pa
        from cld2_ray.functions.quality import dedup_lines_within_doc
        from cld2_ray.pipelines.queries import (
            SQL_LINE_DEDUP, _derived_dup_lines)
        docs = ["alpha beta gamma delta epsilon zeta eta theta",
                "one two", "", "x " * 17, None]
        df = pd.DataFrame({"doc_id": [0, 1, 2, 3, 4],
                           "text": pd.Series(docs, dtype=object)})
        t = pa.Table.from_pandas(df, preserve_index=False)
        got = dedup_lines_within_doc(
            pd.Series(_derived_dup_lines(t).to_pylist()))
        got.insert(0, "doc_id", df["doc_id"])
        con = duckdb.connect()
        con.register("documents", df)
        want = con.execute(SQL_LINE_DEDUP).df() \
            .sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True), want[got.columns],
            check_dtype=False)


class TestQualityFuzz:
    """Hypothesis parity: the vectorized Arrow kernels vs naive
    per-document Python references, over adversarial unicode text."""

    # RE2's \S — the kernels and the DuckDB oracle share RE2, whose
    # \s is exactly [\t\n\f\r ] (no \v, no unicode spaces)
    _RE2_NONSPACE = r"[^\t\n\f\r ]+"

    @staticmethod
    def _c4_ref(doc):
        import re
        from cld2_ray.functions.textstats import TRIM_CHARS
        js = re.compile(r"(^|[^a-z])javascript([^a-z]|$)")
        lines = [l.strip(TRIM_CHARS) for l in (doc or "").split("\n")]
        kept, c_js, c_few, c_np = [], 0, 0, 0
        for l in lines:
            if js.search(l.lower()):
                c_js += 1
            elif len(re.findall(TestQualityFuzz._RE2_NONSPACE, l)) < 5:
                c_few += 1
            elif not re.search(r'[.!?"”]$', l):
                c_np += 1
            else:
                kept.append(l)
        kt = "\n".join(kept)
        n_sent = len(re.findall(r"[.!?]", kt))
        low = (doc or "").lower()
        if "lorem ipsum" in low:
            reason = "lorem_ipsum"
        elif "{" in (doc or ""):
            reason = "brace"
        elif n_sent < 3:
            reason = "too_few_sentences"
        else:
            reason = ""
        return (len(lines), len(kept), c_js, c_few, c_np, n_sent,
                len(kt), reason, kt)

    def _hyp_docs(self):
        from hypothesis import strategies as st
        word = st.text(
            alphabet=st.characters(blacklist_categories=("Cs",),
                                   blacklist_characters="\x00"),
            min_size=1, max_size=8)
        # make sure the javascript rule is actually reachable: plain
        # words alone can never spell the 10-char trigger
        word = st.one_of(word, st.sampled_from(
            ["javascript", "JavaScript", "JAVASCRIPT", "xjavascript",
             "javascripty", "(javascript)", "ſjavascript",
             "lorem ipsum", "Lorem Ipsum", "lorem ipſum", "ſ"]))
        line = st.lists(word, max_size=9).map(" ".join)
        return st.lists(
            st.lists(line, max_size=6).map("\n".join), max_size=8)

    def test_c4_matches_reference(self):
        import pandas as pd
        from hypothesis import given, settings
        from cld2_ray.functions.quality import c4_line_filter

        @settings(max_examples=150, deadline=None)
        @given(self._hyp_docs())
        def run(docs):
            got = c4_line_filter(pd.Series(docs, dtype=object))
            for i, d in enumerate(docs):
                want = self._c4_ref(d)
                r = got.iloc[i]
                assert (r.n_lines, r.n_kept_lines, r.drop_javascript,
                        r.drop_few_words, r.drop_no_punct, r.n_sentences,
                        r.kept_chars, r.drop_reason, r.kept_text) == want
        run()

    def test_line_dedup_matches_reference(self):
        import pandas as pd
        from hypothesis import given, settings
        from cld2_ray.functions.quality import dedup_lines_within_doc

        @settings(max_examples=150, deadline=None)
        @given(self._hyp_docs())
        def run(docs):
            got = dedup_lines_within_doc(pd.Series(docs, dtype=object))
            for i, d in enumerate(docs):
                lines = (d or "").split("\n")
                seen, kept, dc, dch = set(), [], 0, 0
                for l in lines:
                    if l and l in seen:
                        dc += 1
                        dch += len(l)
                    else:
                        kept.append(l)
                        seen.add(l)
                r = got.iloc[i]
                assert (r.n_lines, r.dup_line_count, r.dup_line_chars,
                        r.cleaned_text) == (len(lines), dc, dch,
                                            "\n".join(kept))
        run()

    def test_blocklist_matches_reference(self):
        import re
        import pandas as pd
        from hypothesis import given, settings, strategies as st
        from cld2_ray.functions.quality import blocklist_filter
        from cld2_ray.functions.textstats import TRIM_CHARS
        words = ("bad", "worse")

        @settings(max_examples=150, deadline=None)
        @given(st.lists(st.text(max_size=60), max_size=8))
        def run(docs):
            got = blocklist_filter(pd.Series(docs, dtype=object), words)
            for i, d in enumerate(docs):
                s = (d or "").strip(TRIM_CHARS)
                toks = re.split(r"[\t\n\f\r ]+", s)
                n = sum(1 for w in toks
                        if re.sub(r"^[^a-z0-9]+|[^a-z0-9]+$", "",
                                  w.lower()) in words)
                assert got.n_blocked_tokens[i] == n
        run()
