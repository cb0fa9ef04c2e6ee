"""Text-stats kernels: token counting, fingerprints, run CLI."""

import os

import numpy as np
import pandas as pd
import pytest

from cld2_ray.functions.textstats import (
    count_tokens, fingerprint, stopword_counts)


class TestTokens:
    def test_ws_and_bpe_counts(self):
        df = count_tokens(pd.Series(["one two three", "", "a1b c!d", None]))
        assert list(df.n_ws_tokens) == [3, 0, 2, 0]
        # "a1b" -> a,1,b ; "c!d" -> c,!,d (with leading-space variants)
        assert df.n_bpe_tokens[2] == 6

    def test_fingerprint_stable(self):
        s = pd.Series(["hello", "hello", "world"])
        f = fingerprint(s)
        assert f[0] == f[1] != f[2]
        assert len(f[0]) == 32

    def test_stopword_counts(self):
        out = stopword_counts(pd.Series(["the cat and the dog", "no stops"]),
                              ["the", "and"])
        assert list(out) == [3, 0]


class TestKMV:
    def test_estimator_accuracy(self):
        """(k-1)/R_k on the k smallest of n md5 hashes estimates n —
        within the sketch's ~1/sqrt(k) relative error band at k=64."""
        import hashlib

        from cld2_ray.functions.textstats import kmv_estimate
        for n, seed in ((5000, 1), (50_000, 2)):
            toks = [f"tok{seed}_{i}" for i in range(n)]
            hs = sorted(hashlib.md5(t.encode()).hexdigest()
                        for t in toks)
            est = kmv_estimate(hs[:64], 64)
            assert abs(est - n) / n < 0.40  # ~3 sigma at k=64

    def test_small_cardinality_exact_end_to_end(self, ray_session):
        """|distinct| < k through the PRODUCTION path: the sketch from
        q_kmv_distinct is the full distinct hash set and the estimator
        returns the exact count (the non-saturated KMV contract — a
        short sketch fed to the ratio estimator would read ~2x high)."""
        import duckdb

        from cld2_ray.functions.textstats import kmv_estimate
        from cld2_ray.pipelines.queries import QUERIES
        sf = "/root/testdata/sf0.001"
        out = QUERIES["kmv_distinct"](sf)
        exact = duckdb.sql(
            "SELECT count(DISTINCT w) FROM (SELECT unnest(string_split("
            f"coalesce(text,''), ' ')) AS w FROM '{sf}/documents.parquet')"
        ).fetchone()[0]
        assert exact < 64  # this fixture exercises the short branch
        assert len(out) == exact
        assert kmv_estimate(list(out["h"]), 64) == float(exact)


class TestRunCLI:
    def test_synthetic_resumable(self, ray_session, tmp_path):
        import json
        import os

        from cld2_ray.run import main
        out = str(tmp_path / "o")
        rc = main(["--synthetic", "60", "--output", out,
                   "--partitions", "3"])
        assert rc == 0
        assert sorted(os.listdir(out))[:3] == ["part=00000", "part=00001",
                                               "part=00002"]
        m = json.load(open(os.path.join(out, "part=00000",
                                        "MANIFEST.json")))
        assert m["rows"] == 20
        # second run skips all
        rc = main(["--synthetic", "60", "--output", out,
                   "--partitions", "3"])
        assert rc == 0

    def test_empty_partitions(self, ray_session, tmp_path):
        """Partitions past the last synthetic page get an empty data/
        and a MANIFEST of zero rows."""
        import json
        import os

        from cld2_ray.run import main
        out = str(tmp_path / "o")
        assert main(["--synthetic", "2", "--output", out,
                     "--partitions", "4"]) == 0
        rows = []
        for pid in range(4):
            pdir = os.path.join(out, f"part={pid:05d}")
            m = json.load(open(os.path.join(pdir, "MANIFEST.json")))
            rows.append(m["rows"])
            if pid >= 2:
                assert m == {"part_id": pid, "rows": 0, "kept": 0,
                             "drop_reasons": {}}
                assert os.listdir(os.path.join(pdir, "data")) == []
        assert rows == [1, 1, 0, 0]

    @pytest.mark.parametrize("argv", [
        ["--synthetic", "10", "--partitions", "0"],
        ["--input", "IN", "--partitions", "0"],
        ["--input", "IN", "--partitions", "-2"],
        ["--synthetic", "-5"]])
    def test_bad_counts_rejected(self, ray_session, tmp_path, argv):
        """A partition count below 1 or a negative page count is a usage
        error (exit 2) before anything runs."""
        import pyarrow.parquet as pq

        from cld2_ray.run import main
        from cld2_ray.sources.pages import page_batch
        os.makedirs(tmp_path / "in")
        pq.write_table(page_batch(0, 3), str(tmp_path / "in" / "a.parquet"))
        argv = [str(tmp_path / "in") if a == "IN" else a for a in argv]
        out = str(tmp_path / "o")
        with pytest.raises(SystemExit) as e:
            main(argv + ["--output", out])
        assert e.value.code == 2
        assert not os.path.exists(out)

    def test_debug_html(self, ray_session, tmp_path, capsys):
        import json
        import os

        from cld2_ray.pipelines.debughtml import html_escaped
        from cld2_ray.run import main
        from cld2_ray.sources.pages import make_page
        out = str(tmp_path / "o")
        assert main(["--synthetic", "6", "--output", out,
                     "--partitions", "2", "--debug-html", "2"]) == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["debug_html_pages"] == 2
        pages = sorted(os.listdir(os.path.join(out, "debug")))
        assert pages == ["debug_0000.html", "debug_0001.html"]
        # partition 0's first page
        with open(os.path.join(out, "debug", pages[0])) as f:
            assert html_escaped(make_page(0)["url"]) in f.read()


class TestGopherRepetition:
    def test_edge_cases_match_duckdb(self):
        """The kernel must agree with the SQL oracle on adversarial
        tokenization edges: NBSP (not split by RE2 \\s), tabs inside
        (split, and NOT trimmed by DuckDB trim()), unicode lengths,
        all-repeat docs, sub-n-gram docs, empties."""
        import duckdb
        import pandas as pd
        from cld2_ray.functions.textstats import gopher_repetition
        from cld2_ray.pipelines.queries import SQL_GOPHER_REPETITION

        docs = ["a b a b a", "r r r r r r", "x", "", "  ",
                "\ta b\t", "a b c a b c", "héé wörld héé wörld",
                "one two three four", "p q p q p q p q",
                None, "a  b   a  b"]
        df = pd.DataFrame({"doc_id": range(len(docs)),
                           "text": pd.Series(docs, dtype=object)})
        got = gopher_repetition(df["text"])
        got.insert(0, "doc_id", df["doc_id"])
        con = duckdb.connect()
        con.register("documents", df)
        want = con.execute(SQL_GOPHER_REPETITION).df()
        got = got.sort_values("doc_id").reset_index(drop=True)
        want = want.sort_values("doc_id").reset_index(drop=True) \
            .astype({c: "int64" for c in want.columns})
        pd.testing.assert_frame_equal(
            got.astype("int64"), want[got.columns].astype("int64"))

    def test_fraction_semantics(self):
        """'a b a b a': top bigram mass 6/9 chars; dup-trigram token
        coverage 5/5 (both 'a b a' windows overlap-cover everything)."""
        import pandas as pd
        from cld2_ray.functions.textstats import gopher_repetition
        r = gopher_repetition(pd.Series(["a b a b a"])).iloc[0]
        assert (r.n_tokens, r.total_chars) == (5, 9)
        assert (r.top2_count, r.top2_chars) == (2, 6)
        assert (r.dup3_windows, r.dup3_cov_tokens) == (2, 5)


class TestGopherFull:
    def test_oracle_parity_edges(self):
        """gopher_repetition_full == SQL_GOPHER_FULL on the same edge
        corpus as the bigram/trigram test, plus long-repeat docs that
        exercise every n up to 10."""
        import duckdb
        import pandas as pd
        from cld2_ray.functions.textstats import gopher_repetition_full
        from cld2_ray.pipelines.queries import SQL_GOPHER_FULL

        docs = ["a b a b a", "r r r r r r", "x", "", "  ",
                "\ta b\t", "a b c a b c", "héé wörld héé wörld",
                "one two three four", "p q p q p q p q",
                None, "a  b   a  b",
                " ".join("t%d" % (i % 12) for i in range(40)),
                " ".join(["u v w x y z q r s t"] * 3),
                " ".join("w%d" % i for i in range(25))]
        df = pd.DataFrame({"doc_id": range(len(docs)),
                           "text": pd.Series(docs, dtype=object)})
        got = gopher_repetition_full(df["text"])
        got.insert(0, "doc_id", df["doc_id"])
        con = duckdb.connect()
        con.register("documents", df)
        want = con.execute(SQL_GOPHER_FULL).df()
        got = got.sort_values("doc_id").reset_index(drop=True)
        want = want.sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got.astype("int64"), want[got.columns].astype("int64"))

    def test_matches_base_gopher_columns(self):
        """top2 columns agree with the original gopher_repetition."""
        import pandas as pd
        from cld2_ray.functions.textstats import (
            gopher_repetition, gopher_repetition_full)
        docs = pd.Series(["a b a b a", "x y x y x y z", "", "solo"])
        a = gopher_repetition(docs)
        b = gopher_repetition_full(docs)
        for c in ("n_tokens", "total_chars", "top2_count", "top2_chars"):
            assert (a[c] == b[c]).all()

    def test_dup_coverage_semantics(self):
        """A 10-token doc repeated twice: the 10-gram occurs twice, so
        dup10 covers all 20 token positions once each (overlap-union,
        separators excluded); dup5..dup9 cover the same tokens."""
        import pandas as pd
        from cld2_ray.functions.textstats import gopher_repetition_full
        base = "u v w x y z q r s t"
        r = gopher_repetition_full(pd.Series([base + " " + base])).iloc[0]
        assert r.n_tokens == 20
        for n in range(5, 11):
            assert r[f"dup{n}_cov_chars"] == 20   # 20 1-char tokens
        # top4: 'u v w x' etc occur 2x; chars = 2 * 7
        assert (r.top4_count, r.top4_chars) == (2, 14)

    def test_vectorized_equals_perdoc(self):
        """The batch-vectorized production path is bit-equal to the
        per-doc reference on a randomized small-vocab corpus (the
        boilerplate regime where cross-doc gram collisions would
        show) plus the unicode/whitespace edges."""
        import numpy as np
        import pandas as pd
        from cld2_ray.functions.textstats import gopher_repetition_full
        from tests.oracles.textstats import gopher_full_perdoc
        rng = np.random.default_rng(11)
        vocab = np.array(["w%d" % i for i in range(12)])
        docs = [" ".join(rng.choice(vocab, rng.integers(0, 80)))
                for _ in range(800)]
        docs += ["", None, "x", "\ta b\t", "a  b   a  b",
                 "héé wörld héé wörld", " ".join(["u v w x y z"] * 4)]
        s = pd.Series(docs)
        pd.testing.assert_frame_equal(
            gopher_repetition_full(s), gopher_full_perdoc(s))
