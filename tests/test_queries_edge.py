"""Edge paths of the curation queries that the oracle data never
exercises: empty benchmark set, truncation boundaries, determinism."""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF = "/root/testdata/sf0.001"


def test_decontaminate_all_benchmark(ray_session):
    """mod=1 -> every doc is benchmark -> nothing to flag -> zero
    rows with a stable schema."""
    from cld2_ray.pipelines.queries import q_decontaminate
    out = q_decontaminate(SF, mod=1).to_pandas()
    assert len(out) == 0
    # ray's to_pandas may drop column metadata when EVERY block is
    # empty; when columns survive they must be the contract ones
    assert list(out.columns) in ([], ["doc_id", "n_hits"])


def test_decontaminate_single_doc_benchmark(ray_session):
    """mod > max doc_id -> the benchmark is exactly doc 0 (0 % m == 0);
    every flagged doc must share a literal word 4-gram with doc 0."""
    import duckdb
    from cld2_ray.pipelines.queries import q_decontaminate
    out = q_decontaminate(SF, mod=10**12).to_pandas()
    con = duckdb.connect()
    texts = dict(con.sql(
        f"SELECT doc_id, text FROM read_parquet('{SF}/documents.parquet')"
    ).fetchall())

    def grams(t):
        w = t.split()
        return {" ".join(w[i:i + 4]) for i in range(len(w) - 3)}
    bench = grams(texts[0])
    for _, r in out.iterrows():
        got = grams(texts[int(r["doc_id"])]) & bench
        assert len(got) == int(r["n_hits"]) > 0


def test_decontaminate_self_overlap_excluded(ray_session):
    """Benchmark docs themselves are never flagged."""
    from cld2_ray.pipelines.queries import q_decontaminate
    out = q_decontaminate(SF).to_pandas()
    assert (out["doc_id"] % 97 != 0).all()
    assert (out["n_hits"] > 0).all()


def test_shingle_hash_matches_string_equality():
    """The 64-bit prefilter hash is a pure function of the shingle
    string: equal shingles hash equal regardless of which surrounding
    tokens produced them."""
    from cld2_ray.functions.textstats import shingle_hashes, token_hashes
    a = "the quick brown fox jumps over the lazy dog".split()
    b = ("PAD " * 3 + "quick brown fox jumps").split()
    ha = shingle_hashes(token_hashes(a), 4)
    hb = shingle_hashes(token_hashes(b), 4)
    # a[1:5] == b[3:7] == "quick brown fox jumps"
    assert ha[1] == hb[3]
    assert len(set(ha)) == len(ha)  # distinct shingles hash apart here


def test_inverted_index_posting_truncation(ray_session):
    """Postings cap at 10 ascending ids while n_docs stays the true
    document frequency."""
    from cld2_ray.pipelines.queries import q_inverted_index
    out = q_inverted_index(SF).to_pandas()
    assert len(out) > 0
    for _, r in out.iterrows():
        ids = [int(x) for x in r["posting"].split(",")]
        assert ids == sorted(ids)
        assert len(ids) == min(int(r["n_docs"]), 10)


def test_epoch_shuffle_deterministic(ray_session):
    from cld2_ray.pipelines.queries import q_epoch_shuffle
    a = q_epoch_shuffle(SF).to_pandas()
    b = q_epoch_shuffle(SF).to_pandas()
    assert a["doc_id"].tolist() == b["doc_id"].tolist()
    assert (a["shuffle_key"].sort_values().values ==
            a["shuffle_key"].values).all()  # globally sorted output


def test_incremental_dedup_prior_excluded(ray_session):
    from cld2_ray.pipelines.queries import q_incremental_dedup
    out = q_incremental_dedup(SF).to_pandas().sort_values("doc_id")
    assert (out["doc_id"] % 7 != 0).all()


def test_partitioned_sink_layout(ray_session):
    """One directory per lang partition value on disk."""
    from cld2_ray.pipelines.queries import q_partitioned_sink
    out = q_partitioned_sink(SF).to_pandas()
    dirs = sorted(d for d in
                  os.listdir(f"/tmp/cld2_ray_part_sink_{os.getpid()}")
                  if d.startswith("lang="))
    assert len(dirs) == len(out)
    assert {d.split("=", 1)[1] for d in dirs} == set(out["lang"])


def test_decontaminate_weird_whitespace_matches_oracle(ray_session):
    """Tabs/newlines/NBSP: both sides must tokenize with the oracle's
    RE2 \\s+ semantics (python str.split() differs on NBSP)."""
    import duckdb
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    from cld2_ray.pipelines.queries import SQL_DECONTAMINATE, q_decontaminate
    rng = np.random.default_rng(5)
    vocab = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]
    seps = [" ", "\t", "\n", "  ", " ", "   "]
    docs = []
    for i in range(300):
        n_tok = int(rng.integers(4, 30))
        toks = [vocab[int(rng.integers(0, len(vocab)))]
                for _ in range(n_tok)]
        text = ""
        for w in toks:
            text += w + seps[int(rng.integers(0, len(seps)))]
        docs.append(text)
    # deterministic repro docs FIRST so doc 0 (benchmark: 0 % 97 == 0)
    # is the trailing-tab doc: DuckDB trim() strips only Zs spaces, so
    # the '' edge token forms the gram 'beta gamma delta ' that doc 1
    # must match through identical tokenization on both sides; interior
    # NBSP is NOT RE2 whitespace and must not split
    docs = ["alpha beta gamma delta\t",
            "beta gamma delta\t",
            "alpha beta\u00a0gamma delta eps zeta",
            "\nalpha beta gamma delta",
            "   ", "\t\t", ""] + docs
    out = "/tmp/cld2_ray_ws_fuzz"
    os.makedirs(out, exist_ok=True)
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(len(docs), dtype=np.int64)),
        "text": pa.array(docs, pa.string())}),
        f"{out}/documents.parquet")
    got = q_decontaminate(out).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{out}/documents.parquet')")
    want = con.sql(SQL_DECONTAMINATE).df() \
        .sort_values("doc_id").reset_index(drop=True)
    assert len(want) > 0          # the fuzz corpus must actually overlap
    pd.testing.assert_frame_equal(
        got.astype("int64"), want.astype("int64"), check_dtype=False)


def test_rollup_levels_consistent(ray_session):
    """lang-level rows equal the sum of their (lang, source) rows and
    the grand total equals the sum of the lang level."""
    from cld2_ray.pipelines.queries import q_lang_source_rollup
    df = q_lang_source_rollup(SF).to_pandas()
    fine = df[(df["lang"] != "ALL") & (df["source"] != "ALL")]
    langl = df[(df["lang"] != "ALL") & (df["source"] == "ALL")]
    top = df[(df["lang"] == "ALL") & (df["source"] == "ALL")]
    g = fine.groupby("lang")["n_docs"].sum()
    for lang, n in langl.set_index("lang")["n_docs"].items():
        assert g[lang] == n
    assert int(top["n_docs"].iloc[0]) == int(fine["n_docs"].sum())


class TestPackSequences:
    def test_multi_bucket_prefix(self, ray_session, tmp_path):
        """Global token prefix scan across MULTIPLE scan buckets: doc
        ids straddle several PACK_BUCKET_W ranges, so the driver-side
        exclusive scan actually carries offsets between buckets."""
        import duckdb
        import pandas as pd
        import pyarrow as pa
        import pyarrow.parquet as pq
        import cld2_ray.pipelines.queries as Q
        ids = [0, 1, 4095, 4096, 4097, 9000, 12288, 12289]
        texts = ["a b c", "", "x " * 300, "one", "two three",
                 "k " * 100, "z", "final words here"]
        t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                      "text": pa.array(texts, pa.string()),
                      "lang": pa.array(["en"] * len(ids)),
                      "source": pa.array(["s"] * len(ids)),
                      "n_chars": pa.array([len(x) for x in texts],
                                          pa.int64())})
        d = tmp_path / "sf"
        d.mkdir()
        pq.write_table(t, str(d / "documents.parquet"))
        got = Q.q_pack_sequences(str(d)).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        con = duckdb.connect()
        con.register("documents", t.to_pandas())
        want = con.execute(Q.SQL_PACK_SEQUENCES).df() \
            .sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(got[want.columns].astype("int64"),
                                      want.astype("int64"))
        # shards are contiguous: offsets restart below SEQ_TOKENS
        assert (got.shard_offset < Q.SEQ_TOKENS).all()


class TestIncrementalDedupBloom:
    def test_matches_exact_variant(self, ray_session, tmp_path):
        """The bloom-pruned pipeline returns EXACTLY the exact anti
        join's rows on a corpus with real duplicates (bloom has no
        false negatives; false positives are re-checked)."""
        import pandas as pd
        import pyarrow as pa
        import pyarrow.parquet as pq
        import cld2_ray.pipelines.queries as Q
        n = 700
        texts = [f"doc body {i % 150}" for i in range(n)]  # heavy dups
        t = pa.table({"doc_id": pa.array(range(n), pa.int64()),
                      "text": pa.array(texts, pa.string()),
                      "lang": pa.array(["en"] * n),
                      "source": pa.array(["s"] * n),
                      "n_chars": pa.array([len(x) for x in texts],
                                          pa.int64())})
        d = tmp_path / "sf"
        d.mkdir()
        pq.write_table(t, str(d / "documents.parquet"))
        got = Q.q_incremental_dedup_bloom(str(d)).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        want = Q.q_incremental_dedup(str(d)).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(got[want.columns], want)
        # every kept doc's text is genuinely absent from the prior set
        prior = {texts[i] for i in range(0, n, 7)}
        assert all(texts[i] not in prior for i in got["doc_id"])

    def test_sparse_doc_ids(self, ray_session, tmp_path):
        """doc_ids far from dense (10^9 + 1000 i, odd i shifted by 1):
        with mod=1000 half the rows are prior keys, not n_rows/mod + 1,
        and the filter is sized from that true count."""
        import pandas as pd
        import pyarrow as pa
        import pyarrow.parquet as pq
        import cld2_ray.pipelines.queries as Q
        n, mod = 700, 1000
        ids = [10**9 + 1000 * i + i % 2 for i in range(n)]
        texts = [f"doc body {i % 150}" for i in range(n)]
        t = pa.table({"doc_id": pa.array(ids, pa.int64()),
                      "text": pa.array(texts, pa.string()),
                      "lang": pa.array(["en"] * n),
                      "source": pa.array(["s"] * n),
                      "n_chars": pa.array([len(x) for x in texts],
                                          pa.int64())})
        d = tmp_path / "sf"
        d.mkdir()
        pq.write_table(t, str(d / "documents.parquet"), row_group_size=200)
        n_prior = sum(1 for x in ids if x % mod == 0)
        assert n_prior == n // 2
        assert Q._bloom_bits(str(d), mod) >= Q.BLOOM_BITS_PER_KEY * n_prior
        got = Q.q_incremental_dedup_bloom(str(d), mod=mod).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        want = Q.q_incremental_dedup(str(d), mod=mod).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        assert len(want) > 0
        pd.testing.assert_frame_equal(got[want.columns], want)
