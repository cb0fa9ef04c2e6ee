"""Dedup families + similarity search tests (Ray-backed)."""

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(scope="module")
def doc_ds(ray_session):
    """Small corpus with planted exact + near duplicates."""
    import ray.data as rd
    base = ("the quick brown fox jumps over the lazy dog and runs into "
            "the deep green forest before sunrise while hunters sleep")
    near = base.replace("green", "dark")  # one-word change: near-dup
    other = ("completely different content about databases and query "
             "engines processing large batches of arrow data in parallel")
    rows = [
        {"doc_id": 0, "text": base},
        {"doc_id": 1, "text": base},          # exact dup of 0
        {"doc_id": 2, "text": near},          # near dup of 0
        {"doc_id": 3, "text": other},
        {"doc_id": 4, "text": other + " with a tiny suffix change here"},
        {"doc_id": 5, "text": "unique short document"},
    ]
    return rd.from_items(rows)


@pytest.fixture(scope="module")
def emb_ds(ray_session):
    import ray.data as rd
    rng = np.random.default_rng(0)
    base = rng.normal(size=(8, 16)).astype(np.float32)
    rows = []
    vid = 0
    for i in range(8):
        for _ in range(5):
            v = base[i] + rng.normal(scale=0.05, size=16).astype(np.float32)
            rows.append({"vec_id": vid, "embedding": v.tolist(),
                         "label": i})
            vid += 1
    return rd.from_items(rows)


class TestExactDedup:
    def test_groups(self, doc_ds):
        from cld2_ray.pipelines.dedup import exact_dedup
        out = exact_dedup(doc_ds).to_pandas()
        assert len(out) == 5  # 6 docs, one exact pair
        dup = out[out.n_copies > 1]
        assert len(dup) == 1
        assert dup.iloc[0].keep_id == 0


class TestSegmentDedup:
    def test_keep_first_drop_rest(self, ray_session):
        import ray.data as rd
        from cld2_ray.pipelines.dedup import segment_dedup
        dup = " ".join(f"w{i}" for i in range(10))       # one full segment
        rows = [
            {"doc_id": 0, "text": dup + " tail zero"},
            {"doc_id": 1, "text": dup + " tail one"},    # dup seg -> dropped
            {"doc_id": 2, "text": "all unique words here"},
            {"doc_id": 3, "text": dup},                  # dup seg -> dropped
        ]
        out = segment_dedup(rd.from_items(rows), seg_words=10).to_pandas()
        by_id = out.set_index("doc_id")
        assert by_id.loc[0, "clean_text"] == dup + " tail zero"  # keeper
        assert by_id.loc[1, "clean_text"] == "tail one"
        assert by_id.loc[1, "n_dropped"] == 1
        assert by_id.loc[2, "n_dropped"] == 0
        assert by_id.loc[3, "clean_text"] == ""          # fully deduped
        assert by_id.loc[3, "n_dropped"] == 1

    def test_short_segments_count_too(self, ray_session):
        import ray.data as rd
        from cld2_ray.pipelines.dedup import segment_dedup
        rows = [{"doc_id": 7, "text": "short tail"},
                {"doc_id": 9, "text": "short tail"}]     # sub-10-word dup
        out = segment_dedup(rd.from_items(rows), seg_words=10).to_pandas()
        by_id = out.set_index("doc_id")
        assert by_id.loc[7, "clean_text"] == "short tail"
        assert by_id.loc[9, "clean_text"] == ""


class TestSubstringDedup:
    def test_shared_passage_cut_everywhere(self, ray_session):
        import ray.data as rd
        from cld2_ray.pipelines.dedup import substring_dedup
        passage = " ".join(f"p{i}" for i in range(12))  # 12 shared tokens
        rows = [
            {"doc_id": 0, "text": "alpha beta " + passage + " gamma"},
            {"doc_id": 1, "text": passage + " delta epsilon"},
            {"doc_id": 2, "text": "totally different words only here now"},
        ]
        out = substring_dedup(rd.from_items(rows), window=8).to_pandas()
        by_id = out.set_index("doc_id")
        # the 12-token passage is covered by 5 stride-1 windows of 8,
        # each occurring twice corpus-wide -> all 12 tokens cut in BOTH
        # docs (remove-all-copies policy)
        assert by_id.loc[0, "n_dup_windows"] == 5
        assert by_id.loc[0, "dup_tokens"] == 12
        assert by_id.loc[0, "clean_text"] == "alpha beta gamma"
        assert by_id.loc[1, "clean_text"] == "delta epsilon"
        assert by_id.loc[2, "n_dup_windows"] == 0
        assert by_id.loc[2, "dup_tokens"] == 0

    def test_intra_doc_repeat_counts(self, ray_session):
        import ray.data as rd
        from cld2_ray.pipelines.dedup import substring_dedup
        chunk = " ".join(f"r{i}" for i in range(8))
        rows = [{"doc_id": 5, "text": chunk + " mid " + chunk},
                {"doc_id": 6, "text": "eight unique tokens " * 2}]
        out = substring_dedup(rd.from_items(rows), window=8).to_pandas()
        by_id = out.set_index("doc_id")
        # self-repeat: the 8-token chunk occurs twice IN THE SAME doc
        assert by_id.loc[5, "dup_tokens"] == 16
        assert by_id.loc[5, "clean_text"] == "mid"

    def test_fast_variant_matches_md5(self, ray_session):
        """hash_fn='fast' (vectorized rolling hash, the 100-TB path)
        must pick the same duplicate windows as the oracle-parity md5
        variant — identical output frames on the driver test table."""
        import ray.data as rd
        from cld2_ray.pipelines.dedup import substring_dedup
        ds = rd.read_parquet(
            "/root/testdata/sf0.001/documents.parquet") \
            .select_columns(["doc_id", "text"])
        a = substring_dedup(ds, hash_fn="md5").to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        b = substring_dedup(ds, hash_fn="fast").to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)
        assert (a["n_dup_windows"] > 0).any()  # signal, not vacuous

    @pytest.mark.parametrize("seed", [3, 11])
    def test_random_corpus_invariants(self, ray_session, seed):
        """Structural invariants on a random small-vocab corpus (small
        vocab -> natural window collisions): coverage bounded by
        window count, clean token count == n_tokens - dup_tokens, and
        the rewrite is deterministic."""
        import ray.data as rd
        from cld2_ray.pipelines.dedup import substring_dedup
        rng = np.random.default_rng(seed)
        vocab = [f"w{i}" for i in range(12)]
        rows = [{"doc_id": i,
                 "text": " ".join(rng.choice(vocab,
                                             size=rng.integers(1, 60)))}
                for i in range(40)]
        out = substring_dedup(rd.from_items(rows), window=8) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert (out["dup_tokens"] <= out["n_tokens"]).all()
        assert (out["n_dup_windows"]
                <= (out["n_tokens"] - 7).clip(lower=0)).all()
        # every marked window covers <= 8 tokens
        assert (out["dup_tokens"] <= 8 * out["n_dup_windows"]).all()
        for _, r in out.iterrows():
            if r["dup_tokens"] < r["n_tokens"]:
                assert len(r["clean_text"].split(" ")) \
                    == r["n_tokens"] - r["dup_tokens"]
            else:
                assert r["clean_text"] == ""
        out2 = substring_dedup(rd.from_items(rows), window=8) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(out, out2)

    def test_short_docs_pass_through(self, ray_session):
        import ray.data as rd
        from cld2_ray.pipelines.dedup import substring_dedup
        rows = [{"doc_id": 1, "text": "too short"},
                {"doc_id": 2, "text": "too short"}]  # < window: no windows
        out = substring_dedup(rd.from_items(rows), window=8).to_pandas()
        assert (out["n_dup_windows"] == 0).all()
        assert set(out["clean_text"]) == {"too short"}


class TestDistributedPass2:
    """mode='join' (the 100-TB path: the duplicate-key set never
    touches the driver) must be output-identical to mode='broadcast'
    for both dedup granularities and both substring hash_fns."""

    @pytest.mark.parametrize("hash_fn", ["md5", "fast"])
    def test_substring_join_equals_broadcast(self, ray_session, hash_fn):
        import ray.data as rd
        from cld2_ray.pipelines.dedup import substring_dedup
        ds = rd.read_parquet(
            "/root/testdata/sf0.001/documents.parquet") \
            .select_columns(["doc_id", "text"])
        a = substring_dedup(ds, hash_fn=hash_fn, mode="broadcast") \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        b = substring_dedup(ds, hash_fn=hash_fn, mode="join",
                            doc_buckets=7) \
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)
        assert (a["n_dup_windows"] > 0).any()  # signal, not vacuous

    def test_segment_join_equals_broadcast(self, ray_session):
        import ray.data as rd
        from cld2_ray.pipelines.dedup import segment_dedup
        ds = rd.read_parquet(
            "/root/testdata/sf0.001/documents.parquet") \
            .select_columns(["doc_id", "text"])
        a = segment_dedup(ds, mode="broadcast").to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        b = segment_dedup(ds, mode="join", doc_buckets=7).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            a[["doc_id", "clean_text", "n_dropped"]],
            b[["doc_id", "clean_text", "n_dropped"]])
        assert (a["n_dropped"] > 0).any()

    def test_auto_gate_picks_join_on_tiny_budget(self, ray_session):
        import ray.data as rd
        from cld2_ray.pipelines.dedup import substring_dedup
        passage = " ".join(f"p{i}" for i in range(12))
        rows = [{"doc_id": i, "text": passage + f" tail{i}"}
                for i in range(4)]
        # budget 0 forces the join path through the auto gate; output
        # must equal the broadcast default on the same corpus
        a = substring_dedup(rd.from_items(rows), window=8,
                            mode="broadcast").to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        b = substring_dedup(rd.from_items(rows), window=8, mode="auto",
                            broadcast_budget_bytes=0).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)

    def test_join_windowless_corpus(self, ray_session):
        import ray.data as rd
        from cld2_ray.pipelines.dedup import substring_dedup
        rows = [{"doc_id": 1, "text": "too short"},
                {"doc_id": 2, "text": "too short"}]
        out = substring_dedup(rd.from_items(rows), window=8,
                              mode="join").to_pandas()
        assert (out["n_dup_windows"] == 0).all()
        assert set(out["clean_text"]) == {"too short"}


class TestMinHash:
    def test_near_dups_found(self, doc_ds):
        from cld2_ray.pipelines.dedup import minhash_dedup
        out = minhash_dedup(doc_ds, threshold=0.5)
        groups = out.groupby("group_id")["doc_id"].apply(set).tolist()
        assert {0, 1, 2} in groups
        assert not any(5 in g for g in groups)

    def test_signature_similarity(self):
        from cld2_ray.pipelines.dedup import (_shingle_hashes,
                                              minhash_signature_from)

        def minhash_signature(text):
            return minhash_signature_from(_shingle_hashes(text))

        def jaccard(a, b):
            sa = set(_shingle_hashes(a).tolist())
            sb = set(_shingle_hashes(b).tolist())
            return len(sa & sb) / max(len(sa | sb), 1)

        a = "one two three four five six seven eight nine ten"
        b = "one two three four five six seven eight nine eleven"
        sa, sb = minhash_signature(a), minhash_signature(b)
        est = (sa == sb).mean()
        assert abs(est - jaccard(a, b)) < 0.35


class TestSimHash:
    def test_pairs(self, doc_ds):
        from cld2_ray.pipelines.dedup import simhash_dedup
        pairs = simhash_dedup(doc_ds, max_hamming=10)
        got = set(map(tuple, pairs[["a", "b"]].to_numpy().tolist()))
        assert (0, 1) in got  # identical -> distance 0

    def test_simhash_stability(self):
        from cld2_ray.pipelines.dedup import simhash64
        t = "alpha beta gamma delta epsilon zeta eta theta"
        assert simhash64(t) == simhash64(t)
        near = t.replace("theta", "iota")
        d = bin(simhash64(t) ^ simhash64(near)).count("1")
        assert d < 24


class TestEmbeddingOps:
    def test_near_pairs_within_clusters(self, emb_ds):
        from cld2_ray.pipelines.dedup import embedding_near_pairs
        pairs = embedding_near_pairs(emb_ds, threshold=0.9)
        assert len(pairs) > 0
        labels = {}
        for r in emb_ds.select_columns(["vec_id", "label"]).take_all():
            labels[r["vec_id"]] = r["label"]
        assert all(labels[a] == labels[b]
                   for a, b in pairs[["a", "b"]].to_numpy())

    def test_brute_force_topk(self, emb_ds):
        from cld2_ray.pipelines.simsearch import brute_force_topk
        top = brute_force_topk(emb_ds, [0, 7], k=4)
        assert set(top.query_id) == {0, 7}
        # neighbors of 0 are its cluster mates 1..4
        n0 = set(top[top.query_id == 0].neighbor_id)
        assert n0 == {1, 2, 3, 4}

    def test_knn_classify(self, emb_ds):
        from cld2_ray.pipelines.simsearch import knn_classify
        out = knn_classify(emb_ds, [0, 13, 27, 39], k=3)
        truth = {0: 0, 13: 2, 27: 5, 39: 7}
        for _, row in out.iterrows():
            assert row.predicted_label == truth[row.query_id]

    def test_ivf_matches_brute_force_mostly(self, emb_ds):
        from cld2_ray.pipelines.simsearch import brute_force_topk, ivf_topk
        bf = brute_force_topk(emb_ds, [0, 20], k=3)
        iv = ivf_topk(emb_ds, [0, 20], k=3, n_clusters=8, n_probe=3)
        bf_set = set(map(tuple, bf[["query_id", "neighbor_id"]].to_numpy()))
        iv_set = set(map(tuple, iv[["query_id", "neighbor_id"]].to_numpy()))
        assert len(bf_set & iv_set) >= len(bf_set) * 2 // 3


class TestMultimodal:
    @staticmethod
    def media_dataset_example(n):
        """(media_id, image bytes) rows with REAL BMP payloads whose
        dimensions follow media.bmp_dims_for(media_id)."""
        import pyarrow as pa
        from cld2_ray.functions.media import make_bmp
        return pa.Table.from_pylist(
            [{"media_id": i, "image": make_bmp(i)} for i in range(n)])

    def test_media_stages(self, ray_session):
        import ray.data as rd
        from cld2_ray.stages.multimodal import (
            AudioFrameStage, ImageDecodeStage, ImageEmbedStage)
        from cld2_ray.functions.media import bmp_dims_for, make_wav
        ds = rd.from_arrow(self.media_dataset_example(16))
        out = ds.map_batches(ImageDecodeStage, batch_format="pyarrow",
                             batch_size=8, concurrency=1).to_pandas()
        # REAL decode: parsed dimensions match the fixture contract
        for _, r in out.iterrows():
            w, h = bmp_dims_for(int(r.media_id))
            assert (r.width, r.height, r.channels) == (w, h, 3)
            assert r.decode_ok and 0.0 <= r.mean_pixel <= 1.0
        emb = ds.map_batches(ImageEmbedStage, batch_format="pyarrow",
                             batch_size=8, concurrency=1).to_pandas()
        assert len(emb.embedding[0]) == 64
        assert emb.embed_ok.all()
        # non-BMP payloads surface as decode_ok=False, not a crash
        bad = rd.from_items([{"media_id": 0, "image": b"not a bmp"}]) \
            .map_batches(ImageDecodeStage, batch_format="pyarrow",
                         concurrency=1).to_pandas()
        assert not bad.decode_ok[0] and bad.width[0] == 0
        # REAL WAV parse: 4000 samples @16kHz, 25ms frames -> 10 frames
        ds2 = rd.from_items([{"audio": make_wav(8)}])
        a = ds2.map_batches(AudioFrameStage, batch_format="pyarrow",
                            concurrency=1).to_pandas()
        from cld2_ray.functions.media import wav_params_for
        sr, n = wav_params_for(8)
        assert a.sample_rate[0] == sr and a.n_samples[0] == n
        assert a.n_frames[0] == n // (sr * 25 // 1000)
        assert a.decode_ok[0] and 0.0 < a.rms[0] < 1.0

    def test_image_resize_real_pixels(self, ray_session):
        """ImageResizeStage output decodes back to EXACTLY the numpy
        nearest-neighbor reference of the source pixels."""
        import numpy as np
        import ray.data as rd
        from cld2_ray.functions.media import (
            decode_bmp_pixels, encode_bmp, resize_nearest)
        from cld2_ray.stages.multimodal import ImageResizeStage
        rng = np.random.default_rng(3)
        px = rng.integers(0, 256, (37, 51, 3), dtype=np.uint8)
        ds = rd.from_items([{"media_id": 0, "image": encode_bmp(px)},
                            {"media_id": 1, "image": b"junk"}])
        out = ds.map_batches(ImageResizeStage, batch_format="pyarrow",
                             concurrency=1).to_pandas() \
            .sort_values("media_id").reset_index(drop=True)
        got = decode_bmp_pixels(out.resized[0])
        want = resize_nearest(px, 24, 24)
        assert got.shape == (24, 24, 3)
        assert np.array_equal(got, want)
        assert out.resize_ok[0] and out.out_width[0] == 24
        assert not out.resize_ok[1] and out.out_width[1] == 0

    def test_image_embedding_is_real(self):
        """Random-projection features: unit-norm, metric-preserving
        (a perturbed copy of an image stays closer than a different
        image), zero vector for undecodable payloads."""
        import numpy as np
        from cld2_ray.functions.media import decode_bmp_pixels, encode_bmp
        from cld2_ray.stages.multimodal import ImageEmbedStage
        import pyarrow as pa
        rng = np.random.default_rng(0)
        base = rng.integers(0, 256, (40, 50, 3), dtype=np.uint8)
        near = base.copy()
        near[::7, ::5] = (near[::7, ::5].astype(int) + 12) % 256
        far = rng.integers(0, 256, (40, 50, 3), dtype=np.uint8)
        # pixel decode round-trips the encoder exactly
        assert (decode_bmp_pixels(encode_bmp(base)) == base).all()
        stage = ImageEmbedStage()
        t = pa.table({"image": [encode_bmp(base), encode_bmp(near),
                                encode_bmp(far), b"junk"]})
        out = stage(t)
        e = np.array(out["embedding"].to_pylist())
        ok = out["embed_ok"].to_pylist()
        assert ok == [True, True, True, False]
        assert np.allclose(np.linalg.norm(e[:3], axis=1), 1.0, atol=1e-5)
        assert (e[3] == 0).all()
        assert e[0] @ e[1] > e[0] @ e[2] + 0.1
        # deterministic across actor instances (fixed seed)
        e2 = np.array(ImageEmbedStage()(t)["embedding"].to_pylist())
        assert (e == e2).all()

    def test_y4m_roundtrip_and_sampling(self):
        """Real Y4M container parse: exact luma round-trip, frame
        counting past unsampled frames, truncation rejected."""
        import numpy as np
        from cld2_ray.functions.media import (decode_y4m, encode_y4m,
                                              make_y4m, y4m_params_for)
        rng = np.random.default_rng(5)
        frames = rng.integers(0, 256, (7, 10, 16), dtype=np.uint8)
        data = encode_y4m(frames, fps=(30, 1))
        w, h, fn, fd, nf, sampled = decode_y4m(data, sample_every=3)
        assert (w, h, fn, fd, nf) == (16, 10, 30, 1, 7)
        assert len(sampled) == 3                 # frames 0, 3, 6
        assert (sampled[1] == frames[3]).all()   # bit-exact luma
        assert decode_y4m(data[:-5]) is None     # truncated frame
        assert decode_y4m(b"garbage") is None
        # malformed numeric header tokens must return None, not raise
        assert decode_y4m(b"YUV4MPEG2 Wx H16 F25:1\n") is None
        assert decode_y4m(b"YUV4MPEG2 W16 H16 F25\n") is None
        assert decode_y4m(b"YUV4MPEG2 W H16 F25:1\n") is None
        assert decode_y4m(b"YUV4MPEG2 W16 H16 F2:5:1\n") is None
        w2, h2, n2 = y4m_params_for(13)
        ww, hh, _, _, nn, _ = decode_y4m(make_y4m(13))
        assert (ww, hh, nn) == (w2, h2, n2)

    def test_tiny_image_fills_grid(self):
        """Images smaller than the pooling grid upsample by
        replication — a solid-color 4x4 must embed like a solid-color
        64x64, not like a mostly-black frame."""
        import numpy as np
        from cld2_ray.functions.media import encode_bmp
        from cld2_ray.stages.multimodal import ImageEmbedStage
        import pyarrow as pa
        white_s = np.full((4, 4, 3), 255, np.uint8)
        white_l = np.full((64, 64, 3), 255, np.uint8)
        stage = ImageEmbedStage()
        out = stage(pa.table({"image": [encode_bmp(white_s),
                                        encode_bmp(white_l)]}))
        e = np.array(out["embedding"].to_pylist())
        assert e[0] @ e[1] > 0.999
