"""Cross-document deduplication operators (training-data pipeline ops).

All four families from the task brief, Ray-Data-first:

* exact        — content hash -> groupby(hash) keep min id. The hash
                 column is added vectorized per batch; the groupby is
                 the only shuffle.
* minhash LSH  — word-shingle -> 64 minhashes -> 16 bands of 4 ->
                 explode (band, band_hash) rows -> groupby -> candidate
                 pairs -> exact Jaccard verify -> connected components.
* simhash      — 64-bit weighted-feature fingerprint; near-dup =
                 Hamming distance <= 3, found via 4x16-bit band
                 bucketing (any duplicate pair agrees on >= 1 band by
                 pigeonhole when distance <= 3).
* embedding    — cosine near-dup pairs over a list<float> column,
                 blocked matmul per batch against a broadcast matrix.

Scale notes: band-bucket groupbys shuffle (band_key, doc_id,
shingle-set) rows — bounded at 16x the shingle sets, never raw text;
Jaccard verification runs INSIDE each bucket's map_groups; connected
components run driver-side on the verified EDGES only (bounded:
near-dup pairs, not the corpus). The exact Jaccard join
(jaccard_pairs_exact) and the embedding near-pair search are likewise
fully distributed: identical-set collapse + prefix-filter buckets,
and centroid cells with triangle-inequality cell-pair pruning.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

# map-side coalescing for keyed exchanges — see pipelines/shuffle.py
# (measured here first: 1.1 GiB driver growth for a 294 MB partials
# exchange split 135x135 at the 120k-doc dup-stress; 35 MiB coalesced)
from cld2_ray.pipelines.shuffle import exchange_blocks as _exchange_blocks

_M61 = (1 << 61) - 1


def _shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """Hashes of word k-shingles (uint64): one C blake2b pass over the
    tokens (native.blake2b_batch), then a vectorized positional
    polynomial mix per window — O(tokens) strong hashes instead of
    O(shingles), with the windowing itself numpy."""
    from cld2_ray import native
    words = text.split()
    if len(words) < k:
        words = words + ["<pad>"] * (k - len(words))
    data, offs = native.utf8_cat(words)
    th = native.blake2b_batch(data, offs, 8).view(np.uint64).ravel()
    n_sh = len(words) - k + 1
    with np.errstate(over="ignore"):
        out = np.zeros(n_sh, dtype=np.uint64)
        for j in range(k):
            out = out * np.uint64(0x100000001B3) + th[j:n_sh + j]
    return out


_RNG = np.random.default_rng(12345)
_A = (_RNG.integers(1, _M61, size=64, dtype=np.int64)).astype(np.uint64)
_B = (_RNG.integers(0, _M61, size=64, dtype=np.uint64))


def minhash_signature_from(sh: np.ndarray) -> np.ndarray:
    """64 minhashes from precomputed shingle hashes (lets callers
    share one _shingle_hashes pass between signature and verify set)."""
    if len(sh) == 0:
        return np.zeros(64, dtype=np.uint64)
    with np.errstate(over="ignore"):
        prods = (sh[None, :] * _A[:, None] + _B[:, None])
    return prods.min(axis=1)


def minhash_bands(sig: np.ndarray, n_bands: int = 16) -> list[int]:
    """Band keys: hash of each 4-row band."""
    rows = len(sig) // n_bands
    out = []
    for b in range(n_bands):
        band = sig[b * rows:(b + 1) * rows].tobytes()
        h = int.from_bytes(hashlib.blake2b(band, digest_size=8).digest(),
                           "little")
        out.append(h)
    return out


# SQL-mirrored MinHash parameters (shared with the DuckDB oracles in
# pipelines/queries.py): 16 affine perms (a*h+b) mod M61 over md5-based
# shingle hashes. a*h stays < 2^64 because a <= 7 and h < 2^61.
MH_M61 = _M61
MH_PERMS = [([2, 3, 5, 6, 7][i % 5], 1000003 * i + 12345)
            for i in range(16)]
_MH_A = np.array([p[0] for p in MH_PERMS], dtype=np.uint64)
_MH_B = np.array([p[1] for p in MH_PERMS], dtype=np.uint64)


def minhash_signature_md5(sh: np.ndarray) -> np.ndarray:
    """16 minhashes over md5-shingle hashes already reduced mod M61 —
    bit-equal to the SQL oracle's min((a*h+b) % M61) per perm."""
    if len(sh) == 0:
        return np.zeros(len(_MH_A), dtype=np.uint64)
    with np.errstate(over="ignore"):
        prods = (_MH_A[:, None] * sh[None, :] + _MH_B[:, None]) \
            % np.uint64(MH_M61)
    return prods.min(axis=1)


def _shingle_hashes_md5(text: str, k: int = 3) -> np.ndarray:
    """md5-based shingle hashes (first 8 big-endian digest bytes) —
    chosen for simhash so a DuckDB oracle can replicate bit-for-bit:
    ('0x' || substr(md5(s),1,16))::UBIGINT."""
    words = text.split()
    if len(words) < k:
        words = words + ["<pad>"] * (k - len(words))
    joined = [" ".join(words[i:i + k]) for i in range(len(words) - k + 1)]
    return np.fromiter(
        (int(hashlib.md5(s.encode()).hexdigest()[:16], 16) for s in joined),
        dtype=np.uint64, count=len(joined))


def simhash64(text: str) -> int:
    """64-bit simhash over word-3-shingle md5 hashes (SQL-mirrored)."""
    sh = _shingle_hashes_md5(text)
    if len(sh) == 0:
        return 0
    bits = ((sh[:, None] >> np.arange(64, dtype=np.uint64)[None, :])
            & np.uint64(1)).astype(np.int64)
    v = (2 * bits - 1).sum(axis=0)
    return int(((v > 0).astype(np.uint64)
                << np.arange(64, dtype=np.uint64)).sum())


def _union_find(n_ids: list, edges: list[tuple]) -> dict:
    parent = {i: i for i in n_ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {i: find(i) for i in n_ids}


# --- Ray pipelines ---------------------------------------------------------

def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Dataset -> (hash groups with survivor id + count). The groupby
    runs on the md5 column, not the full text — and the exchange is 64
    hash-bucket partitions with a vectorized pandas groupby per bucket,
    not a sort aggregate over the (corpus-cardinality) md5 key: Ray's
    sort-based aggregate pays per-GROUP costs that dominate at ~200k
    distinct hashes (23 s -> 8 s measured at that scale)."""

    def add_hash(df: pd.DataFrame):
        # Arrow block out: the part-keyed shuffle is ~14x slower on
        # pandas blocks. One GIL-released C md5 pass per batch
        # (native.md5_batch).
        import pyarrow as _pa

        from cld2_ray import native
        data, offs = native.utf8_cat(df[text_col].fillna("").tolist())
        dig = native.md5_batch(data, offs)
        return _pa.table({id_col: df[id_col].to_numpy(),
                          "content_md5": native.hex_digest_arrow(dig),
                          "part": _pa.array((dig[:, 0] % 64)
                                            .astype(np.int64))})

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("content_md5", as_index=False).agg(
            keep_id=(id_col, "min"), n_copies=(id_col, "size"))
        out["n_copies"] = out["n_copies"].astype(np.int64)
        return out[["content_md5", "keep_id", "n_copies"]]

    hashes = ds.map_batches(add_hash, batch_format="pandas",
                            batch_size=None).materialize()
    # coalesce the exchange's map side so sort pieces stay above
    # Ray's ~100KB owner-inline threshold (see _exchange_blocks)
    return hashes.repartition(_exchange_blocks(hashes.size_bytes() or 1)) \
        .groupby("part").map_groups(merge, batch_format="pandas")


_SEG_ENC = 1 << 20  # doc_id * _SEG_ENC + seg encodes (doc_id, seg) ordering


def _md5_digests(strings: list[str]) -> np.ndarray:
    """(n, 16) uint8 md5 digests — one GIL-released C pass
    (native.md5_batch)."""
    from cld2_ray import native
    return native.md5_batch(*native.utf8_cat(strings))


def segment_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
                  seg_words: int = 10, min_count: int = 2,
                  mode: str = "auto",
                  broadcast_budget_bytes: int = 64 << 20,
                  doc_buckets: int = 64,
                  shuffle_blocks: int | None = None):
    """C4-style corpus-wide duplicate-segment removal: split every
    document into consecutive ``seg_words``-word segments; any segment
    text appearing >= ``min_count`` times in the corpus survives only
    at its first occurrence (smallest (doc_id, seg)), everywhere else
    it is dropped from the rebuilt text.

    Scale shape, pass 1: the shuffle carries only per-batch
    pre-aggregated (segment_md5, count, min_position) partials —
    never segment text. Pass 2 needs the (seg_md5 -> keeper) map for
    every frequent segment; like substring_dedup (same family, ~10x
    fewer keys because segments are aligned) its size scales with
    duplicated-segment volume, so the same three modes apply:
    ``"broadcast"`` ships it once via ray.put, ``"join"`` keeps it a
    Dataset and routes marked (doc_id, seg) drops back by doc-id
    bucket (see substring_dedup's docstring for the join shape and
    the ``doc_buckets`` / ``shuffle_blocks`` sizing rules),
    ``"auto"`` (default) picks by the estimated broadcast size vs
    ``broadcast_budget_bytes``. Nothing materializes the corpus on
    the driver in either mode.
    """
    import pyarrow as _pa
    import ray

    if mode not in ("auto", "broadcast", "join"):
        raise ValueError(f"mode must be auto|broadcast|join, got {mode!r}")

    def _segments(doc_id: int, text: str):
        words = (text or "").split(" ")
        n_segs = (len(words) + seg_words - 1) // seg_words
        # packed (doc_id, seg) ordering key: guard the encoding's
        # ranges instead of silently bleeding seg bits into doc_id
        # (a >= 2^20-segment doc or doc_id >= 2^43 would corrupt
        # survivor selection)
        if n_segs >= _SEG_ENC or doc_id >= (1 << 63) // _SEG_ENC:
            raise ValueError(
                f"segment_dedup packed key overflow: doc_id={doc_id} "
                f"n_segs={n_segs} (limits: doc_id < 2^43, segs < 2^20)")
        for seg in range(0, n_segs):
            seg_text = " ".join(words[seg * seg_words:
                                      (seg + 1) * seg_words])
            yield seg, seg_text, doc_id * _SEG_ENC + seg

    def _seg_batch(df: pd.DataFrame):
        """All segments of a batch: (texts, encs, per-doc counts,
        (n,16) md5 digests) — the digests in one C pass."""
        seg_texts: list[str] = []
        encs: list[int] = []
        counts: list[int] = []
        for doc_id, text in zip(df[id_col], df[text_col]):
            n0 = len(seg_texts)
            for _, seg_text, enc in _segments(int(doc_id), text):
                seg_texts.append(seg_text)
                encs.append(enc)
            counts.append(len(seg_texts) - n0)
        return (seg_texts, np.array(encs, dtype=np.int64),
                np.array(counts, dtype=np.int64),
                _md5_digests(seg_texts))

    def seg_partial(df: pd.DataFrame):
        from cld2_ray.native import hex_digest
        _, encs, _, dig = _seg_batch(df)
        hx = np.asarray(hex_digest(dig))
        uniq, first, inv = np.unique(hx, return_index=True,
                                     return_inverse=True)
        cnt = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        mins = np.full(len(uniq), np.iinfo(np.int64).max, np.int64)
        np.minimum.at(mins, inv, encs)
        part = (dig[first, 0] % 64).astype(np.int64)
        return _pa.table({
            "seg_md5": _pa.array(uniq.astype("U32"), _pa.string()),
            "part": _pa.array(part),
            "n_": _pa.array(cnt),
            "enc_": _pa.array(mins)})

    # 64 hash buckets + vectorized per-bucket merge, NOT a sort
    # aggregate over the (near-corpus-cardinality) segment-md5 key —
    # Ray's sort aggregate at ~3.6M distinct keys dominated wall time;
    # heavy hitters (count >= min_count) are filtered inside the
    # bucket so only the dup tail ever leaves it
    def seg_merge(g: pd.DataFrame) -> pd.DataFrame:
        gg = g.groupby("seg_md5", as_index=False).agg(
            cnt=("n_", "sum"), keeper=("enc_", "min"))
        gg = gg[gg["cnt"] >= min_count][["seg_md5", "keeper"]]
        gg["part"] = np.array([int(k[:2], 16) % 64
                               for k in gg["seg_md5"]], dtype=np.int64)
        return gg

    parts_mat = ds.map_batches(seg_partial, batch_format="pandas",
                               batch_size=None).materialize()
    pvol = max(parts_mat.size_bytes() or 1, 1)
    hot_ds = parts_mat.repartition(shuffle_blocks
                                   or _exchange_blocks(pvol)) \
        .groupby("part").map_groups(seg_merge, batch_format="pandas") \
        .materialize()
    n_hot = hot_ds.count()
    # driver dict of 32-char-hex -> int: ~150 B/entry incl. slots
    if mode == "auto":
        mode = "broadcast" if n_hot * 150 <= broadcast_budget_bytes \
            else "join"

    if mode == "broadcast":
        hot = hot_ds.to_pandas()
        keeper_of = ray.put(
            dict(zip(hot["seg_md5"], hot["keeper"].astype(int)))
            if "seg_md5" in hot.columns else {})

        def rewrite(df: pd.DataFrame) -> pd.DataFrame:
            from cld2_ray.native import hex_digest
            kp = ray.get(keeper_of)
            seg_texts, encs, counts, dig = _seg_batch(df)
            keys = np.asarray(hex_digest(dig)).astype("U32").tolist()
            bounds = np.concatenate([[0], np.cumsum(counts)])
            ids, texts, dropped = [], [], []
            for j, doc_id in enumerate(df[id_col]):
                kept, n_drop = [], 0
                for p in range(bounds[j], bounds[j + 1]):
                    k = keys[p]
                    if k in kp and encs[p] != kp[k]:
                        n_drop += 1
                    else:
                        kept.append(seg_texts[p])
                ids.append(doc_id)
                texts.append(" ".join(kept))
                dropped.append(n_drop)
            return pd.DataFrame({id_col: ids, "clean_text": texts,
                                 "n_dropped": np.array(dropped, np.int64)})

        # stays a Dataset: the rewritten corpus is corpus-sized —
        # callers write_parquet it or aggregate it; tests sort a
        # collected copy
        return ds.map_batches(rewrite, batch_format="pandas",
                              batch_size=None)

    # -- mode == "join": fully distributed pass 2 (the keeper map
    # never leaves the cluster; doc ids must be >= 0) -----------------
    nb = np.int64(doc_buckets)

    def seg_postings(df: pd.DataFrame):
        from cld2_ray.native import hex_digest
        _, encs, counts, dig = _seg_batch(df)
        ids = np.repeat(df[id_col].to_numpy(np.int64), counts)
        return _pa.table({
            id_col: _pa.array(ids, _pa.int64()),
            "enc_": _pa.array(encs, _pa.int64()),
            "seg_md5": _pa.array(
                np.asarray(hex_digest(dig)).astype("U32"),
                _pa.string()),
            "part": _pa.array((dig[:, 0] % 64).astype(np.int64))})

    def hot_as_postings(df: pd.DataFrame):
        return _pa.table({
            id_col: _pa.array(np.full(len(df), -1, np.int64)),
            "enc_": _pa.array(df["keeper"].to_numpy(np.int64)),
            "seg_md5": _pa.array(df["seg_md5"].tolist(), _pa.string()),
            "part": _pa.array(df["part"].to_numpy(np.int64))})

    def mark_drops(g: pd.DataFrame):
        is_hot = g[id_col].to_numpy() < 0
        hotk = g.loc[is_hot, ["seg_md5", "enc_"]] \
            .rename(columns={"enc_": "keeper"})
        post = g.loc[~is_hot, [id_col, "enc_", "seg_md5"]]
        m = post.merge(hotk, on="seg_md5", how="inner")
        m = m[m["enc_"].to_numpy() != m["keeper"].to_numpy()]
        ids = m[id_col].to_numpy(np.int64)
        return _pa.table({
            id_col: _pa.array(ids),
            "seg": _pa.array(m["enc_"].to_numpy(np.int64) % _SEG_ENC),
            "bucket_": _pa.array(ids % nb)})

    drops = ds.map_batches(seg_postings, batch_format="pandas",
                           batch_size=None) \
        .union(hot_ds.map_batches(hot_as_postings,
                                  batch_format="pandas",
                                  batch_size=None)) \
        .repartition(shuffle_blocks or _exchange_blocks(2.5 * pvol)) \
        .groupby("part").map_groups(mark_drops, batch_format="pandas")

    def doc_rows(df: pd.DataFrame):
        ids = df[id_col].to_numpy(np.int64)
        return _pa.table({
            id_col: _pa.array(ids),
            "seg": _pa.array(np.full(len(df), -1, np.int64)),
            "text_": _pa.array(df[text_col].fillna("").tolist(),
                               _pa.large_string()),
            "bucket_": _pa.array(ids % nb)})

    def drop_rows(df: pd.DataFrame):
        return _pa.table({
            id_col: _pa.array(df[id_col].to_numpy(np.int64)),
            "seg": _pa.array(df["seg"].to_numpy(np.int64)),
            "text_": _pa.array([None] * len(df), _pa.large_string()),
            "bucket_": _pa.array(df["bucket_"].to_numpy(np.int64))})

    def rewrite_group(g: pd.DataFrame) -> pd.DataFrame:
        sg = g["seg"].to_numpy()
        docs = g[sg < 0]
        dr = g[sg >= 0].sort_values(id_col, kind="stable")
        d_ids = dr[id_col].to_numpy(np.int64)
        d_segs = dr["seg"].to_numpy(np.int64)
        ids, texts, dropped = [], [], []
        for doc_id, text in zip(docs[id_col], docs["text_"]):
            lo = np.searchsorted(d_ids, int(doc_id), side="left")
            hi = np.searchsorted(d_ids, int(doc_id), side="right")
            gone = set(d_segs[lo:hi].tolist())
            kept = [seg_text for seg, seg_text, _
                    in _segments(int(doc_id), text)
                    if seg not in gone]
            ids.append(int(doc_id))
            texts.append(" ".join(kept))
            dropped.append(hi - lo)
        return pd.DataFrame({id_col: ids, "clean_text": texts,
                             "n_dropped": np.array(dropped, np.int64)})

    return ds.map_batches(doc_rows, batch_format="pandas",
                          batch_size=None) \
        .union(drops.map_batches(drop_rows, batch_format="pandas",
                                 batch_size=None)) \
        .repartition(shuffle_blocks or _exchange_blocks(4 * pvol)) \
        .groupby("bucket_").map_groups(rewrite_group,
                                       batch_format="pandas")


# 128-bit fast window key: two independent 64-bit polynomial mixes
# over the two halves of a blake2b-128 token hash. A single 64-bit
# key silently false-merges ~N^2/2^65 unrelated windows (at the
# 100-TB target's ~1e12 windows that is ~1e4-1e5 cut-by-collision
# sites, found by review); the pair pushes that to ~2^-128-scale.
_WPAIR = np.dtype([("a", "<u8"), ("b", "<u8")])
_WP1 = np.uint64(0x100000001B3)        # FNV-1a prime, lane a
_WP2 = np.uint64(0xC6A4A7935BD1E995)   # Murmur2 constant, lane b


def _mix_pair(tl: np.ndarray, th: np.ndarray, window: int) -> np.ndarray:
    """Two positional polynomial mixes over per-token hash halves ->
    one _WPAIR per stride-1 window."""
    n = len(tl) - window + 1
    out = np.empty(n, dtype=_WPAIR)
    with np.errstate(over="ignore"):
        a = np.zeros(n, dtype=np.uint64)
        b = np.zeros(n, dtype=np.uint64)
        for j in range(window):
            a = a * _WP1 + tl[j:n + j]
            b = b * _WP2 + th[j:n + j]
    out["a"] = a
    out["b"] = b
    return out


def _win_pairs_batch(texts, window: int, fast: bool) -> list[np.ndarray]:
    """Per-text _WPAIR window keys for a whole batch in (at most) one
    GIL-released C hash pass (native.blake2b_batch / md5_windows).

    fast=True: keys are two independent polynomial mixes over the two
    halves of blake2b-128 token hashes (O(tokens) hashing).
    fast=False: keys are the two LE halves of md5(space-joined window
    text) — the exact md5 identity the DuckDB oracle computes, so
    window selection is bit-comparable (O(tokens x window) bytes
    hashed)."""
    from cld2_ray import native
    docs_words = [(t or "").split(" ") for t in texts]
    if not docs_words:
        return []
    data, offs = native.utf8_cat([w for ws in docs_words for w in ws])
    if fast:
        dig = native.blake2b_batch(data, offs, 16)
        tl = dig[:, :8].copy().view(np.uint64).ravel()
        th = dig[:, 8:].copy().view(np.uint64).ravel()
        # ONE mix over the whole concatenation (8 numpy ops per BATCH,
        # not per doc); windows crossing a doc boundary are computed
        # but sliced away below
        allp = _mix_pair(tl, th, window) if len(tl) >= window \
            else np.empty(0, _WPAIR)
        out, pos = [], 0
        for ws in docs_words:
            n = len(ws)
            cnt = max(n - window + 1, 0)
            out.append(allp[pos:pos + cnt] if cnt
                       else np.empty(0, _WPAIR))
            pos += n
        return out
    doc_offsets = np.cumsum([0] + [len(ws) for ws in docs_words])
    dig = native.md5_windows(data, offs, doc_offsets, window)
    pairs = np.ascontiguousarray(dig).view(_WPAIR).ravel()
    counts = [max(len(ws) - window + 1, 0) for ws in docs_words]
    splits = np.cumsum(counts[:-1])
    return [np.ascontiguousarray(p) for p in np.split(pairs, splits)]


def substring_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
                    window: int = 8, min_count: int = 2,
                    hash_fn: str = "md5", mode: str = "auto",
                    broadcast_budget_bytes: int = 64 << 20,
                    doc_buckets: int = 64,
                    shuffle_blocks: int | None = None):
    """Substring-level exact dedup — the granularity below
    segment_dedup (fixed aligned segments) and exact_dedup (whole
    docs): the suffix-array family of Lee et al., "Deduplicating
    Training Data Makes Language Models Better" (2022), approximated
    with stride-1 ``window``-token rolling windows so it distributes
    as map passes + hash-bucket shuffles instead of a global suffix
    array.

    A window text occurring >= ``min_count`` times corpus-wide (any
    doc, any offset, self-repeats included) marks ALL its occurrences;
    a doc's duplicated coverage is the token-union of its marked
    windows. Per doc emits (doc_id, n_tokens, n_dup_windows,
    dup_tokens, clean_text) where clean_text cuts every covered token
    (the paper's "remove all copies" policy — deterministic, and what
    the DuckDB oracle mirrors).

    Scale shape, pass 1 (both modes): per-batch (window_hash -> count)
    partials into 64 hash buckets — never window text, and
    pre-aggregated so a block's repeated windows collapse before the
    exchange. Pass 2 depends on the duplicated-window set's size,
    which at stride-1 scales with duplicated-TOKEN volume, not with a
    heavy-hitter tail — at 100 TB a few %% dup rate is 1e10-1e11
    hashes, far beyond any driver/plasma broadcast:

    * ``mode="broadcast"``: collect the set to the driver, ``ray.put``
      once, membership-test per batch — fastest when the set fits.
    * ``mode="join"``: never materializes the set anywhere. The dup
      hashes stay a Dataset; every doc emits (doc_id, start, win_h)
      postings that inner-join the dup hashes per hash bucket
      (hashes only, never window text); marked (doc_id, start) rows
      route back by doc-id bucket and co-group with the doc texts for
      the rewrite. Three all-to-all exchanges, each bounded by
      postings/corpus size per bucket — set ``doc_buckets`` so a
      bucket's documents fit one worker (~corpus_bytes/1GB at scale).
      Each exchange's map side is coalesced first (see
      _exchange_blocks: Ray inlines sub-100KB sort pieces into the
      DRIVER, so a fragmented shuffle quietly re-centralizes its
      volume); the count auto-sizes from the measured pass-1
      partials volume, or pass ``shuffle_blocks`` to pin it.
    * ``mode="auto"`` (default): counts the dup set after the pass-1
      merge and broadcasts only when its estimated in-memory size is
      <= ``broadcast_budget_bytes``, else takes the join path.

    hash_fn: both variants carry the SAME 128-bit structured key
    (_WPAIR, two uint64 lanes) through identical partial/merge/join
    machinery — only the key function differs. "md5" keys are the LE
    halves of md5(space-joined window text), the exact identity the
    DuckDB oracle computes (O(tokens x window) bytes hashed); "fast"
    is the 100-TB production path: two independent polynomial mixes
    over blake2b-128 token-hash halves, O(tokens) hashing. Both
    select the same duplicate windows (tested). Hashing is one
    GIL-released C pass per batch (native.md5_windows /
    blake2b_batch).
    """
    import pyarrow as _pa
    import ray

    fast = hash_fn == "fast"
    if hash_fn not in ("md5", "fast"):
        raise ValueError(f"hash_fn must be 'md5' or 'fast', got {hash_fn!r}")
    if mode not in ("auto", "broadcast", "join"):
        raise ValueError(f"mode must be auto|broadcast|join, got {mode!r}")

    key_cols = ["win_h", "win_h2"]

    def win_partial(df: pd.DataFrame):
        parts = _win_pairs_batch(df[text_col], window, fast)
        allh = np.concatenate(parts) if parts \
            else np.empty(0, _WPAIR)
        keys, cnts = np.unique(allh, return_counts=True)
        return _pa.table({
            "win_h": _pa.array(keys["a"], _pa.uint64()),
            "win_h2": _pa.array(keys["b"], _pa.uint64()),
            "part": _pa.array((keys["a"] & np.uint64(63))
                              .astype(np.int64)),
            "n_": _pa.array(cnts.astype(np.int64))})

    def win_merge(g: pd.DataFrame) -> pd.DataFrame:
        gg = g.groupby(key_cols, as_index=False).agg(cnt=("n_", "sum"))
        gg = gg[gg["cnt"] >= min_count][key_cols]
        gg["part"] = (gg["win_h"].to_numpy(dtype=np.uint64)
                      & np.uint64(63)).astype(np.int64)
        return gg

    parts_mat = ds.map_batches(win_partial, batch_format="pandas",
                               batch_size=None).materialize()
    pvol = max(parts_mat.size_bytes() or 1, 1)
    xb = shuffle_blocks or _exchange_blocks(pvol)
    hot_ds = parts_mat.repartition(xb) \
        .groupby("part").map_groups(win_merge, batch_format="pandas") \
        .materialize()
    n_hot = hot_ds.count()
    # estimated driver+plasma bytes if broadcast: 16 B/key numpy pairs
    est_bytes = n_hot * 16
    if mode == "auto":
        mode = "broadcast" if est_bytes <= broadcast_budget_bytes \
            else "join"

    def _emit_row(ids, ntok, nwin, ndup, clean,
                  doc_id, words, starts):
        # merged coverage via a diff array (windows overlap)
        diff = np.zeros(len(words) + 1, dtype=np.int32)
        np.add.at(diff, starts, 1)
        np.add.at(diff, starts + window, -1)
        covered = np.cumsum(diff[:-1]) > 0
        ids.append(int(doc_id))
        ntok.append(len(words))
        nwin.append(len(starts))
        ndup.append(int(covered.sum()))
        clean.append(" ".join(
            w for w, c in zip(words, covered) if not c))

    def _out_table(ids, ntok, nwin, ndup, clean):
        return _pa.table({
            id_col: _pa.array(ids, _pa.int64()),
            "n_tokens": _pa.array(ntok, _pa.int64()),
            "n_dup_windows": _pa.array(nwin, _pa.int64()),
            "dup_tokens": _pa.array(ndup, _pa.int64()),
            "clean_text": _pa.array(clean, _pa.string())})

    if mode == "broadcast":
        hot = hot_ds.to_pandas()
        # a window-less corpus (every doc < `window` tokens) comes
        # back as an empty, schema-less frame
        if "win_h" not in hot.columns:
            dup_obj = np.empty(0, _WPAIR)
        else:
            pairs = np.empty(len(hot), dtype=_WPAIR)
            pairs["a"] = hot["win_h"].to_numpy(dtype=np.uint64)
            pairs["b"] = hot["win_h2"].to_numpy(dtype=np.uint64)
            dup_obj = np.sort(pairs)
        dup_ref = ray.put(dup_obj)

        def rewrite(df: pd.DataFrame):
            dup = ray.get(dup_ref)
            texts = df[text_col].tolist()
            all_wins = _win_pairs_batch(texts, window, fast)
            ids, ntok, nwin, ndup, clean = [], [], [], [], []
            for doc_id, text, wins in zip(df[id_col], texts, all_wins):
                words = (text or "").split(" ")
                idx = np.searchsorted(dup, wins)
                idx[idx == len(dup)] = max(len(dup) - 1, 0)
                hit = dup[idx] == wins if len(dup) else \
                    np.zeros(len(wins), dtype=bool)
                starts = np.flatnonzero(hit)
                _emit_row(ids, ntok, nwin, ndup, clean,
                          doc_id, words, starts)
            return _out_table(ids, ntok, nwin, ndup, clean)

        # stays a Dataset — the rewritten corpus is corpus-sized
        return ds.map_batches(rewrite, batch_format="pandas",
                              batch_size=None)

    # -- mode == "join": fully distributed pass 2 -------------------------
    nb = np.int64(doc_buckets)

    def postings(df: pd.DataFrame):
        all_wins = _win_pairs_batch(df[text_col].tolist(), window, fast)
        id_parts, st_parts, win_parts = [], [], []
        for doc_id, w in zip(df[id_col], all_wins):
            if len(w) == 0:
                continue
            id_parts.append(np.full(len(w), int(doc_id), np.int64))
            st_parts.append(np.arange(len(w), dtype=np.int64))
            win_parts.append(w)
        if not id_parts:
            idc = np.empty(0, np.int64)
            stc = np.empty(0, np.int64)
            wc = np.empty(0, _WPAIR)
        else:
            idc = np.concatenate(id_parts)
            stc = np.concatenate(st_parts)
            wc = np.concatenate(win_parts)
        return _pa.table({
            id_col: _pa.array(idc, _pa.int64()),
            "start": _pa.array(stc, _pa.int64()),
            "win_h": _pa.array(wc["a"], _pa.uint64()),
            "win_h2": _pa.array(wc["b"], _pa.uint64()),
            "part": _pa.array(
                (wc["a"] & np.uint64(63)).astype(np.int64))})

    def hot_as_postings(df: pd.DataFrame):
        return _pa.table({
            id_col: _pa.array(np.full(len(df), -1, np.int64)),
            "start": _pa.array(np.full(len(df), -1, np.int64)),
            "win_h": _pa.array(df["win_h"].to_numpy(dtype=np.uint64),
                               _pa.uint64()),
            "win_h2": _pa.array(df["win_h2"].to_numpy(dtype=np.uint64),
                                _pa.uint64()),
            "part": _pa.array(df["part"].to_numpy(np.int64))})

    def mark(g: pd.DataFrame):
        is_hot = g[id_col].to_numpy() < 0
        hotk = g.loc[is_hot, key_cols]
        post = g.loc[~is_hot, [id_col, "start"] + key_cols]
        m = post.merge(hotk, on=key_cols, how="inner")
        return _pa.table({
            id_col: _pa.array(m[id_col].to_numpy(np.int64)),
            "start": _pa.array(m["start"].to_numpy(np.int64)),
            "bucket_": _pa.array(
                m[id_col].to_numpy(np.int64) % nb)})

    # postings carry (id, start, key, part) per window occurrence:
    # ~2.5x the distinct-window partials volume on dup-heavy corpora
    marked = ds.map_batches(postings, batch_format="pandas",
                            batch_size=None) \
        .union(hot_ds.map_batches(hot_as_postings,
                                  batch_format="pandas",
                                  batch_size=None)) \
        .repartition(shuffle_blocks or _exchange_blocks(2.5 * pvol)) \
        .groupby("part").map_groups(mark, batch_format="pandas")

    def doc_rows(df: pd.DataFrame):
        ids = df[id_col].to_numpy(np.int64)
        return _pa.table({
            id_col: _pa.array(ids),
            "start": _pa.array(np.full(len(df), -1, np.int64)),
            "text_": _pa.array(df[text_col].fillna("").tolist(),
                               _pa.large_string()),
            "bucket_": _pa.array(ids % nb)})

    def marked_rows(df: pd.DataFrame):
        return _pa.table({
            id_col: _pa.array(df[id_col].to_numpy(np.int64)),
            "start": _pa.array(df["start"].to_numpy(np.int64)),
            "text_": _pa.array([None] * len(df), _pa.large_string()),
            "bucket_": _pa.array(df["bucket_"].to_numpy(np.int64))})

    def rewrite_group(g: pd.DataFrame):
        st = g["start"].to_numpy()
        docs = g[st < 0]
        marks = g[st >= 0].sort_values(id_col, kind="stable")
        m_ids = marks[id_col].to_numpy(np.int64)
        m_starts = marks["start"].to_numpy(np.int64)
        ids, ntok, nwin, ndup, clean = [], [], [], [], []
        for doc_id, text in zip(docs[id_col], docs["text_"]):
            words = (text or "").split(" ")
            lo = np.searchsorted(m_ids, int(doc_id), side="left")
            hi = np.searchsorted(m_ids, int(doc_id), side="right")
            _emit_row(ids, ntok, nwin, ndup, clean,
                      doc_id, words, m_starts[lo:hi])
        return _out_table(ids, ntok, nwin, ndup, clean)

    # stays a Dataset — the rewritten corpus is corpus-sized; the dup
    # set never touches the driver (marked routes by doc-id bucket)
    return ds.map_batches(doc_rows, batch_format="pandas",
                          batch_size=None) \
        .union(marked.map_batches(marked_rows, batch_format="pandas",
                                  batch_size=None)) \
        .repartition(shuffle_blocks or _exchange_blocks(pvol)) \
        .groupby("bucket_").map_groups(rewrite_group,
                                       batch_format="pandas")





_CLIQUE_CUTOFF = 64


def minhash_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
                  threshold: float = 0.8, variant: str = "fast",
                  clique_cutoff: int = _CLIQUE_CUTOFF) -> pd.DataFrame:
    """Near-duplicate groups via MinHash-LSH. Returns a pandas frame
    (doc_id, group_id) for docs in near-dup groups of size > 1.

    ``variant="fast"`` (default): blake2b token hashing, 64 hashes in
    16 bands — the production path. ``variant="sql"``: md5 shingle
    hashing + the 16 MH_PERMS in 4 bands, every band key and Jaccard
    value bit-reproducible in DuckDB — the config the hash-checked
    registry query runs (with ``clique_cutoff`` large enough that
    every co-bucket pair is verified, exactly like the oracle's
    candidate self-join).

    Fully distributed: each band row carries the doc's shingle-hash
    signature (a bounded 16x duplication of the shingle sets — no
    driver-side texts, no inlined id-list filters); exact Jaccard
    verification runs INSIDE each band bucket's map_groups. Small
    buckets verify the full clique (a failed star hub cannot sever
    B~C, cf. ADVICE r1); buckets above _CLIQUE_CUTOFF fall back to
    star pairing to stay linear in bucket size. Only verified EDGES
    reach the driver (bounded by true near-dup structure), where
    union-find labels components.
    """
    n_parts = 64   # shuffle granularity: O(cluster) keyed partitions,
    #                not O(corpus) per-bucket groups — each map_groups
    #                call handles all its buckets at once (a per-bucket
    #                groupby().map_groups paid Ray per-group dispatch
    #                ~100us x 16*n_docs buckets, dominating wall time)

    def to_bands(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for did, text in zip(df[id_col], df[text_col].fillna("")):
            if variant == "sql":
                sh_raw = _shingle_hashes_md5(text) % np.uint64(MH_M61)
                sig = minhash_signature_md5(sh_raw)
                keys = ["_".join(str(int(v)) for v in sig[b * 4:b * 4 + 4])
                        for b in range(4)]
            else:
                sh_raw = _shingle_hashes(text)
                sig = minhash_signature_from(sh_raw)
                keys = minhash_bands(sig)
            sh = np.unique(sh_raw)
            for band_id, key in enumerate(keys):
                # int band keys are blake2b-derived (already uniform);
                # only the sql variant's string keys need a hash to
                # spread across parts
                part = key % n_parts if isinstance(key, int) else \
                    int.from_bytes(
                        hashlib.md5(key.encode()).digest()[:4],
                        "little") % n_parts
                rows.append((did, band_id, key, part, sh))
        # Arrow block out (shingles as list<uint64>): the part-keyed
        # sort shuffle is ~14x slower on pandas blocks, and an object
        # column of ndarrays serializes per row
        import pyarrow as _pa
        key_t = _pa.string() if variant == "sql" else _pa.uint64()
        return _pa.table({
            id_col: _pa.array([r[0] for r in rows], _pa.int64()),
            "band_id": _pa.array([r[1] for r in rows], _pa.int64()),
            "band_key": _pa.array([r[2] for r in rows], key_t),
            "part": _pa.array([r[3] for r in rows], _pa.int64()),
            "shingles": _pa.array([r[4] for r in rows],
                                  _pa.list_(_pa.uint64()))})

    # coalesce the map side before the part exchange: the band rows
    # carry each doc's shingle set 16x (~10x the input corpus), and a
    # fragmented map side puts the sort pieces under Ray's ~100KB
    # owner-inline threshold — measured 1.36 GiB of DRIVER heap for a
    # 2.1 GB bands exchange split 330x330 at the 200k-doc stress
    # corpus, ~0 once coalesced (see _exchange_blocks)
    bands = ds.map_batches(to_bands, batch_format="pandas",
                           batch_size=None).materialize()
    bands = bands.repartition(_exchange_blocks(bands.size_bytes() or 1))

    def bucket_verify(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(id_col).sort_values(id_col)
        n = len(g)
        empty = pd.DataFrame({"a": pd.Series([], dtype="int64"),
                              "b": pd.Series([], dtype="int64")})
        if n < 2:
            return empty
        ids = g[id_col].to_numpy()
        sets = [np.asarray(s, dtype=np.uint64) for s in g.shingles]
        sizes = np.array([len(s) for s in sets], dtype=np.int64)
        if n <= clique_cutoff:
            # exact Jaccard for every pair via an indicator matmul,
            # blocked on BOTH axes so scratch stays <= ~128 MB per
            # buffer even for the giant buckets a boilerplate-heavy
            # corpus produces: the indicator matrix is built float32
            # in COLUMN blocks (BLAS matmul; counts < 2^24 so float32
            # sums are exact) and the n x n intersection accumulates
            # per ROW chunk — nothing n x |union| is ever allocated
            union_v = np.unique(np.concatenate(sets)) if sets else \
                np.empty(0, np.uint64)
            u = max(len(union_v), 1)
            cells = 32_000_000
            blk = max(1, cells // max(n, 1))       # row chunk height
            ub = max(1, cells // max(n, 1))        # column block width
            outs_a, outs_b = [], []
            for r0 in range(0, n, blk):
                r1 = min(r0 + blk, n)
                inter = np.zeros((r1 - r0, n), dtype=np.float32)
                for c0 in range(0, u, ub):
                    cols = union_v[c0:min(c0 + ub, u)]
                    if not len(cols):
                        continue       # all-empty shingle sets
                    mb = np.zeros((n, len(cols)), dtype=np.float32)
                    for i, s in enumerate(sets):
                        lo = np.searchsorted(s, cols[0])
                        hi = np.searchsorted(s, cols[-1], side="right")
                        ss = s[lo:hi]
                        mb[i, np.searchsorted(cols, ss)] = 1.0
                    inter += mb[r0:r1] @ mb.T
                inter_i = inter.astype(np.int64)
                uni = np.maximum(
                    sizes[r0:r1, None] + sizes[None, :] - inter_i, 1)
                both_empty = (sizes[r0:r1, None] + sizes[None, :]) == 0
                ok = (inter_i / uni >= threshold) | both_empty
                ri, ci = np.nonzero(ok)
                keep = r0 + ri < ci        # upper triangle only
                outs_a.append(ids[r0 + ri[keep]].astype(np.int64))
                outs_b.append(ids[ci[keep]].astype(np.int64))
            return pd.DataFrame({"a": np.concatenate(outs_a),
                                 "b": np.concatenate(outs_b)})
        # star path: intersect every member with the hub (min id) by
        # sorted searchsorted — never densified (linear in set sizes)
        s0 = sets[0]
        inter = np.empty(n - 1, dtype=np.int64)
        for i in range(1, n):
            s = sets[i]
            pos = np.searchsorted(s0, s)
            pos_c = np.minimum(pos, max(len(s0) - 1, 0))
            inter[i - 1] = 0 if len(s0) == 0 else int(
                ((pos < len(s0)) & (s0[pos_c] == s)).sum())
        uni = np.maximum(sizes[1:] + sizes[0] - inter, 1)
        ok = (inter / uni >= threshold) | ((sizes[1:] + sizes[0]) == 0)
        return pd.DataFrame({
            "a": np.full(int(ok.sum()), ids[0], dtype=np.int64),
            "b": ids[1:][ok].astype(np.int64)})

    def part_verify(g: pd.DataFrame) -> pd.DataFrame:
        outs = [pd.DataFrame({"a": pd.Series([], dtype="int64"),
                              "b": pd.Series([], dtype="int64")})]
        for _, gg in g.groupby(["band_id", "band_key"], sort=False):
            if len(gg) >= 2:
                outs.append(bucket_verify(gg))
        return pd.concat(outs, ignore_index=True)

    edges_df = bands.groupby("part").map_groups(
        part_verify, batch_format="pandas").to_pandas().drop_duplicates()
    if len(edges_df) == 0:
        return pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                             "group_id": pd.Series([], dtype="int64")})

    nodes = sorted(set(edges_df.a) | set(edges_df.b))
    edges = [(int(a), int(b)) for a, b in zip(edges_df.a, edges_df.b)]
    comp = _union_find(nodes, edges)
    df = pd.DataFrame(sorted(comp.items()), columns=[id_col, "group_id"])
    sizes = df.groupby("group_id")[id_col].transform("count")
    return df[sizes > 1].sort_values(id_col).reset_index(drop=True)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (SWAR) for uint64 arrays."""
    with np.errstate(over="ignore"):
        x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
        x = (x & np.uint64(0x3333333333333333)) \
            + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
        x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        return ((x * np.uint64(0x0101010101010101))
                >> np.uint64(56)).astype(np.int64)


def simhash_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
                  max_hamming: int = 3) -> pd.DataFrame:
    """Near-duplicate pairs via SimHash banding. Returns (a, b, hamming)."""
    def add_sim(df: pd.DataFrame) -> pd.DataFrame:
        out = df[[id_col]].copy()
        out["simhash"] = df[text_col].fillna("").map(simhash64).astype("uint64")
        return out

    sims = ds.map_batches(add_sim, batch_format="pandas", batch_size=None)

    n_parts = 64   # bounded keyed shuffle; see minhash_dedup

    def to_bands(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for did, sh in zip(df[id_col], df["simhash"]):
            sh = int(sh)
            for band in range(4):
                key = (sh >> (band * 16)) & 0xFFFF
                rows.append((did, sh, band, key, key % n_parts))
        import pyarrow as _pa
        return _pa.table({
            id_col: _pa.array([r[0] for r in rows], _pa.int64()),
            "simhash": _pa.array([r[1] for r in rows], _pa.uint64()),
            "band_id": _pa.array([r[2] for r in rows], _pa.int64()),
            "band_key": _pa.array([r[3] for r in rows], _pa.int64()),
            "part": _pa.array([r[4] for r in rows], _pa.int64())})

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # blocked XOR + SWAR popcount over the bucket's hash vector —
        # a Python pair loop is quadratic-interpreted and dominates on
        # the hot buckets a boilerplate corpus produces; scratch stays
        # <= ~64 MB per block regardless of bucket size
        d = g[[id_col, "simhash"]].drop_duplicates().sort_values(id_col)
        n = len(d)
        ids = d[id_col].to_numpy(np.int64)
        hs = d["simhash"].to_numpy(np.uint64)
        a_out, b_out, h_out = [], [], []
        blk = max(1, 8_000_000 // max(n, 1))
        for r0 in range(0, n, blk):
            r1 = min(r0 + blk, n)
            hm = _popcount64(hs[r0:r1, None] ^ hs[None, :])
            ri, ci = np.nonzero(hm <= max_hamming)
            keep = (r0 + ri) < ci             # upper triangle only
            a_out.append(ids[r0 + ri[keep]])
            b_out.append(ids[ci[keep]])
            h_out.append(hm[ri[keep], ci[keep]].astype(np.int64))
        return pd.DataFrame({"a": np.concatenate(a_out),
                             "b": np.concatenate(b_out),
                             "hamming": np.concatenate(h_out)})

    def part_pairs(g: pd.DataFrame) -> pd.DataFrame:
        outs = [pd.DataFrame({"a": pd.Series([], dtype="int64"),
                              "b": pd.Series([], dtype="int64"),
                              "hamming": pd.Series([], dtype="int64")})]
        for _, gg in g.groupby(["band_id", "band_key"], sort=False):
            if len(gg) >= 2:
                outs.append(bucket_pairs(gg))
        return pd.concat(outs, ignore_index=True)

    # coalesced map side before the part exchange (owner-inline
    # hazard — see _exchange_blocks; band rows are small here but a
    # fragmented map side still quadratically shrinks sort pieces)
    band_rows = sims.map_batches(to_bands, batch_format="pandas",
                                 batch_size=None).materialize()
    pairs = band_rows \
        .repartition(_exchange_blocks(band_rows.size_bytes() or 1)) \
        .groupby("part").map_groups(
            part_pairs, batch_format="pandas").to_pandas()
    return pairs.drop_duplicates(["a", "b"]).sort_values(["a", "b"]) \
        .reset_index(drop=True)


def jaccard_pairs_exact(ds, id_col: str = "doc_id",
                        text_col: str = "text") -> pd.DataFrame:
    """EXACT token-set Jaccard > 1/2 pairs (2*|A∩B| > |A∪B|), fully
    distributed — no corpus broadcast, no driver-side text.

    Shape (the standard exact set-similarity join, AllPairs/SSJoin
    family — Bayardo et al. 2007 — plus an exact-duplicate collapse):

      1. per-doc token signature; identical sets collapse to one
         representative via groupby(set_key) (near-dup corpora are
         dominated by exact-set repeats, so the join runs on distinct
         sets only),
      2. token document-frequency pass over distinct sets; the global
         token order (df, hash) keeps prefix buckets small (rarest
         tokens first),
      3. prefix filtering: a set emits its ceil(|d|/2) rarest tokens;
         any pair with J > 1/2 shares >= floor(|x|/2)+1 tokens with
         every member x, hence shares a prefix token (prefix-filter
         lemma) — groupby(prefix_token), verify each bucket's pairs
         with an exact bitset matmul, dedupe verified SET pairs,
      4. distributed expansion: each doc row is routed to its set's
         qualifying pair groups (duplication proportional to the
         OUTPUT size); intra-set pairs (J = 1) expand inline.

    Only bounded things reach the driver: the verified distinct-set
    pair list and the final result. 64-bit token hashing is assumed
    collision-free (birthday bound ~4e9 distinct tokens).
    """
    import ray
    from ray.data.aggregate import Sum

    _SETB = 64  # set-key hash buckets: one map_groups call per bucket,
    # not one per distinct set (per-group dispatch is ~100us — at
    # corpus scale distinct sets are O(docs))

    def sigs(df: pd.DataFrame):
        import pyarrow as _pa
        cache: dict[str, int] = {}  # hash each distinct token once per
        # batch (vocab << token occurrences)

        def h(t: str) -> int:
            v = cache.get(t)
            if v is None:
                v = int.from_bytes(hashlib.blake2b(
                    t.encode(), digest_size=8).digest(), "little")
                cache[t] = v
            return v

        rows = []
        for did, text in zip(df[id_col], df[text_col].fillna("")):
            toks = set(text.split())
            if not toks:
                continue  # empty sets cannot satisfy 2*0 > 0
            th = np.fromiter((h(t) for t in toks), np.uint64, len(toks))
            th.sort()
            key = hashlib.blake2b(th.tobytes(), digest_size=8).hexdigest()
            rows.append((did, key, int(key[:4], 16) % _SETB, th))
        return _pa.table({
            "member_id": _pa.array([r[0] for r in rows], _pa.int64()),
            "set_key": _pa.array([r[1] for r in rows], _pa.string()),
            "skb": _pa.array([r[2] for r in rows], _pa.int64()),
            "sig": _pa.array([r[3] for r in rows],
                             _pa.list_(_pa.uint64()))})

    def collapse(g: pd.DataFrame):
        # whole bucket at once, vectorized per set inside
        import pyarrow as _pa
        g = g.sort_values(["set_key", "member_id"])
        grp = g.groupby("set_key", sort=True)
        members = grp["member_id"].agg(list)
        sig_first = grp["sig"].agg("first")
        return _pa.table({
            "set_key": _pa.array(members.index.to_numpy(dtype=object),
                                 _pa.string()),
            "sig": _pa.array([np.asarray(s, np.uint64)
                              for s in sig_first], _pa.list_(_pa.uint64())),
            "members": _pa.array(list(members), _pa.list_(_pa.int64()))})

    # coalesced map side before the set-collapse exchange: sig rows
    # carry whole token sets, and a fragmented map side drops the
    # sort pieces under Ray's owner-inline threshold (driver-heap
    # hazard — see _exchange_blocks)
    sig_rows = ds.map_batches(sigs, batch_format="pandas",
                              batch_size=None).materialize()
    sets_ds = sig_rows \
        .repartition(_exchange_blocks(sig_rows.size_bytes() or 1)) \
        .groupby("skb").map_groups(collapse, batch_format="pandas") \
        .materialize()  # distinct sets only — reused by 3 passes below

    # ---- token df over distinct sets -> global order (df, hash)
    def tok_rows(df: pd.DataFrame):
        import pyarrow as _pa
        c: dict[int, int] = {}
        for sig in df["sig"]:
            for t in sig:
                c[t] = c.get(t, 0) + 1
        return _pa.table({
            "tok": _pa.array(np.array(list(c), dtype=np.uint64)),
            "df_": _pa.array(np.fromiter(c.values(), np.int64, len(c)))})
    dfreq = sets_ds.map_batches(tok_rows, batch_format="pandas", batch_size=None) \
        .groupby("tok").aggregate(Sum("df_", alias_name="df_"))
    # the hottest 50k tokens steer the order; everything rarer sorts
    # first by hash (any consistent total order is correct — df order
    # is the bucket-size heuristic)
    top = dfreq.sort("df_", descending=True).limit(50_000).to_pandas()
    df_ref = ray.put({int(t): int(d) for t, d in zip(top.tok, top.df_)})

    def prefix_emit(df: pd.DataFrame):
        import pyarrow as _pa
        dfm = ray.get(df_ref)
        # vectorized (df, hash) ordering: known hot tokens -> their df
        # via one searchsorted per sig, everything else df 0
        ktok = np.fromiter(dfm.keys(), np.uint64, len(dfm))
        korder = np.argsort(ktok)
        ktok = ktok[korder]
        kdf = np.fromiter(dfm.values(), np.int64, len(dfm))[korder]
        ptoks, keys_out, sigs_out = [], [], []
        for key, sig in zip(df.set_key, df.sig):
            s = np.asarray(sig, np.uint64)
            if len(ktok):
                pos = np.clip(np.searchsorted(ktok, s), 0, len(ktok) - 1)
                dfs = np.where(ktok[pos] == s, kdf[pos], 0)
            else:
                dfs = np.zeros(len(s), np.int64)
            order = np.lexsort((s, dfs))
            k = (len(s) + 1) // 2
            pref = s[order[:k]]
            ptoks.append(pref)
            keys_out.extend([key] * k)
            sigs_out.extend([s] * k)
        flat = np.concatenate(ptoks) if ptoks else np.empty(0, np.uint64)
        return _pa.table({
            "ptok": _pa.array(flat),
            "set_key": _pa.array(keys_out, _pa.string()),
            "sig": _pa.array(sigs_out, _pa.list_(_pa.uint64()))})

    def verify(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates("set_key").sort_values("set_key")
        n = len(g)
        if n < 2:
            return pd.DataFrame({"sa": pd.Series([], dtype=object),
                                 "sb": pd.Series([], dtype=object)})
        sig_arrs = [np.asarray(s, dtype=np.uint64) for s in g.sig]
        union = np.unique(np.concatenate(sig_arrs))
        sizes = np.array([len(s) for s in sig_arrs], dtype=np.int64)
        keys = g.set_key.to_numpy()
        if len(union) <= 65_536:
            m = np.zeros((n, len(union)), dtype=np.int32)
            for i, s in enumerate(sig_arrs):
                m[i, np.searchsorted(union, s)] = 1
            inter = m @ m.T
            uni = sizes[:, None] + sizes[None, :] - inter
            iu = np.triu_indices(n, 1)
            ok = (2 * inter > uni)[iu]
            return pd.DataFrame({"sa": keys[iu[0][ok]],
                                 "sb": keys[iu[1][ok]]})
        rows = []  # giant-vocab bucket: pairwise sorted intersections
        for i in range(n):
            for j in range(i + 1, n):
                inter = len(np.intersect1d(sig_arrs[i], sig_arrs[j],
                                           assume_unique=True))
                if 2 * inter > sizes[i] + sizes[j] - inter:
                    rows.append((keys[i], keys[j]))
        return pd.DataFrame(rows, columns=["sa", "sb"])

    # prefix postings also carry token sets — coalesce before the
    # prefix-bucket exchange (owner-inline hazard, see _exchange_blocks)
    pref_rows = sets_ds.map_batches(prefix_emit, batch_format="pandas",
                                    batch_size=None).materialize()
    set_pairs = pref_rows \
        .repartition(_exchange_blocks(pref_rows.size_bytes() or 1)) \
        .groupby("ptok").map_groups(verify, batch_format="pandas") \
        .to_pandas().drop_duplicates()

    # ---- expansion -------------------------------------------------------
    pair_map: dict[str, list[tuple[int, int]]] = {}
    for pid, (sa, sb) in enumerate(zip(set_pairs.sa, set_pairs.sb)):
        pair_map.setdefault(sa, []).append((pid, 0))
        pair_map.setdefault(sb, []).append((pid, 1))
    pm_ref = ray.put(pair_map)

    def intra_pairs(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for members in df["members"]:
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    rows.append((members[i], members[j]))
        return pd.DataFrame(rows, columns=["a", "b"], dtype="int64")

    _NBUCKETS = 256  # pair-id hash buckets: one map_groups call per
    # bucket, not one per pair (40k one-row groups would dominate)

    def route(df: pd.DataFrame):
        import pyarrow as _pa
        pm = ray.get(pm_ref)
        rows = []
        for key, members in zip(df.set_key, df.members):
            for pid, side in pm.get(key, ()):
                rows.append((pid % _NBUCKETS, pid, side, members))
        return _pa.table({
            "bucket": _pa.array([r[0] for r in rows], _pa.int64()),
            "pid": _pa.array([r[1] for r in rows], _pa.int64()),
            "side": _pa.array([r[2] for r in rows], _pa.int64()),
            "members": _pa.array([np.asarray(r[3], np.int64)
                                  for r in rows], _pa.list_(_pa.int64()))})

    def cross(g: pd.DataFrame) -> pd.DataFrame:
        outs_a, outs_b = [], []
        for _, pg in g.groupby("pid"):
            sides = {s: m for s, m in zip(pg.side, pg.members)}
            if len(sides) < 2:
                continue
            ma = np.asarray(sides[0], dtype=np.int64)
            mb = np.asarray(sides[1], dtype=np.int64)
            aa = np.repeat(ma, len(mb))
            bb = np.tile(mb, len(ma))
            outs_a.append(np.minimum(aa, bb))
            outs_b.append(np.maximum(aa, bb))
        if not outs_a:
            return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                                 "b": pd.Series([], dtype="int64")})
        return pd.DataFrame({"a": np.concatenate(outs_a),
                             "b": np.concatenate(outs_b)})

    intra = sets_ds.map_batches(intra_pairs, batch_format="pandas", batch_size=None) \
        .to_pandas()
    if len(set_pairs):
        # routed rows duplicate member lists per qualifying pair —
        # coalesce before the pair-bucket exchange (_exchange_blocks)
        routed = sets_ds.map_batches(route, batch_format="pandas",
                                     batch_size=None).materialize()
        inter = routed \
            .repartition(_exchange_blocks(routed.size_bytes() or 1)) \
            .groupby("bucket").map_groups(cross, batch_format="pandas") \
            .to_pandas()
    else:
        inter = pd.DataFrame({"a": pd.Series([], dtype="int64"),
                              "b": pd.Series([], dtype="int64")})
    out = pd.concat([intra, inter], ignore_index=True)
    return out.sort_values(["a", "b"]).reset_index(drop=True) \
        .astype("int64")


def embedding_near_pairs(ds, threshold: float = 0.95,
                         id_col: str = "vec_id",
                         vec_col: str = "embedding",
                         n_clusters: int | None = None) -> pd.DataFrame:
    """Cosine near-duplicate pairs (a < b, cosine > threshold) — EXACT,
    via cell partitioning with triangle-inequality cell-pair pruning.

    No corpus broadcast and no driver-side vectors: rows are assigned
    to their nearest centroid (deterministic k-means on a bounded
    sample); a cell pair (ci, cj) can contain a qualifying cross pair
    only if  angle(ci, cj) <= arccos(threshold) + r_i + r_j  (angular
    distance is a metric on the sphere; r = the cell's max member
    angle, computed exactly by a tiny groupby). Rows are routed only
    to the unpruned cell pairs (duplication <= number of unpruned
    pairs per cell) and each pair group does one local matmul. Loose
    thresholds degrade gracefully toward all cell pairs — which
    matches the output's own growth.
    """
    import ray
    from cld2_ray.pipelines.simsearch import kmeans_fit

    if n_clusters is None:
        # cell count must GROW with the corpus or cell radii swallow
        # the pruning bound: 16 fixed cells on 200k clustered vectors
        # left every cell pair unpruned (138 s); ~sqrt(n) capped at
        # 256 gave 7.7 s for the same exact output. Parquet metadata
        # makes count() O(#files).
        n_clusters = max(16, min(256, int(ds.count() ** 0.5)))
    sample = ds.limit(max(2000, 20 * n_clusters)) \
        .select_columns([vec_col]).to_pandas()
    cent = kmeans_fit(np.stack(sample[vec_col].to_numpy()), n_clusters)
    cref = ray.put(cent)

    def assign(df: pd.DataFrame):
        # Arrow block out (vec as a list array): the sort-shuffle
        # groupbys downstream are ~14x slower on pandas blocks, and a
        # pandas object column of ndarrays serializes per row
        import pyarrow as _pa
        c = ray.get(cref)
        mat = np.stack(df[vec_col].to_numpy())
        mat = mat / np.maximum(
            np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
        sims = mat @ c.T
        cell = np.argmax(sims, axis=1)
        best = np.clip(sims[np.arange(len(cell)), cell], -1.0, 1.0)
        return _pa.table({id_col: df[id_col].to_numpy(),
                          "cell": cell.astype(np.int64),
                          "angle": np.arccos(best),
                          "vec": _pa.array(list(df[vec_col].to_numpy()))})

    assigned = ds.select_columns([id_col, vec_col]) \
        .map_batches(assign, batch_format="pandas", batch_size=None).materialize()

    from ray.data.aggregate import Max
    radii_df = assigned.groupby("cell").aggregate(
        Max("angle", alias_name="r")).to_pandas()
    radii = np.zeros(len(cent))
    radii[radii_df.cell.to_numpy()] = radii_df.r.to_numpy()

    cang = np.arccos(np.clip(cent @ cent.T, -1.0, 1.0))
    limit = np.arccos(min(max(threshold, -1.0), 1.0))
    pairs = [(i, j) for i in range(len(cent)) for j in range(i, len(cent))
             if cang[i, j] <= limit + radii[i] + radii[j]]
    pair_map: dict[int, list[tuple[int, int]]] = {}
    for pid, (ci, cj) in enumerate(pairs):
        pair_map.setdefault(ci, []).append((pid, 0))
        if cj != ci:
            pair_map.setdefault(cj, []).append((pid, 1))
    pm_ref = ray.put(pair_map)
    _nb = 64

    def route(df: pd.DataFrame):
        # vectorized ragged expansion: row i is emitted once per
        # (pid, side) entry of its cell — no Python per-row loop
        import pyarrow as _pa
        pm = ray.get(pm_ref)
        n_cells = len(cent)
        cnt = np.zeros(n_cells, np.int64)
        flat_pid, flat_side, start = [], [], np.zeros(n_cells, np.int64)
        pos = 0
        for c in range(n_cells):
            ent = pm.get(c, ())
            start[c] = pos
            cnt[c] = len(ent)
            pos += len(ent)
            for pid, side in ent:
                flat_pid.append(pid)
                flat_side.append(side)
        fpid = np.asarray(flat_pid, np.int64)
        fside = np.asarray(flat_side, np.int64)
        cells = df["cell"].to_numpy(np.int64)
        reps = cnt[cells]
        total = int(reps.sum())
        if total == 0:
            return _pa.table({"bucket": _pa.array([], _pa.int64()),
                              "pid": _pa.array([], _pa.int64()),
                              "side": _pa.array([], _pa.int64()),
                              id_col: _pa.array([], _pa.int64()),
                              "vec": _pa.array([], _pa.list_(
                                  _pa.float32()))})
        row_idx = np.repeat(np.arange(len(df)), reps)
        ragged = np.arange(total) - np.repeat(
            np.cumsum(reps) - reps, reps)
        offs = np.repeat(start[cells], reps) + ragged
        pid = fpid[offs]
        vecs = df["vec"].to_numpy()
        return _pa.table({"bucket": pid % _nb, "pid": pid,
                          "side": fside[offs],
                          id_col: df[id_col].to_numpy()[row_idx],
                          "vec": _pa.array(list(vecs[row_idx]))})

    def compare(g: pd.DataFrame) -> pd.DataFrame:
        outs_a: list[np.ndarray] = []
        outs_b: list[np.ndarray] = []
        for _, pg in g.groupby("pid"):
            sides = {}
            for s in (0, 1):
                sub = pg[pg.side == s]
                if len(sub):
                    m = np.stack(sub.vec.to_numpy())
                    m = m / np.maximum(
                        np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
                    sides[s] = (sub[id_col].to_numpy(), m)
            if 1 in sides and 0 in sides:          # cross-cell pair
                ia, ma = sides[0]
                ib, mb = sides[1]
                sims = ma @ mb.T
                ii, jj = np.nonzero(sims > threshold)
                aa, bb = ia[ii], ib[jj]
                outs_a.append(np.minimum(aa, bb))
                outs_b.append(np.maximum(aa, bb))
            elif 0 in sides:                       # within-cell pair
                ia, ma = sides[0]
                order = np.argsort(ia)
                ia, ma = ia[order], ma[order]
                sims = ma @ ma.T
                ii, jj = np.nonzero(np.triu(sims > threshold, 1))
                outs_a.append(ia[ii])
                outs_b.append(ia[jj])
        if not outs_a:
            return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                                 "b": pd.Series([], dtype="int64")})
        return pd.DataFrame({"a": np.concatenate(outs_a).astype(np.int64),
                             "b": np.concatenate(outs_b).astype(np.int64)})

    # routed rows carry embedding vectors per cell-pair bucket —
    # coalesce before the bucket exchange (owner-inline hazard,
    # see _exchange_blocks)
    routed = assigned.map_batches(route, batch_format="pandas",
                                  batch_size=None).materialize()
    out = routed \
        .repartition(_exchange_blocks(routed.size_bytes() or 1)) \
        .groupby("bucket").map_groups(compare, batch_format="pandas") \
        .to_pandas()
    return out.sort_values(["a", "b"]).reset_index(drop=True)
