"""numpy hashed-n-gram features: the oracle of the feature pass of
``native.fastlangid_score`` (``fastlangid.classify_batch``)."""

from __future__ import annotations

import numpy as np

from cld2_ray.functions.fastlangid import _GOLD


def features_batch(texts: list[str]):
    """fastlangid._features over a batch: one concatenated byte buffer,
    windows crossing document boundaries masked out. Per-document
    feature values AND order are identical to _features (2-grams, then
    3-, then 4-grams, each by position). Returns (feat_bucket int64[],
    doc_of int64[])."""
    framed = [(" " + t.lower() + " ").encode("utf-8") for t in texts]
    lens = np.array([len(b) for b in framed], dtype=np.int64)
    bounds = np.cumsum(lens)
    cat = b"".join(framed)
    arr = np.frombuffer(cat, dtype=np.uint8).astype(np.uint64)
    big_n = len(arr)
    if big_n == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    pos_doc = np.searchsorted(bounds, np.arange(big_n), side="right")
    feats, docs = [], []
    with np.errstate(over="ignore"):
        for n in (2, 3, 4):
            if big_n < n:
                continue
            h = np.zeros(big_n - n + 1, dtype=np.uint64)
            for k in range(n):
                h = h * np.uint64(31) + arr[k: big_n - n + 1 + k]
            h = (h * _GOLD) >> np.uint64(46)
            d = pos_doc[:big_n - n + 1]
            valid = (np.arange(big_n - n + 1) + n) <= bounds[d]
            feats.append(h[valid].astype(np.int64))
            docs.append(d[valid])
    if not feats:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(feats), np.concatenate(docs)
