"""numpy perplexity scorer: the bit-equality oracle of
``native.ppl_score`` (``perplexity.score_batch``).

Keys: each character (of the lowered text framed by one space on each
side) hashes to one of ``_V`` = 4096 values; a trigram key is
lang << 40 | (c1 * V + c2) * V + c3, and a bigram key is
lang << 40 | 1 << 39 | c1 * V + c2."""

from __future__ import annotations

import math

import numpy as np

from cld2_ray.functions import langs
from cld2_ray.functions.perplexity import models

from .model import lookup_numpy

_V = 4096          # hashed character vocabulary


def _chars(text: str) -> np.ndarray:
    cps = np.frombuffer((" " + text.lower() + " ").encode("utf-32-le"),
                        dtype="<u4").astype(np.int64)
    return (cps * 2654435761) % _V


def _keys_tri(lang_id: int, c: np.ndarray) -> np.ndarray:
    b = c[:-2] * _V + c[1:-1]
    t = b * _V + c[2:]
    base = np.uint64(lang_id) << np.uint64(40)
    return base | t.astype(np.uint64), base | b.astype(np.uint64)


def score_batch_numpy(texts, lang_codes) -> tuple[list[float], list[bool]]:
    """score_batch by numpy: one concatenated key array, one table
    lookup, per-document means via bincount segments."""
    m = models()
    n = len(texts)
    doc_tri: list[np.ndarray] = []
    doc_bi: list[np.ndarray] = []
    doc_uni: list[np.ndarray] = []
    seg: list[int] = []
    lids = np.zeros(n, dtype=np.int64)
    for i, (t, lc) in enumerate(zip(texts, lang_codes)):
        lid = langs.lang_id(lc)
        if lid >= len(m.thresholds):
            lid = langs.UNKNOWN   # a language the artifact has no LM for
        lids[i] = lid
        if lid == langs.UNKNOWN or not np.isfinite(m.thresholds[lid]):
            seg.append(0)
            continue
        c = _chars(t or "")
        if len(c) < 3:
            seg.append(0)
            continue
        tri_k, bi_k = _keys_tri(lid, c)
        doc_tri.append(tri_k)
        doc_bi.append(bi_k | np.uint64(1 << 39))
        doc_uni.append(m.uni[lid][c[2:]])
        seg.append(len(tri_k))

    if not doc_tri:
        return [0.0] * n, [False] * n
    tri = np.concatenate(doc_tri)
    bi = np.concatenate(doc_bi)
    uni_p = np.concatenate(doc_uni)
    ct = lookup_numpy(m.table, tri).astype(np.float64)
    cb = lookup_numpy(m.table, bi).astype(np.float64)
    p = np.where(cb > 0, (ct + 0.1) / (cb + 0.1 * 64), uni_p * 0.1)
    # libm log2, as the C kernel calls it: numpy's SIMD log2 differs
    # from it in the last ulp on ~15% of inputs
    bits = -np.fromiter(map(math.log2, p.tolist()), np.float64, len(p))
    seg_arr = np.asarray(seg)
    doc_of = np.repeat(np.arange(n), seg_arr)
    sums = np.bincount(doc_of, weights=bits, minlength=n)
    means = sums / np.maximum(seg_arr, 1)
    ppl = np.where(seg_arr > 0, 2.0 ** means, 0.0)
    thr = np.where(np.isfinite(m.thresholds[lids]), m.thresholds[lids],
                   np.inf)
    flags = (ppl > thr) & (seg_arr > 0)
    return [float(x) for x in ppl], [bool(x) for x in flags]
