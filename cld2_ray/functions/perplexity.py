"""KenLM-style character n-gram perplexity scoring (north rule).

A per-language backoff character trigram LM trained deterministically
from the seed corpora by ``save_artifact`` into the committed artifact,
which ``models()`` loads (no network => no real KenLM binaries; the
mechanism — per-language LM, per-document perplexity, threshold on the
language's own calibration — is the deliverable).

log P(c3 | c1 c2) with add-0.1 smoothing, backoff to the character
unigram distribution. Perplexity = 2^(mean negative log2 prob).
Thresholds are calibrated split-half per language at train time.

Scoring is fully vectorized: all languages' trigram/bigram counts live
in one open-addressed numpy table keyed (lang, ngram); a document is
one hash + two lookups + one log, no per-char Python loop.
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np

from . import langs

ARTIFACT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "state", "artifacts", "perplexity.npz")

_V = 4096          # hashed character vocabulary
_VV = _V * _V


def _chars(text: str) -> np.ndarray:
    cps = np.frombuffer((" " + text.lower() + " ").encode("utf-32-le"),
                        dtype="<u4").astype(np.int64)
    return (cps * 2654435761) % _V


def _keys_tri(lang_id: int, c: np.ndarray) -> np.ndarray:
    b = c[:-2] * _V + c[1:-1]
    t = b * _V + c[2:]
    base = np.uint64(lang_id) << np.uint64(40)
    return base | t.astype(np.uint64), base | b.astype(np.uint64)


class _PplModel:
    def __init__(self, table, uni, thresholds):
        self.table = table          # HashTable: (lang,ngram) -> count
        self.uni = uni              # (NUM_LANGS, V) float unigram probs
        self.thresholds = thresholds

    def bits_per_char(self, text: str, lang_id: int) -> float:
        c = _chars(text)
        if len(c) < 3:
            return float(np.log2(_V))
        tri_k, bi_k = _keys_tri(lang_id, c)
        # bigram keys live in a disjoint keyspace: flag bit 39
        bi_k = bi_k | np.uint64(1 << 39)
        ct = self.table.lookup(tri_k).astype(np.float64)
        cb = self.table.lookup(bi_k).astype(np.float64)
        uni_p = self.uni[lang_id][c[2:]]
        p = np.where(cb > 0, (ct + 0.1) / (cb + 0.1 * 64), uni_p * 0.1)
        return float(-np.log2(p).mean())


def _train_counts(text: str, lang_id: int, acc: dict) -> None:
    c = _chars(" ".join(text.split()))
    if len(c) < 3:
        return
    tri_k, bi_k = _keys_tri(lang_id, c)
    bi_k = bi_k | np.uint64(1 << 39)
    for arr in (tri_k, bi_k):
        u, n = np.unique(arr, return_counts=True)
        for k, v in zip(u.tolist(), n.tolist()):
            acc[k] = acc.get(k, 0) + v


@lru_cache(maxsize=1)
def models() -> _PplModel:
    """The committed LMs, loaded once per process (mmap'd, one copy per
    node). Raises FileNotFoundError if the artifact is missing: a
    retrain (``save_artifact``) does not rebuild the committed model."""
    from cld2_ray.state.model import HashTable
    from cld2_ray.state import mmapcache
    z = mmapcache.load_shared(ARTIFACT)
    keys = z["keys"]
    table = HashTable(keys, z["vals"], np.uint64(len(keys) - 1))
    return _PplModel(table, z["uni"], z["thresholds"])


def save_artifact() -> None:
    """RETRAIN the LMs and overwrite the committed artifact: a retrain
    today differs from it in keys, unigrams and thresholds, so rerun
    ``python scripts/make_output_digest.py --write`` after it."""
    m = _train()
    os.makedirs(os.path.dirname(ARTIFACT), exist_ok=True)
    np.savez_compressed(ARTIFACT, keys=m.table.keys, vals=m.table.vals,
                        uni=m.uni, thresholds=m.thresholds)


def _train() -> _PplModel:
    from cld2_ray.data.seeds import SEEDS
    from cld2_ray.data.seeds_extra import EXTRA
    from cld2_ray.state.model import HashTable
    seeds = {c: t + " " + EXTRA.get(c, "") for c, t in SEEDS.items()}

    uni = np.full((langs.NUM_LANGS, _V), 1.0 / _V)
    thresholds = np.full(langs.NUM_LANGS, np.inf)

    # split-half calibration first (tables from half A, scored on half B)
    acc_a: dict[int, int] = {}
    halves_b = {}
    for code, text in sorted(seeds.items()):
        lid = langs.lang_id(code)
        words = text.split()
        _train_counts(" ".join(words[: len(words) // 2]), lid, acc_a)
        halves_b[code] = " ".join(words[len(words) // 2:])
    half = _PplModel(HashTable.build(acc_a), uni, thresholds)
    # full tables
    acc: dict[int, int] = {}
    for code, text in sorted(seeds.items()):
        lid = langs.lang_id(code)
        _train_counts(text, lid, acc)
        c = _chars(" ".join(text.split()))
        u = np.full(_V, 0.1)
        np.add.at(u, c, 1.0)
        uni[lid] = u / u.sum()
    for code, text_b in sorted(halves_b.items()):
        lid = langs.lang_id(code)
        bits = half.bits_per_char(text_b, lid)
        thresholds[lid] = 2.0 ** bits * 2.0
    return _PplModel(HashTable.build(acc), uni, thresholds)


def score(text: str, lang_code: str) -> tuple[float, bool]:
    """(perplexity under lang's LM, is_gibberish flag). Single-doc
    entry of score_batch (one code path, identical results)."""
    ppl, flags = score_batch([text], [lang_code])
    return ppl[0], flags[0]


def score_batch(texts, lang_codes) -> tuple[list[float], list[bool]]:
    """One C pass (native.ppl_score) over the concatenated framed
    lowered docs: UTF-8 decode, char hashing, trigram/bigram lookups
    and log-prob accumulation, no intermediate arrays. Docs with no
    trigram, or whose language has no LM, score (0.0, False)."""
    from cld2_ray import native
    m = models()
    n = len(texts)
    lids = np.full(n, -1, dtype=np.int64)
    framed = []
    for i, (t, lc) in enumerate(zip(texts, lang_codes)):
        lid = langs.lang_id(lc)
        if lid != langs.UNKNOWN and np.isfinite(m.thresholds[lid]):
            lids[i] = lid
            framed.append(" " + (t or "").lower() + " ")
        else:
            framed.append("")
    bits, cnt = native.ppl_score(*native.utf8_cat(framed), lids,
                                 m.table, m.uni)
    ok = cnt > 0
    means = np.where(ok, bits / np.maximum(cnt, 1), 0.0)
    ppl = np.where(ok, 2.0 ** means, 0.0)
    thr = np.where((lids >= 0) & np.isfinite(m.thresholds
                                             [np.maximum(lids, 0)]),
                   m.thresholds[np.maximum(lids, 0)], np.inf)
    flags = (ppl > thr) & ok
    return [float(x) for x in ppl], [bool(x) for x in flags]
