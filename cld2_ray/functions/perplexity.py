"""KenLM-style character n-gram perplexity scoring (north rule).

A per-language backoff character trigram LM, trained from the seed
corpora into the committed artifact that ``models()`` loads (no
network => no real KenLM binaries; the mechanism — per-language LM,
per-document perplexity, threshold on the language's own calibration —
is the deliverable).

log P(c3 | c1 c2) with add-0.1 smoothing, backoff to the character
unigram distribution over 4096 hashed characters. Perplexity =
2^(mean negative log2 prob). Thresholds were calibrated split-half per
language at train time.

All languages' trigram/bigram counts live in one open-addressed table
keyed (lang, ngram); ``score_batch`` lowers and frames the documents
in one C pass (native.lower_docs, Python's str.lower exactly) and
hashes, looks up and accumulates in another (native.ppl_score), the
documents of one language back to back. ``tests/oracles/perplexity.py``
is its numpy oracle and documents the key layout.
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np

from . import langs, uscript as us

ARTIFACT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "state", "artifacts", "perplexity.npz")


class _PplModel:
    def __init__(self, table, uni, thresholds):
        self.table = table          # HashTable: (lang,ngram) -> count
        self.uni = uni              # (NUM_LANGS, 4096) float unigram probs
        self.thresholds = thresholds


@lru_cache(maxsize=1)
def models() -> _PplModel:
    """The committed LMs, loaded once per process (mmap'd, one copy per
    node). Raises FileNotFoundError if the artifact is missing.

    The artifact is source data, last trained at commit 4f94626: its
    trainer is gone, because the seeds grew after it was trained and a
    retrain no longer reproduces it (it differs in unigrams and
    thresholds). ``tests/test_quality.py`` pins its sha256."""
    from cld2_ray.state.model import HashTable
    from cld2_ray.state import mmapcache
    z = mmapcache.load_shared(ARTIFACT)
    keys = z["keys"]
    table = HashTable(keys, z["vals"], np.uint64(len(keys) - 1))
    return _PplModel(table, z["uni"], z["thresholds"])


def score_batch(texts, lang) -> tuple[np.ndarray, np.ndarray]:
    """(ppl float64[n], gibberish bool[n]) from one C pass
    (native.ppl_score) over the texts that have an LM, lowered and
    framed by spaces in one C pass (uscript.lowered): UTF-8 decode, char
    hashing, trigram/bigram lookups and log-prob accumulation, no
    intermediate arrays. ``texts`` is a list of str or an Arrow string
    column, ``lang`` their ids or codes (langs.ids). Docs with no
    trigram, or whose language has no LM (no finite threshold, or an id
    past the artifact's languages), score (0.0, False). The texts are
    scored in a stable argsort of their language ids, so the pages of
    one LM run back to back; the results come back in batch order."""
    from cld2_ray import native
    m = models()
    lid = langs.ids(lang, len(texts))
    thr = m.thresholds[np.minimum(lid, len(m.thresholds) - 1)]
    thr = np.where((lid != langs.UNKNOWN) & (lid < len(m.thresholds))
                   & np.isfinite(thr), thr, np.inf)
    docs = np.flatnonzero(np.isfinite(thr))
    docs = docs[np.argsort(lid[docs], kind="stable")]
    bits, cnt = native.ppl_score(*us.lowered(texts, docs, frame=True),
                                 lid[docs], m.table, m.uni)
    ok = np.zeros(len(lid), dtype=bool)
    ok[docs] = cnt > 0
    ppl = np.zeros(len(lid))
    ppl[docs] = 2.0 ** (bits / np.maximum(cnt, 1))
    ppl[~ok] = 0.0
    return ppl, (ppl > thr) & ok
