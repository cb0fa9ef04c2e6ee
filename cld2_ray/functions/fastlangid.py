"""fastText-style auxiliary language identifier (north rule).

A hashed character-n-gram linear (multinomial Naive Bayes) classifier:
char 2-4-grams hashed into 2^18 buckets, one weight row per language,
trained deterministically from the seed corpora at first use. This is
the standard fastText langid architecture (bag of hashed n-grams ->
linear layer); trained here from authored seeds because the sandbox has
no network for pretrained weights.

At runtime the weight matrix is loaded once per worker process
(lru_cache) and ``classify_batch`` scores a whole batch in one C pass
(native.fastlangid_score).
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np

from . import langs

N_BUCKETS = 1 << 18
_GOLD = np.uint64(0x9E3779B97F4A7C15)

# Score only the first 1KB of each document: hashed-n-gram LID
# converges within a few hundred bytes, and per-gram weight-row
# accumulation is the single most bandwidth-hungry part of the fused
# pipeline (one 456-byte row of 114 floats per distinct gram).  The
# analogue of the reference's own scan cap (FLAGS_cld_textlimit = 160KB
# of letters, reference: internal/compact_lang_det_impl.cc:192) at the
# scale this classifier needs.  r4 re-measured the cap on the 4000-page
# corpus: 512 agrees with truth SLIGHTLY better than 1024 (0.9639 vs
# 0.9631 — the tail of a page adds noise, not signal, to a char-ngram
# model) at 62% of the scoring cost; 256 loses 0.8pt.
CAP_BYTES = 512


def _cap_text(t: str) -> str:
    b = t.encode("utf-8")
    if len(b) <= CAP_BYTES:
        return t
    cut = CAP_BYTES
    while cut > 0 and (b[cut] & 0xC0) == 0x80:
        cut -= 1  # back off to a UTF-8 character boundary
    return b[:cut].decode("utf-8")


def _features(text: str) -> np.ndarray:
    """Hashed char 2-4 gram bucket ids for one document."""
    b = (" " + text.lower() + " ").encode("utf-8")
    arr = np.frombuffer(b, dtype=np.uint8).astype(np.uint64)
    feats = []
    with np.errstate(over="ignore"):
        for n in (2, 3, 4):
            if len(arr) < n:
                continue
            h = np.zeros(len(arr) - n + 1, dtype=np.uint64)
            for k in range(n):
                h = h * np.uint64(31) + arr[k: len(arr) - n + 1 + k]
            h = (h * _GOLD) >> np.uint64(46)  # top 18 bits
            feats.append(h)
    if not feats:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(feats).astype(np.int64)


ARTIFACT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "state", "artifacts", "fastlangid.npz")


@lru_cache(maxsize=1)
def weights() -> np.ndarray:
    """Compact bucket->weight table; loads the committed artifact when
    present (actor init fast path), else trains from seeds. Columns
    cover only TRAINED languages (col_langs maps column -> lang id):
    the registry is 164 languages but only ~90 have seed corpora, and
    the C accumulation cost is linear in columns."""
    if os.path.exists(ARTIFACT):
        from cld2_ray.state import mmapcache
        z = mmapcache.load_shared(ARTIFACT)  # one copy per node, not per actor
        weights.bucket_index = z["bucket_index"]  # type: ignore[attr-defined]
        weights.col_langs = z["col_langs"]        # type: ignore[attr-defined]
        return z["table"]
    return _train()


def save_artifact() -> None:
    table = _train()
    os.makedirs(os.path.dirname(ARTIFACT), exist_ok=True)
    np.savez_compressed(ARTIFACT, table=table,
                        bucket_index=weights.bucket_index,
                        col_langs=weights.col_langs)


def _train() -> np.ndarray:
    from cld2_ray.data.seeds import SEEDS
    from cld2_ray.data.seeds_extra import EXTRA
    seeds = {c: t + " " + EXTRA.get(c, "") for c, t in SEEDS.items()}

    counts: dict[int, np.ndarray] = {}
    totals = np.full(langs.NUM_LANGS, 1.0)
    for code, text in sorted(seeds.items()):
        lid = langs.lang_id(code)
        f = _features(" ".join(text.split()))
        totals[lid] += len(f)
        for bucket in f.tolist():
            row = counts.get(bucket)
            if row is None:
                row = counts.setdefault(bucket, np.zeros(langs.NUM_LANGS,
                                                         dtype=np.float32))
            row[lid] += 1.0

    # log P(bucket|lang) - log P(bucket|background), smoothed; languages
    # with no training corpus are masked out (they would otherwise win
    # on the smoothing constant alone)
    trained = totals > 1.0
    trained[langs.UNKNOWN] = False
    col_langs = np.flatnonzero(trained).astype(np.int32)
    bucket_ids = np.fromiter(sorted(counts), dtype=np.int64)
    mat = np.stack([counts[b] for b in bucket_ids.tolist()])[:, col_langs]
    smoothed = (mat + 0.1) / totals[None, col_langs]
    background = smoothed.mean(axis=1, keepdims=True)
    w = np.log(smoothed / background).astype(np.float32)
    full = np.zeros((N_BUCKETS,), dtype=np.int32)  # bucket -> row+1 (0=absent)
    full[bucket_ids] = np.arange(1, len(bucket_ids) + 1)
    table = np.vstack([np.zeros((1, len(col_langs)), np.float32), w])
    weights.bucket_index = full      # type: ignore[attr-defined]
    weights.col_langs = col_langs    # type: ignore[attr-defined]
    return table


def classify_batch(texts) -> tuple[list[str], list[float]]:
    """Vectorized batch scoring: one C pass hashes every document's
    features and accumulates its weight rows (native.fastlangid_score)."""
    from cld2_ray import native
    from . import uscript as us
    texts = [_cap_text(t) if t else "" for t in texts]
    n = len(texts)
    out_l, out_c = ["un"] * n, [0.0] * n
    # single-language scripts resolve by script alone — ONE codepoints
    # pass over the whole batch (lowering stays per doc: Greek final
    # sigma makes str.lower context-dependent, so join-then-lower
    # would drift). Per-doc bincount().argmax() == row argmax over the
    # (doc, script) count matrix (both take the smallest tied index).
    lowered = [t.lower() for t in texts]
    bounds = np.cumsum(np.array([len(t) for t in lowered],
                                dtype=np.int64))
    cps = us.codepoints("".join(lowered))
    sc = us.scripts_of(cps)
    doc_of = np.searchsorted(bounds, np.arange(len(cps), dtype=np.int64),
                             side="right")
    nz = sc > 0
    n_scripts = len(langs.SCRIPT_DEFAULT_LANG)
    counts = np.bincount(doc_of[nz] * n_scripts + sc[nz],
                         minlength=n * n_scripts).reshape(n, n_scripts)
    has_letters = counts.sum(axis=1) > 0
    dominant = counts[:, 1:].argmax(axis=1) + 1
    todo: list[int] = []
    for i, t in enumerate(texts):
        if not t.strip():
            continue
        if has_letters[i]:
            d = int(dominant[i])
            if us.script_rtype(d) == us.RTYPE_ONE:
                out_l[i] = langs.lang_code(
                    int(langs.SCRIPT_DEFAULT_LANG[d]))
                out_c[i] = 0.95
                continue
        todo.append(i)
    if not todo:
        return out_l, out_c

    w = weights()
    idx = weights.bucket_index  # type: ignore[attr-defined]
    scores, nf, n_rows = native.fastlangid_score(
        *native.utf8_cat([" " + lowered[i] + " " for i in todo]), idx, w)
    has_row = n_rows > 0
    col_langs = weights.col_langs  # type: ignore[attr-defined]
    order = np.argsort(scores, axis=1)
    top = order[:, -1]
    s_top = np.take_along_axis(scores, top[:, None], 1)[:, 0]
    s_sec = np.take_along_axis(scores, order[:, -2][:, None], 1)[:, 0]
    margin = (s_top - s_sec).astype(np.float64) / np.maximum(nf, 1)
    conf = 1.0 - np.exp(-4.0 * np.maximum(margin, 0.0))
    for j, i in enumerate(todo):
        if nf[j] == 0 or not has_row[j]:
            continue  # no recognizable features -> un, 0.0
        out_l[i] = langs.lang_code(int(col_langs[top[j]]))
        out_c[i] = float(conf[j])
    return out_l, out_c


def classify(text: str) -> tuple[str, float]:
    """Returns (lang_code, confidence 0..1). Single-doc entry of the
    batch path (one code path, identical results)."""
    ls, cs = classify_batch([text])
    return ls[0], cs[0]
