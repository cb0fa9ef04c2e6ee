"""fastText-style auxiliary language identifier (north rule).

A hashed character-n-gram linear (multinomial Naive Bayes) classifier:
char 2-4-grams hashed into 2^18 buckets, one weight row per language,
trained deterministically from the seed corpora by ``save_artifact``
into the committed artifact. This is the standard fastText langid
architecture (bag of hashed n-grams -> linear layer); trained here
from authored seeds because the sandbox has no network for pretrained
weights.

At runtime ``weights()`` loads the artifact once per worker process
(lru_cache) and ``classify_batch`` routes and scores a whole batch in
one C pass (native.fastlangid_score) over the lowered documents.

The row order of the weight table is a build-time property of the
artifact, not of the model: ``hot_first`` numbers the rows by how many
documents of a fixed page sample touch them, hottest first, so the
rows most pages read share cache lines and pages. A renumbering changes
no score bit (rows are added in each document's first-seen order,
whatever their numbers); ``tests/test_quality.py`` pins the weights of
every bucket in bucket order, which no renumbering moves.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import langs, uscript as us

N_BUCKETS = 1 << 18
_GOLD = np.uint64(0x9E3779B97F4A7C15)

# Score only the first 512 bytes of each document: hashed-n-gram LID
# converges within a few hundred bytes, and the per-gram weight-row
# accumulation is the costliest memory access pattern of the fused
# pipeline (one 456-byte row of 114 floats per distinct gram).  The
# analogue of the reference's own scan cap (FLAGS_cld_textlimit = 160KB
# of letters, reference: internal/compact_lang_det_impl.cc:192) at the
# scale this classifier needs.  r4 re-measured the cap on the 4000-page
# corpus: 512 agrees with truth SLIGHTLY better than 1024 (0.9639 vs
# 0.9631 — the tail of a page adds noise, not signal, to a char-ngram
# model) at 62% of the scoring cost; 256 loses 0.8pt.
CAP_BYTES = 512


def _cap_text(t: str) -> str:
    if t.isascii():
        return t[:CAP_BYTES]
    if len(t) <= CAP_BYTES // 4:
        return t
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


class Weights(NamedTuple):
    """The classifier: weight rows ``table`` (row 0 is all zeros),
    ``bucket_index`` bucket -> row, ``col_langs`` column -> lang id.
    Columns cover only TRAINED languages (the C accumulation cost is
    linear in columns)."""
    table: np.ndarray
    bucket_index: np.ndarray
    col_langs: np.ndarray


@lru_cache(maxsize=1)
def weights() -> Weights:
    """The committed model, loaded once per process (mmap'd, one copy
    per node). Raises FileNotFoundError if the artifact is missing: a
    retrain (``save_artifact``) does not rebuild the committed model."""
    from cld2_ray.state import mmapcache
    z = mmapcache.load_shared(ARTIFACT)
    return Weights(z["table"], z["bucket_index"], z["col_langs"])


def save_artifact() -> None:
    """RETRAIN the classifier from the seed corpora and overwrite the
    committed artifact, rows numbered by ``hot_first``.

    This changes the model, not just its layout: the seeds grew since
    the committed artifact was trained (it has 114 language columns and
    55,369 rows; a retrain today gives 151 and 67,633), so ``aux_lang``
    and ``aux_conf`` move. A retrain must rerun
    ``python scripts/make_output_digest.py --write`` and update the
    weight digest in ``tests/test_quality.py``. To renumber the rows of
    the committed model without retraining, use ``reorder_artifact``."""
    w = _train()
    _save(*hot_first(w.table, w.bucket_index, _hot_sample()), w.col_langs)


def reorder_artifact() -> None:
    """Renumber the rows of the committed artifact hottest-first
    (``hot_first``), a pure permutation of ``table`` and
    ``bucket_index``: every score stays bit-equal and the model is
    unchanged. Run ``python -c "from cld2_ray.functions import
    fastlangid; fastlangid.reorder_artifact()"``."""
    with np.load(ARTIFACT) as z:
        table, idx, col_langs = z["table"], z["bucket_index"], z["col_langs"]
    _save(*hot_first(table, idx, _hot_sample()), col_langs)


def _save(table, bucket_index, col_langs) -> None:
    os.makedirs(os.path.dirname(ARTIFACT), exist_ok=True)
    np.savez_compressed(ARTIFACT, table=table, bucket_index=bucket_index,
                        col_langs=col_langs)


def _hot_sample() -> list[str]:
    """The texts hot_first counts rows on: sources.pages.make_page rows
    0..2399 of seed 0, extracted."""
    from cld2_ray.functions.extract import extract_batch, valid_utf8_prefix
    from cld2_ray.sources.pages import make_page
    htmls = [make_page(i, 0)["html"] for i in range(2400)]
    return extract_batch([h[:valid_utf8_prefix(h)] for h in htmls]
                         ).to_pylist()


def hot_first(table: np.ndarray, bucket_index: np.ndarray,
              texts) -> tuple[np.ndarray, np.ndarray]:
    """(table, bucket_index) with the weight rows renumbered by the
    number of ``texts`` whose scoring (``classify_batch``) reads them,
    most first; ties keep their order, and row 0 (the zero row of
    absent buckets) stays first. Only the numbering changes:
    ``table[bucket_index[b]]`` is the same for every bucket b."""
    from cld2_ray import native
    table = np.ascontiguousarray(table)
    lowered = _lowered(texts)
    route = native.fastlangid_score(
        *native.utf8_cat(lowered), bucket_index, table, us.script_lut(),
        _ONE_SCRIPT)[0]
    hits = np.zeros(len(table), dtype=np.int64)
    for i in np.flatnonzero(route == 0):
        hits[np.unique(bucket_index[_features(lowered[i])])] += 1
    hits[0] = np.iinfo(np.int64).max
    order = np.argsort(-hits, kind="stable")
    new_row = np.empty_like(order)
    new_row[order] = np.arange(len(order))
    return table[order], new_row[bucket_index].astype(bucket_index.dtype)


def _train() -> Weights:
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
    return Weights(table, full, col_langs)


# script id -> 1 if the script implies one language (routed to its
# default language without scoring), as native.fastlangid_score reads it
_ONE_SCRIPT = np.zeros(256, dtype=np.uint8)
_ONE_SCRIPT[:us.NUM_SCRIPTS] = [us.script_rtype(s) == us.RTYPE_ONE
                                for s in range(us.NUM_SCRIPTS)]
_CODES = np.array(langs.CODES, dtype=object)


def _lowered(texts) -> list[str]:
    """Each text capped to CAP_BYTES, then lowered (in that order: Greek
    final sigma makes str.lower depend on what follows, so the cap
    comes first)."""
    return [_cap_text(t).lower() if t else "" for t in texts]


def classify_batch(texts) -> tuple[list[str], list[float]]:
    """(lang codes, confidences) of a batch, in one C pass
    (native.fastlangid_score) over the lowered texts: whitespace-only
    texts give ("un", 0.0); a text whose dominant script implies one
    language gives that language at 0.95; the C pass scores the rest,
    and the top two scores give the language and the confidence.
    tests/oracles/fastlangid.py is its oracle."""
    from cld2_ray import native
    w = weights()
    route, scores, nf, n_rows = native.fastlangid_score(
        *native.utf8_cat(_lowered(texts)), w.bucket_index, w.table,
        us.script_lut(), _ONE_SCRIPT)
    lang = np.full(len(route), langs.UNKNOWN, dtype=np.int64)
    conf = np.zeros(len(route))
    one = np.flatnonzero(route > 0)
    lang[one] = langs.SCRIPT_DEFAULT_LANG[route[one]]
    conf[one] = 0.95
    # no recognizable features -> un, 0.0
    todo = np.flatnonzero((route == 0) & (n_rows > 0))
    sc = scores[todo]
    order = np.argsort(sc, axis=1)
    top = order[:, -1]
    s_top = np.take_along_axis(sc, top[:, None], 1)[:, 0]
    s_sec = np.take_along_axis(sc, order[:, -2][:, None], 1)[:, 0]
    margin = (s_top - s_sec).astype(np.float64) / nf[todo]
    lang[todo] = w.col_langs[top]
    conf[todo] = 1.0 - np.exp(-4.0 * np.maximum(margin, 0.0))
    return _CODES[lang].tolist(), conf.tolist()


def classify(text: str) -> tuple[str, float]:
    """Returns (lang_code, confidence 0..1). Single-doc entry of the
    batch path (one code path, identical results)."""
    ls, cs = classify_batch([text])
    return ls[0], cs[0]
