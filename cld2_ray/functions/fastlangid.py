"""fastText-style auxiliary language identifier (north rule).

A hashed character-n-gram linear (multinomial Naive Bayes) classifier:
char 2-4-grams hashed into 2^18 buckets, one weight row per language.
This is the standard fastText langid architecture (bag of hashed
n-grams -> linear layer), trained from the authored seed corpora
instead of shipping pretrained weights.

``weights()`` loads the committed artifact once per worker process
(lru_cache) and ``classify_batch`` routes and scores a whole batch in
one C pass (native.fastlangid_score) over the documents that
native.lower_docs caps and lowers in one C pass, as Python's str.lower
would (uscript.lowered), in the batch's language order.

The row order of the weight table is a build-time property of the
artifact, not of the model: ``tools/fastlangid_rows.py`` numbers the
rows by how many documents of a fixed page sample touch them, hottest
first, so the rows most pages read share cache lines and pages. A
renumbering changes no score bit (rows are added in each document's
first-seen order, whatever their numbers); ``tests/test_quality.py``
pins the weights of every bucket in bucket order, which no renumbering
moves.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import pyarrow as pa

from . import langs, uscript as us

# the feature hash's multiplier (``gold`` in native.fastlangid_score),
# for the numpy feature references in tests/oracles and tools/
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
    per node). Raises FileNotFoundError if the artifact is missing.

    The artifact is source data: its trainer is gone, because the seeds
    grew after it was trained and a retrain no longer reproduces it
    (151 language columns against the committed 114). It was last
    trained at commit 4f94626 (114 columns, 55,369 rows); its rows were
    renumbered hottest-first at 6314b2d, a permutation that
    ``python -m tools.fastlangid_rows`` reproduces byte for byte.
    ``tests/test_quality.py`` pins its content and its sha256."""
    from cld2_ray.state import mmapcache
    z = mmapcache.load_shared(ARTIFACT)
    return Weights(z["table"], z["bucket_index"], z["col_langs"])


# script id -> 1 if the script implies one language (routed to its
# default language without scoring), as native.fastlangid_score reads it
_ONE_SCRIPT = np.zeros(256, dtype=np.uint8)
_ONE_SCRIPT[:us.NUM_SCRIPTS] = [us.script_rtype(s) == us.RTYPE_ONE
                                for s in range(us.NUM_SCRIPTS)]


def _top_two(sc: np.ndarray):
    """(top column, top score, second score) of each row of ``sc``, as
    the last two columns of ``np.argsort(sc, axis=1)`` give them, in two
    max passes: a row with a tie among its three largest scores takes
    argsort's columns, so tie order stays argsort's."""
    rows = np.arange(len(sc))
    top = sc.argmax(axis=1)
    rest = sc.copy()
    rest[rows, top] = -np.inf
    sec = rest.argmax(axis=1)
    s_top, s_sec = sc[rows, top], rest[rows, sec]
    rest[rows, sec] = -np.inf
    tie = np.flatnonzero((s_top == s_sec) | (s_sec == rest.max(axis=1)))
    if len(tie):
        order = np.argsort(sc[tie], axis=1)
        top[tie] = order[:, -1]
        s_top[tie] = np.take_along_axis(sc[tie], order[:, -1:], 1)[:, 0]
        s_sec[tie] = np.take_along_axis(sc[tie], order[:, -2:-1], 1)[:, 0]
    return top, s_top, s_sec


def classify_batch(texts, lang=None) -> tuple[pa.Array, np.ndarray]:
    """(lang codes, float64 confidences) of a batch, in one C pass
    (native.fastlangid_score) over the texts capped to CAP_BYTES and
    lowered (uscript.lowered): whitespace-only texts give ("un", 0.0); a
    text whose dominant script implies one language gives that language
    at 0.95; the C pass scores the rest, and the top two scores give the
    language and the confidence. ``texts`` is a list of str or an Arrow
    string column. The texts are scored in a stable argsort of ``lang``,
    their ids or codes as langs.ids reads them (stages.core passes the
    langid summary ids, so pages of one language share weight rows in
    cache; None keeps batch order); each text's result is its own, in
    batch order, whatever the languages. tests/oracles/fastlangid.py is
    its oracle."""
    from cld2_ray import native
    w = weights()
    order = np.argsort(langs.ids(lang, len(texts)), kind="stable")
    route, scores, nf, n_rows = native.fastlangid_score(
        *us.lowered(texts, order, CAP_BYTES), w.bucket_index, w.table,
        us.script_lut(), _ONE_SCRIPT)
    lang = np.full(len(route), langs.UNKNOWN, dtype=np.int64)
    conf = np.zeros(len(route))
    one = np.flatnonzero(route > 0)
    lang[one] = langs.SCRIPT_DEFAULT_LANG[route[one]]
    conf[one] = 0.95
    # no recognizable features -> un, 0.0
    todo = np.flatnonzero((route == 0) & (n_rows > 0))
    top, s_top, s_sec = _top_two(scores[todo])
    margin = (s_top - s_sec).astype(np.float64) / nf[todo]
    lang[todo] = w.col_langs[top]
    conf[todo] = 1.0 - np.exp(-4.0 * np.maximum(margin, 0.0))
    back = np.argsort(order)  # the inverse permutation: to batch order
    return langs.codes(lang[back]), conf[back]
