"""Number the weight rows of ``cld2_ray/state/artifacts/fastlangid.npz``
hottest-first.

    python -m tools.fastlangid_rows

The classifier itself is source data (see ``fastlangid.weights``); only
its row order is derived here. ``reorder_artifact`` renumbers the rows
of the committed model by ``hot_first``, a pure permutation of
``table`` and ``bucket_index``: every score stays bit-equal and the
model is unchanged. ``tests/test_tools.py`` checks that the committed
rows are already in this order.
"""

from __future__ import annotations

import numpy as np

from cld2_ray.functions import uscript as us
from cld2_ray.functions.fastlangid import (_GOLD, _ONE_SCRIPT, ARTIFACT,
                                           CAP_BYTES)


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


def reorder_artifact() -> None:
    """Renumber the rows of the committed artifact hottest-first
    (``hot_first``) and write it back."""
    with np.load(ARTIFACT) as z:
        table, idx, col_langs = z["table"], z["bucket_index"], z["col_langs"]
    _save(*hot_first(table, idx, _hot_sample()), col_langs)


def _save(table, bucket_index, col_langs) -> None:
    np.savez_compressed(ARTIFACT, table=table, bucket_index=bucket_index,
                        col_langs=col_langs)


def _hot_sample() -> list[str]:
    """The texts hot_first counts rows on: sources.pages.make_page rows
    0..2399 of seed 0, extracted."""
    from cld2_ray.functions.extract import extract_batch
    from cld2_ray.sources.pages import make_page
    htmls = [make_page(i, 0)["html"] for i in range(2400)]
    return extract_batch(htmls)[0].to_pylist()


def hot_first(table: np.ndarray, bucket_index: np.ndarray,
              texts) -> tuple[np.ndarray, np.ndarray]:
    """(table, bucket_index) with the weight rows renumbered by the
    number of ``texts`` whose scoring (``classify_batch``) reads them,
    most first; ties keep their order, and row 0 (the zero row of
    absent buckets) stays first. Only the numbering changes:
    ``table[bucket_index[b]]`` is the same for every bucket b."""
    from cld2_ray import native
    table = np.ascontiguousarray(table)
    data, off = us.lowered(texts, np.arange(len(texts)), CAP_BYTES)
    route = native.fastlangid_score(data, off, bucket_index, table,
                                    us.script_lut(), _ONE_SCRIPT)[0]
    hits = np.zeros(len(table), dtype=np.int64)
    for i in np.flatnonzero(route == 0):
        text = data[off[i]:off[i + 1]].tobytes().decode("utf-8")
        hits[np.unique(bucket_index[_features(text)])] += 1
    hits[0] = np.iinfo(np.int64).max
    order = np.argsort(-hits, kind="stable")
    new_row = np.empty_like(order)
    new_row[order] = np.arange(len(order))
    return table[order], new_row[bucket_index].astype(bucket_index.dtype)


if __name__ == "__main__":
    reorder_artifact()
    print(f"rewrote {ARTIFACT} with its rows numbered hottest-first")
