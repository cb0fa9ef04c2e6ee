"""numpy open-addressed table probe: the oracle of ``native.table_lookup``
(``HashTable.lookup``)."""

from __future__ import annotations

import numpy as np

from cld2_ray.state.model import HashTable


def _mix(keys: np.ndarray) -> np.ndarray:
    """The probe's start hash (native.table_build documents it)."""
    with np.errstate(over="ignore"):  # wrapping multiply is intended
        k = keys.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return k ^ (k >> np.uint64(29))


def lookup_numpy(table: HashTable, queries: np.ndarray) -> np.ndarray:
    """HashTable.lookup as a pure-numpy probe loop."""
    if len(queries) == 0:
        return np.empty(0, dtype=np.uint64)
    q = queries.astype(np.uint64)
    np.place(q, q == 0, 1)
    idx = (_mix(q) & table.mask).astype(np.int64)
    out = np.zeros(len(q), dtype=np.uint64)
    active = np.arange(len(q))
    for _ in range(64):  # probe bound; tables are <= 50% loaded
        k = table.keys[idx[active]]
        hit = k == q[active]
        out[active[hit]] = table.vals[idx[active[hit]]]
        miss = (k != 0) & ~hit
        if not miss.any():
            break
        active = active[miss]
        idx[active] = (idx[active] + 1) & np.int64(table.mask)
    return out
