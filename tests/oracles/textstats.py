"""Per-document Gopher repetition signals: the oracle of the
batch-vectorized ``textstats.gopher_repetition_full``."""

from __future__ import annotations

import numpy as np
import pandas as pd

from cld2_ray.functions.textstats import _WS, TRIM_CHARS


def gopher_full_perdoc(texts: pd.Series) -> pd.DataFrame:
    """gopher_repetition_full one document at a time: exact n-gram
    identity by iterated 32-bit-id packing per document."""
    t = texts.fillna("").str.strip(TRIM_CHARS)
    cols = (["n_tokens", "total_chars"]
            + [f"top{n}_{k}" for n in (2, 3, 4)
               for k in ("count", "chars")]
            + [f"dup{n}_cov_chars" for n in range(5, 11)])
    out = np.zeros((len(t), len(cols)), dtype=np.int64)
    tl = [_WS.split(s) if s else [] for s in t]
    counts_per_doc = np.fromiter((len(x) for x in tl), np.int64, len(tl))
    flat = pd.Series([w for ws in tl for w in ws], dtype=object)
    ids_flat, _ = pd.factorize(flat)
    ids_flat = ids_flat.astype(np.int64)
    L_flat = flat.str.len().to_numpy(np.int64) if len(flat) \
        else np.empty(0, np.int64)
    bounds = np.concatenate([[0], np.cumsum(counts_per_doc)])
    for r in range(len(t)):
        lo, hi = bounds[r], bounds[r + 1]
        n = int(hi - lo)
        L = L_flat[lo:hi]
        out[r, 0] = n
        out[r, 1] = int(L.sum()) + max(n - 1, 0)
        if n < 2:
            continue
        ids = ids_flat[lo:hi]
        cs = np.concatenate([[0], np.cumsum(L)])
        inv = ids                      # window ids for gram length 1
        for ng in range(2, 11):
            if n < ng:
                break
            # windows of length ng: extend each (ng-1)-window id with
            # the id of its following token (both < 2^32 — exact)
            p = (inv[:-1] << np.int64(32)) | ids[ng - 1:]
            u, inv, c = np.unique(p, return_inverse=True,
                                  return_counts=True)
            cw = c[inv]
            if ng <= 4:
                top = int(c.max())
                wchars = cs[ng:] - cs[:-ng] + (ng - 1)
                sel = cw == top
                col = 2 + (ng - 2) * 2
                out[r, col] = top
                out[r, col + 1] = int((cw[sel] * wchars[sel]).max())
            else:
                m = cw >= 2
                if m.any():
                    delta = np.zeros(n + ng, np.int64)
                    starts = np.nonzero(m)[0]
                    np.add.at(delta, starts, 1)
                    np.add.at(delta, starts + ng, -1)
                    covered = np.cumsum(delta[:n]) > 0
                    out[r, 8 + (ng - 5)] = int(L[covered].sum())
    return pd.DataFrame(
        {c: out[:, i] for i, c in enumerate(cols)}, index=texts.index)
