"""PII / toxicity scrubbing — regex redaction stage (north rule).

New code (not in the reference). Patterns are compiled once per process
(module import) / per actor, applied vectorized with pandas
``str.replace`` per batch. Replacement tokens are stable strings so
scrubbed output is deterministic and SQL-reproducible
(``regexp_replace(..., 'g')`` in the DuckDB oracle).

Order matters and is fixed: EMAIL -> IPV4 -> SSN -> CREDIT_CARD ->
PHONE (phone last: its pattern is the loosest).
"""

from __future__ import annotations

import re

import pandas as pd

# (token, python regex, duckdb-compatible regex) — kept in sync; DuckDB
# RE2 has no lookbehind, so patterns avoid lookarounds entirely.
PII_PATTERNS: list[tuple[str, str]] = [
    ("<EMAIL>", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"),
    ("<IP>", r"\b(?:\d{1,3}\.){3}\d{1,3}\b"),
    ("<SSN>", r"\b\d{3}-\d{2}-\d{4}\b"),
    ("<CC>", r"\b(?:\d[ -]?){13,16}\d\b"),
    ("<PHONE>", r"\+?\d{1,3}[ .-]?\(?\d{2,4}\)?[ .-]?\d{3,4}[ .-]?\d{3,4}\b"),
]

_COMPILED = [(tok, re.compile(pat)) for tok, pat in PII_PATTERNS]

# deliberately mild wordlist for the toxicity flag (a stand-in for a
# real blocklist; the mechanism — broadcast wordlist + vectorized scan —
# is the deliverable)
TOXICITY_WORDS = ["badword1", "badword2", "slurword"]
_TOX = re.compile("|".join(re.escape(w) for w in TOXICITY_WORDS),
                  re.IGNORECASE)

# prescreen: one alternation pass selects the docs where ANY pattern
# can match; the others skip the 10 count/replace passes. Sound
# because the replacement tokens (<EMAIL> etc.) contain no digits or
# '@', so a replacement can never CREATE a match for a later pattern —
# a doc the alternation misses is untouched by the sequential scrub.
_ANY_PII = "(?:" + ")|(?:".join(p for _, p in PII_PATTERNS) + ")"


def scrub_series(texts: pd.Series) -> pd.DataFrame:
    """Vectorized scrub on Arrow compute kernels (C++/RE2 — the patterns
    are RE2-safe by construction and verified equal to Python re).
    Returns scrubbed_text, n_pii, has_toxicity."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    filled = texts.fillna("")
    arr = pa.Array.from_pandas(filled)
    n_pii = np.zeros(len(filled), dtype=np.int64)
    hit = pc.match_substring_regex(arr, _ANY_PII) \
        .to_numpy(zero_copy_only=False)
    hit_idx = np.flatnonzero(hit)
    if len(hit_idx):
        sub = pc.take(arr, pa.array(hit_idx))
        n_sub = np.zeros(len(hit_idx), dtype=np.int64)
        for token, pat in PII_PATTERNS:
            n_sub += pc.count_substring_regex(sub, pat) \
                .to_numpy(zero_copy_only=False)
            sub = pc.replace_substring_regex(sub, pattern=pat,
                                             replacement=token)
        n_pii[hit_idx] = n_sub
        scrubbed = filled.to_numpy(copy=True)
        scrubbed[hit_idx] = sub.to_pandas().values
        arr = pa.array(scrubbed)
    has_tox = pd.Series(
        pc.match_substring_regex(arr, _TOX.pattern, ignore_case=True)
        .to_numpy(zero_copy_only=False), index=texts.index)
    return pd.DataFrame({
        "scrubbed_text": pd.Series(arr.to_pandas().values,
                                   index=texts.index),
        "n_pii": pd.Series(n_pii, index=texts.index),
        "has_toxicity": has_tox,
    })
