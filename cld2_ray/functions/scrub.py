"""PII / toxicity scrubbing — regex redaction stage (north rule).

New code (not in the reference). The patterns are pattern strings that
Arrow's RE2 kernels apply per batch to the text column (``scrub_arrow``;
``scrub_series`` is its pandas form). Replacement tokens are stable
strings so scrubbed output is deterministic and SQL-reproducible
(``regexp_replace(..., 'g')`` in the DuckDB oracle). The flagship
kernel gates the PII prescreen with the quality scan's pii_candidate
flag (``scrub_arrow(..., candidates)``), so only documents holding an
ASCII digit or '@' pay for it; that is exact because no pattern matches
without one.

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

# deliberately mild wordlist for the toxicity flag (a stand-in for a
# real blocklist; the mechanism — broadcast wordlist + vectorized scan —
# is the deliverable); RE2 matches their alternation case-insensitively
TOXICITY_WORDS = ["badword1", "badword2", "slurword"]
_TOX = "|".join(re.escape(w) for w in TOXICITY_WORDS)

# prescreen: one alternation pass selects the docs where ANY pattern
# can match; the others skip the 10 count/replace passes. Sound
# because the replacement tokens (<EMAIL> etc.) contain no digits or
# '@', so a replacement can never CREATE a match for a later pattern —
# a doc the alternation misses is untouched by the sequential scrub.
_ANY_PII = "(?:" + ")|(?:".join(p for _, p in PII_PATTERNS) + ")"


def scrub_arrow(arr, candidates=None):
    """Scrub a pyarrow string / large_string array without nulls.
    Returns (scrubbed array of the same type, n_pii int64 ndarray,
    has_toxicity bool ndarray); with no PII hit the scrubbed array is
    ``arr`` itself. Arrow compute kernels (C++/RE2 — the patterns are
    RE2-safe by construction and verified equal to Python re).

    ``candidates`` (bool ndarray, optional) gates the prescreen: it
    runs only over the docs marked True, the others count as no hit.
    The gate is exact when it marks every doc holding an ASCII digit
    or '@' (``quality.rule_columns``' pii_candidate): every pattern
    needs one of them, EMAIL its '@' and the others a \\d, which RE2
    reads as [0-9] only (no other Unicode digit)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    n_pii = np.zeros(len(arr), dtype=np.int64)
    if candidates is None:
        hit = pc.match_substring_regex(arr, _ANY_PII) \
            .to_numpy(zero_copy_only=False)
    else:
        candidates = np.asarray(candidates, dtype=bool)
        hit = np.zeros(len(arr), dtype=bool)
        hit[candidates] = pc.match_substring_regex(
            pc.filter(arr, pa.array(candidates)), _ANY_PII) \
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
        arr = pc.replace_with_mask(arr, pa.array(hit), sub)
    has_tox = pc.match_substring_regex(arr, _TOX, ignore_case=True) \
        .to_numpy(zero_copy_only=False)
    return arr, n_pii, has_tox


def scrub_series(texts: pd.Series) -> pd.DataFrame:
    """scrub_arrow on a Series -> DataFrame of scrubbed_text, n_pii,
    has_toxicity on the index of ``texts``."""
    import pyarrow as pa
    arr, n_pii, has_tox = scrub_arrow(pa.array(texts.fillna(""),
                                               type=pa.string()))
    return pd.DataFrame({"scrubbed_text": arr.to_pylist(), "n_pii": n_pii,
                         "has_toxicity": has_tox}, index=texts.index)
