"""Driver contract for the graft builder (Ray Data target).

The driver calls ``ray.init`` itself before importing this module:
nothing here (or in cld2_ray) calls ray.init/ray.shutdown.

- ``entry()``      — flagship quality-filter pipeline at sf0.001 scale.
- ``queries()``    — operator registry (SURVEY.md §2 + training-data
                     ops: dedup families, ANN, text stats, multimodal
                     plumbing). Each callable takes sf_dir.
- ``oracle_sql()`` — DuckDB-equivalent SQL for the SQL-expressible
                     subset, column names matched exactly.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline: deterministic synthetic Common-Crawl-style
    pages (scaled to sf0.001's documents table) -> one fused Ray Data
    task per batch (extract, langid, hints, aux langid, perplexity,
    quality rules, PII scrub, keep/drop). Returns the annotated
    Dataset."""
    from cld2_ray.pipelines.queries import q_flagship_pages
    return q_flagship_pages("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    from cld2_ray.pipelines.queries import QUERIES
    return dict(QUERIES)


def oracle_sql() -> dict[str, str]:
    from cld2_ray.pipelines.queries import ORACLE_SQL
    return dict(ORACLE_SQL)
