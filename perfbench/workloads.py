"""Seed-derived input pages for the three benchmark workloads.

Every workload is a pages table with the schema of
``cld2_ray.sources.pages.SCHEMA`` (url, warc_ts, html, text, lang). The
pipeline under test sees only the parquet written here; row i of a
workload depends only on (workload, seed, i), so the same seed always
gives byte-identical input.

- ``webmix``: ``cld2_ray.sources.pages.make_page`` rows in order, the
  production mix (~3 KB pages, 30 languages, junk, bad UTF-8, giants),
  except that giant pages are taken until they are exactly 1 in 200
  pages, their share in the mix. A giant costs ~40 normal pages, so
  leaving their count to chance moved throughput by ~5% between seeds.
- ``snippets``: 15-60 words of visible text in light markup, so the
  per-document and per-block fixed costs dominate.
- ``longform_job``: ~28 KB of text per page mixing three languages, so
  the per-byte scoring kernels dominate; written as several files so the
  job path can split it into partitions.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from cld2_ray.data.seeds import SEEDS
from cld2_ray.data.seeds_extra import EXTRA
from cld2_ray.sources.pages import BASE_TS_US, SCHEMA, make_page

# pages per run; sized so that one pass over the input takes ~2-4 s
# on one core and a run of --seconds repeats it several times
SIZES = {"webmix": 2400, "snippets": 6000, "longform_job": 480}
# parquet files per input, as a crawl shard would hold them: ~500 small
# pages per file on snippets, one file per job partition on longform_job
FILES = {"webmix": 4, "snippets": 12, "longform_job": 4}
# partitions of the job-path workload
JOB_PARTITIONS = 4

# languages of the non-webmix workloads: the web-frequent ones that have
# seed corpora, weighted roughly by web share
_LANGS = [("en", 30), ("ru", 6), ("de", 6), ("es", 6), ("fr", 5),
          ("ja", 5), ("pt", 4), ("it", 4), ("zh", 4), ("nl", 3),
          ("pl", 3), ("tr", 3), ("id", 2), ("vi", 2), ("ko", 2),
          ("cs", 2), ("sv", 2), ("ar", 2), ("fa", 2), ("uk", 2)]
_CODES = [c for c, _ in _LANGS]
_P = np.array([w for _, w in _LANGS], dtype=np.float64)
_P /= _P.sum()
_WORKLOAD_ID = {"webmix": 0, "snippets": 1, "longform_job": 2}
# make_page's giant pages (~110 KB) vs its largest normal ones (~4 KB)
GIANT_BYTES = 32_000
GIANT_EVERY = 200


def _pool(code: str) -> list[str]:
    return (SEEDS.get(code, "") + " " + EXTRA.get(code, "")).split()


_POOLS = {c: _pool(c) for c in _CODES}


def _words(rng: np.random.Generator, code: str, n: int) -> str:
    pool = _POOLS[code]
    start = int(rng.integers(0, max(len(pool) - n, 1)))
    ws = pool[start:start + n]
    if ws:
        ws[0] = ws[0].capitalize()
    return " ".join(ws) + "."


def _row(url: str, i: int, html: bytes, code: str) -> dict:
    return {"url": url, "warc_ts": BASE_TS_US + i * 1_000_000,
            "html": html, "text": "", "lang": code}


def snippet_page(rng: np.random.Generator, i: int) -> dict:
    code = _CODES[int(rng.choice(len(_CODES), p=_P))]
    n_words = int(rng.integers(15, 61))
    n_paras = int(rng.integers(1, 4))
    cuts = sorted(int(x) for x in rng.integers(1, n_words,
                                               size=n_paras - 1))
    bounds = [0, *cuts, n_words]
    paras = [_words(rng, code, b - a) for a, b in zip(bounds, bounds[1:])
             if b > a]
    body = "".join(f"<p>{p}</p>" for p in paras)
    html = (f"<html><head><title>{paras[0][:30]}</title></head>"
            f"<body>{body}</body></html>").encode("utf-8")
    return _row(f"https://snip{i % 991}.example.com/s/{i}", i, html, code)


def longform_page(rng: np.random.Generator, i: int,
                  text_bytes: int = 28_000) -> dict:
    picks = rng.choice(len(_CODES), size=3, replace=False, p=_P)
    codes = [_CODES[int(k)] for k in picks]
    parts = ["<html><head><title>Longform</title></head><body>"]
    size = 0
    k = 0
    while size < text_bytes:
        # long runs of one language, then switch: a 3-language page
        p = _words(rng, codes[k % 3], int(rng.integers(60, 160)))
        parts.append(f"<p>{p}</p>")
        size += len(p.encode("utf-8"))
        k += 1
    parts.append("</body></html>")
    html = "".join(parts).encode("utf-8")
    return _row(f"https://long{i % 97}.example.com/a/{i}", i, html,
                codes[0])


def webmix_rows(seed: int, n: int) -> list[dict]:
    want_giant = n // GIANT_EVERY
    rows, giants, i = [], 0, 0
    while len(rows) < n:
        p = make_page(i, seed)
        i += 1
        if len(p["html"]) > GIANT_BYTES:
            if giants < want_giant:
                rows.append(p)
                giants += 1
        elif len(rows) - giants < n - want_giant:
            rows.append(p)
    return rows


def make_table(workload: str, seed: int, n: int) -> pa.Table:
    if workload == "webmix":
        return pa.Table.from_pylist(webmix_rows(seed, n), schema=SCHEMA)
    rng = np.random.default_rng([seed, _WORKLOAD_ID[workload]])
    make = snippet_page if workload == "snippets" else longform_page
    return pa.Table.from_pylist([make(rng, i) for i in range(n)],
                                schema=SCHEMA)


def ensure_input(work: str, workload: str, seed: int, n: int) -> str:
    """Write (once) and return the parquet directory of this input.

    A ``_DONE`` marker, written last, makes the cache safe against a run
    killed half way through writing it."""
    path = os.path.join(work, "inputs",
                        f"{workload}-{seed}-{n}x{FILES[workload]}")
    if os.path.exists(os.path.join(path, "_DONE")):
        return path
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    table = make_table(workload, seed, n)
    per = -(-n // FILES[workload])
    for k in range(FILES[workload]):
        pq.write_table(table.slice(k * per, per),
                       os.path.join(path, f"part-{k:05d}.parquet"))
    open(os.path.join(path, "_DONE"), "w").close()
    return path
