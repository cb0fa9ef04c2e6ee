"""Build tests/output_digest.json: a digest of the flagship kernel's
output (stages.core.fused_batch) on a fixed page set, one entry per
column: the Arrow type and a SHA-256 of the values, without and with
the ``chunks`` column. tests/test_output_digest.py recomputes it, so
any change to a value or a type of the output fails that test.

The page set is fixed pages from the three benchmark workload
generators (perfbench/workloads.py: snippets, longform_job and webmix,
which is sources.pages.make_page rows with a giant page) plus
sources.pages.edge_pages (null and invalid-UTF-8 html, CRLF, one-letter
words, a page past the langid letter budget). The digest also records a
hash of the input pages, so a changed generator reads as such and not
as a changed kernel.

Usage: python scripts/make_output_digest.py [--write]
(without --write, prints whether the stored digest matches)
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pyarrow as pa

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

OUT = os.path.join(ROOT, "tests", "output_digest.json")


def digest_pages() -> pa.Table:
    from cld2_ray.sources.pages import edge_pages
    from perfbench.workloads import make_table
    return pa.concat_tables([
        make_table("snippets", 1, 64), make_table("longform_job", 1, 4),
        make_table("webmix", 1, 200), edge_pages()])


def _sha(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


def output_digest() -> dict:
    from cld2_ray.stages.core import fused_batch
    pages = digest_pages()
    out = {"rows": pages.num_rows,
           "input_sha256": _sha([pages[c].to_pylist()
                                 for c in pages.column_names])}
    for key, wc in (("plain", False), ("with_chunks", True)):
        t = fused_batch(pages, with_chunks=wc)
        out[key] = {f.name: {"type": str(f.type),
                             "sha256": _sha(t[f.name].to_pylist())}
                    for f in t.schema}
    return out


def main() -> None:
    got = output_digest()
    if "--write" in sys.argv:
        with open(OUT, "w") as f:
            json.dump(got, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {OUT}")
        return
    with open(OUT) as f:
        print("matches" if json.load(f) == got else "DIFFERS")


if __name__ == "__main__":
    main()
