"""Untimed priming, run once per benchmark run in its own process.

Compiles ``cld2_ray/native/quadscan.so`` when it is stale, extracts the
``.npz`` model artifacts to their mmap caches, and writes the run's input
parquet. Prints one JSON line: the native kernel status, library
versions, which tracked ``.stamp`` files the cache extraction rewrote,
and the input's size.

  python3 perfbench/prime.py --root . --work .perfbench \
      --workload webmix --seed 1
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys


def read_stamps(root: str) -> dict[str, str | None]:
    out = {}
    pattern = os.path.join(root, "cld2_ray", "state", "artifacts",
                           "*.npz.d", ".stamp")
    for path in sorted(glob.glob(pattern)):
        with open(path) as f:
            out[os.path.relpath(path, root)] = f.read()
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    sys.path.insert(0, args.root)

    before = read_stamps(args.root)
    so = os.path.join(args.root, "cld2_ray", "native", "quadscan.so")
    so_mtime = os.path.getmtime(so) if os.path.exists(so) else None

    import numpy
    import pyarrow
    import ray

    from cld2_ray import native
    from cld2_ray.functions import fastlangid, perplexity
    from cld2_ray.functions.langid import Detector

    Detector()
    fastlangid.weights()
    perplexity.models()
    after = read_stamps(args.root)

    from perfbench import workloads
    n = workloads.SIZES[args.workload]
    path = workloads.ensure_input(args.work, args.workload, args.seed, n)
    files = sorted(glob.glob(os.path.join(path, "*.parquet")))
    import pyarrow.parquet as pq
    html_bytes = 0
    for f in files:
        html_bytes += sum(len(h) for h in pq.read_table(
            f, columns=["html"])["html"].to_pylist() if h)

    print(json.dumps({
        "native_available": bool(native.AVAILABLE),
        "native_rebuilt": (os.path.exists(so)
                           and os.path.getmtime(so) != so_mtime),
        "versions": {"python": sys.version.split()[0],
                     "ray": ray.__version__, "pyarrow": pyarrow.__version__,
                     "numpy": numpy.__version__},
        "stamps_changed": sorted(k for k in after
                                 if after[k] != before.get(k)),
        "input": {"dir": os.path.relpath(path, args.root), "pages": n,
                  "html_mb": round(html_bytes / 1e6, 3),
                  "files": len(files)},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
