"""No-Ray workload-scaling control for BASELINE.md.

Runs the EXACT fused per-batch kernel (stages/core.fused_batch — the
whole extract+langid+quality+scrub chain) under plain multiprocessing
at two parallelism levels over identical cached page batches: no Ray,
no object store, no scheduler. The per-proc throughput ratio is this
WORKLOAD's hardware ceiling on this host (memory system sharing) —
no pipeline built on it can scale better, so it contextualizes the
raw `bench.py --scaling` number the way a per-node-memory cluster
(the rule's actual N vs 4N criterion) would not need.

Usage: python scripts/kernel_scaling_control.py [lo] [hi]
"""
import multiprocessing as mp
import os
import sys
import time

import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _init():
    global _tbl
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import glob
    files = sorted(glob.glob("/tmp/cld2_ray_bench/pages_*/*.parquet"))
    if not files:
        raise SystemExit("run bench.py once first to build a page cache")
    _tbl = pq.read_table(files[0])


def _worker(args):
    (n_iters,) = args
    from cld2_ray.pipelines.flagship import BATCH_SIZE
    from cld2_ray.stages import core
    t = _tbl
    rows = min(BATCH_SIZE, t.num_rows)
    core.fused_batch(t.slice(0, rows))       # warm this proc
    t0 = time.time()
    for i in range(n_iters):
        off = (i * rows) % max(t.num_rows - rows, 1)
        core.fused_batch(t.slice(off, rows))
    return n_iters * rows, time.time() - t0


def main() -> None:
    lo = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    hi = int(sys.argv[2]) if len(sys.argv) > 2 else 32
    per_proc = {}
    for procs in (lo, hi):
        with mp.Pool(procs, initializer=_init) as p:
            res = p.map(_worker, [(60,)] * procs)
        rows = sum(r for r, _ in res)
        wall = max(t for _, t in res)
        per_proc[procs] = rows / wall / procs
        print(f"{procs} procs: {rows / wall:,.0f} docs/s total, "
              f"{per_proc[procs]:,.0f} per proc")
    print(f"workload hardware ceiling {lo}->{hi}: "
          f"{per_proc[hi] / per_proc[lo]:.3f}")


if __name__ == "__main__":
    main()
