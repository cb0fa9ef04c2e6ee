"""Checkpoint-resume byte-identity at bench scale (north rule:
resumable output). Simulates the crash window state/checkpoint.py is
designed around — some partitions finished (manifest present), ONE
partition with data but no manifest (killed mid-write) — then resumes
and asserts the final output is byte-identical to an uninterrupted
run over the same input: the same partitions, MANIFESTs and data file
names, and every data file equal byte for byte.

  python scripts/resume_scale.py                 # 1.28M pages, 16 parts
  GRAFT_RESUME_PAGES=128000 python scripts/...   # smaller

Prints one JSON line with walls + the identity verdict; exits 1 on
any mismatch.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def main() -> None:
    import ray
    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    import glob

    import pyarrow.parquet as pq

    from cld2_ray.sources.pages import write_pages_parquet
    from cld2_ray.state import checkpoint as cp

    n_pages = int(os.environ.get("GRAFT_RESUME_PAGES", "1280000"))
    n_parts = 16
    per = n_pages // n_parts
    kill_after = 9

    # cache each partition's pages to parquet ONCE (untimed): the
    # identity check measures the pipeline + checkpoint machinery, not
    # synthetic page generation (same policy as bench.py)
    shards = []
    for pid in range(n_parts):
        c = f"/tmp/cld2_ray_bench/resume_part{pid}_{per}"
        write_pages_parquet(c, per, seed=1000 + pid)
        shards.append(sorted(glob.glob(os.path.join(c, "*.parquet"))))

    out_a = "/tmp/cld2_ray_resume/a"
    out_b = "/tmp/cld2_ray_resume/b"
    shutil.rmtree("/tmp/cld2_ray_resume", ignore_errors=True)

    t0 = time.time()
    ra = cp.run_resumable(shards, out_a)
    wall_clean = time.time() - t0
    assert ra["done"] == n_parts, ra

    # interrupted run: kill_after partitions complete, then a crash
    # mid-partition leaves data with NO manifest: a torn file under the
    # clean run's first name, and a stray partial file
    t0 = time.time()
    cp.run_resumable(shards[:kill_after], out_b)
    wall_before_kill = time.time() - t0
    clean = os.path.join(cp.partition_dir(out_a, kill_after), "data")
    dirty = os.path.join(cp.partition_dir(out_b, kill_after), "data")
    os.makedirs(dirty)
    first = sorted(os.listdir(clean))[0]
    part = pq.read_table(os.path.join(clean, first))
    pq.write_table(part.slice(0, len(part) // 3),
                   os.path.join(dirty, first))
    pq.write_table(part.slice(0, 7), os.path.join(dirty, "stray.parquet"))

    t0 = time.time()
    rb = cp.run_resumable(shards, out_b)
    wall_resume = time.time() - t0
    assert rb["skipped"] == kill_after, rb
    assert rb["done"] == n_parts - kill_after, rb

    def load(root: str) -> dict:
        """partition -> (MANIFEST bytes, {data file name: bytes})."""
        def read(path: str) -> bytes:
            with open(path, "rb") as f:
                return f.read()
        parts = sorted(
            d for d in os.listdir(root) if d.startswith("part="))
        return {d: (read(os.path.join(root, d, "MANIFEST.json")),
                    {n: read(os.path.join(root, d, "data", n))
                     for n in os.listdir(os.path.join(root, d, "data"))})
                for d in parts}

    a = load(out_a)
    b = load(out_b)
    identical = a == b
    if not identical:
        for d in sorted(set(a) | set(b)):
            if a.get(d) != b.get(d):
                print(f"{d} differs", file=sys.stderr)
    rows = sum(json.loads(m)["rows"] for m, _ in a.values())
    print(json.dumps({
        "metric": "resume_byte_identical",
        "value": bool(identical),
        "n_pages": n_pages,
        "n_parts": n_parts,
        "kill_after_partition": kill_after,
        "rows": rows,
        "wall_clean_sec": round(wall_clean, 1),
        "wall_before_kill_sec": round(wall_before_kill, 1),
        "wall_resume_sec": round(wall_resume, 1),
    }))
    shutil.rmtree("/tmp/cld2_ray_resume", ignore_errors=True)
    ray.shutdown()
    sys.exit(0 if identical else 1)


if __name__ == "__main__":
    main()
