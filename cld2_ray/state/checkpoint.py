"""Checkpoint / resume for partitioned pipeline runs (north rule).

Layout under ``out_root``:

  part=00000/           one directory per input partition
    data/*.parquet      the partition's kept+annotated rows
    MANIFEST.json       {part_id, rows, kept}, written LAST (atomic
                        rename): the rows written and how many of
                        them have keep set

``run_resumable`` writes nothing else; a per-partition lineage table of
metric rows is not written yet.

A partition is DONE iff its MANIFEST.json exists — the data write and
the manifest write are ordered, so a killed run leaves at most one
partition with data but no manifest, and ``run_resumable`` redoes
exactly that partition. Partition ids are deterministic functions of
the input (shard index), never of wall clock, so reruns are
byte-stable. This is the design SURVEY.md §7.1 step 8 calls for, sized
so that at 100 TB each partition is one input shard (file / WARC
segment) and a 256-node run that dies resumes by listing manifests —
no global state."""

from __future__ import annotations

import json
import os
import shutil


def partition_dir(out_root: str, part_id: int) -> str:
    return os.path.join(out_root, f"part={part_id:05d}")


def is_done(out_root: str, part_id: int) -> bool:
    return os.path.exists(os.path.join(partition_dir(out_root, part_id),
                                       "MANIFEST.json"))


def write_manifest(out_root: str, part_id: int, counters: dict) -> None:
    pdir = partition_dir(out_root, part_id)
    os.makedirs(pdir, exist_ok=True)
    tmp = os.path.join(pdir, ".MANIFEST.tmp")
    with open(tmp, "w") as f:
        json.dump({"part_id": part_id, **counters}, f, sort_keys=True)
    os.replace(tmp, os.path.join(pdir, "MANIFEST.json"))


def run_resumable(make_partition_ds, n_parts: int, out_root: str,
                  build_pipeline) -> dict:
    """Process partitions 0..n_parts-1, skipping finished ones.

    make_partition_ds(part_id) -> input Dataset for that partition;
    build_pipeline(ds) -> annotated Dataset. Returns run summary.
    """
    os.makedirs(out_root, exist_ok=True)
    done = skipped = 0
    total_rows = 0
    for pid in range(n_parts):
        if is_done(out_root, pid):
            skipped += 1
            continue
        pdir = partition_dir(out_root, pid)
        data_dir = os.path.join(pdir, "data")
        if os.path.exists(data_dir):
            shutil.rmtree(data_dir)  # partial write from a dead run
        ds = build_pipeline(make_partition_ds(pid))
        ds.write_parquet(data_dir)
        import pyarrow.compute as pc
        import pyarrow.dataset as pads
        n = pads.dataset(data_dir).count_rows()
        n_kept = 0
        if n:
            kept = pads.dataset(data_dir).to_table(columns=["keep"])["keep"]
            n_kept = int(pc.sum(kept).as_py() or 0)
        write_manifest(out_root, pid, {"rows": n, "kept": n_kept})
        total_rows += n
        done += 1
    return {"done": done, "skipped": skipped, "new_rows": total_rows}
