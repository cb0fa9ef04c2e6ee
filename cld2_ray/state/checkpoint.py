"""Checkpoint / resume for partitioned runs of the flagship kernel
(north rule).

Layout under ``out_root``:

  part=00000/           one directory per input partition
    data/FFFFF.parquet  the partition's annotated rows, exactly the
                        columns flagship.OUT_COLUMNS, from input file
                        FFFFF (its index in the partition's file list);
                        an input file without rows gets no data file.
                        Names sort in input order, so reading the files
                        in name order gives the rows in input order.
    MANIFEST.json       {part_id, rows, kept, drop_reasons}, written
                        LAST (atomic rename): the rows written, how
                        many of them have keep set, and how many of
                        the others carry each drop_reason

One execution per job: ``run_resumable`` hands every input file of
every partition that is not done to one Ray task, in ONE Ray Data
execution: ``from_items`` of (part, file, src, dst) items, one per
block, and one ``map_batches(batch_size=None)`` of ``_score_files``.
The task reads its file with pyarrow BATCH_SIZE rows at a time, runs
stages/core.fused_batch on each slice, writes each slice's rows as one
row group of the file's data file, and returns one summary row (part,
file, rows, kept, drop_reasons) counted by core.partial_metrics over
the rows it wrote. Page data never passes through the object store, a
task decodes at most BATCH_SIZE input rows at a time, and the
partitions' tasks run side by side on every CPU the scheduler offers.
The driver adds up the summary rows as they arrive and writes a
partition's MANIFEST as soon as every one of its files has reported;
nothing is read back. A partition without input files gets
{rows: 0, kept: 0} and an empty data/ without an execution.

A partition is DONE iff its MANIFEST.json exists. The data/ of every
partition that is not done is cleared before the execution starts, so a
killed run redoes at most the partitions that were in flight. File
names come from the input, never from a uuid or the clock, so a
retried task overwrites its own file and reruns are byte-stable.
Partition ids are the caller's shard indices. This is the design
SURVEY.md §7.1 step 8 calls for, sized so that at 100 TB each partition
is one input shard (file / WARC segment) and a 256-node run that dies
resumes by listing manifests — no global state."""

from __future__ import annotations

import json
import os
import shutil
from collections import Counter

import pyarrow as pa
import pyarrow.parquet as pq

from cld2_ray.pipelines.flagship import BATCH_SIZE
from cld2_ray.stages import core

# _score_files' output: one row per input file
_SUMMARY = pa.schema([("part", pa.int64()), ("file", pa.int64()),
                      ("rows", pa.int64()), ("kept", pa.int64()),
                      ("drop_reasons", pa.map_(pa.string(), pa.int64()))])


def partition_dir(out_root: str, part_id: int) -> str:
    return os.path.join(out_root, f"part={part_id:05d}")


def _manifest_path(out_root: str, part_id: int) -> str:
    return os.path.join(partition_dir(out_root, part_id), "MANIFEST.json")


def is_done(out_root: str, part_id: int) -> bool:
    return os.path.exists(_manifest_path(out_root, part_id))


def write_manifest(out_root: str, part_id: int, counters: dict) -> None:
    pdir = partition_dir(out_root, part_id)
    os.makedirs(pdir, exist_ok=True)
    tmp = os.path.join(pdir, ".MANIFEST.tmp")
    with open(tmp, "w") as f:
        json.dump({"part_id": part_id, **counters}, f, sort_keys=True)
    os.replace(tmp, _manifest_path(out_root, part_id))


def _score_file(src: str, dst: str) -> dict:
    """Score the parquet file at src BATCH_SIZE rows at a time, each
    slice's rows one row group of the parquet file at dst (not written
    when src has no rows) -> {rows, kept, drop_reasons} of the rows
    written. core.fused_batch and core.partial_metrics are looked up at
    call time, so a tracer that wraps them sees each slice."""
    writer = None
    rows = kept = 0
    reasons: Counter = Counter()
    try:
        with pq.ParquetFile(src) as f:
            for batch in f.iter_batches(BATCH_SIZE):
                out = core.fused_batch(pa.Table.from_batches([batch]))
                if writer is None:
                    writer = pq.ParquetWriter(dst, out.schema)
                writer.write_table(out)
                rows += out.num_rows
                for g in core.partial_metrics(out).to_pylist():
                    if g["keep"]:
                        kept += g["n_docs"]
                    else:
                        reasons[g["drop_reason"]] += g["n_docs"]
    finally:
        if writer is not None:
            writer.close()
    return {"rows": rows, "kept": kept, "drop_reasons": dict(reasons)}


def _score_files(items: pa.Table) -> pa.Table:
    """map_batches fn of the job: score and write each input file of
    items (part, file, src, dst) -> one summary row per file."""
    return pa.Table.from_pylist(
        [{"part": it["part"], "file": it["file"],
          **_score_file(it["src"], it["dst"])} for it in items.to_pylist()],
        schema=_SUMMARY)


def run_resumable(shards: list[list[str]], out_root: str) -> dict:
    """Run the flagship kernel over partitions 0..len(shards)-1 in one
    Ray Data execution, skipping finished ones. shards[p] lists
    partition p's input parquet files (pages: url, warc_ts, lang,
    html) in input order. Returns {done, skipped, new_rows}."""
    import ray.data as rd

    os.makedirs(out_root, exist_ok=True)
    # listed from the files, not through is_done: is_done is called once
    # per partition, right before its write_manifest (see _commit)
    pending = [p for p in range(len(shards))
               if not os.path.exists(_manifest_path(out_root, p))]
    items = []
    for p in pending:
        data_dir = os.path.abspath(
            os.path.join(partition_dir(out_root, p), "data"))
        if os.path.exists(data_dir):
            shutil.rmtree(data_dir)  # partial write from a dead run
        os.makedirs(data_dir)
        items += [{"part": p, "file": i, "src": os.path.abspath(f),
                   "dst": os.path.join(data_dir, f"{i:05d}.parquet")}
                  for i, f in enumerate(shards[p])]

    left = {p: len(shards[p]) for p in pending}
    got = {p: {"rows": 0, "kept": 0, "drop_reasons": Counter()}
           for p in pending}
    new_rows = 0

    def _commit(p: int) -> None:
        counters = got.pop(p)
        counters["drop_reasons"] = dict(counters["drop_reasons"])
        # back to back: a tracer times a partition from an is_done that
        # finds it unfinished to its write_manifest
        if not is_done(out_root, p):
            write_manifest(out_root, p, counters)

    for p in pending:
        if not left[p]:
            _commit(p)
    if items:
        ds = rd.from_items(items, override_num_blocks=len(items)) \
            .map_batches(_score_files, batch_format="pyarrow",
                         batch_size=None)
        for batch in ds.iter_batches(batch_format="pyarrow",
                                     batch_size=None):
            for s in batch.to_pylist():
                c = got[s["part"]]
                c["rows"] += s["rows"]
                c["kept"] += s["kept"]
                c["drop_reasons"].update(dict(s["drop_reasons"]))
                new_rows += s["rows"]
                left[s["part"]] -= 1
                if not left[s["part"]]:
                    _commit(s["part"])
    if got:
        raise RuntimeError(f"partitions {sorted(got)} of {out_root} "
                           "have input files that never reported")
    return {"done": len(pending), "skipped": len(shards) - len(pending),
            "new_rows": new_rows}
