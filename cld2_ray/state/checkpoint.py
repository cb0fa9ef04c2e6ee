"""Checkpoint / resume for partitioned runs of the flagship kernel
(north rule).

Layout under ``out_root``:

  part=00000/           one directory per input partition
    data/FFFFF-BBBBB.parquet
                        the partition's annotated rows, exactly the
                        columns flagship.OUT_COLUMNS: block BBBBB (as
                        Ray read it) of the partition's input file
                        FFFFF (its index in the partition's file list).
                        Names sort in input order, so reading the files
                        in name order gives the rows in input order.
    MANIFEST.json       {part_id, rows, kept, drop_reasons}, written
                        LAST (atomic rename): the rows written, how
                        many of them have keep set, and how many of
                        the others carry each drop_reason

One execution per job: ``run_resumable`` reads the input files of every
partition that is not done in ONE Ray Data execution,
``read_parquet(files, include_paths=True, override_num_blocks=len(files))``
and one ``map_batches(batch_size=None)`` of ``_score_and_write``, which
Ray fuses with the read into one ``ReadParquet->MapBatches`` operator:
one task per file reads it, runs stages/core.fused_batch on it
BATCH_SIZE rows at a time, writes each slice's rows as one row group of
the block's data file, and returns one summary row per block
(partition, file, rows, kept, drop_reasons) counted from the rows it
wrote. Page data never passes
through the object store, and the partitions' tasks run side by side on
every CPU the scheduler offers. The driver adds up the summary rows as
they arrive and writes a partition's MANIFEST as soon as its rows equal
the row counts in its input files' parquet footers; nothing is read
back. A partition without input rows gets {rows: 0, kept: 0} and an
empty data/.

A partition is DONE iff its MANIFEST.json exists. The data/ of every
partition that is not done is cleared before the execution starts, so a
killed run redoes at most the partitions that were in flight. File
names come from the input, never from a uuid or the clock, so a
retried task overwrites its own files and reruns are byte-stable.
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
import pyarrow.compute as pc
import pyarrow.parquet as pq

from cld2_ray.pipelines.flagship import BATCH_SIZE, OUT_COLUMNS
from cld2_ray.stages import core

# _score_and_write's output: one row per block of an input file
_SUMMARY = pa.schema([("part", pa.int64()), ("file", pa.string()),
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


def _write_block(pages: pa.Table, path: str) -> dict:
    """Score pages BATCH_SIZE rows at a time, each slice's rows one row
    group of the parquet file at path -> {rows, kept, drop_reasons} of
    the rows written. core.fused_batch is looked up at call time, so a
    tracer that wraps it sees each slice."""
    writer = None
    kept = 0
    reasons: Counter = Counter()
    try:
        for a in range(0, pages.num_rows, BATCH_SIZE):
            out = core.fused_batch(pages.slice(a, BATCH_SIZE)) \
                .select(OUT_COLUMNS)
            if writer is None:
                writer = pq.ParquetWriter(path, out.schema)
            writer.write_table(out)
            # counted from the columns, not with partial_metrics, whose
            # n_docs counts only rows with a url
            keep = out["keep"]
            kept += pc.sum(keep).as_py() or 0
            for vc in pc.value_counts(pc.filter(out["drop_reason"],
                                                pc.invert(keep))).to_pylist():
                reasons[vc["values"]] += vc["counts"]
    finally:
        if writer is not None:
            writer.close()
    return {"rows": pages.num_rows, "kept": kept,
            "drop_reasons": dict(reasons)}


def _score_and_write(block: pa.Table, inputs: dict) -> pa.Table:
    """map_batches fn of the job: score and write one block of input rows
    (Ray's ``path`` column names each row's file) -> one summary row per
    file in the block. inputs: path -> (part_id, file index, data dir)."""
    from ray.data._internal.execution.interfaces import TaskContext

    # a task reads its file's blocks in order; count them per task
    # attempt, so a retried task rewrites the same file names
    blocks = TaskContext.get_current().kwargs.setdefault(
        "cld2_file_blocks", Counter())
    runs = pc.run_end_encode(block["path"].combine_chunks())
    pages = block.drop_columns(["path"])
    rows, start = [], 0
    for path, end in zip(runs.values.to_pylist(),
                         runs.run_ends.to_pylist()):
        part, index, data_dir = inputs[path]
        name = f"{index:05d}-{blocks[path]:05d}.parquet"
        blocks[path] += 1
        counters = _write_block(pages.slice(start, end - start),
                                os.path.join(data_dir, name))
        rows.append({"part": part, "file": name, **counters})
        start = end
    return pa.Table.from_pylist(rows, schema=_SUMMARY)


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
    expected = dict.fromkeys(pending, 0)
    inputs: dict[str, tuple[int, int, str]] = {}
    for p in pending:
        data_dir = os.path.join(partition_dir(out_root, p), "data")
        if os.path.exists(data_dir):
            shutil.rmtree(data_dir)  # partial write from a dead run
        os.makedirs(data_dir)
        for i, f in enumerate(shards[p]):
            n = pq.read_metadata(f).num_rows
            expected[p] += n
            f = os.path.abspath(f)
            if f in inputs:
                raise ValueError(f"{f} is listed twice")
            if n:
                inputs[f] = (p, i, data_dir)

    got = {p: {"rows": 0, "kept": 0, "drop_reasons": Counter()}
           for p in pending}

    def _commit(p: int) -> None:
        counters = got.pop(p)
        counters["drop_reasons"] = dict(counters["drop_reasons"])
        # back to back: a tracer times a partition from an is_done that
        # finds it unfinished to its write_manifest
        if not is_done(out_root, p):
            write_manifest(out_root, p, counters)

    for p in pending:
        if expected[p] == 0:
            _commit(p)
    if inputs:
        ds = rd.read_parquet(list(inputs), include_paths=True,
                             override_num_blocks=len(inputs)) \
            .map_batches(_score_and_write, batch_format="pyarrow",
                         batch_size=None, fn_kwargs={"inputs": inputs})
        for batch in ds.iter_batches(batch_format="pyarrow",
                                     batch_size=None):
            for s in batch.to_pylist():
                c = got[s["part"]]
                c["rows"] += s["rows"]
                c["kept"] += s["kept"]
                c["drop_reasons"].update(dict(s["drop_reasons"]))
                if c["rows"] == expected[s["part"]]:
                    _commit(s["part"])
    if got:
        raise RuntimeError(f"partitions {sorted(got)} of {out_root} "
                           "wrote fewer rows than their input")
    return {"done": len(pending), "skipped": len(shards) - len(pending),
            "new_rows": sum(expected.values())}
