"""Job driver CLI — the engine's compact_lang_det_test / `ray job
submit` entry point (SURVEY.md §3.2).

  # local
  python -m cld2_ray.run --input /path/pages_parquet --output /tmp/out \
      --partitions 16

  # cluster (same script; Ray connects to the cluster it runs on)
  ray job submit --working-dir . -- python -m cld2_ray.run \
      --input /shared/pages --output /shared/filtered

--input and --output are local (or shared-filesystem) paths. Processes
the input as N resumable partitions in ONE Ray Data execution
(state/checkpoint.py): the input's parquet files, sorted by name, are
dealt round-robin into N partitions (file i goes to partition i mod N;
empty ones are dropped), each file is read, scored and written by one
Ray task into part=P/data/FFFFF.parquet, and a partition's
MANIFEST.json (rows, kept, drop_reasons) is written as soon as all its
files are written. Re-running after a failure skips finished
partitions. With --synthetic N it runs on N deterministic synthetic
pages instead of an input path: partition p holds pages
[p*ceil(N/P), (p+1)*ceil(N/P)), generated once into OUTPUT/synthetic/
(a partition past the last page is empty and gets rows 0).
--partitions must be at least 1. --debug-html renders pages of
partition 0's input.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--input", help="parquet directory of pages")
    ap.add_argument("--synthetic", type=int, default=0,
                    help="run on N synthetic pages instead of --input")
    ap.add_argument("--output", required=True)
    ap.add_argument("--partitions", type=int, default=16)
    ap.add_argument("--num-cpus", type=int, default=None,
                    help="local mode CPU count (omit on a cluster)")
    ap.add_argument("--debug-html", type=int, default=0, metavar="N",
                    help="also write N per-document HTML debug pages "
                         "(the reference's stderr debug stream, S4) "
                         "under OUTPUT/debug/")
    args = ap.parse_args(argv)
    if args.partitions < 1:
        ap.error("--partitions must be at least 1")
    if args.synthetic < 0:
        ap.error("--synthetic must not be negative")

    import ray
    # only tear down a session this CLI itself started — embedded
    # callers (tests, a larger driver) keep theirs (found by an
    # order-dependent test failure: main() killed the shared session
    # and the next Dataset join died mid-shuffle)
    owns_ray = not ray.is_initialized()
    if owns_ray:
        kw = {"include_dashboard": False, "logging_level": "ERROR"}
        if args.num_cpus:
            kw.update(address="local", num_cpus=args.num_cpus)
        ray.init(**kw)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import glob
    import os

    from cld2_ray.state import checkpoint as cp

    if args.synthetic:
        # ceil division: floor would silently drop the trailing
        # (synthetic mod partitions) documents
        per = max(-(-args.synthetic // args.partitions), 1)
        shards = [_synthetic_shard(os.path.join(args.output, "synthetic"),
                                   pid * per, min(per, args.synthetic
                                                  - pid * per))
                  for pid in range(args.partitions)]
    else:
        files = sorted(glob.glob(os.path.join(args.input, "*.parquet")))
        if not files:
            print(f"no parquet files under {args.input}", file=sys.stderr)
            return 2
        shards = [files[i::args.partitions] for i in range(args.partitions)]
        shards = [s for s in shards if s]

    summary = cp.run_resumable(shards, args.output)
    if args.debug_html:
        import ray.data as rd

        from cld2_ray.pipelines.debughtml import write_debug_sample
        summary["debug_html_pages"] = write_debug_sample(
            rd.read_parquet(shards[0]), os.path.join(args.output, "debug"),
            n=args.debug_html) if shards[0] else 0
    print(json.dumps({"output": args.output, **summary}))
    if owns_ray:
        ray.shutdown()
    return 0


def _synthetic_shard(dir_: str, start: int, count: int) -> list[str]:
    """Pages [start, start + count) as one parquet file under dir_,
    written once (atomically) -> that file, or [] when count <= 0."""
    import os

    import pyarrow.parquet as pq

    from cld2_ray.sources.pages import page_batch
    if count <= 0:
        return []
    path = os.path.join(dir_, f"pages-{start}-{count}.parquet")
    if not os.path.exists(path):
        os.makedirs(dir_, exist_ok=True)
        pq.write_table(page_batch(start, count), path + ".tmp")
        os.replace(path + ".tmp", path)
    return [path]


if __name__ == "__main__":
    raise SystemExit(main())
