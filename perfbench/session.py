"""One benchmark session: set up, run timed passes, check the output.

Started by ``perfbench/run.py`` in a fresh process, which passes the
``time.monotonic()`` reading taken just before it spawned the process,
so ``setup_s`` counts interpreter start and imports. Set-up is
``ray.init`` (one local session, ``num_cpus`` = ``nproc``), the model load (``Detector()``, ``fastlangid.weights()``,
``perplexity.models()``) and one warm-up batch through
``pipelines.flagship.build_fused``. With ``--probe`` the session stops
there. Otherwise it then repeats passes over the whole input until
``--seconds`` have passed (at least ``MIN_PASSES``):

- metrics workloads: ``flagship.metrics(flagship.build_fused(ds))``
  where ``ds = ray.data.read_parquet(input files)``;
- ``longform_job``: ``cld2_ray.run.main`` over the input directory, so
  ``state.checkpoint.run_resumable`` writes parquet and MANIFESTs.

With ``--trace 1`` every second pass is traced (see tracing.py) and the
others give the untraced speed the tracing overhead is taken against.

Before every pass and after the last it times ``host_ref_s``, a fixed
pure-Python loop that runs no ``cld2_ray`` code, so run.py can scale
``pages_per_s`` to a fixed host speed.

After the passes it checks a seed-derived sample of pages against the
single-process oracle and prints one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import logging
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

MIN_PASSES = 3
# host speed reference: iterations of a fixed loop, best of REF_REPS on
# each CPU; ~10 ms per timing
REF_LOOP = 100_000
REF_REPS = 3
SAMPLE = {"webmix": 32, "snippets": 32, "longform_job": 8}
WARM_ROWS = 64
OBJECT_STORE_BYTES = 512 * 2**20
# AF_UNIX socket paths are capped at 107 bytes and Ray puts its sockets
# ~65 bytes below its temp dir, so a longer checkout path cannot hold it
MAX_RAY_TMP = 40
KEYS = ["lang_summary", "keep", "drop_reason"]


def _proc_children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(d))
    return kids


def descendants(pid: int) -> list[int]:
    kids = _proc_children()
    out, todo = [], [pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _status_field(pid: int, field: str) -> str | None:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(field + ":"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return None


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def worker_peak_rss_mb() -> tuple[float, int]:
    """Sum of VmHWM over this session's Ray worker processes (their
    titles start with ``ray::``) plus this Ray driver; and the worker count."""
    pids = [p for p in descendants(os.getpid())
            if _cmdline(p).startswith("ray::")]
    total_kb = 0
    for p in [os.getpid(), *pids]:
        v = _status_field(p, "VmHWM")
        if v:
            total_kb += int(v.split()[0])
    return total_kb / 1024, len(pids)


def _alive(pid: int) -> bool:
    state = _status_field(pid, "State")
    return state is not None and not state.startswith("Z")


def stop_ray(timeout: float = 20.0) -> None:
    """ray.shutdown, then wait until every process the session started
    has ended (workers outlive the raylet briefly), killing stragglers."""
    import ray
    pids = descendants(os.getpid())
    ray.shutdown()
    deadline = time.monotonic() + timeout
    while any(_alive(p) for p in pids):
        if time.monotonic() > deadline:
            for p in pids:
                if _alive(p):
                    with contextlib.suppress(OSError):
                        os.kill(p, signal.SIGKILL)
            deadline = time.monotonic() + timeout
        time.sleep(0.05)


def host_ref_s() -> float:
    """Seconds a fixed pure-Python loop takes on this host right now: best
    of ``REF_REPS`` on each CPU this thread may run on, averaged over the
    CPUs, since the Ray worker moves between them.

    The vCPUs of a shared host change speed by up to ~40% within minutes
    as its other tenants come and go; from run to run, the pipeline's
    speed moves with this loop's."""
    cpus = os.sched_getaffinity(0)
    best = []
    try:
        for c in sorted(cpus):
            os.sched_setaffinity(0, {c})
            times = []
            for _ in range(REF_REPS):
                t = time.perf_counter()
                x = 0
                for i in range(REF_LOOP):
                    x += i * i
                times.append(time.perf_counter() - t)
            best.append(min(times))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(best)


def nproc() -> int:
    """CPUs for the Ray session, as coreutils ``nproc`` counts them (it
    honours OMP_NUM_THREADS as well as the affinity mask)."""
    return int(subprocess.run(["nproc"], capture_output=True, text=True,
                              check=True).stdout)


def setup(args, files: list[str]) -> tuple[dict, object]:
    import ray

    from perfbench import tracing
    t = time.monotonic()
    env = {"PYTHONPATH": args.root}
    runtime_env = {"env_vars": env}
    if args.trace:
        env[tracing.TRACE_DIR_ENV] = args.trace_dir
        runtime_env["worker_process_setup_hook"] = \
            "perfbench.tracing.install"
    ray_tmp = os.path.join(args.work, "ray")
    ray.init(address="local", num_cpus=nproc(),
             include_dashboard=False, logging_level="ERROR",
             object_store_memory=OBJECT_STORE_BYTES,
             _temp_dir=ray_tmp if len(ray_tmp) <= MAX_RAY_TMP else None,
             runtime_env=runtime_env)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    ray_init_s = time.monotonic() - t

    t = time.monotonic()
    from cld2_ray.functions import fastlangid, perplexity
    from cld2_ray.functions.langid import Detector
    det = Detector()
    fastlangid.weights()
    perplexity.models()
    model_load_s = time.monotonic() - t

    t = time.monotonic()
    import ray.data as rd

    from cld2_ray.pipelines import flagship
    flagship.metrics(flagship.build_fused(
        rd.read_parquet(files[0]).limit(WARM_ROWS)))
    warm_s = time.monotonic() - t
    return {"setup_s": time.monotonic() - args.t0,
            "setup.ray_init_s": ray_init_s,
            "setup.model_load_s": model_load_s,
            "setup.warm_s": warm_s}, det


def _sorted_metrics(m):
    return m.sort_values(KEYS).reset_index(drop=True)


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, fs in os.walk(path) for f in fs)


def manifest_rows(out: str) -> int:
    rows = 0
    for path in glob.glob(os.path.join(out, "part=*", "MANIFEST.json")):
        with open(path) as f:
            rows += json.load(f)["rows"]
    return rows


def run_pass(args, files: list[str], out: str) -> tuple[float, dict]:
    """One timed pass over the whole input -> (wall s, output summary)."""
    import ray.data as rd

    from cld2_ray.pipelines import flagship
    if args.workload == "longform_job":
        from cld2_ray import run as job
        from perfbench.workloads import JOB_PARTITIONS
        shutil.rmtree(out, ignore_errors=True)
        argv = ["--input", os.path.dirname(files[0]), "--output", out,
                "--partitions", str(JOB_PARTITIONS)]
        # the job CLI prints its own summary line; keep stdout for ours
        with contextlib.redirect_stdout(sys.stderr):
            t = time.perf_counter()
            rc = job.main(argv)
            wall = time.perf_counter() - t
        if rc != 0:
            raise RuntimeError(f"cld2_ray.run.main exited {rc}")
        return wall, {"rows": manifest_rows(out),
                      "out_bytes": _dir_bytes(out)}
    t = time.perf_counter()
    m = flagship.metrics(flagship.build_fused(rd.read_parquet(files)))
    wall = time.perf_counter() - t
    return wall, {"rows": int(m.n_docs.sum()), "metrics": m}


def sample_check(args, files: list[str], det, out: str) -> list[str]:
    """Compare a seed-derived sample of pages with the oracle."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    from perfbench.oracle import CHECKED, mismatches, oracle_rows
    table = pa.concat_tables(pq.read_table(f) for f in files)
    rng = np.random.default_rng([args.seed, 0x5A3])
    idx = np.sort(rng.choice(table.num_rows,
                             size=min(SAMPLE[args.workload],
                                      table.num_rows), replace=False))
    sample = table.take(pa.array(idx))
    if args.workload == "longform_job":
        data = pads.dataset(glob.glob(
            os.path.join(out, "part=*", "data", "*.parquet")))
        urls = sample["url"].combine_chunks()
        got = data.to_table(columns=["url", *CHECKED],
                            filter=pc.field("url").isin(urls)).to_pandas()
    else:
        import ray.data as rd

        from cld2_ray.pipelines import flagship
        got = flagship.build_fused(rd.from_arrow(sample)).to_pandas()
    return mismatches(got, oracle_rows(sample.to_pylist(), det))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--input", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, args.root)
    args.trace_dir = os.path.join(args.work, "trace")
    files = sorted(glob.glob(os.path.join(args.input, "*.parquet")))
    if args.trace:
        shutil.rmtree(args.trace_dir, ignore_errors=True)
        os.makedirs(args.trace_dir)

    su, det = setup(args, files)
    from cld2_ray import native
    if args.probe or not native.AVAILABLE:
        stop_ray()
        print(json.dumps({"setup": su,
                          "native_available": bool(native.AVAILABLE)}))
        return 0

    import pyarrow.parquet as pq

    from perfbench import tracing
    n = sum(pq.read_metadata(f).num_rows for f in files)
    out_root = os.path.join(args.work, "out")
    driver_trace = (tracing.DriverTrace(tracing.Tracer(args.trace_dir))
                    if args.trace else None)
    passes: list[dict] = []
    problems: list[str] = []
    first_metrics = None
    last_out = None
    deadline = time.monotonic() + args.seconds
    need = MIN_PASSES + 1 if args.trace else MIN_PASSES
    while len(passes) < need or time.monotonic() < deadline:
        k = len(passes)
        traced = bool(args.trace) and k % 2 == 1
        pid = f"pass{k}"
        out = os.path.join(out_root, pid)
        if traced:
            with open(os.path.join(args.trace_dir, tracing.ACTIVE), "w") as f:
                f.write(pid)
        rec = {"id": pid, "traced": traced, "pages": n,
               "host_ref_s": host_ref_s()}
        try:
            wall, res = run_pass(args, files, out)
        except Exception:  # a failed pass counts its pages as failed
            traceback.print_exc()
            rec.update(wall=None, rows=0)
            problems.append(f"{pid}: raised")
        else:
            rec.update(wall=wall, rows=res["rows"],
                       out_bytes=res.get("out_bytes", 0))
            if res["rows"] != n:
                problems.append(f"{pid}: {res['rows']} rows out of {n}")
            if "metrics" in res:
                m = _sorted_metrics(res["metrics"])
                if first_metrics is None:
                    first_metrics = m
                elif not m.equals(first_metrics):
                    problems.append(f"{pid}: metrics differ from pass0")
            if last_out and last_out != out:
                shutil.rmtree(last_out, ignore_errors=True)
            last_out = out
        finally:
            if traced:
                os.remove(os.path.join(args.trace_dir, tracing.ACTIVE))
        passes.append(rec)
    host_ref_end = host_ref_s()
    if driver_trace:
        driver_trace.close()

    rss_mb, n_workers = worker_peak_rss_mb()
    try:
        bad = sample_check(args, files, det, last_out)
    except Exception:
        traceback.print_exc()
        bad = ["sample check raised"]
    problems += bad

    result = {"setup": su, "passes": passes, "pages": n, "num_cpus": nproc(),
              "host_ref_s": [p["host_ref_s"] for p in passes] + [host_ref_end],
              "worker_peak_rss_mb": rss_mb, "ray_workers": n_workers,
              "sample_size": min(SAMPLE[args.workload], n),
              "problems": problems, "native_available": True}
    if args.trace:
        walls = {p["id"]: p["wall"] for p in passes
                 if p["traced"] and p["wall"]}
        out_bytes = {p["id"]: p["out_bytes"] for p in passes
                     if p["traced"] and p["wall"]}
        layers, note = tracing.summarize(args.trace_dir, walls, out_bytes)
        plain = [n / p["wall"] for p in passes
                 if not p["traced"] and p["wall"]] or [float("nan")]
        traced_pps = [n / w for w in walls.values()] or [float("nan")]
        note["untraced_pages_per_s"] = statistics.median(plain)
        note["traced_pages_per_s"] = statistics.median(traced_pps)
        layers["trace.overhead_frac"] = (
            1 - note["traced_pages_per_s"] / note["untraced_pages_per_s"])
        result["layers"], result["trace_note"] = layers, note
    stop_ray()
    print(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
