"""Benchmark of the flagship quality-filter pipeline.

  python3 perfbench/run.py --workload snippets --seed 1 --seconds 20 --trace 0

Works from any cwd; inputs, outputs, traces and results stay under the
checkout's ``.perfbench/``, and so does Ray's temp dir when the checkout
path is short enough for Ray's socket paths. Workloads: ``snippets`` and
``longform_job`` (named in BENCHMARK.json) and ``webmix``, the production
mix, which is run by hand only (see perfbench/README.md). One run:

1. primes, untimed, in its own process (perfbench/prime.py): builds the
   C kernel if stale, extracts the model mmap caches, writes the input;
2. sets up ``SETUPS`` times, each in a fresh process, and reports the
   median ``setup_s``; the last of these processes also measures
   (perfbench/session.py);
3. scales the median pass rate to a fixed host speed (``REF_HOST_S``,
   below) to give ``pages_per_s``;
4. prints an info line (input size, versions, samples, output check)
   and, last, one JSON object: ``correct``, ``attempted``, ``failed``
   and ``metrics`` -- the end-to-end metrics with ``--trace 0``, the
   per-layer metrics with ``--trace 1``.

Refuses to report (exit 3) when the C kernel did not load, since the
numpy fallback would read as a regression. Exits 2 when the directory
above ``perfbench/`` holds no ``cld2_ray`` package.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("webmix", "snippets", "longform_job")
SETUPS = 2
RUN_BUDGET_S = 170.0
SETUP_LAYERS = ("setup.ray_init_s", "setup.model_load_s", "setup.warm_s")
# the host speed pages_per_s is given at: session.host_ref_s taking 10 ms,
# about its time on the 4-vCPU host this benchmark was written on. Why
# the rate is scaled: "Host speed" in perfbench/README.md.
REF_HOST_S = 0.010


def run_child(argv: list[str], env: dict, deadline: float) -> dict:
    """Run one child to completion (its own process group, killed whole
    when the run's time is up) and parse its last stdout line."""
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(),
                                              1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: {argv[1]} ran out of time")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: {argv[1]} exited {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + RUN_BUDGET_S
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "cld2_ray", "pipelines",
                                       "flagship.py")):
        print(f"perfbench: no cld2_ray checkout at {root}", file=sys.stderr)
        return 2
    # BENCHMARK.json names the metrics each mode reports, with units
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
    work = os.path.join(root, ".perfbench")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p))
    py = sys.executable

    prime = run_child([py, os.path.join(here, "prime.py"), "--root", root,
                       "--work", work, "--workload", args.workload,
                       "--seed", str(args.seed)], env, deadline)
    if not prime["native_available"]:
        print("perfbench: the C kernel (cld2_ray/native) failed to load; "
              "refusing to report numpy-fallback numbers", file=sys.stderr)
        return 3

    sessions = []
    for k in range(SETUPS):
        argv = [py, os.path.join(here, "session.py"), "--root", root,
                "--work", work,
                "--input", os.path.join(root, prime["input"]["dir"]),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if k < SETUPS - 1:
            argv.append("--probe")
        sessions.append(run_child(argv + ["--t0", repr(time.monotonic())],
                                  env, deadline))
    res = sessions[-1]
    if not res["native_available"]:
        print("perfbench: the C kernel failed to load in the session",
              file=sys.stderr)
        return 3

    setups = [s["setup"] for s in sessions]
    passes = res["passes"]
    rates = [p["pages"] / p["wall"] for p in passes
             if p["wall"] and not p["traced"]]
    attempted = sum(p["pages"] for p in passes)
    failed = sum(p["pages"] - min(p["rows"], p["pages"]) for p in passes)
    if args.trace:
        values = dict(res["layers"])
        for k in SETUP_LAYERS:
            values[k] = statistics.median(s[k] for s in setups)
    else:
        host_scale = statistics.mean(res["host_ref_s"]) / REF_HOST_S
        raw_rate = statistics.median(rates) if rates else 0.0
        values = {"pages_per_s": raw_rate * host_scale,
                  "setup_s": statistics.median(s["setup_s"] for s in setups),
                  "worker_peak_rss_mb": res["worker_peak_rss_mb"]}
    info = {
        "workload": args.workload, "seed": args.seed,
        "input_pages": res["pages"], "input_html_mb": prime["input"]["html_mb"],
        "num_cpus": res["num_cpus"],
        "native_available": True, "native_rebuilt": prime["native_rebuilt"],
        "versions": prime["versions"],
        # mmapcache keys its cache on the npz mtime, so priming a fresh
        # checkout rewrites these tracked files; not a code change
        "stamps_changed": prime["stamps_changed"],
        "raw_pages_per_s_samples": [round(r, 3) for r in rates],
        "host_ref_ms_samples": [round(1e3 * t, 3) for t in res["host_ref_s"]],
        "setup_s_samples": [round(s["setup_s"], 4) for s in setups],
        "failed_frac": failed / attempted,
        "output_check": {"sample_pages": res["sample_size"],
                         "problems": res["problems"]},
        "ray_workers": res["ray_workers"],
    }
    if args.trace:
        info["trace"] = res["trace_note"]
    else:
        info["raw_pages_per_s"] = raw_rate
        info["host_scale"] = host_scale
    os.makedirs(os.path.join(work, "results"), exist_ok=True)
    name = f"{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(work, "results", name), "w") as f:
        json.dump({"info": info, "values": values, "passes": passes,
                   "setups": setups}, f, indent=1)
    print("perfbench info " + json.dumps(info))
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in spec},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
