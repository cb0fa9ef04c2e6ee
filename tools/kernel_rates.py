"""Per-kernel rates of one ``fused_batch`` call, replayed in process.

    python -m tools.kernel_rates --workload longform_job --seed 5
    python -m tools.kernel_rates --workload snippets --seed 5 \\
        --against /path/to/other/checkout

Runs ``stages.core.fused_batch`` once on the first ``--pages`` pages of
a ``perfbench`` workload table (after one warm-up call) and records the
arguments of every ``cld2_ray.native`` binding it calls (a binding is a
function of that module that calls a C kernel). Each recorded call is
then replayed ``--rounds`` times and timed best-of; per kernel the
table gives the calls, the text bytes they read (a per-document
binding's documents, a span kernel's spans), the summed best times and
ns per byte.

``--layers`` prints the per-layer table instead: ``fused_batch`` runs
``--rounds`` times with each layer entry point that ``_fused`` calls
wrapped by name (``LAYERS``: the UTF-8 gate and extraction, the hint
scan, langid, the quality rules, scrub, fastlangid and perplexity),
and per layer the table gives the best time over the rounds; the rest
of the call (Arrow assembly, the text list, numpy glue) is
``assembly``, the best over the rounds of the call's time less its
layers'.

``--profile`` prints the cProfile list of one ``fused_batch`` call
instead (after the warm-up call), by internal time.

``--against DIR`` builds a second copy of the kernels from DIR (a
checkout, its ``cld2_ray/native/``, or any directory holding
``quadscan.c``) in a temporary directory, never in this tree, with
DIR's ``native/__init__.py`` when it has one and this tree's otherwise.
Both builds replay every call, alternating which goes first, and must
give equal outputs call for call; the table adds the other build's
times and the ratio this/other: per kernel the median over rounds of
the paired times, for the total the ratio of the best times. Outputs
are compared where both are defined: ``script_spans_scan_multi`` up to
the used prefix of its ``out_buf`` and ``lt_idx``, and a 2-D output
whose builds differ in width on their shared columns.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.util
import inspect
import pathlib
import shutil
import sys
import tempfile
import time

import numpy as np

# the pages of one Ray batch of each workload (perfbench's blocks)
PAGES = {"snippets": 2048, "longform_job": 120, "webmix": 2048}


def _copy(x):
    """x with its arrays copied, through plain lists and tuples (model
    tables, named tuples, are kept as they are)."""
    if isinstance(x, np.ndarray):
        return x.copy()
    if type(x) in (list, tuple):
        return type(x)(_copy(v) for v in x)
    return x


def record(batch, with_chunks: bool = False) -> list[tuple]:
    """[(binding name, args, kwargs)] of the native bindings that one
    ``fused_batch(batch, with_chunks)`` call makes, in call order."""
    from cld2_ray import native
    from cld2_ray.stages.core import fused_batch

    calls, state = [], {"active": False, "hit": False}
    saved = dict(vars(native))

    def kernel(fn):
        def wrapped(*a):
            state["hit"] = True
            return fn(*a)
        return wrapped

    def binding(name, fn):
        def wrapped(*a, **kw):
            if state["active"]:
                return fn(*a, **kw)
            state.update(active=True, hit=False)
            try:
                out = fn(*a, **kw)
            finally:
                state["active"] = False
            if state["hit"]:
                calls.append((name, _copy(a), _copy(kw)))
            return out
        return wrapped

    for name, v in saved.items():
        if isinstance(v, ctypes._CFuncPtr):
            setattr(native, name, kernel(v))
        elif (inspect.isfunction(v) and not name.startswith("_")
              and v.__module__ == native.__name__):
            setattr(native, name, binding(name, v))
    try:
        fused_batch(batch, with_chunks)
    finally:
        for name, v in saved.items():
            setattr(native, name, v)
    return calls


def text_bytes(fn, args, kw) -> int:
    """The text bytes a binding call reads: its documents
    (``offsets``; ``lower_docs`` reads those in ``order``, each cut to
    ``cap``) or its spans (``starts``/``bounds``); 0 otherwise."""
    a = inspect.signature(fn).bind(*args, **kw).arguments
    if "order" in a:
        off = np.asarray(a["offsets"], dtype=np.int64)
        sizes = np.diff(off)[np.asarray(a["order"], dtype=np.int64)]
        cap = a.get("cap", -1)
        return int((np.minimum(sizes, cap) if cap >= 0 else sizes).sum())
    if "offsets" in a:
        off = np.asarray(a["offsets"])
        return int(off[-1] - off[0])
    if "starts" in a:
        return int((np.asarray(a["bounds"]) - np.asarray(a["starts"])).sum())
    return 0


def load_build(src: pathlib.Path, tmp: pathlib.Path):
    """The native module built from src's quadscan.c (and its
    __init__.py, if src has one) inside tmp."""
    for d in (src / "cld2_ray" / "native", src):
        if (d / "quadscan.c").exists():
            src = d
            break
    else:
        raise SystemExit(f"no quadscan.c under {src}")
    from cld2_ray import native
    pkg = tmp / "native_against"
    pkg.mkdir()
    shutil.copy(src / "quadscan.c", pkg)
    init = src / "__init__.py"
    shutil.copy(init if init.exists() else native.__file__,
                pkg / "__init__.py")
    spec = importlib.util.spec_from_file_location(
        "native_against", pkg / "__init__.py",
        submodule_search_locations=[str(pkg)])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


def _arrays(name, out) -> list[np.ndarray]:
    """A binding's output as the list of arrays to compare."""
    if isinstance(out, dict):
        out = tuple(out.values())
    elif not isinstance(out, tuple):
        out = (out,)
    out = [np.asarray(x) for x in out]
    if name == "script_spans_scan_multi":
        meta, ns_doc, out_buf, lt_idx = out
        used = (int(meta[-1, 3] + meta[-1, 4]), int(meta[-1, 6])) \
            if len(meta) else (0, 0)
        out = [meta, ns_doc, out_buf[:used[0]], lt_idx[:used[1]]]
    return out


def assert_same(name, i, a, b) -> None:
    xs, ys = _arrays(name, a), _arrays(name, b)
    assert len(xs) == len(ys), (name, i, "output count")
    for k, (x, y) in enumerate(zip(xs, ys)):
        if x.ndim == y.ndim == 2 and len(x) == len(y):
            w = min(x.shape[1], y.shape[1])
            x, y = x[:, :w], y[:, :w]
        assert x.shape == y.shape and np.array_equal(x, y), \
            f"{name} call {i}: output {k} differs between the builds"


def replay(calls, builds, rounds: int) -> list[dict]:
    """Per binding name, in first-call order: calls, bytes, the sum over
    its calls of each build's best-of-``rounds`` seconds and, with two
    builds, the median over rounds of the first build's time over the
    second's (both summed over the calls; a paired ratio, which host
    drift between rounds moves less than the best times). The builds
    alternate which runs first, and their outputs must agree."""
    rows = {}
    for i, (name, args, kw) in enumerate(calls):
        fns = [getattr(b, name) for b in builds]
        row = rows.setdefault(name, {
            "kernel": name, "calls": 0, "bytes": 0, "s": [0.0] * len(fns),
            "per_round": np.zeros((len(fns), rounds))})
        row["calls"] += 1
        row["bytes"] += text_bytes(fns[0], args, kw)
        best = [float("inf")] * len(fns)
        outs = [None] * len(fns)
        for r in range(rounds):
            order = range(len(fns)) if r % 2 == 0 else \
                reversed(range(len(fns)))
            for j in order:
                t = time.perf_counter()
                outs[j] = fns[j](*args, **kw)
                dt = time.perf_counter() - t
                best[j] = min(best[j], dt)
                row["per_round"][j, r] += dt
        for out in outs[1:]:
            assert_same(name, i, outs[0], out)
        for j, s in enumerate(best):
            row["s"][j] += s
    for row in rows.values():
        t = row.pop("per_round")
        row["ratio"] = float(np.median(t[0] / t[-1]))
    return list(rows.values())


def report(rows, against: bool) -> str:
    """The per-kernel table, with a total row of the best times."""
    head = f"{'kernel':<26}{'calls':>6}{'bytes':>11}{'ms':>9}{'ns/B':>8}"
    if against:
        head += f"{'other ms':>10}{'ns/B':>8}{'ratio':>7}"
    lines = [head]
    s = [sum(r["s"][j] for r in rows) for j in range(len(rows[0]["s"]))]
    for r in rows + [{"kernel": "total", "bytes": 0, "s": s,
                      "calls": sum(r["calls"] for r in rows),
                      "ratio": s[0] / s[-1]}]:
        ms = [s * 1e3 for s in r["s"]]
        nsb = [f"{s * 1e9 / r['bytes']:8.2f}" if r["bytes"] else
               f"{'-':>8}" for s in r["s"]]
        line = (f"{r['kernel']:<26}{r['calls']:>6}{r['bytes']:>11}"
                f"{ms[0]:>9.2f}{nsb[0]}")
        if against:
            line += f"{ms[1]:>10.2f}{nsb[1]}{r['ratio']:>7.3f}"
        lines.append(line)
    return "\n".join(lines)


# the layer entry points _fused calls, by (module, attribute path)
LAYERS = [("extract", "cld2_ray.stages.core", "extract_batch"),
          ("hints", "cld2_ray.functions.hints", "scan_batch"),
          ("langid", "cld2_ray.functions.langid", "Detector.detect_batch"),
          ("rules", "cld2_ray.functions.quality", "rule_columns"),
          ("scrub", "cld2_ray.functions.scrub", "scrub_arrow"),
          ("fastlangid", "cld2_ray.functions.fastlangid", "classify_batch"),
          ("perplexity", "cld2_ray.functions.perplexity", "score_batch")]


def layer_times(batch, rounds: int, with_chunks: bool = False) -> dict:
    """{layer: best seconds over ``rounds`` fused_batch calls} for each
    of LAYERS, plus ``assembly`` (the best of the call's time less its
    layers') and ``fused_batch`` (the best call)."""
    import importlib
    from cld2_ray.stages.core import fused_batch

    spent = {}
    patched = []

    def timed(name, fn):
        def wrapped(*a, **kw):
            t = time.perf_counter()
            try:
                return fn(*a, **kw)
            finally:
                spent[name] = spent.get(name, 0.0) + time.perf_counter() - t
        return wrapped

    for name, mod, path in LAYERS:
        *outer, attr = path.split(".")
        owner = importlib.import_module(mod)
        for o in outer:
            owner = getattr(owner, o)
        fn = vars(owner)[attr]
        patched.append((owner, attr, fn))
        setattr(owner, attr, timed(name, fn))
    best = {}
    try:
        for _ in range(rounds):
            spent.clear()
            t = time.perf_counter()
            fused_batch(batch, with_chunks)
            spent["fused_batch"] = time.perf_counter() - t
            spent["assembly"] = spent["fused_batch"] - sum(
                spent.get(name, 0.0) for name, _, _ in LAYERS)
            for k, v in spent.items():
                best[k] = min(best.get(k, v), v)
    finally:
        for owner, attr, fn in patched:
            setattr(owner, attr, fn)
    return {k: best.get(k, 0.0) for k in
            [name for name, _, _ in LAYERS] + ["assembly", "fused_batch"]}


def report_layers(times: dict) -> str:
    """The per-layer table: best ms and share of the best call."""
    total = times["fused_batch"]
    lines = [f"{'layer':<14}{'ms':>9}{'share':>8}"]
    for name, s in times.items():
        lines.append(f"{name:<14}{s * 1e3:>9.2f}{s / total:>8.1%}")
    return "\n".join(lines)


def profile(batch, with_chunks: bool = False, top: int = 30) -> str:
    """The cProfile list of one ``fused_batch(batch, with_chunks)``
    call: its ``top`` functions by internal time."""
    import cProfile
    import io
    import pstats
    from cld2_ray.stages.core import fused_batch
    prof = cProfile.Profile()
    prof.runcall(fused_batch, batch, with_chunks)
    out = io.StringIO()
    pstats.Stats(prof, stream=out).sort_stats("tottime").print_stats(top)
    return out.getvalue()


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="longform_job",
                    choices=sorted(PAGES))
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--pages", type=int, default=None,
                    help="pages in the batch (default: one Ray batch of "
                         "the workload)")
    ap.add_argument("--rounds", type=int, default=7,
                    help="replays per call; the best time counts")
    ap.add_argument("--with-chunks", action="store_true")
    ap.add_argument("--against", type=pathlib.Path, default=None)
    ap.add_argument("--layers", action="store_true",
                    help="print the per-layer table instead")
    ap.add_argument("--profile", action="store_true",
                    help="print the cProfile list of one fused_batch "
                         "call instead")
    ap.add_argument("--top", type=int, default=30,
                    help="functions in the --profile list")
    a = ap.parse_args(argv)

    from cld2_ray import native
    from cld2_ray.stages.core import fused_batch
    from perfbench.workloads import make_table
    n = a.pages or PAGES[a.workload]
    batch = make_table(a.workload, a.seed, n)
    fused_batch(batch, a.with_chunks)          # warm: models, caches
    if a.profile:
        print(f"# {a.workload} seed {a.seed}: {n} pages, cProfile of one "
              "fused_batch call")
        print(profile(batch, a.with_chunks, a.top))
        return
    if a.layers:
        print(f"# {a.workload} seed {a.seed}: {n} pages, layers, best of "
              f"{a.rounds}")
        print(report_layers(layer_times(batch, a.rounds, a.with_chunks)))
        return
    calls = record(batch, a.with_chunks)
    with tempfile.TemporaryDirectory() as tmp:
        builds = [native]
        if a.against is not None:
            builds.append(load_build(a.against, pathlib.Path(tmp)))
        rows = replay(calls, builds, a.rounds)
    print(f"# {a.workload} seed {a.seed}: {n} pages, best of {a.rounds}"
          + (f", against {a.against}" if a.against else ""))
    print(report(rows, a.against is not None))


if __name__ == "__main__":
    main()
