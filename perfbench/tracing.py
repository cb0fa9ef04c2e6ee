"""Span tracing for the benchmark's traced run, from outside ``cld2_ray``.

``install`` is the Ray ``worker_process_setup_hook`` of a traced run: it
replaces the public functions of each layer, in the worker process, with
wrappers that record one span per call (name, start, end, parent span,
batch id, counters). ``DriverTrace`` does the same in the Ray driver for
the checkpoint layer, which runs there.

Tracing is on only while the run's ``ACTIVE`` file names a pass id; the
batch wrapper reads it once per batch, so a traced session can also time
untraced passes and report the tracing overhead. Spans stay in memory
for a batch and are appended to ``spans-<pid>.jsonl`` when the batch
ends, outside every span. A worker runs one task at a time, so the
wrappers keep no lock.

``summarize`` folds the span files of a run into the per-layer metrics.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import time

import numpy as np

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
ACTIVE = "ACTIVE"

# the layers called from the fused batch span
LAYERS = ("extract", "hints", "langid", "quality", "scrub", "fastlangid",
          "perplexity")


class Tracer:
    """Per-process span buffer. A span is the list
    ``[name, start, end, parent_index, batch_id, counters]``."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.batch_id = ""
        self.n_batches = 0

    def active_pass(self) -> str | None:
        try:
            with open(os.path.join(self.out_dir, ACTIVE)) as f:
                return f.read().strip() or None
        except FileNotFoundError:
            return None

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.batch_id, {}])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def top(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def flush(self) -> None:
        """Write this batch's spans out and clear the buffer."""
        if not self.spans:
            return
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as f:
            f.write(json.dumps(self.spans) + "\n")
        self.spans = []


def _root(tracer: Tracer, name: str, fn, counters=None):
    """A span that starts a batch: records only while a pass is active."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        pass_id = tracer.active_pass()
        if pass_id is None or tracer.stack:
            return fn(*args, **kwargs)
        tracer.n_batches += 1
        tracer.batch_id = f"{pass_id}:{os.getpid()}:{tracer.n_batches}"
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counters is not None:
            tracer.spans[idx][5].update(counters(args, out))
        tracer.flush()
        return out
    return wrapper


def _child(tracer: Tracer, name: str, parent: str, fn, counters=None):
    """A span recorded only when called directly under ``parent``, so a
    kernel shared by two layers is charged to the one that was asked."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.top() != parent:
            return fn(*args, **kwargs)
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counters is not None:
            tracer.spans[idx][5].update(counters(args, out))
        return out
    return wrapper


def _count_docs(tracer: Tracer, fn):
    """Detector._fill_totes: the first call inside detect_batch scores
    every document, any later one re-scores the Repeats-retry docs."""
    @functools.wraps(fn)
    def wrapper(self, doc_spans, *args, **kwargs):
        if tracer.top() == "langid":
            tracer.spans[tracer.stack[-1]][5].setdefault(
                "scored", []).append(len(doc_spans))
        return fn(self, doc_spans, *args, **kwargs)
    return wrapper


def _task_id() -> str:
    import ray
    return ray.get_runtime_context().get_task_id() or ""


def install() -> None:
    """Ray worker_process_setup_hook of the traced run."""
    from cld2_ray import native
    from cld2_ray.functions import (fastlangid, hints, langid, perplexity,
                                    quality, score, scrub, spans)
    from cld2_ray.stages import core

    t = Tracer(os.environ[TRACE_DIR_ENV])
    core.fused_batch = _root(
        t, "stages", core.fused_batch,
        lambda a, out: {"rows": a[0].num_rows, "task": _task_id()})
    core.partial_metrics = _root(
        t, "metrics.partial", core.partial_metrics,
        lambda a, out: {"rows": len(out)})
    core.valid_utf8_prefix = _child(
        t, "extract", "stages", core.valid_utf8_prefix,
        lambda a, out: {"html": len(a[0])})
    core.extract_text = _child(t, "extract", "stages", core.extract_text,
                               lambda a, out: {"calls": 1})
    hints.page_hints = _child(t, "hints", "stages", hints.page_hints)
    langid.Detector.detect_batch = _child(
        t, "langid", "stages", langid.Detector.detect_batch,
        lambda a, out: {"docs": len(a[1]),
                        "text": sum(len(x.encode("utf-8", "surrogatepass"))
                                    for x in a[1] if x)})
    langid.Detector._fill_totes = _count_docs(t, langid.Detector._fill_totes)
    spans.script_spans_batch = _child(t, "langid.spans", "langid",
                                      spans.script_spans_batch)
    # with the C kernel loaded, hit extraction and chunk scoring are one
    # fused call per script class; the numpy path splits them
    for name in ("quad_octa_chunk_score", "cjk_chunk_score"):
        setattr(native, name, _child(t, "langid.hits", "langid",
                                     getattr(native, name)))
    langid.Detector._finalize = _child(t, "langid.score", "langid",
                                       langid.Detector._finalize)
    score.score_chunks_multi = _child(t, "langid.score", "langid",
                                      score.score_chunks_multi)
    quality.apply_rules = _child(t, "quality", "stages", quality.apply_rules)
    scrub.scrub_series = _child(
        t, "scrub", "stages", scrub.scrub_series,
        lambda a, out: {"pii": int(out["n_pii"].sum())})
    fastlangid.classify_batch = _child(t, "fastlangid", "stages",
                                       fastlangid.classify_batch)
    perplexity.score_batch = _child(t, "perplexity", "stages",
                                    perplexity.score_batch)


class DriverTrace:
    """Checkpoint-layer spans in the Ray driver: a partition runs from the
    ``is_done`` probe that finds it unfinished to the return of its
    ``write_manifest``. Restores the module on ``close``."""

    def __init__(self, tracer: Tracer):
        from cld2_ray.state import checkpoint as cp
        self.cp = cp
        self.orig = (cp.is_done, cp.write_manifest)
        t = tracer
        is_done, write_manifest = self.orig

        def traced_is_done(out_root, part_id):
            done = is_done(out_root, part_id)
            if not done and t.active_pass() is not None:
                t.batch_id = f"{t.active_pass()}:{os.getpid()}:p{part_id}"
                t.open("checkpoint.partition")
            return done

        def traced_write_manifest(out_root, part_id, counters):
            if t.top() != "checkpoint.partition":
                return write_manifest(out_root, part_id, counters)
            part = t.stack[-1]
            idx = t.open("checkpoint.manifest")
            try:
                write_manifest(out_root, part_id, counters)
            finally:
                t.close(idx)
                t.close(part)
                t.flush()

        cp.is_done = traced_is_done
        cp.write_manifest = traced_write_manifest

    def close(self) -> None:
        self.cp.is_done, self.cp.write_manifest = self.orig


def add(acc: dict, key: str, v: float) -> None:
    acc[key] = acc.get(key, 0.0) + v


def _tail_percentile(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it; with ten
    samples or fewer there is none, and the maximum (p100) stands in."""
    if not values:
        return 0.0, 0.0
    q = 1.0 - 10.0 / len(values) if len(values) > 10 else 1.0
    return q * 100, float(np.quantile(values, q))


def summarize(trace_dir: str, walls: dict[str, float],
              out_bytes: dict[str, int]) -> tuple[dict, dict]:
    """Per-layer metrics (per pass, averaged over the traced passes) and
    a note: sample counts, the tail percentile taken, each layer's share
    of the pass wall time.

    walls: pass id -> wall seconds of that traced pass;
    out_bytes: pass id -> bytes the sink wrote in that pass."""
    per_pass = {p: {} for p in walls}
    batch_ms: list[float] = []
    tasks = {p: set() for p in walls}
    for path in glob.glob(os.path.join(trace_dir, "spans-*.jsonl")):
        with open(path) as f:
            for line in f:
                batch = json.loads(line)
                pass_id = batch[0][4].split(":", 1)[0]
                if pass_id not in per_pass:
                    continue
                acc = per_pass[pass_id]
                for name, t0, t1, parent, _bid, c in batch:
                    d = t1 - t0
                    add(acc, name + ".busy_s", d)
                    add(acc, name + ".n", 1)
                    for k, v in c.items():
                        if k == "task":
                            tasks[pass_id].add(v)
                        elif k == "scored":
                            add(acc, "langid.retry_docs", sum(v[1:]))
                        else:
                            add(acc, f"{name}.{k}", v)
                    if parent >= 0:
                        add(acc, batch[parent][0] + ".child_s", d)
                    if name == "stages":
                        batch_ms.append(d * 1e3)
    n = max(len(per_pass), 1)

    def mean(key: str) -> float:
        return sum(acc.get(key, 0.0) for acc in per_pass.values()) / n

    wall = sum(walls.values()) / n
    stages_busy = mean("stages.busy_s")
    q, tail = _tail_percentile(batch_ms)
    m = {
        "extract.calls": mean("extract.calls"),
        "extract.html_mb": mean("extract.html") / 1e6,
        "extract.busy_s": mean("extract.busy_s"),
        "hints.calls": mean("hints.n"),
        "hints.busy_s": mean("hints.busy_s"),
        "langid.docs": mean("langid.docs"),
        "langid.text_mb": mean("langid.text") / 1e6,
        "langid.busy_s": mean("langid.busy_s"),
        "langid.self_s": mean("langid.busy_s") - mean("langid.child_s"),
        "langid.spans.busy_s": mean("langid.spans.busy_s"),
        "langid.hits.busy_s": mean("langid.hits.busy_s"),
        "langid.score.busy_s": mean("langid.score.busy_s"),
        "langid.retry_docs": mean("langid.retry_docs"),
        "langid.retry_frac": (mean("langid.retry_docs")
                              / max(mean("langid.docs"), 1.0)),
        "quality.busy_s": mean("quality.busy_s"),
        "scrub.busy_s": mean("scrub.busy_s"),
        "scrub.pii_hits": mean("scrub.pii"),
        "fastlangid.busy_s": mean("fastlangid.busy_s"),
        "perplexity.busy_s": mean("perplexity.busy_s"),
        "stages.batches": mean("stages.n"),
        "stages.batch_ms_p50": (float(np.median(batch_ms))
                                if batch_ms else 0.0),
        "stages.batch_ms_tail": tail,
        "stages.busy_s": stages_busy,
        "stages.self_s": stages_busy - mean("stages.child_s"),
        "ray_data.blocks": sum(len(s) for s in tasks.values()) / n,
        "ray_data.overhead_s": wall - stages_busy,
        "ray_data.overhead_frac": (wall - stages_busy) / wall if wall else 0.0,
        "metrics.partial_rows": mean("metrics.partial.rows"),
        "checkpoint.partitions": mean("checkpoint.partition.n"),
        "checkpoint.partition_s": (mean("checkpoint.partition.busy_s")
                                   / max(mean("checkpoint.partition.n"), 1)),
        "checkpoint.manifest_s": mean("checkpoint.manifest.busy_s"),
        "sink.out_mb": sum(out_bytes.values()) / n / 1e6,
    }
    # share of the pass wall time spent in each layer
    split = {k: m[k + ".busy_s"] / wall if wall else 0.0
             for k in (*LAYERS, "stages")}
    split["stages.self"] = m["stages.self_s"] / wall if wall else 0.0
    note = {"traced_passes": len(per_pass), "batch_samples": len(batch_ms),
            "batch_ms_tail_percentile": round(q, 1), "wall_s": wall,
            "wall_share": {k: round(v, 4) for k, v in split.items()},
            # on one CPU the layers cannot be busy longer than the pass
            "layer_busy_le_wall": (sum(m[k + ".busy_s"] for k in LAYERS)
                                   <= wall)}
    return m, note
