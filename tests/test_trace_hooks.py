"""The benchmark's traced run patches langid by name and call shape
(perfbench/tracing.py ``install``): ``Detector.detect_batch`` with its
texts as ``args[1]``, ``Detector._fill_totes`` whose first argument's
``len()`` counts the documents it scores, ``Detector._finalize``,
``spans.script_spans_batch``, ``native.quad_octa_chunk_score`` /
``cjk_chunk_score`` and ``score.score_chunks_multi``. This runs the
tracer over one ``fused_batch`` call without and one with the chunks
column in a fresh process, so a renamed or reshaped patch point fails
here instead of in a traced benchmark."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

_CHILD = r"""
import glob, json, os, sys
import pyarrow as pa
from perfbench import tracing
from perfbench.workloads import make_table

tracing._task_id = lambda: "task"   # the Ray-only part of the counters
tracing.install()
from cld2_ray.stages import core

with open(sys.argv[1], encoding="utf-8") as f:
    retry_text = json.load(f)[0]["text"]
t = make_table("snippets", 3, 6)
page = ("<html><body><p>" + retry_text + "</p></body></html>").encode()
row = t.slice(0, 1).to_pylist()[0] | {"url": "https://retry.example.com/",
                                     "html": page}
t = pa.concat_tables([t, pa.Table.from_pylist([row], schema=t.schema)])
rows = [core.fused_batch(t).num_rows,
        core.fused_batch(t, with_chunks=True).num_rows]
batches = []
for path in glob.glob(os.path.join(os.environ[tracing.TRACE_DIR_ENV],
                                   "spans-*.jsonl")):
    with open(path) as f:
        batches += [json.loads(line) for line in f]
print(json.dumps({"rows": rows, "batches": batches}))
"""


def test_tracer_patch_points(tmp_path):
    (tmp_path / "ACTIVE").write_text("p1")
    env = dict(os.environ, PERFBENCH_TRACE_DIR=str(tmp_path),
               PYTHONPATH=str(ROOT))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD,
         str(ROOT / "tests" / "retry_goldens.json")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["rows"] == [7, 7]
    # one flushed span list per fused_batch call: plain, then chunks
    assert len(res["batches"]) == 2
    for spans in res["batches"]:
        names = [s[0] for s in spans]
        for name in ("stages", "langid", "langid.spans", "langid.hits",
                     "langid.score"):
            assert name in names, (name, sorted(set(names)))
        (langid,) = [s for s in spans if s[0] == "langid"]
        counters = langid[5]
        assert counters["docs"] == 7 and counters["text"] > 0
        # first _fill_totes call: every document; later: the retry docs
        scored = counters["scored"]
        assert scored[0] == 7 and len(scored) >= 2 and sum(scored[1:]) >= 1
        # the langid children are recorded under the langid span
        idx = names.index("langid")
        for s in spans:
            if s[0].startswith("langid."):
                assert s[3] == idx
