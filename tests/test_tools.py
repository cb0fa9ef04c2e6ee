"""The build-only tools/ package reproduces the committed artifacts it
derives: the seed-trained half of langmodel.npz and the row order of
fastlangid.npz. The rest of each artifact is source data, pinned by
sha256 in tests/test_quality.py."""

import numpy as np

from cld2_ray.functions import fastlangid
from cld2_ray.state.model import default_model
from tools import fastlangid_rows, langmodel


def test_langmodel_seed_tables_rebuild():
    """train() on the committed reference tables (parsing them again
    needs the reference tree) rebuilds the committed quad and seed-word
    tables and the expected-score tables from the seed corpora, array
    for array."""
    m = default_model()
    got = langmodel.train((m.docta, m.xocta, m.uni, m.cjkbi))
    pairs = {"quad_keys": (got.quad.keys, m.quad.keys),
             "quad_vals": (got.quad.vals, m.quad.vals),
             "socta_keys": (got.socta.keys, m.socta.keys),
             "socta_vals": (got.socta.vals, m.socta.vals),
             "expected_quad": (got.expected_quad, m.expected_quad),
             "expected_uni": (got.expected_uni, m.expected_uni)}
    for name, (a, b) in pairs.items():
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_artifact_rows_hot_first():
    """The committed rows are numbered as reorder_artifact leaves
    them: hot_first on the committed arrays changes nothing. From
    any other numbering it keeps every bucket's row and row 0."""
    w = np.asarray(fastlangid.weights().table)
    idx = np.asarray(fastlangid.weights().bucket_index)
    sample = fastlangid_rows._hot_sample()
    t2, idx2 = fastlangid_rows.hot_first(w, idx, sample)
    assert np.array_equal(idx2, idx) and np.array_equal(t2, w)
    perm = np.concatenate([[0], np.random.default_rng(0).permutation(
        np.arange(1, len(w)))])
    t3, idx3 = fastlangid_rows.hot_first(
        w[perm], np.argsort(perm).astype(np.int32)[idx],
        sample)
    b = np.flatnonzero(idx)
    assert np.array_equal(t3[idx3[b]], w[idx[b]])
    assert np.array_equal(np.flatnonzero(idx3), b) and not t3[0].any()


def test_kernel_rates_lists_every_kernel(capsys):
    """tools.kernel_rates on a few pages, replayed against a second
    build of this tree's kernels (compiled in a temporary directory):
    every C kernel that fused_batch calls has a row, and the two builds
    agree call for call; with --layers, every layer has a timed row, and
    --profile prints a profile."""
    import ctypes
    import pathlib

    from cld2_ray import native
    from cld2_ray.stages.core import fused_batch
    from perfbench.workloads import make_table
    from tools import kernel_rates

    called = set()
    saved = {k: v for k, v in vars(native).items()
             if isinstance(v, ctypes._CFuncPtr)}

    def spy(fn):
        def wrapped(*a):
            called.add(fn.__name__)
            return fn(*a)
        return wrapped

    try:
        for k, v in saved.items():
            setattr(native, k, spy(v))
        fused_batch(make_table("longform_job", 5, 3))
    finally:
        for k, v in saved.items():
            setattr(native, k, v)
    root = pathlib.Path(__file__).resolve().parent.parent
    kernel_rates.main(["--workload", "longform_job", "--seed", "5",
                       "--pages", "3", "--rounds", "1",
                       "--against", str(root)])
    out = capsys.readouterr().out.splitlines()
    rows = {line.split()[0] for line in out[2:]}
    assert {"quality_scan", "quad_octa_chunk_score", "lower_docs"} <= called
    assert called <= rows, called - rows
    # --layers: one row per layer entry point _fused calls, each timed
    # (a name that _fused no longer calls would read 0), then the rest
    kernel_rates.main(["--workload", "longform_job", "--seed", "5",
                       "--pages", "3", "--rounds", "2", "--layers"])
    out = capsys.readouterr().out.splitlines()
    ms = {line.split()[0]: float(line.split()[1]) for line in out[2:]}
    names = [name for name, _, _ in kernel_rates.LAYERS]
    assert list(ms) == names + ["assembly", "fused_batch"]
    assert all(ms[name] > 0 for name in names)
    kernel_rates.main(["--workload", "longform_job", "--seed", "5",
                       "--pages", "3", "--profile"])
    out = capsys.readouterr().out
    assert "function calls" in out and "tottime" in out
