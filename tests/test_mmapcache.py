"""state.mmapcache: the per-node mmap cache of npz artifacts is keyed
on the npz content, so a checkout or touch never rewrites it."""

import os

import numpy as np

from cld2_ray.state import mmapcache


def _save(path, **arrays):
    np.savez_compressed(path, **arrays)
    return str(path)


def test_roundtrip_and_stamp_is_content(tmp_path):
    npz = _save(tmp_path / "a.npz", big=np.arange(5000, dtype=np.int64),
                small=np.array([1, 2, 3]))
    z = mmapcache.load_shared(npz)
    assert np.array_equal(z["big"], np.arange(5000))
    assert isinstance(z["big"], np.memmap)
    assert np.array_equal(z["small"], [1, 2, 3])
    stamp = os.path.join(npz + ".d", ".stamp")
    with open(stamp) as f:
        assert f.read() == mmapcache._content_stamp(npz)


def test_touch_does_not_rewrite_cache(tmp_path):
    npz = _save(tmp_path / "a.npz", big=np.arange(5000, dtype=np.int64))
    mmapcache.load_shared(npz)
    cache = npz + ".d"
    before = {f: os.stat(os.path.join(cache, f)).st_ino
              for f in os.listdir(cache)}
    st = os.stat(npz)
    os.utime(npz, ns=(st.st_atime_ns + 10**9, st.st_mtime_ns + 10**9))
    mmapcache.load_shared(npz)
    after = {f: os.stat(os.path.join(cache, f)).st_ino
             for f in os.listdir(cache)}
    assert before == after


def test_new_content_refreshes_cache(tmp_path):
    npz = _save(tmp_path / "a.npz", big=np.arange(5000, dtype=np.int64))
    mmapcache.load_shared(npz)
    _save(tmp_path / "a.npz", big=np.arange(5000, dtype=np.int64) * 2)
    assert np.array_equal(mmapcache.load_shared(npz)["big"],
                          np.arange(5000) * 2)


def test_unwritable_cache_falls_back_to_heap(tmp_path):
    npz = _save(tmp_path / "a.npz", big=np.arange(5000, dtype=np.int64))
    with open(npz + ".d", "w") as f:   # a file where the cache dir goes
        f.write("x")
    z = mmapcache.load_shared(npz)
    assert not isinstance(z["big"], np.memmap)
    assert np.array_equal(z["big"], np.arange(5000))
