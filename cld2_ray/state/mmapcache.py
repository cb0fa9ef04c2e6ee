"""Share model tables across worker processes via mmap.

Every Ray actor process that loads an ``.npz`` artifact decompresses it
into private heap memory — at 32 workers/node that is 32 physical
copies of randomly-probed lookup tables (~22 MB each for this engine's
three artifacts), which blows the shared last-level cache and turns
every table probe into a DRAM miss.  The reference avoids this by
mmapping one read-only data file per node
(reference: internal/cld2_dynamic_data_loader.cc — mmap once, share).

This helper is the Ray-side analogue: the first process to load an
artifact extracts each array to ``<artifact>.d/<name>.npy``
(atomically, keyed on the npz content), and every process then maps
the SAME files with ``np.load(mmap_mode='r')``.  The kernel pages live
once in the page cache per node, so the hot subset of the tables is
shared in LLC no matter how many workers probe it.

The arrays returned are read-only; all runtime users are pure lookups
(HashTable probes, weight-row gathers), so nothing needs to write.
"""

from __future__ import annotations

import os
import tempfile
import zipfile

import numpy as np


def _content_stamp(npz_path: str) -> str:
    """``name:CRC:size`` of every npz member, from the zip central
    directory (no decompression, ~1 ms): changes exactly when the
    arrays do, never on a checkout or touch of the same bytes."""
    with zipfile.ZipFile(npz_path) as z:
        return "\n".join(f"{i.filename}:{i.CRC:08x}:{i.file_size}"
                         for i in z.infolist())


def load_shared(npz_path: str) -> dict[str, np.ndarray]:
    """Load an ``.npz`` artifact as read-only mmap-backed arrays.

    Extracts to ``<npz_path>.d/`` on first use (safe under concurrent
    callers: each array is written to a temp file and ``os.replace``d
    into place, and a ``.stamp`` file carrying the npz content stamp
    marks the cache complete).  Falls back to a plain in-heap
    ``np.load`` when the cache directory is unwritable.
    """
    cache = npz_path + ".d"
    stamp_want = _content_stamp(npz_path)
    stamp_path = os.path.join(cache, ".stamp")

    def _read_stamp() -> str | None:
        try:
            with open(stamp_path) as f:
                return f.read()
        except OSError:
            return None

    if _read_stamp() != stamp_want:
        try:
            _extract(npz_path, cache, stamp_path, stamp_want)
        except OSError:
            z = np.load(npz_path, allow_pickle=False)
            return {k: z[k] for k in z.files}

    out: dict[str, np.ndarray] = {}
    z = np.load(npz_path, allow_pickle=False)
    for name in z.files:
        arr = np.load(os.path.join(cache, name + ".npy"), mmap_mode="r",
                      allow_pickle=False)
        # tiny arrays (< 1 page of real use) gain nothing from mmap and
        # some callers index them with fancy patterns — keep them in heap
        out[name] = np.array(arr) if arr.nbytes < 4096 else arr
    return out


def _extract(npz_path: str, cache: str, stamp_path: str,
             stamp_want: str) -> None:
    os.makedirs(cache, exist_ok=True)
    z = np.load(npz_path, allow_pickle=False)
    for name in z.files:
        final = os.path.join(cache, name + ".npy")
        fd, tmp = tempfile.mkstemp(dir=cache, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                np.save(f, np.ascontiguousarray(z[name]))
            os.replace(tmp, final)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    fd, tmp = tempfile.mkstemp(dir=cache, suffix=".tmp")
    with os.fdopen(fd, "w") as f:
        f.write(stamp_want)
    os.replace(tmp, stamp_path)
