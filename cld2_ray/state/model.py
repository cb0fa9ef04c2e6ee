"""The langid scoring model: its tables and their loader.

The engine's analogue of the reference's ScoringTables bundle
(reference: internal/scoreonescriptspan.h:100-114) and of the
dynamic-data artifact lifecycle (internal/cld2_dynamic_data*.cc:
serialize once offline, mmap/load once per worker).

Since round 3 the artifact carries the reference's PRESENT trained
tables, parsed at build time by tools/refparse.py:

* delta-octa + distinct-octa word tables (kDeltaOcta_obj /
  kDistinctOcta_obj, cld2_generated_{delta,distinct}octa0527.cc) kept
  in their native 4-way-associative bucket form (``BucketTable``) —
  the bucket hash is lossy (OctaFPJustHash, cldutil_shared.h:383-400),
  so the original 40-bit keys cannot be re-enumerated into an exact
  hash table; instead the probe is reimplemented and each 12-bit
  indirect subscript is pre-decoded to this engine's packed value,
  once per script class (per-script language numbers differ between
  Latin and non-Latin spans, lang_script.cc:328-341),
* CJK unigram scoring = the cld_generated_CjkUni trie enumerated
  offline into codepoint -> packed langprobs (compat table pairs,
  cld2_generated_cjk_compatible.cc) held in the engine's open-address
  ``HashTable``,
* CJK bigram table (kCjkDeltaBi_obj) as a BucketTable probed with
  BiHashV2.

The quadgram tables remain seed-trained (the reference's quad blobs
are absent from this environment, SURVEY.md §0): hashed n-gram -> up
to 4 (language, quantized-log-prob) pairs on the reference's qprob
scale (+1 step = a factor of ~3 in likelihood, cldutil.cc:540-552).

Value layout (uint64, 4 lanes of 16 bits):
  lane i (i in 0..3): lang id in bits [16i, 16i+8), qprob in
  [16i+8, 16i+16). Lang 0 = empty lane. Key 0 is the empty slot
  sentinel in HashTable.

Artifact: ``cld2_ray/state/artifacts/langmodel.npz`` — committed,
deterministic, rebuilt by ``python -m tools.langmodel`` (the four
reference tables need the reference tree at build time only; the
seed-trained half is rebuilt from the committed reference tables by
``tests/test_tools.py``), with a per-array checksum manifest verified
at every load (the verifyDataFile analogue). Actors load it once in
``__init__`` (stateful-stage pattern).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from cld2_ray.functions import langs

ARTIFACT = os.path.join(os.path.dirname(__file__), "artifacts", "langmodel.npz")


@dataclass
class HashTable:
    """An open-addressed table in the one format of native.table_build
    (which also documents the probe)."""
    keys: np.ndarray  # uint64, 0 = empty
    vals: np.ndarray  # uint64
    mask: np.uint64

    @classmethod
    def build(cls, kv: dict[int, int]) -> "HashTable":
        from cld2_ray import native
        return cls(*native.table_build(kv))

    def lookup(self, queries: np.ndarray) -> np.ndarray:
        """Open-addressed lookup through the C probe loop
        (native.table_lookup). Returns uint64 values (0 = miss)."""
        from cld2_ray import native
        return native.table_lookup(self.keys, self.vals, self.mask, queries)


@dataclass
class BucketTable:
    """The reference's 4-way-associative CLD2TableSummary bucket table
    with pre-decoded per-indirect packed values (one array per script
    class). ``kind`` names the probe math: "octa40" =
    OctaFPJustHash over a 40-bit hash (cldutil_shared.h:390-400),
    "quad32" = QuadFPJustHash over a 32-bit hash (:383-388, used for
    CJK bigrams via BiHashV2). The C kernels probe each table with its
    fixed kind; the numpy probe (tools/langmodel.bucket_lookup) reads
    it."""
    buckets: np.ndarray      # (nbuckets, 4) uint32
    keymask: np.uint32
    packed_latn: np.ndarray  # uint64[ind_size]
    packed_othr: np.ndarray  # uint64[ind_size]
    kind: str


@dataclass
class LangModel:
    quad: HashTable          # seed-trained quadgrams
    socta: HashTable         # seed-trained word stats (same walk as
                             # the reference tables; compensates for
                             # the seed-scale quadgrams — the sparse
                             # reference octa tables keep only the
                             # ~65k most DISTINCTIVE wordforms, while
                             # the reference's quad evidence comes
                             # from web-scale tables this sandbox
                             # does not have)
    docta: BucketTable       # reference delta-octa words
    xocta: BucketTable       # reference distinct-octa words + pairs
    uni: HashTable           # reference CJK unigrams (cp -> packed)
    cjkbi: BucketTable       # reference CJK bigrams (BiHashV2 probe)
    expected_quad: np.ndarray  # int32[NUM_LANGS, 4] score per 1024
    #                            bytes per LScript4 slot (the
    #                            kAvgDeltaOctaScore layout)
    expected_uni: np.ndarray   # int32[NUM_LANGS] CJK unigram rate

    @classmethod
    def load(cls, path: str = ARTIFACT) -> "LangModel":
        # mmap-shared across all worker processes on the node — one
        # physical copy of the probe tables in page cache, not one per
        # actor (see state/mmapcache.py; analogue of the reference's
        # mmap'd dynamic-data file, cld2_dynamic_data_loader.cc)
        from cld2_ray.state import mmapcache
        z = mmapcache.load_shared(path)
        _verify_arrays(z, path)
        codes = [str(c) for c in z["lang_codes"]]
        if codes != langs.CODES:
            raise ValueError("langmodel artifact does not match the language "
                             "registry — rebuild with "
                             "python -m tools.langmodel")

        def t(name):
            keys = z[f"{name}_keys"]
            return HashTable(keys, z[f"{name}_vals"], np.uint64(len(keys) - 1))

        def bt(name, kind):
            buckets = z[f"{name}_buckets"]
            return BucketTable(buckets,
                               np.uint32(np.asarray(
                                   z[f"{name}_keymask"]).ravel()[0]),
                               z[f"{name}_packed_latn"],
                               z[f"{name}_packed_othr"], kind)

        return cls(t("quad"), t("socta"),
                   bt("docta", "octa40"), bt("xocta", "octa40"),
                   t("uni"), bt("cjkbi", "quad32"),
                   z["expected_quad"], z["expected_uni"])


def _digest(arr: np.ndarray) -> str:
    """blake2b over dtype + shape + raw bytes (shape/dtype are part of
    the contract: a truncated or re-typed array must not pass)."""
    import hashlib
    h = hashlib.blake2b(digest_size=16)
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _verify_arrays(z: dict, path: str) -> None:
    """Check every array against the saved manifest; raise on any
    mismatch (the dump->verify->load round trip of
    cld2_unittest.cc:296-401)."""
    if "manifest" not in z:
        raise ValueError(
            f"langmodel artifact {path} has no checksum manifest — "
            "rebuild with python -m tools.langmodel")
    want = dict(str(e).split("=", 1) for e in z["manifest"])
    names = {k for k in z if k != "manifest"}
    if names != set(want):
        raise ValueError(
            f"langmodel artifact {path} manifest names mismatch: "
            f"missing={sorted(set(want) - names)} "
            f"extra={sorted(names - set(want))}")
    bad = [k for k in sorted(names)
           if _digest(np.asarray(z[k])) != want[k]]
    if bad:
        raise ValueError(
            f"langmodel artifact {path} is corrupted: checksum "
            f"mismatch in {bad}")


@lru_cache(maxsize=1)
def default_model() -> LangModel:
    return LangModel.load(ARTIFACT)
