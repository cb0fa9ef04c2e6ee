"""Per-(language, script-slot) expected-score calibration scales.

The expected-score table (tools/langmodel.py train(), the analogue of the
reference's kAvgDeltaOctaScore) is measured split-half on the seed
corpora: quad tables trained on the first half of each script section
score the unseen second half. That centers each cell on HELDOUT-
SENTENCE per-KB rates — but the exact ReliabilityExpected ramp
(cldutil.cc:586-605, hard 1.5x/4.0x cutoffs) must also hold for
PAGE-CHUNK text, which with seed-scale quad tables sits ~1.5-2x above
the held-out rate (pages are built from in-vocabulary words; heldout
halves are out-of-vocabulary by construction). The scales below
re-center each cell between the two populations so the exact ramp's
window covers both.

Learned by scripts/calibrate_expected.py on calibration pages
(sources.pages, seed=43 — DISJOINT from the seed-42 eval/bench
corpus) plus the per-language heldout conformance sentences; keys are
(seed-corpus code, LScript4 slot) for quad cells and (code, "uni")
for CJK unigram rates. Cells not listed keep k=1.0 (the raw
split-half measurement). Deterministic data, regenerated only by
rerunning the script.
"""

def current_fingerprint() -> str:
    """Hash of everything CALIB_K was learned against: the seed
    corpora, the variant-script training weights, the chunk-size
    scoring constants, and the trained expected-score tables. Any of
    these moving silently invalidates the learned scales, so
    tests/test_langid.py pins CALIB_FINGERPRINT == this and fails
    until scripts/calibrate_expected.py is rerun (then --stamp)."""
    import hashlib

    import numpy as np

    from cld2_ray.data import seeds
    from cld2_ray.functions import score
    from cld2_ray.state.model import default_model
    h = hashlib.blake2b(digest_size=16)
    for code in sorted(seeds.SEEDS):
        h.update(code.encode())
        h.update(seeds.SEEDS[code].encode())
    for code in sorted(seeds.HELDOUT):
        h.update(code.encode())
        h.update(seeds.HELDOUT[code].encode())
    h.update(repr(sorted(seeds.SECONDARY_SCRIPTS.items())).encode())
    h.update(str((score.CHUNKSIZE_QUADS,
                  score.CHUNKSIZE_UNIS)).encode())
    m = default_model()
    h.update(np.ascontiguousarray(m.expected_quad).tobytes())
    h.update(np.ascontiguousarray(m.expected_uni).tobytes())
    return h.hexdigest()


# stamped by `python scripts/calibrate_expected.py --stamp` AFTER a
# recalibration + artifact rebuild; see current_fingerprint
CALIB_FINGERPRINT = "161336eb810a79b57069afc97bb455d1"

CALIB_K: dict[tuple[str, int | str], float] = {
    ('aa', 0): 0.625,
    ('ar', 2): 1.25,
    ('cs', 0): 0.875,
    ('en', 0): 0.875,
    ('he', 3): 1.5,
    ('it', 0): 1.25,
    ('na', 0): 0.75,
    ('no', 0): 0.875,
    ('pl', 0): 1.625,
    ('ro', 0): 2.25,
    ('ro', 1): 1.125,
    ('ru', 1): 1.125,
    ('sn', 0): 1.375,
    ('sr', 0): 1.125,
    ('tk', 0): 1.125,
    ('tlh', 0): 1.375,
    ('tn', 0): 1.375,
    ('tr', 0): 1.125,
    ('uk', 1): 1.125,
}
