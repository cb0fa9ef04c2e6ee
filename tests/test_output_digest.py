"""The flagship kernel's output on a fixed page set equals the frozen
digest in tests/output_digest.json (built by
scripts/make_output_digest.py): every column's values and Arrow type,
without and with the chunks column."""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the columns that name languages: langid's ids as langs.codes names
# them, and fastlangid's aux_lang (plus each range of ``chunks``)
LANG_COLUMNS = {"lang_summary", "lang1", "lang2", "lang3", "aux_lang"}


def _script():
    spec = importlib.util.spec_from_file_location(
        "make_output_digest",
        os.path.join(ROOT, "scripts", "make_output_digest.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_output_matches_frozen_digest():
    mod = _script()
    with open(mod.OUT) as f:
        want = json.load(f)
    got = mod.output_digest()
    assert (got["rows"], got["input_sha256"]) == \
        (want["rows"], want["input_sha256"]), \
        "the digest's input pages changed: rebuild the digest"
    assert LANG_COLUMNS <= want["plain"].keys() and \
        LANG_COLUMNS | {"chunks"} <= want["with_chunks"].keys()
    for key in ("plain", "with_chunks"):
        bad = sorted(c for c in want[key] | got[key]
                     if want[key].get(c) != got[key].get(c))
        assert not bad, f"{key}: columns differ from the digest: {bad}"
