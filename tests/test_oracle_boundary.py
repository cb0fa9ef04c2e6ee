"""The runtime package holds only runtime code: the test oracles live in
tests/oracles/ and the artifact builders in tools/, cld2_ray/ imports
neither, every oracle has a test that calls it, and every runtime name
has a caller besides the tests. Checked on the source with ``ast``."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUNTIME = sorted((ROOT / "cld2_ray").rglob("*.py"))
ORACLES = sorted((ROOT / "tests" / "oracles").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("test_*.py"))

# oracles that moved to tests/oracles/ and builders that moved to tools/
# (names they had in cld2_ray/), and caller-less or test-only code
# deleted from cld2_ray/
MOVED_OR_DELETED = {
    "extract_text_with_map", "OffsetMap", "ComposedMap", "read_entity",
    "scan_tag_end", "fix_unicode_value", "_is_newline_tag",
    "_script_spans_numpy", "_absorb_single_foreign", "lower_cps",
    "utf8_len_of", "_apply_rules_arrow", "_word_stats_arrow",
    "_line_stats_pandas", "_stopword_counts_arrow",
    "_detect_ranges_numpy", "_sharpen_boundaries", "_octa_stream",
    "_score_span", "_many_hits", "_score_one_span", "_score_batch_numpy",
    "_features_batch", "remove_repeated_words",
    "_predicted_bytes_mask_numpy", "_char_values", "scrub_text",
    "lookup_numpy", "_gopher_full_perdoc",
    "_extract_text_py", "_token_hashes", "minhash_signature", "jaccard",
    "media_dataset_example", "expected_score_by_code",
    "rolling_fingerprints",
    "refine_close_pairs", "remove_unreliable", "extract_lang_etc",
    "calc_summary_lang", "add_chunks", "remove_repeated_words_batch",
    "_spans_of_meta", "_hint_csr",
    "_one_range", "_many_span_ranges", "_merge_ranges", "_many_ranges",
    "_compose_chunks", "text_to_raw_ranges",
    # langid's second and third range producers, and entry points only
    # tests called
    "detect_ranges_html", "_unhinted_ranges", "debug2_chunks",
    "priors_from_page",
    # the langmodel builder (tools/langmodel.py) and what only it uses
    "train", "save", "_build_ref_tables", "ref_tables",
    "_build_seed_tables", "_count_table", "_score_text_for_lang",
    "pack_langprob", "unpack_langprobs", "keyvalues", "bucket_keyvalues",
    "bucket_lookup", "verify_artifact", "current_fingerprint",
    "decode_langprob", "bucket_table", "cjk_uni_props",
    "build_unicode_luts", "ulscript_prop_lut", "lettermark_lower_lut",
    "quad_hits_dense", "octa_word_and_pair_hits", "cjk_candidates",
    "quad_hash", "octa_hash40", "pair_hash", "bi_hash", "gather_windows",
    # fastlangid's row numbering (tools/fastlangid_rows.py)
    "hot_first", "reorder_artifact", "_hot_sample", "_save", "_features",
    # the aux-model trainers, deleted: they no longer reproduce the
    # committed artifacts
    "_train", "_train_counts", "save_artifact", "bits_per_char",
    # the CheapSqueeze pre-pass, now the one kernel native.cheap_squeeze,
    # and the raw hit scan only tests called
    "squeeze", "squeeze_triggers", "predicted_bytes_mask", "predict_mask",
    "squeeze_test_multi", "quad_octa_scan",
    # fastlangid's Python cap and lower, now native.lower_docs (its
    # oracle is tests/oracles/fastlangid.py cap_then_lower)
    "_cap_text", "_lowered",
    # the quality scan's letter and fold tables, now one RE2 probe
    # (quality._scan_luts; the full per-letter fold probe is the oracle),
    # and the per-text script helpers and compiled PII patterns only
    # oracles read
    "_letter_lut", "_fold_lut", "codepoints", "scripts_of", "_COMPILED",
}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _defined(tree):
    """Every function, method and class name defined in the module."""
    return {n.name for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))}


def _top_level(tree, kinds=(ast.FunctionDef, ast.AsyncFunctionDef)):
    return [n.name for n in tree.body if isinstance(n, kinds)]


def _referenced(tree):
    """Names a module uses: bare names, attributes and imported names.
    ``lib.<name>``, the loaded library's entry that a binding wraps, is
    not a use of the binding of that name."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and not (
                isinstance(n.value, ast.Name) and n.value.id == "lib"):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
    return out


def test_runtime_defines_no_oracle():
    oracle_names = set()
    for p in ORACLES:
        oracle_names.update(_top_level(
            _tree(p), (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
    assert oracle_names, "tests/oracles/ defines no oracle"
    banned = MOVED_OR_DELETED | oracle_names
    found = {f"{p.relative_to(ROOT)}: {name}"
             for p in RUNTIME for name in _defined(_tree(p)) & banned}
    assert not found, sorted(found)


def test_runtime_imports_no_test_code():
    """No module under cld2_ray/ imports the tests or the build-only
    tools/ package."""
    found = []
    for p in RUNTIME:
        for n in ast.walk(_tree(p)):
            if isinstance(n, ast.Import):
                mods = [a.name for a in n.names]
            elif isinstance(n, ast.ImportFrom) and n.module:
                mods = [n.module]
            else:
                continue
            found += [f"{p.relative_to(ROOT)}:{n.lineno} {m}" for m in mods
                      if m.split(".")[0] in ("tests", "oracles", "tools")]
    assert not found, found


def test_every_oracle_has_a_caller():
    """Public oracle functions are called by a test module; private
    helpers by another oracle or a test."""
    test_refs = set()
    for p in TESTS:
        test_refs |= _referenced(_tree(p))
    oracle_refs = set()
    for p in ORACLES:
        oracle_refs |= _referenced(_tree(p))
    missing = []
    for p in ORACLES:
        for name in _top_level(_tree(p)):
            refs = test_refs | oracle_refs if name.startswith("_") \
                else test_refs
            if name not in refs:
                missing.append(f"{p.name}: {name}")
    assert ORACLES and not missing, missing


# the runtime's callers: the package itself, the builders, the scripts
# and the two entry files; the tests, their oracles and the benchmark do
# not count, so a name only they call is dead code or an oracle
CALLERS = sorted(
    [p for d in ("cld2_ray", "tools", "scripts")
     for p in (ROOT / d).rglob("*.py")]
    + [ROOT / "__ray_entry__.py", ROOT / "bench.py"])
# names whose callers are outside the repository: the package's public
# calls (README's detect_language and Detector.detect_ranges), and the
# estimator for the sketch rows of q_kmv_distinct
PUBLIC = {"detect_language", "detect_ranges", "kmv_estimate"}
# names only the benchmark's oracle and tracer hold (perfbench/oracle.py,
# perfbench/tracing.py), until they move to tests/oracles/
PERFBENCH_ONLY = {"page_hints", "score_chunks_multi"}


def test_every_runtime_name_has_a_caller():
    """Every function, method and class defined under cld2_ray/
    (dunders excepted) is referenced from CALLERS. Names are matched,
    not bindings: a name that is also another name's spelling (a
    module, an attribute) passes even when nothing calls it. The
    binding table's ``lib.<name>`` does not count, so a native binding
    needs a caller of its own."""
    refs = set()
    for p in CALLERS:
        refs |= _referenced(_tree(p))
    missing = sorted(
        f"{p.relative_to(ROOT)}: {name}" for p in RUNTIME
        for name in _defined(_tree(p)) - refs - PUBLIC - PERFBENCH_ONLY
        if not (name.startswith("__") and name.endswith("__")))
    assert not missing, missing


def test_one_binding_per_exported_kernel():
    """The non-static functions of quadscan.c are exactly the entries
    native/__init__.py binds (``X = bind(lib.<name>, ...)``): a kernel's
    helpers stay static, and no exported entry is left without a
    binding. Each binding's restype is the C return type and it has as
    many argtypes as the C definition has parameters: ctypes passes a
    call of the wrong arity without an error, and the kernel then reads
    or writes through whatever lands in the missing slots."""
    import ctypes
    import re
    from cld2_ray import native as lib_native
    native = ROOT / "cld2_ray" / "native"
    c_src = re.sub(r"/\*.*?\*/", "", (native / "quadscan.c").read_text(
        encoding="utf-8"), flags=re.S)
    c_type = {"int": ctypes.c_int, "int64_t": ctypes.c_int64}
    exported = {name: (c_type[ret.strip()], len(params.split(",")))
                for ret, name, params in re.findall(
                    r"^(?!static\b)((?:[A-Za-z_]\w*[ \t]+\**)+)(\w+)\s*"
                    r"\(([^)]*)\)\s*\{", c_src, re.M)}
    py_src = (native / "__init__.py").read_text(encoding="utf-8")
    bound = {name: getattr(lib_native, var) for var, name in re.findall(
        r"(\w+)\s*=\s*bind\(lib\.(\w+)", py_src)}
    assert "extract_scan_batch" in exported
    assert exported.keys() == bound.keys(), (
        sorted(exported.keys() - bound.keys()),
        sorted(bound.keys() - exported.keys()))
    for name, fn in bound.items():
        assert (fn.restype, len(fn.argtypes)) == exported[name], name
