"""C kernel (cld2_ray/native) must be bit-equal to independent numpy /
hashlib / Python implementations, each called directly by name."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cld2_ray import native
from cld2_ray.functions import langs, spans, uscript as us
from cld2_ray.state.model import default_model
from tests.oracles import (
    extract as extract_oracle, fastlangid as fastlangid_oracle,
    langid as langid_oracle, perplexity as perplexity_oracle,
    quality as quality_oracle, repeats as repeats_oracle,
    spans as spans_oracle)
from tests.oracles.model import lookup_numpy
from tools import hits
from tools.langmodel import bucket_lookup, unpack_langprobs


def _numpy_hits(model, cat, bounds, latin_of_span):
    """(vals, offs, distinct) of the spans' quad and word table hits,
    merged by offset (quads first at equal offset), from the numpy
    walks and probes."""
    from cld2_ray.functions.langid import Detector
    h, off = hits.quad_hits_dense(cat, span_bounds=bounds)
    vals = lookup_numpy(model.quad, h)
    m = vals != 0
    ov, oo, od = langid_oracle.octa_stream(Detector(model), cat, bounds,
                                           latin_of_span)
    order = np.argsort(np.concatenate([off[m], oo]), kind="stable")
    return (np.concatenate([vals[m], ov])[order],
            np.concatenate([off[m], oo])[order],
            np.concatenate([np.zeros(m.sum(), bool), od])[order])


def _check(model, span_texts, scripts=None):
    """native.quad_octa_chunk_score at chunk size 1, so that each table
    hit is its own chunk, == score.score_chunks_multi over the numpy
    hit stream: the scan's hits, their offsets and their order."""
    from cld2_ray.functions import score
    bufs = [s.encode("utf-8") for s in span_texts]
    lens = np.array([len(b) for b in bufs], dtype=np.int64)
    bounds = np.cumsum(lens)
    cat = b"".join(bufs)
    scripts = np.full(len(bufs), us.LATIN) if scripts is None \
        else np.asarray(scripts)
    latin, s4 = scripts == us.LATIN, us.LSCRIPT4[scripts]
    vals, offs, dist = _numpy_hits(model, cat, bounds, latin)
    l3, q3 = unpack_langprobs(vals)
    want = score.score_chunks_multi(
        l3, q3, offs, np.searchsorted(bounds, offs, side="right"),
        bounds - lens, lens, np.ones(len(bufs), dtype=np.int64),
        model.expected_quad, distinct_mask=dist, script4_of_span=s4)
    got = native.quad_octa_chunk_score(
        cat, bounds - lens, bounds, model.quad, model.socta, model.docta,
        model.xocta, latin, 1, model.expected_quad, langs.CLOSE_SET,
        np.zeros(len(bufs) + 1, dtype=np.int64), np.zeros(0, np.int64),
        s4)
    assert len(got[0]) == len(vals)
    for x, y in zip(want, got):
        assert np.array_equal(np.asarray(x), y)


class TestQuadOctaScan:
    """The quad and word walks of quad_octa_chunk_score (scan_one_span)
    hit for hit against the numpy walks (tools/hits.py, the oracle
    octa_stream), one chunk per hit."""

    def test_seed_spans(self):
        from cld2_ray.data.seeds import HELDOUT, SEEDS
        model = default_model()
        for code, text in sorted({**SEEDS, **HELDOUT}.items()):
            sl = [(sp.text, sp.script) for sp in spans.script_spans(text)
                  if us.script_rtype(sp.script) == us.RTYPE_MANY]
            if sl:
                _check(model, [t for t, _ in sl], [sc for _, sc in sl])

    def test_spans_in_place(self):
        """Spans are read in place by start/end: spans with gaps between
        them score as the packed spans do; a span with end < start is
        refused."""
        model = default_model()
        texts = [b" hello world ", b" bonjour le monde ", b" hallo welt "]
        lens = np.array([len(t) for t in texts])
        cat = b"##" + b"##".join(texts) + b"##"
        starts = np.array([cat.index(t) for t in texts])
        tables = (model.quad, model.socta, model.docta, model.xocta,
                  np.ones(3, dtype=bool))
        rest = (1, model.expected_quad, langs.CLOSE_SET,
                np.zeros(4, dtype=np.int64), np.zeros(0, dtype=np.int64),
                np.full(3, us.LSCRIPT4[us.LATIN]))
        got = native.quad_octa_chunk_score(cat, starts, starts + lens,
                                           *tables, *rest)
        p_ends = np.cumsum(lens)
        want = native.quad_octa_chunk_score(b"".join(texts), p_ends - lens,
                                            p_ends, *tables, *rest)
        assert len(want[0]) > 3
        for x, y in zip(want, got):
            assert np.array_equal(x, y)
        with pytest.raises(ValueError):
            native.quad_octa_chunk_score(cat, starts + lens, starts,
                                         *tables, *rest)

    def test_edge_cases(self):
        model = default_model()
        _check(model, [" a ", " ab ", " abc ", "  ", " "])
        _check(model, [" aaaa aaaa aaaa bbbb aaaa " * 20])
        # giant spaceless word exercises the C spill path
        _check(model, [" " + "abcdé" * 2000 + " "])
        # 8-char word truncation boundary + repeats + pairs
        _check(model, [" abcdefgh abcdefghi abcdefghi abcdefgh x y x y "])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.text(alphabet="abcdefghij éüñα ", min_size=0, max_size=120),
        min_size=1, max_size=5))
    def test_random_framed_spans(self, texts):
        model = default_model()
        framed = [" " + " ".join(t.split()) + " " for t in texts]
        _check(model, framed)


class TestTableLookup:
    def test_matches_numpy(self):
        model = default_model()
        rng = np.random.default_rng(3)
        present = model.quad.keys[model.quad.keys != 0]
        q = np.concatenate([
            rng.choice(present, 2000),
            rng.integers(0, 2**63, 2000, dtype=np.int64).astype(np.uint64)])
        a = lookup_numpy(model.quad, q)
        b = native.table_lookup(model.quad.keys, model.quad.vals,
                                model.quad.mask, q)
        assert np.array_equal(a, b)

    def test_builder_rebuilds_the_artifacts(self):
        """native.table_build, fed the non-empty (key, value) pairs of a
        committed table, rebuilds it byte for byte: the langmodel quad,
        socta and uni tables and the perplexity table."""
        from cld2_ray.functions import perplexity
        model = default_model()
        for t in (model.quad, model.socta, model.uni,
                  perplexity.models().table):
            nz = t.keys != 0
            keys, vals, mask = native.table_build(
                dict(zip(t.keys[nz].tolist(), t.vals[nz].tolist())))
            assert keys.tobytes() == t.keys.tobytes()
            assert vals.tobytes() == t.vals.tobytes()
            assert mask == t.mask

    def test_key_zero(self):
        """Key 0 is the empty-slot mark: it is stored and probed as 1,
        and a probe for 0 in a table without it misses."""
        keys, vals, mask = native.table_build({0: 7, 5: 9})
        assert list(native.table_lookup(keys, vals, mask,
                                        np.array([0, 1, 5, 2]))) == \
            [7, 7, 9, 0]
        keys, vals, mask = native.table_build({5: 9})
        assert list(native.table_lookup(keys, vals, mask,
                                        np.array([0, 1]))) == [0, 0]


class TestFastlangidScore:
    def test_feature_counts_match(self):
        from cld2_ray.data.seeds import HELDOUT, SEEDS
        from cld2_ray.functions import fastlangid
        texts = ["hello world this is english prose",
                 "él no dijo nada más", "a", "ü" * 50,
                 *SEEDS.values(), *HELDOUT.values()]
        w, idx, _ = fastlangid.weights()
        feats, doc_of = fastlangid_oracle.features_batch(texts)
        nf_np = np.bincount(doc_of, minlength=len(texts))
        # no script routes a doc past the scorer here: every doc is
        # scored
        route, scores, nf_c, n_rows = native.fastlangid_score(
            *native.utf8_cat([t.lower() for t in texts]), idx, w,
            us.script_lut(), np.zeros(256, dtype=np.uint8))
        assert not route.any()
        assert np.array_equal(nf_np, nf_c)
        # each doc's scores row is bit-equal to a float32 accumulation
        # of count * weight row, one distinct row at a time in
        # first-seen order: any build (or multi-versioned clone) that
        # reorders or fuses the float adds fails here
        rows = idx[feats]
        for d in range(len(texts)):
            r = rows[(doc_of == d) & (rows > 0)]
            uniq, first, count = np.unique(r, return_index=True,
                                           return_counts=True)
            order = np.argsort(first)
            assert n_rows[d] == len(uniq)
            want = np.zeros(w.shape[1], dtype=np.float32)
            for row, c in zip(uniq[order], count[order]):
                want += np.float32(c) * w[row]
            assert np.array_equal(scores[d], want), d

    def test_routes(self):
        """route: -1 for blank docs (str.strip's whitespace), the
        dominant script when it implies one language (the smallest id
        on a tie), else 0 with the doc scored; unscored docs read 0."""
        from cld2_ray.functions import fastlangid
        docs = ["", " \t\u3000\x85\u2029", "ελληνικά", "ไทย", "한국어",
                "αβ вг", "вг αβγ", "ab вг", "123 !", "\U0001F600", "x"]
        route, scores, nf, n_rows = native.fastlangid_score(
            *native.utf8_cat(docs), fastlangid.weights().bucket_index,
            fastlangid.weights().table, us.script_lut(),
            fastlangid._ONE_SCRIPT)
        assert us.LATIN < us.CYRILLIC < us.GREEK
        assert route.tolist() == [-1, -1, us.GREEK, us.THAI, 0, 0, us.GREEK,
                                  0, 0, 0, 0]
        unscored = route != 0
        assert not scores[unscored].any() and not nf[unscored].any() \
            and not n_rows[unscored].any()
        assert nf[~unscored].tolist() == [
            3 * len(d.encode()) for d, r in zip(docs, route) if r == 0]

    def test_rows_past_the_table_rejected(self):
        """A bucket_index naming a row past the weight table (a bad
        artifact) raises ValueError instead of reading past it."""
        from cld2_ray.functions import fastlangid
        w = fastlangid.weights()
        idx = w.bucket_index.copy()
        idx[idx > 0] = len(w.table) + 1
        with pytest.raises(ValueError, match="past the weight table"):
            native.fastlangid_score(*native.utf8_cat(["ab", "abcd"]), idx,
                                    w.table, us.script_lut(),
                                    fastlangid._ONE_SCRIPT)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.text(max_size=200), max_size=6))
    @example([""])
    @example([" ", "\u3000", "\x85", " \u3000\x85\t\n", ""])
    @example(["Η γλώσσα είναι ελληνική", "ภาษาไทยเป็นภาษาราชการ",
              "한국어는 한국의 공용어이다"])
    @example(["ab вг", "вг ab", "abc where вгд это"])
    @example(["a" * 510 + "Σa", "a" * 509 + "ΑΣ b", "α" * 255 + "Σ"])
    @example(["a" * 509 + "\U0001F600", "é" * 300, "x" * 600])
    def test_classify_batch_equals_oracle(self, texts):
        """classify_batch (routing and scoring in one C pass) equals the
        Python-routed, numpy-scored oracle, value for value."""
        from cld2_ray.functions import fastlangid
        lang, conf = fastlangid.classify_batch(texts)
        assert (lang.to_pylist(), conf.tolist()) == \
            fastlangid_oracle.classify_oracle(texts)


class TestKernelRequired:
    """Importing the shim without a working compiler raises ImportError
    naming the cc command; it never degrades to a second code path."""

    @staticmethod
    def _import_copy(tmp_path, env, src_suffix=""):
        import os
        import shutil
        import subprocess
        import sys
        pkg = tmp_path / "native_copy"
        pkg.mkdir()
        for f in ("__init__.py", "quadscan.c"):
            shutil.copy(os.path.join(os.path.dirname(native.__file__), f),
                        pkg / f)
        if src_suffix:
            with open(pkg / "quadscan.c", "a") as fh:
                fh.write(src_suffix)
        return TestKernelRequired._import(tmp_path, env)

    @staticmethod
    def _import(tmp_path, env):
        import subprocess
        import sys
        return subprocess.run(
            [sys.executable, "-c", "import native_copy"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=300)

    def test_changed_command_rebuilds(self, tmp_path):
        """The cached .so is keyed on the source AND the cc command: an
        import with both unchanged reuses it, a flag changed only in
        __init__.py rebuilds it."""
        import os
        env = dict(os.environ)
        assert self._import_copy(tmp_path, env).returncode == 0
        pkg = tmp_path / "native_copy"
        so, key = pkg / "quadscan.so", pkg / "quadscan.so.key"
        built = (os.stat(so).st_ino, key.read_text())
        assert self._import(tmp_path, env).returncode == 0
        assert (os.stat(so).st_ino, key.read_text()) == built
        init = pkg / "__init__.py"
        src = init.read_text()
        assert '"-fPIC",' in src
        init.write_text(src.replace('"-fPIC",', '"-fPIC", "-g",', 1))
        r = self._import(tmp_path, env)
        assert r.returncode == 0, r.stderr
        assert os.stat(so).st_ino != built[0]
        assert key.read_text() != built[1]

    def test_no_compiler_raises_import_error(self, tmp_path):
        r = self._import_copy(tmp_path, {"PATH": ""})
        assert r.returncode != 0
        assert "ImportError" in r.stderr
        assert "`cc -O3" in r.stderr

    def test_compiles_warnings_clean(self, tmp_path):
        """quadscan.c builds with the shim's own flags plus -Wall -Wextra
        -Werror (catches unused or uninitialized scratch)."""
        import subprocess
        cmd = [native._CMD[0], "-Wall", "-Wextra", "-Werror",
               *native._CMD[1:], str(tmp_path / "quadscan.so")]
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        assert r.returncode == 0, r.stderr

    def test_compile_error_carries_stderr(self, tmp_path):
        import os
        r = self._import_copy(tmp_path, dict(os.environ),
                              "\nthis is not C;\n")
        assert r.returncode != 0
        assert "ImportError" in r.stderr
        assert "`cc -O3" in r.stderr
        assert "error" in r.stderr.split("ImportError", 1)[1]


class TestSpanScanSanitized:
    """The kernels, built with AddressSanitizer and UBSan, over
    worst-case inputs: any write past a buffer aborts the run, whether
    an output the shim sizes or scratch the kernel allocates, and so
    does a read past the last document's end (the batches are
    exact-size arrays). The span scan, both chunk kernels (with and
    without the ranges pass, and their 4-byte window loads at a span's
    end), quality_scan's dup-line table, stopword probe, end strip and
    fast paths (ASCII runs and tokens, the line hash's tail) at a
    doc's end, extract_scan_batch's entity reads and its UTF-8 gate,
    page_hints_scan on heads that end mid-construct, lower_docs at its
    output bound, fastlangid_score, ppl_score, rep_words_multi on
    max-length spans, cheap_squeeze at its gate and chunk edges,
    md5_windows past its first window buffer and doc_stage with full
    totes over 16 streams;
    each result must equal the plain build's."""

    DRIVER = r"""
import numpy as np
import native_copy as nc
from cld2_ray import native
from cld2_ray.functions import (extract, fastlangid, langs, perplexity,
                                quality, score)
from cld2_ray.functions import uscript as us
from cld2_ray.functions.spans import (MAX_SCRIPT_BYTES, TEXT_LIMIT as L,
                                      script_spans_batch)
from cld2_ray.state.model import default_model
from tests.oracles.fastlangid import cap_then_lower


# (data, offsets) of docs; data is a fresh array of exactly their
# bytes, so a read past the last doc hits the sanitizer's redzone
def cat_of(docs):
    return (np.frombuffer(b"".join(docs), dtype=np.uint8).copy(),
            np.cumsum([0] + [len(d) for d in docs]))


def same(kernel, *args, **kw):
    got = getattr(nc, kernel)(*args, **kw)
    want = getattr(native, kernel)(*args, **kw)
    if isinstance(got, np.ndarray):
        got, want = (got,), (want,)
    elif isinstance(got, dict):
        got, want = tuple(got.values()), tuple(want.values())
    assert len(got) == len(want), kernel
    for x, y in zip(got, want):
        assert np.array_equal(x, y), kernel
    return got


a, cut = b"a", b"\xc3"          # one-letter word; lead byte cut off
up = "\u023a\u023e ".encode()    # lowercase is longer in UTF-8
cases = [
    ([a] * 1000, "lt"),
    ([cut] * 1000, "out"),
    ([up] * 1000, None),
    ([a] * 100 + [a * (L + 100)], "lt"),
    ([cut] * 100 + [b"a b c " * (L // 3)], None),
    ([up * (L // 4)] * 3, None),
    ([b"", a, b"", up, cut, b"x " + cut, b"\xf0\x9f"], None),
]
for docs, tight in cases:
    cat, offsets = cat_of(docs)
    meta, ns, out, lt = nc.script_spans_scan_multi(
        cat, offsets, us.script_lut(), us.lower_lut(), L, MAX_SCRIPT_BYTES)
    assert ns.sum() == len(meta) > 0
    if tight == "out":
        assert meta[-1, 3] + meta[-1, 4] == len(out)
    elif tight == "lt":
        assert len(lt) == int(np.minimum(np.diff(offsets), L + 1).sum())

# chunk kernels: max-length spans of one-letter words (about one table
# hit per byte, the densest input found) and long CJK runs
m = default_model()
words = "a y o e i u " * (3 * MAX_SCRIPT_BYTES // 12)
hz = "".join(map(chr, np.random.default_rng(0).integers(0x4E00, 0x9FA5,
                                                        30000)))
t = script_spans_batch([words, hz, "x " + hz[:999] + " y", "a"])
lat = np.flatnonzero(t.script == us.LATIN)
han = np.flatnonzero(t.script == us.HANI)
assert (t.end - t.start)[lat].max() >= MAX_SCRIPT_BYTES
assert (t.end - t.start)[han].max() >= MAX_SCRIPT_BYTES
no_hints = (np.zeros(len(lat) + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int64))
for wr in (False, True):
    same("quad_octa_chunk_score", t.buf, t.start[lat], t.end[lat], m.quad,
         m.socta, m.docta, m.xocta, np.ones(len(lat), dtype=bool),
         score.CHUNKSIZE_QUADS, m.expected_quad, langs.CLOSE_SET,
         *no_hints, us.LSCRIPT4[t.script[lat]], with_ranges=wr)
same("cjk_chunk_score", t.buf, t.start[han], t.end[han],
     t.text_bytes[han], m.uni, m.cjkbi, score.CHUNKSIZE_UNIS,
     m.expected_uni, langs.CLOSE_SET, np.zeros(len(han) + 1, np.int64),
     np.zeros(0, dtype=np.int64))

# the chunk kernels' 4-byte window loads at pos + 4 == limit: short
# spans, each alone in an exact-size buffer, whose last word ends 4
# bytes before the span's end or closer
for sp in [b" ab ", b" abc ", b" abcd ", b" abcdefg ", b" a bcd ",
           b" abcdefghijk ", " été ".encode()]:
    buf = np.frombuffer(sp, dtype=np.uint8).copy()
    for wr in (False, True):
        same("quad_octa_chunk_score", buf, np.array([0]),
             np.array([len(sp)]), m.quad, m.socta, m.docta, m.xocta,
             np.ones(1, dtype=bool), score.CHUNKSIZE_QUADS,
             m.expected_quad, langs.CLOSE_SET, np.zeros(2, np.int64),
             np.zeros(0, dtype=np.int64), us.LSCRIPT4[[us.LATIN]],
             with_ranges=wr)
hz2 = "\u4e2d\u6587".encode()
for sp in (b" " + hz2 + b" ", hz2):
    buf = np.frombuffer(sp, dtype=np.uint8).copy()
    same("cjk_chunk_score", buf, np.array([0]), np.array([len(sp)]),
         np.array([len(sp)]), m.uni, m.cjkbi, score.CHUNKSIZE_UNIS,
         m.expected_uni, langs.CLOSE_SET, np.zeros(2, np.int64),
         np.zeros(0, dtype=np.int64))

# quality_scan: thousands of one-char lines, all-duplicate lines, and
# docs around the dup-line table's smallest size
lines = "\n".join(chr(0x4E00 + k) for k in range(6000)).encode()
docs = [lines, b"same line\n" * 3000, b"", b"x", b"y\n" * 23,
        b"\n".join([b"a", b"b"] * 40)]
s = same("quality_scan", *cat_of(docs), *quality._scan_luts(),
         quality._stop_table())[0]
assert s[0, 9] == 6000 and s[0, 12] == 0
assert s[1, 9] == 3000 and s[1, 12] == 2999

# quality_scan on NUL tokens (the stopword table's empty-slot key) and
# 4-byte chars, whole or cut off, at the docs' ends
qdocs = [b"the \x00 x", b"(\x00)", "a \U0001F600".encode(), b"la\x00",
         "the\U0001F600".encode() * 3, b"\x00", b"x \xf0\x9f\x98",
         b"of \xf0"]
qluts = *quality._scan_luts(), quality._stop_table()
assert same("quality_scan", *cat_of(qdocs), *qluts)[0][:, 4].tolist() == \
    [1, 0, 1, 0, 0, 0, 0, 1]
for d in qdocs:
    same("quality_scan", *cat_of([d]), *qluts)

# quality_scan's end strip on whitespace-only docs and on docs whose one
# non-space char is multi-byte, at either end
sdocs = [b" ", " \u3000\xa0\x1f".encode(), "\u2028".encode()]
for c in ("\u00e9", "\u4e2d", "\U0001F600"):
    sdocs += [(c + " \u3000").encode(), ("\u3000 " + c).encode()]
s = same("quality_scan", *cat_of(sdocs), *qluts)[0]
assert s[:, 1].tolist() == [0, 0, 0] + [1] * 6
for d in sdocs:
    same("quality_scan", *cat_of([d]), *qluts)

# quality_scan's fast paths at a doc's end, each doc alone too: ASCII
# word runs that end exactly at the end and just before a multi-byte
# char, ASCII tokens of 8 and 9 bytes (the edge of the stopword key's
# ASCII path), and one-line docs of 1-15 stripped bytes, twice (the
# line hash's 8-byte words and its tail)
fdocs = [b"word", b"a " + b"x" * 40, "abé".encode(),
         "x abc😀".encode(), "x ab中".encode(),
         b"a " + b"b" * 8, b"a " + b"b" * 9, b"x (THE....", b"x 'la'!!!!!"]
fdocs += [b" " + b"x" * k + b" \n" for k in range(1, 16)]
fdocs += [b"y" * k + b"\n" + b"y" * k for k in range(1, 16)]
s = same("quality_scan", *cat_of(fdocs), *qluts)[0]
assert s[:, 12].tolist()[-15:] == [1] * 15
for d in fdocs:
    same("quality_scan", *cat_of([d]), *qluts)

# cheap_squeeze on a squeezed 4097-char doc, a doc squeezed to nothing,
# 4-byte chars straddling its chunk edges (48 = 4 * 11 + 4: one ASCII
# char shifts every 4-byte char across an edge) and docs it copies
# whole (4097 unpredictable chars that fail the trigger test, a short
# and an empty doc), each doc alone too, so a read past its end or a
# copy past the output hits the redzone
probe = "abc.jpg " * 32
sqdocs = [(probe + "x" * 3841).encode(), (" " * 5000).encode(),
          (probe + "a" + "\U0001F600 " * 2000).encode(),
          (probe + "\U0001F600\U0001F601a" * 1400).encode(),
          "".join(map(chr, range(0x4E00, 0x4E00 + 4097))).encode(),
          b"x y", b""]
sq = same("cheap_squeeze", *cat_of(sqdocs))[0]
assert sq.tolist() == [True] * 4 + [False] * 3
for d in sqdocs:
    same("cheap_squeeze", *cat_of([d]))

# extract_scan_batch on entity-dense pages and with each entity form
# (8-char and unknown names, "&;", numeric and named) at a page's very
# end, with and without the source map and the \r normalization copy
ent = extract._ent_table()
dense = (b"&thetasym;&thetasym &thetasymx;&abcdefgh;&abcdefghi;&;&#;&#x;"
         b"&amp&lt;&#65;&#x1F600;&#xD800;&#99999999999;&notanentity; "
         * 200)
tails = [b"&", b"&#", b"&#x", b"&#65", b"&#x41", b"&#0065;", b"&amp",
         b"&thetasym", b"&thetasym;", b"&abcdefgh", b"&abcdefghi", b"&;",
         b"&#;", b"&eacute"]
for wm in (False, True):
    same("extract_scan_batch", *cat_of([dense] + tails), *ent, with_map=wm)
    for t in tails:
        same("extract_scan_batch", *cat_of([b"a " + t]), *ent, with_map=wm)
        same("extract_scan_batch", *cat_of([b"\r\n" + t]), *ent,
             with_map=wm)

# the UTF-8 gate on sequences cut off or invalid at a page's very end
for g in (b"\xc3", b"\xe2\x82", b"\xf0\x9f\x98", b"a\xed\xa0",
          b"\xf4\x90\x80\x80", b"ok" * 5 + b"\xe0", b"\xc2\x80"):
    assert same("extract_scan_batch", *cat_of([g]), *ent)[2][0] < len(g) \
        or g == b"\xc2\x80"

# page_hints_scan on 8 KB heads that end mid-construct (exactly at the
# head's end, where the page ends too, or cut by an invalid byte), on
# empty pages (a null page reads as empty) and on urls cut mid-char;
# each page alone too, in exact-size buffers
from cld2_ray.functions import hints
hs_tables = hints._scan_tables()
hs_tails = [b"<!-- lang=fr", b"<script>x lang=fr", b"<a lang=fr", b"<html lang=f",
            b"<meta charset=euc", b"content-language content", b"lang=fr-C",
            b"xml:lang", b"<scrip", b"<!--", b"charset", b"lang"]
hs_pages = [b"", b"<", b"lang=", b"\xff"]
for t in hs_tails:
    pad = b" " * (8192 - len(t))
    hs_pages += [t, pad + t, pad + t[:-1] + b"\xff", pad + t + b"lang=de"]
hs_urls = [b"https://a.fr/", b"", b"http://x.\xe2\x84\xaa", b"\xe2\x84",
           b"\xe2\x84\xaa://a.de", b"http://a.\xe2", b"https://", b"x:/"]
hs_urls = [hs_urls[k % len(hs_urls)] for k in range(len(hs_pages))]
hs_valid = same("extract_scan_batch", *cat_of(hs_pages), *ent)[2]
assert same("page_hints_scan", *cat_of(hs_pages), hs_valid,
            *cat_of(hs_urls), hs_tables)[2][-1] > 0
for h, u, v in zip(hs_pages, hs_urls, hs_valid):
    same("page_hints_scan", *cat_of([h]), np.array([v]), *cat_of([u]),
         hs_tables)

# fastlangid_score over long, short, blank and one-script docs and
# docs at the 512-byte cap with a 4-byte char at the cut, whole or cut
# off at the batch's end
capped = cap_then_lower(
    ["a" * 508 + "\U0001F600b", "a" * 509 + "\U0001F600", "\U0001F600" * 200,
     " \u3000\x85 ", "", "ελληνικά " * 80, "ไทย" * 60, "ab вг"])
assert len(capped[0].encode()) == 512 and len(capped[1]) == 509
fl_docs = [d.decode().lower().encode() for d in docs] + [
    " ".join(hz).encode()] + [d.encode() for d in capped] + [
    b"x" * 508 + b"\xf0\x9f\x98", b"x" * 509 + b"\xf0\x9f\x98"]
w = fastlangid.weights()
fl = (w.bucket_index, w.table, us.script_lut(),
      fastlangid._ONE_SCRIPT)
route = same("fastlangid_score", *cat_of(fl_docs), *fl)[0]
assert set(route.tolist()) == {-1, 0, us.GREEK, us.THAI}
for d in fl_docs[-10:]:
    same("fastlangid_score", *cat_of([d]), *fl)

# lower_docs at its output bound (U+0130 and U+023A lower to 3/2 of
# their bytes, and a 2-byte lead cut off at the batch's end reads as a
# char of its own), over U+03A3 whose context reaches a doc's ends or
# the cap, runs of ASCII up to the ends and the cap, in reverse order
lt = us.str_lower_tables()
lw = [("\u0130" * 300).encode(), ("\u023a" * 7).encode() + b"\xc8",
      "ΣΣ'Σ".encode(), "a'\u00adΣ".encode(), "Σ''".encode(),
      b"x" * 509 + "Σ".encode() + b"a", b"A" * 23, b"",
      "a\u0301Σ\u02b0".encode(), b"Z" * 15 + b"\xc8"]
for cap in (-1, 512, 3, 0):
    for frame in (False, True):
        same("lower_docs", *cat_of(lw), np.arange(len(lw))[::-1].copy(),
             lt, cap, frame)
for d in lw:
    same("lower_docs", *cat_of([d]), np.array([0]), lt, -1, True)
# 15 bytes in, 15 + 15 // 2 + 1 out: the binding's bound, exactly
assert len(same("lower_docs", *cat_of(lw[1:2]), np.array([0]), lt)[0]) \
    == 7 * 3 + 2

# ppl_score over long, short and empty docs
framed = [(" " + d.decode().lower() + " ").encode() for d in docs] + [b""]
framed.append(" ".join(hz).encode())
pm = perplexity.models()
lids = [langs.lang_id(c) for c in ("en", "fr", "de")] + [-1]
same("ppl_score", *cat_of(framed),
     np.resize(np.array(lids, dtype=np.int64), len(framed)), pm.table,
     pm.uni)

# rep_words_multi on max-length spans, copied to an exact-size buffer:
# random Han words are all kept (the output is the input, filling the
# caller-sized buffer but for its framing slack) and a repeated word is
# all dropped
rng = np.random.default_rng(2)
kept = " ".join("".join(map(chr, rng.integers(0x4E00, 0x9FA5, k)))
                for k in rng.integers(1, 4, 30000))
t = script_spans_batch([kept, "abc " * 40000])
assert (t.end - t.start).min() >= MAX_SCRIPT_BYTES // 2
assert (t.end - t.start).max() >= MAX_SCRIPT_BYTES
for han in (t.script == us.HANI, t.script != us.HANI):
    rcat, rends = cat_of([t.buf[s:e].tobytes()
                          for s, e in zip(t.start[han], t.end[han])])
    rw, rw_ends = same("rep_words_multi", rcat, rends[:-1], rends[1:])
    assert han.sum() >= 2
    if han[0]:
        assert np.array_equal(rw, rcat)
    else:
        assert (np.diff(rw_ends, prepend=0) < 16).all()

# md5_windows past its first 4 KB window buffer, so it grows by realloc
# (twice for the second doc); the third doc is shorter than the window
toks = [b"x" * 1500, b"y" * 1700, b"z" * 900, b"w" * 5000, b"v" * 9000,
        b"u", b"t"]
for window in (1, 3):
    same("md5_windows", *cat_of(toks), np.array([0, 3, 6, 7]), window)

# doc_stage over 16 streams (its most), each adding 30 languages to each
# of 5 docs, so every DocTote fills its 24 slots and evicts
from cld2_ray.functions import langid
n = 5
streams = [(np.repeat(np.arange(n), 30),
            *(rng.integers(lo, hi, 30 * n)
              for lo, hi in ((1, langs.NUM_LANGS), (1, 500), (0, 2000),
                             (0, 101)))) for _ in range(16)]
for flags in (0, native.DS_BEST_EFFORT, native.DS_TOTE_TOP):
    same("doc_stage", n, streams, rng.integers(0, 60000, n),
         np.array([0, 0, 2, 2, 5, 5]), rng.integers(1, langs.NUM_LANGS, 5),
         flags, langid._LANG_PROPS, langid._LANG_IDS)
print("clean")
"""

    def test_worst_cases_clean_under_asan_ubsan(self, tmp_path):
        import os
        import pathlib
        import shutil
        import subprocess
        import sys
        libs = [subprocess.run([native._CMD[0], f"-print-file-name={n}"],
                               capture_output=True, text=True).stdout.strip()
                for n in ("libasan.so", "libubsan.so")]
        if not all(os.path.isabs(p) for p in libs):
            pytest.skip("the C compiler has no sanitizer runtimes")
        pkg = tmp_path / "native_copy"
        pkg.mkdir()
        src_dir = pathlib.Path(native.__file__).parent
        shutil.copy(src_dir / "quadscan.c", pkg)
        init = (src_dir / "__init__.py").read_text()
        assert '"-fPIC",' in init
        (pkg / "__init__.py").write_text(init.replace(
            '"-fPIC",', '"-fPIC", "-g", "-fsanitize=address,undefined", '
            '"-fno-sanitize-recover=all", "-fno-omit-frame-pointer",', 1))
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, LD_PRELOAD=" ".join(libs),
                   ASAN_OPTIONS="detect_leaks=0",
                   PYTHONPATH=os.pathsep.join([str(tmp_path), root]))
        r = subprocess.run([sys.executable, "-c", self.DRIVER],
                           cwd=tmp_path, env=env, capture_output=True,
                           text=True, timeout=600)
        assert r.returncode == 0 and r.stdout.strip() == "clean", \
            r.stdout + r.stderr[-4000:]


# Σ's neighbours: cased chars (Latin, Greek, Deseret, the titlecase ǅ),
# case-ignorables (', U+00AD, U+0301, U+02B0, which is cased too), the
# sigmas, spaces, a digit and U+0130
_SIGMA_CHARS = ["Σ", "σ", "ς", "a", "Á", "Ω", "\U00010400", "ǅ", "'",
                "­", "́", "ʰ", " ", "\n", "1", "İ"]


def _lowered_want(texts, order, cap=-1, frame=False):
    """The oracle's bytes and offsets of uscript.lowered."""
    low = fastlangid_oracle.cap_then_lower([texts[i] for i in order], cap)
    docs = [((" " + t + " ") if frame else t).encode() for t in low]
    return b"".join(docs), np.cumsum([0] + [len(d) for d in docs])


def _check_lowered(texts, order, cap=-1, frame=False):
    data, off = us.lowered(texts, order, cap, frame)
    want, want_off = _lowered_want(texts, order, cap, frame)
    assert bytes(data) == want and off.tolist() == want_off.tolist(), \
        (texts, order, cap, frame)


class TestLowerDocs:
    """native.lower_docs (uscript.lowered) equals the Python cap then
    str.lower of tests/oracles/fastlangid.py, framed, in any order."""

    def test_every_code_point(self):
        """Every non-surrogate code point, alone, lowers as str.lower
        lowers it."""
        texts = [chr(c) for c in range(0x110000)
                 if not 0xD800 <= c <= 0xDFFF]
        data, off = us.lowered(texts, np.arange(len(texts)))
        want = [t.lower().encode() for t in texts]
        assert np.diff(off).tolist() == [len(w) for w in want]
        assert bytes(data) == b"".join(want)

    def test_tables(self):
        """The probed tables: U+0130 is the one char that lowers to two,
        and the classes of a few known chars."""
        t = us.str_lower_tables()
        assert t.ext.tolist() == [ord("i"), 0x307]
        assert t.low[0x130] == 1 << 31
        runs = np.searchsorted(t.cls_start, [ord(c) for c in _SIGMA_CHARS],
                               side="right") - 1
        assert t.cls[runs].tolist() == [1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2,
                                        0, 0, 0, 1]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(st.sampled_from(_SIGMA_CHARS), max_size=12),
                    max_size=5),
           st.sampled_from([-1, 0, 1, 2, 3, 5, 8, 512]), st.booleans(),
           st.randoms(use_true_random=False))
    @example(["aΣ", "Σ", "a'Σ", "a­Σ'", "aΣ́a", "ΑΣ b"], -1, False,
             None)
    def test_sigma_contexts(self, texts, cap, frame, rnd):
        order = list(range(len(texts)))
        if rnd is not None:
            rnd.shuffle(order)
        _check_lowered(texts, np.array(order, dtype=np.int64), cap, frame)

    def test_cap(self):
        """The cap cuts at a char boundary before lowering: a 4-byte
        char across byte 512, U+0130 just before the cut, and a Σ that
        the cut makes final."""
        from cld2_ray.functions.fastlangid import CAP_BYTES
        texts = ["a" * 510 + "\U0001F600b", "a" * 510 + "İb",
                 "a" * 510 + "Σb", "Σ" * 300, "A" * 600, "é" * 256]
        _check_lowered(texts, np.arange(len(texts)), CAP_BYTES)
        assert [len(fastlangid_oracle.cap_text(t).encode())
                for t in texts] == [510, 512, 512, 512, 512, 512]
        data, off = us.lowered(texts, np.arange(3), CAP_BYTES)
        docs = [bytes(data[a:b]).decode() for a, b in zip(off, off[1:])]
        assert docs == ["a" * 510, "a" * 510 + "i̇", "a" * 510 + "ς"]
        assert us.lowered(["a" * 510 + "Σb"], [0])[0][-3:].tobytes() \
            == "σb".encode()

    def test_columns(self):
        """A list with None, an Arrow column with nulls, an empty one and
        a sliced one read alike, and so does any order, repeats too."""
        import pyarrow as pa
        texts = ["ΑΣ", None, "", "Straße İ", "ΣΑΣ ΣΑΣ.", "KΩK"]
        col = pa.array(texts, type=pa.large_string())
        for order in ([], [0], [5, 3, 1], [2, 2, 4, 0]):
            want = _lowered_want(texts, order, frame=True)
            for docs in (texts, col, pa.array(texts)):
                data, off = us.lowered(docs, np.array(order, dtype=np.int64),
                                       frame=True)
                assert (bytes(data), off.tolist()) == \
                    (want[0], want[1].tolist())
        sub = col.slice(3, 2)
        _check_lowered(sub.to_pylist(), np.arange(2))
        assert bytes(us.lowered(sub, np.arange(2))[0]) == \
            _lowered_want(sub.to_pylist(), [0, 1])[0]
        data, off = us.lowered(pa.array([], type=pa.string()),
                               np.zeros(0, dtype=np.int64))
        assert len(data) == 0 and off.tolist() == [0]
        with pytest.raises(ValueError, match="order"):
            us.lowered(texts, np.array([6]))


class TestBatchOrder:
    """fastlangid.classify_batch and perplexity.score_batch score in the
    order of the language ids they are given, and both give each text
    of a shuffled batch its own result."""

    @settings(max_examples=25, deadline=None)
    @given(st.randoms(use_true_random=False),
           st.lists(st.integers(0, langs.NUM_LANGS - 1), min_size=60,
                    max_size=60))
    def test_shuffled_and_grouped(self, rnd, keys):
        import pyarrow as pa
        from cld2_ray.functions import fastlangid, perplexity
        texts = _page_texts(60)[:57] + ["", None, "ΣΑΣ"]
        codes = [("en", "fr", "de", "ru", "un", "el")[i % 6]
                 for i in range(60)]
        base_l, base_c = fastlangid.classify_batch(texts)
        base_p, base_g = perplexity.score_batch(texts, codes)
        perm = list(range(60))
        rnd.shuffle(perm)
        sh = [texts[i] for i in perm]
        sh_codes = [codes[i] for i in perm]
        for docs in (sh, pa.array(sh, type=pa.large_string())):
            for ids in (None, np.array(keys)):
                lang, conf = fastlangid.classify_batch(docs, ids)
                assert lang.to_pylist() == [base_l[i].as_py() for i in perm]
                assert np.array_equal(conf, base_c[perm])
            ppl, gib = perplexity.score_batch(docs, sh_codes)
            assert np.array_equal(ppl, base_p[perm])
            assert np.array_equal(gib, base_g[perm])


    def test_classify_batch_checks_its_languages(self):
        """classify_batch reads its languages through langs.ids: one
        language for three texts, or an id outside [0, NUM_LANGS),
        raises ValueError."""
        from cld2_ray.functions import fastlangid
        texts = ["the cat", "le chat", "die Katze"]
        for lang in ([1], np.array([0, 1, langs.NUM_LANGS])):
            with pytest.raises(ValueError):
                fastlangid.classify_batch(texts, lang)
        assert fastlangid.classify_batch(texts, ["en", "fr", "de"])[0] \
            .to_pylist() == fastlangid.classify_batch(texts)[0].to_pylist()


def _lists(arrays) -> tuple[list, ...]:
    """perplexity.score_batch's arrays as the oracle's lists."""
    return tuple(a.tolist() for a in arrays)


class TestPplScore:
    """native.ppl_score (perplexity.score_batch) must be bit-equal to
    the numpy batch scorer of tests/oracles/perplexity.py."""

    def test_pages_langs_and_edges(self):
        from cld2_ray.functions import perplexity
        texts = _page_texts(150) + ["", "a", "ab", "é", None]
        codes = ["en", "fr", "de", "ru", "es", "ja", "xx-unknown", "un",
                 "iu", "nr"]
        assert langs.lang_id("iu") >= len(perplexity.models().thresholds)
        for k in range(len(codes)):
            lcs = [codes[(i + k) % len(codes)] for i in range(len(texts))]
            want = perplexity_oracle.score_batch_numpy(texts, lcs)
            got = _lists(perplexity.score_batch(texts, lcs))
            assert got == want
        assert any(p > 0 for p in got[0])

    def test_memo_eviction(self):
        """One call with more distinct trigrams than the memo has slots
        (2^PPL_MEMO_BITS, a quadscan.c constant), the second half
        repeating the first, so evicted keys come back."""
        import pathlib
        import re
        from cld2_ray.functions import perplexity
        src = (pathlib.Path(native.__file__).parent / "quadscan.c"
               ).read_text(encoding="utf-8")
        memo_bits = int(re.search(r"#define PPL_MEMO_BITS (\d+)",
                                  src).group(1))
        rng = np.random.default_rng(3)
        noise = "".join(map(chr, rng.integers(0x4E00, 0x9FA5, 100000)))
        texts = [noise + noise, " ".join(_page_texts(40)) * 2, noise[:500]]
        lcs = ["en", "fr", "zh"]
        c = perplexity_oracle._chars(texts[0])
        tri, _ = perplexity_oracle._keys_tri(langs.lang_id("en"), c)
        assert len(np.unique(tri)) > 1 << memo_bits
        want = perplexity_oracle.score_batch_numpy(texts, lcs)
        assert _lists(perplexity.score_batch(texts, lcs)) == want

    def test_same_text_many_languages(self):
        """Keys that differ only in the language bits never share a
        memo entry."""
        from cld2_ray.functions import perplexity
        text = " ".join(_page_texts(20))
        codes = ["en", "fr", "de", "es", "it", "nl", "ru", "en", "fr"]
        texts = [text] * len(codes)
        want = perplexity_oracle.score_batch_numpy(texts, codes)
        got = _lists(perplexity.score_batch(texts, codes))
        assert got == want
        assert len(set(got[0])) == len(set(codes))

    def test_no_state_across_calls(self):
        """A call on another table/uni first leaves no memo entries
        behind: the same keys then score from the real model."""
        from cld2_ray.functions import perplexity
        from cld2_ray.state.model import HashTable
        m = perplexity.models()
        texts = _page_texts(60)
        lcs = ["en"] * len(texts)
        want = perplexity_oracle.score_batch_numpy(texts, lcs)
        other = HashTable(m.table.keys, m.table.vals * 3 + 1, m.table.mask)
        native.ppl_score(
            *native.utf8_cat([" " + (t or "").lower() + " " for t in texts]),
            np.full(len(texts), langs.lang_id("en"), dtype=np.int64),
            other, m.uni[::-1] * 0.5)
        assert _lists(perplexity.score_batch(texts, lcs)) == want

    def test_rejects_non_power_of_two_vocab(self):
        from cld2_ray.functions import perplexity
        m = perplexity.models()
        for v in (4095, 3000, 0):
            with pytest.raises(ValueError, match="power of two"):
                native.ppl_score(b" ab ", np.array([0, 4]), np.array([0]),
                                 m.table, np.ones((2, v)))


def _page_texts(n=300):
    from cld2_ray.sources.pages import page_batch
    from cld2_ray.functions.extract import extract_text, valid_utf8_prefix
    b = page_batch(0, n, seed=42)
    out = []
    for h in b["html"].to_pylist():
        h = h or b""
        vp = valid_utf8_prefix(h)
        out.append(extract_text(h[:vp]) if vp else "")
    return out


_FUZZ_CODES = ("en", "fr", "de", "it", "ru", "uk", "bg", "ja", "zh")


def _fuzz_text(segments) -> str:
    """Text from seed word pools: (code, start, count) per segment;
    ja/zh segments are character runs (no spaces in their seeds)."""
    from cld2_ray.data.seeds import SEEDS
    out = []
    for code, start, count in segments:
        pool = SEEDS[code]
        if code in ("ja", "zh"):
            pool = pool.replace(" ", "")
            k = start % len(pool)
            out.append((pool + pool)[k:k + 3 * count])
        else:
            words = pool.split()
            out.extend(words[(start + j) % len(words)] for j in range(count))
    return " ".join(out)


def _hint_payload():
    """One span's hint payload: boosts (lid | w << 16) and whacks (-lid)
    of pool-language (touched) and random (mostly untouched) ids, a
    boost on id 0 or 1, or one weight on several ids so the top scores
    tie across ids."""
    pool_ids = st.sampled_from([langs.lang_id(c) for c in _FUZZ_CODES])
    lid = st.one_of(pool_ids, st.integers(2, langs.NUM_LANGS - 1))
    weight = st.sampled_from([0, 1, 7, 60, 500, 100000])
    boost = st.builds(lambda l, w: [l | (w << 16)], lid, weight)
    low_boost = st.builds(lambda l, w: [l | (w << 16)],
                          st.sampled_from([0, 1]), weight)
    whack = st.builds(lambda l: [-l], st.one_of(
        pool_ids, st.integers(1, langs.NUM_LANGS - 1)))
    tie = st.builds(lambda ls, w: [l | (w << 16) for l in ls],
                    st.lists(st.one_of(lid, st.sampled_from([0, 1])),
                             min_size=2, max_size=4),
                    st.sampled_from([60, 500, 100000]))
    return st.lists(st.one_of(boost, low_boost, whack, tie),
                    max_size=4).map(lambda ops: sum(ops, []))


def _hint_csr(hl_list):
    csr = np.zeros(len(hl_list) + 1, dtype=np.int64)
    flat = []
    for k, hl in enumerate(hl_list):
        flat.extend(hl or ())
        csr[k + 1] = len(flat)
    return csr, np.asarray(flat, dtype=np.int64)


def _span_letter(span: bytes, byte_offsets) -> np.ndarray:
    """The ranges pass's ``cletter`` of chunks starting at span-local
    ``byte_offsets``: the index among the span's letters (non-space
    chars) of the last letter at or before the offset, the span's last
    byte at most; 0 if none. Every hit offset is a letter's first byte,
    so this pins the sharpened start itself."""
    arr = np.frombuffer(span, dtype=np.uint8)
    letters = np.flatnonzero(((arr & 0xC0) != 0x80) & (arr != 0x20))
    at = np.minimum(byte_offsets, len(arr) - 1)
    return np.maximum(np.searchsorted(letters, at, side="right") - 1, 0)


def _check_cjk(m, cjk, hl_list, uni_table=None):
    """cjk_chunk_score on the CJK spans ``cjk`` == score_chunks_multi
    over cjk_candidates' table hits (unis before bis at equal char)."""
    from cld2_ray.functions import score
    uni_table = uni_table or m.uni
    lens = np.array([sp.text_bytes for sp in cjk], dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    vparts, oparts, sparts = [], [], []
    for k, sp in enumerate(cjk):
        uni, upos, bi, bpos = hits.cjk_candidates(sp.text)
        uvals = lookup_numpy(uni_table, uni)
        bvals = bucket_lookup(m.cjkbi, bi, False)
        um, bm = uvals != 0, bvals != 0
        av = np.concatenate([uvals[um], bvals[bm]])
        ap = np.concatenate([upos[um], bpos[bm]])
        o = np.argsort(ap, kind="stable")
        vparts.append(av[o])
        oparts.append(ap[o] * 3 + starts[k])
        sparts.append(np.full(len(o), k, dtype=np.int64))
    l3, q3 = unpack_langprobs(np.concatenate(vparts))
    want = score.score_chunks_multi(
        l3, q3, np.concatenate(oparts), np.concatenate(sparts),
        starts, lens,
        np.full(len(cjk), score.CHUNKSIZE_UNIS, dtype=np.int64),
        m.expected_uni, hl_list)
    bufs = [sp.text.encode("utf-8") for sp in cjk]
    bounds = np.cumsum([len(b) for b in bufs]).astype(np.int64)
    csr, flat = _hint_csr(hl_list)
    got = native.cjk_chunk_score(
        b"".join(bufs), bounds - [len(b) for b in bufs], bounds, lens,
        uni_table, m.cjkbi, score.CHUNKSIZE_UNIS, m.expected_uni,
        langs.CLOSE_SET, csr, flat)
    for x, y in zip(want, got):
        assert np.array_equal(np.asarray(x), y)
    return got


class TestFusedChunkScore:
    """quad_octa_chunk_score / cjk_chunk_score must be bit-equal to the
    numpy chain (many_hits -> unpack -> score_chunks_multi)."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(st.tuples(st.sampled_from(_FUZZ_CODES),
                                       st.integers(0, 10 ** 6),
                                       st.integers(1, 90)),
                             min_size=1, max_size=4),
                    min_size=1, max_size=3),
           st.data())
    def test_fuzz_vs_numpy(self, docs, data):
        """Both chunk kernels, MANY with and without with_ranges,
        against score_chunks_multi under random per-span hint payloads
        (boosts, whacks of touched and untouched languages, ids 0 and 1,
        tied top scores)."""
        from cld2_ray.functions import score
        from cld2_ray.functions.langid import Detector
        det = Detector()
        m = det.model
        sps = [sp for segs in docs for sp in spans.script_spans(
            _fuzz_text(segs))]
        many = [sp for sp in sps if us.script_rtype(sp.script)
                == us.RTYPE_MANY]
        cjk = [sp for sp in sps if us.script_rtype(sp.script)
               == us.RTYPE_CJK]
        if many:
            bufs = [sp.text_utf8 for sp in many]
            lens = np.array([len(b) for b in bufs], dtype=np.int64)
            bounds = np.cumsum(lens)
            starts = bounds - lens
            cat = b"".join(bufs)
            latin = np.array([sp.script == us.LATIN for sp in many])
            s4 = us.LSCRIPT4[np.array([sp.script for sp in many])]
            hl_list = [data.draw(_hint_payload()) for _ in many]
            csr, flat = _hint_csr(hl_list)
            vals, offs, dist = langid_oracle.many_hits(det, cat, bounds,
                                                       latin)
            l3, q3 = unpack_langprobs(vals)
            span_of = np.searchsorted(bounds, offs, side="right")
            sizes = np.full(len(bufs), score.CHUNKSIZE_QUADS,
                            dtype=np.int64)
            want = score.score_chunks_multi(
                l3, q3, offs, span_of, starts, lens, sizes,
                m.expected_quad, hl_list, distinct_mask=dist,
                script4_of_span=s4)
            args = (cat, starts, bounds, m.quad, m.socta, m.docta,
                    m.xocta, latin, score.CHUNKSIZE_QUADS,
                    m.expected_quad, langs.CLOSE_SET, csr, flat, s4)
            got = native.quad_octa_chunk_score(*args)
            ranged = native.quad_octa_chunk_score(*args, with_ranges=True)
            for x, y, z in zip(want, got, ranged):
                assert np.array_equal(np.asarray(x), y)
                assert np.array_equal(y, z)
            # ranges outputs: the zeros-expected rel and the letters of
            # the sharpened chunk starts of the hinted top languages
            rel0 = score.score_chunks_multi(
                l3, q3, offs, span_of, starts, lens, sizes,
                np.zeros_like(m.expected_quad), hl_list,
                distinct_mask=dist, script4_of_span=s4)[3]
            assert np.array_equal(rel0, ranged[5])
            for i in range(len(bufs)):
                hsel, csel = span_of == i, ranged[4] == i
                if not hsel.any():
                    continue
                bidx = langid_oracle.sharpen_boundaries(
                    ranged[0][csel].astype(np.int64), l3[hsel], q3[hsel],
                    score.CHUNKSIZE_QUADS, int(hsel.sum()))
                assert np.array_equal(
                    _span_letter(bufs[i], offs[hsel][bidx] - starts[i]),
                    ranged[6][csel])
        if cjk:
            _check_cjk(m, cjk, [data.draw(_hint_payload()) for _ in cjk])

    def test_unknown_lanes_suppressed(self):
        """An UNKNOWN (id 0) lane never scores, however large its
        qprob (no model table has one; a crafted unigram table does)."""
        from cld2_ray.state.model import HashTable
        m = default_model()
        text = "敏捷的棕色狐狸跳过了那只懒狗然后它跑进森林" * 6
        cjk = [sp for sp in spans.script_spans(text)
               if us.script_rtype(sp.script) == us.RTYPE_CJK]
        a, b = langs.lang_id("ja"), langs.lang_id("zh")
        uni = HashTable.build({
            ord(c): (255 << 8) | ((a | 3 << 8) << 16)
            | ((b | (1 + k % 3) << 8) << 32)
            for k, c in enumerate(sorted(set(text)))})
        assert len(_check_cjk(m, cjk, [None] * len(cjk), uni)[0]) > 1

    def test_many_spans_vs_numpy(self):
        from cld2_ray.functions import langs, score
        from cld2_ray.functions.langid import Detector
        det = Detector()
        many = []
        latin = []
        script4 = []
        for t in _page_texts():
            for sp in spans.script_spans(t):
                if us.script_rtype(sp.script) == us.RTYPE_MANY:
                    many.append(sp.text.encode("utf-8"))
                    latin.append(sp.script == us.LATIN)
                    script4.append(int(us.LSCRIPT4[sp.script]))
        bufs = many
        latin = np.asarray(latin, dtype=bool)
        script4 = np.asarray(script4, dtype=np.uint8)
        lens = np.array([len(x) for x in bufs], dtype=np.int64)
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
        bounds = np.cumsum(lens)
        cat = b"".join(bufs)
        hl_list = [None] * len(bufs)
        hl_list[2] = [5, 9]  # exercise the hint-boost path
        all_vals, all_off, all_dist = langid_oracle.many_hits(
            det, cat, bounds, latin)
        l3, q3 = unpack_langprobs(all_vals)
        span_of = np.searchsorted(bounds, all_off, side="right")
        c_np = score.score_chunks_multi(
            l3, q3, all_off, span_of, starts, lens,
            np.full(len(bufs), score.CHUNKSIZE_QUADS, dtype=np.int64),
            det.model.expected_quad, hl_list, distinct_mask=all_dist,
            script4_of_span=script4)
        hint_csr = np.zeros(len(bufs) + 1, dtype=np.int64)
        flat = []
        for k, hl in enumerate(hl_list):
            if hl:
                flat.extend(hl)
            hint_csr[k + 1] = len(flat)
        c_c = native.quad_octa_chunk_score(
            cat, starts, bounds, det.model.quad, det.model.socta,
            det.model.docta, det.model.xocta, latin,
            score.CHUNKSIZE_QUADS, det.model.expected_quad,
            langs.CLOSE_SET, hint_csr, np.asarray(flat, dtype=np.int64),
            script4_of_span=script4)
        assert len(c_np[0]) > 100
        for x, y in zip(c_np, c_c):
            assert np.array_equal(np.asarray(x), np.asarray(y))

    def test_cjk_spans_vs_numpy(self):
        from cld2_ray.functions import langs, score
        from cld2_ray.functions.langid import Detector
        det = Detector()
        cjk = []
        for t in _page_texts():
            for sp in spans.script_spans(t):
                if us.script_rtype(sp.script) == us.RTYPE_CJK:
                    cjk.append(sp)
        assert cjk, "corpus should contain CJK spans"
        hl_list = [None] * len(cjk)
        hl_list[0] = [7]
        lens = np.array([sp.text_bytes for sp in cjk], dtype=np.int64)
        keys_parts, pos_parts, span_idx_parts = [], [], []
        starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
        for k, sp in enumerate(cjk):
            uni, upos, bi, bpos = hits.cjk_candidates(sp.text)
            uvals = lookup_numpy(det.model.uni, uni)
            bvals = bucket_lookup(det.model.cjkbi, bi, False)
            um, bm = uvals != 0, bvals != 0
            av = np.concatenate([uvals[um], bvals[bm]])
            ap = np.concatenate([upos[um], bpos[bm]])
            o = np.argsort(ap, kind="stable")
            keys_parts.append(av[o])
            pos_parts.append(ap[o] * 3 + starts[k])
            span_idx_parts.append(np.full(len(o), k, dtype=np.int64))
        all_vals = np.concatenate(keys_parts)
        all_off = np.concatenate(pos_parts)
        span_of = np.concatenate(span_idx_parts)
        l3, q3 = unpack_langprobs(all_vals)
        c_np = score.score_chunks_multi(
            l3, q3, all_off, span_of, starts, lens,
            np.full(len(cjk), score.CHUNKSIZE_UNIS, dtype=np.int64),
            det.model.expected_uni, hl_list)
        bufs = [sp.text.encode("utf-8") for sp in cjk]
        bounds = np.cumsum(np.array([len(x) for x in bufs],
                                    dtype=np.int64))
        cat = b"".join(bufs)
        hint_csr = np.zeros(len(bufs) + 1, dtype=np.int64)
        flat = []
        for k, hl in enumerate(hl_list):
            if hl:
                flat.extend(hl)
            hint_csr[k + 1] = len(flat)
        c_c = native.cjk_chunk_score(
            cat, bounds - lens, bounds, lens, det.model.uni, det.model.cjkbi,
            score.CHUNKSIZE_UNIS, det.model.expected_uni,
            langs.CLOSE_SET, hint_csr, np.asarray(flat, dtype=np.int64))
        for x, y in zip(c_np, c_c):
            assert np.array_equal(np.asarray(x), np.asarray(y))


class TestChunkRowsChecked:
    """The chunk kernels are given their output-row capacity
    (native._chunk_bufs) and check it: a call whose chunks need n rows
    raises ValueError when given n - 1, before writing past them, and
    gives its usual output with exactly n."""

    def test_one_row_short_raises(self, monkeypatch):
        from cld2_ray.data.seeds import SEEDS
        from cld2_ray.functions import score
        m = default_model()
        hz = "".join(map(chr, range(0x4E00, 0x4E00 + 3000)))
        t = spans.script_spans_batch(
            [SEEDS["en"], SEEDS["de"][:200] + " " + hz[:90], "a",
             hz, "a y o e i u " * 2000])
        lat = np.flatnonzero(t.script == us.LATIN)
        han = np.flatnonzero(t.script == us.HANI)
        assert len(lat) >= 3 and len(han) >= 2

        def hints(rows):
            return (np.zeros(len(rows) + 1, dtype=np.int64),
                    np.zeros(0, dtype=np.int64))

        calls = []
        for rows in (lat, lat[:1], lat[-1:]):
            for wr in (False, True):
                calls.append((native.quad_octa_chunk_score, (
                    t.buf, t.start[rows], t.end[rows], m.quad, m.socta,
                    m.docta, m.xocta, np.ones(len(rows), dtype=bool),
                    score.CHUNKSIZE_QUADS, m.expected_quad,
                    langs.CLOSE_SET, *hints(rows),
                    us.LSCRIPT4[t.script[rows]]), {"with_ranges": wr}))
        for rows in (han, han[:1]):
            calls.append((native.cjk_chunk_score, (
                t.buf, t.start[rows], t.end[rows], t.text_bytes[rows],
                m.uni, m.cjkbi, score.CHUNKSIZE_UNIS, m.expected_uni,
                langs.CLOSE_SET, *hints(rows)), {}))
        real = native._chunk_bufs
        for fn, args, kw in calls:
            want = fn(*args, **kw)
            n = len(want[0])
            assert n > 0
            monkeypatch.setattr(native, "_chunk_bufs", lambda *a: tuple(
                b[:n - 1] for b in real(*a)))
            with pytest.raises(ValueError, match="output rows"):
                fn(*args, **kw)
            monkeypatch.setattr(native, "_chunk_bufs", lambda *a: tuple(
                b[:n] for b in real(*a)))
            for x, y in zip(want, fn(*args, **kw)):
                assert np.array_equal(x, y)
            monkeypatch.setattr(native, "_chunk_bufs", real)


class TestScratchFailure:
    """A kernel that cannot allocate its scratch returns -1 before it
    writes anything, and its binding raises MemoryError."""

    def test_bindings_raise_memory_error(self, monkeypatch):
        from cld2_ray.functions import fastlangid, perplexity, quality, score
        m, pm, w = default_model(), perplexity.models(), fastlangid.weights()
        t = spans.script_spans_batch(["hello world", "\u4e2d\u6587"])
        one = np.zeros(2, dtype=np.int64), np.zeros(0, dtype=np.int64)
        calls = {
            "_CS": lambda: native.quad_octa_chunk_score(
                t.buf, t.start[:1], t.end[:1], m.quad, m.socta, m.docta,
                m.xocta, [True], score.CHUNKSIZE_QUADS, m.expected_quad,
                langs.CLOSE_SET, *one, us.LSCRIPT4[t.script[:1]]),
            "_CJ": lambda: native.cjk_chunk_score(
                t.buf, t.start[1:], t.end[1:], t.text_bytes[1:], m.uni,
                m.cjkbi, score.CHUNKSIZE_UNIS, m.expected_uni,
                langs.CLOSE_SET, *one),
            "_SSM": lambda: native.script_spans_scan_multi(
                *native.utf8_cat(["ab"]), us.script_lut(), us.lower_lut(),
                100, 100),
            "_QS": lambda: native.quality_scan(
                *native.utf8_cat(["a b"]), *quality._scan_luts(),
                quality._stop_table()),
            "_PP": lambda: native.ppl_score(
                b" ab ", np.array([0, 4]), np.array([0]), pm.table, pm.uni),
            "_ACC": lambda: native.fastlangid_score(
                *native.utf8_cat(["ab"]), w.bucket_index, w.table,
                us.script_lut(), fastlangid._ONE_SCRIPT),
        }
        for var, call in calls.items():
            call()
            with monkeypatch.context() as mp:
                mp.setattr(native, var, lambda *a: -1)
                with pytest.raises(MemoryError, match="scratch"):
                    call()


class TestQualityScan:
    """apply_rules (C quality_scan + numpy rule cascade) must equal the
    Arrow/RE2 + pandas reference (apply_rules_arrow and its
    word_stats_arrow / line_stats_pandas parts) exactly."""

    @staticmethod
    def _eq(ref, got, text=None):
        for col in ref.columns:
            a, c = ref[col], got[col]
            if a.dtype.kind == "f":
                assert np.array_equal(a.to_numpy(), c.to_numpy()), \
                    (col, text)
            else:
                assert (a == c).all(), (col, text)

    EDGE = ["", "  ", "the'  (la. THE ''не,", "a b the",
            "... .... # …… {", "Lorem\tIPSUM", "lorem ipsum",
            "LOREM IPSUMx", "loreM ipsuM dolor", "NÃO com o",
            "И В НЕ на с",
            "'''the...... ", "word. Sentence! Q? 。！？",
            "İN in the", "ab\x0bcd ef", "a b the of and",
            # RE2 fold-orbit regressions: Cyrillic Extended-C folds
            # into listed stopwords (ᲀ→в U+1C80, ᲂ/ᲃ/ᲄ/ᲅ; ſ→s U+017F)
            "ᲀ ᲁ ᲂ ᲃ ᲄ ᲅ ᲆ ᲇ ᲈ", "ᲀ", "ᲅo ᲂн ѣ",
            "iſ aſ loſ ſe", "Ꙛ ꙛ Ꙩ пѻ",
            "(((la))) 'de' \"und\".", None,
            # line-stats edges (C line_scan_doc vs pandas pin)
            "\n\n\n", "a\nb\na\nb\na", "- b\n* s\n• u\n· d\nx",
            "e...\ne…\ne....\nn..\n...",
            " nbsp\t　\n   \n- x\n- x",
            "l one\nl one  \n  l one\nl ONE",
            "日本語。\n日本語。\n日本語…", "one line", "trailing\n",
            "- \n* ...\n…\n·", "x\n" * 300 + "y",
            # lines that differ only in trailing NULs: the line hash pads
            # its tail word with zeros and seeds with the line's length
            "x\nx\x00\nx\x00\x00", "abcdefgh\nabcdefgh\x00",
            "abcdefgh\x00\nabcdefgh\n\x00abcdefgh"]

    def test_pages_and_edges(self):
        import pandas as pd
        from cld2_ray.functions import quality
        texts = _page_texts() + self.EDGE
        tser = pd.Series(texts)
        lang = pd.Series(["en"] * len(texts))
        q_a = quality_oracle.apply_rules_arrow(tser, lang)
        q_c = quality.apply_rules(tser, lang)
        assert list(q_a.columns) == list(q_c.columns)
        self._eq(q_a, q_c)

    def test_letters_are_re2_pL(self):
        """For every code point of planes 0-3, a one-character word is an
        alpha word exactly when RE2's \\pL matches it (Kawi U+11F04 and
        CJK Extension G U+30000 among them), and no code point above
        plane 3 matches \\pL."""
        import pyarrow.compute as pc
        from cld2_ray.functions import quality
        col = quality_oracle.codepoint_column(0, 0x40000)
        want = pc.match_substring_regex(col, r"^\pL$") \
            .to_numpy(zero_copy_only=False)
        got = native.quality_scan(*native.utf8_cat(col),
                                  *quality._scan_luts(),
                                  quality._stop_table())[:, 3]
        assert np.array_equal(got == 1, want)
        assert want[0x11F04] and want[0x30000]
        above = quality_oracle.codepoint_column(0x40000, 0x110000)
        assert not pc.any(pc.match_substring_regex(above, r"\pL")).as_py()

    def test_letters_past_unicode_14(self):
        """Words of Kawi and of CJK Extension G letters (which Python's
        Unicode 14.0 does not know) are alpha words, as in the oracle."""
        import pandas as pd
        from cld2_ray.functions import quality
        tail = ". the and of"
        texts = [" ".join(["\U00011F04\U00011F05"] * 30) + tail,
                 " ".join(chr(0x30000 + k) + chr(0x31350 + k)
                          for k in range(30)) + tail]
        want = quality_oracle.apply_rules_arrow(pd.Series(texts))
        got = quality.rule_columns(texts)
        for col in want.columns:
            assert list(got[col]) == list(want[col]), col
        assert list(got["alpha_ratio"]) == [1.0, 1.0]
        assert list(got["drop_reason"]) == ["", ""]

    def test_fold_table_is_the_full_probe(self):
        """The fold table built from the candidates equals the per-letter
        probe over every code point; past its end the probe is identity."""
        from cld2_ray.functions import quality
        fold = quality._scan_luts()[1]
        full = quality_oracle.fold_lut_probe()
        assert np.array_equal(full[:len(fold)], fold)
        assert np.array_equal(full[len(fold):],
                              np.arange(len(fold), len(full)))
        assert fold[0x17F] == ord("s") and fold[0x1C80] == ord("в")

    # a token of NUL characters packs to the stopword table's key 0, the
    # value that marks an empty slot: it is no stopword
    NUL = ["the \x00 x", "(\x00)", "a \x00\x00 b", "\x00", "the.\x00 la\x00",
           "\x00the \x00\x00\x00\x00\x00\x00\x00\x00\x00 of"]

    def test_nul_tokens(self):
        import pandas as pd
        from cld2_ray.functions import quality
        lang = ["en"] * len(self.NUL)
        want = quality_oracle.apply_rules_arrow(pd.Series(self.NUL),
                                                pd.Series(lang))
        got = quality.rule_columns(self.NUL, lang)
        assert list(want["n_stopwords"]) == [1, 0, 1, 0, 0, 1]
        for col in want.columns:
            assert list(got[col]) == list(want[col]), col

    def test_nul_token_is_no_stopword_in_fused_batch(self):
        """One stopword ("the") keeps an English page out; a NUL token
        appended must not count as a second one."""
        import pyarrow as pa
        from cld2_ray.stages.core import fused_batch
        body = ("Scientists recently measured how quickly glaciers retreat "
                "across the northern mountain ranges during warmer "
                "summers. Their careful surveys show melting accelerates "
                "whenever spring arrives early, leaving valleys exposed "
                "beneath thinner snowpack each year.")
        html = [f"<html><body><p>{body}{tail}</p></body></html>".encode()
                for tail in ("", " \x00")]
        out = fused_batch(pa.table({"url": ["https://example.com/a"] * 2,
                                    "html": html, "warc_ts": [0, 0],
                                    "lang": ["", ""]}))
        assert out["lang_summary"].to_pylist() == ["en", "en"]
        assert out["drop_reason"].to_pylist() == ["too_few_stopwords"] * 2

    @settings(deadline=None, max_examples=150)
    @given(st.text(
        alphabet=st.characters(
            whitelist_categories=("L", "N", "P", "Z", "S"),
            max_codepoint=0x2FFF),
        max_size=400))
    @example("the \x00 of")
    @example("la\x00 the \x00\x00")
    def test_fuzz_word_stats(self, text):
        import pandas as pd
        from cld2_ray.functions import quality
        tser = pd.Series([text, "the la de", ""])
        self._eq(quality_oracle.word_stats_arrow(tser),
                 quality.apply_rules(tser), text)

    @settings(deadline=None, max_examples=150)
    @given(st.text(
        alphabet=st.characters(
            whitelist_categories=("L", "N", "P", "Z", "S", "Cc"),
            whitelist_characters="\n\t•·…-* .",
            max_codepoint=0x3000),
        max_size=400))
    def test_fuzz_line_stats(self, text):
        import pandas as pd
        from cld2_ray.functions import quality
        tser = pd.Series([text, "a\nb\na", ""])
        self._eq(quality_oracle.line_stats_pandas(tser),
                 quality.apply_rules(tser), text)


    def test_lorem_inside_words(self):
        """The "lorem ipsum" tracker sees every char, also inside a word
        on the scan's fast paths (l/L leave them), on texts that pass
        every earlier rule."""
        import pandas as pd
        from cld2_ray.functions import quality
        body = ("the cat sat on the mat and then the dog ran to the park "
                "where it played with a ball for a while. ") * 3
        heads = ["xlorem ipsum ", "(Lorem IPSUM) ", "lolorem ipsum ",
                 "llorem ipsum ", "élorem ipsum ", "lorem_ipsum ",
                 "lorem  ipsum ", "xlorem ipsu ", ""]
        tser = pd.Series([h + body for h in heads])
        lang = pd.Series(["en"] * len(heads))
        want = quality_oracle.apply_rules_arrow(tser, lang)
        got = quality.apply_rules(tser, lang)
        self._eq(want, got)
        assert (got.drop_reason == "lorem_ipsum").tolist() == \
            [True] * 5 + [False] * 4

    # lines that differ only in their last 1-7 bytes (the line hash's
    # zero-padded tail word) or only past byte 8 (a later 8-byte word),
    # with lines equal to earlier ones among them
    @settings(deadline=None, max_examples=150)
    @given(st.lists(st.tuples(
        st.text(alphabet="ab é中-*.…\x00", min_size=0, max_size=24),
        st.integers(1, 7), st.booleans(), st.booleans()),
        min_size=1, max_size=12))
    def test_fuzz_dup_lines(self, parts):
        import pandas as pd
        from cld2_ray.functions import quality
        lines = []
        for base, k, past8, again in parts:
            b = base.encode()
            if len(b) > 8 and past8:
                i = 8 + (k - 1) % (len(b) - 8)
                alt = b[:i] + b"x" + b[i + 1:]
            else:
                alt = b[:-k] + b"z" * min(k, len(b)) if b else b"z"
            lines += [b, alt] + [b] * again
        text = b"\n".join(lines).decode(errors="replace")
        tser = pd.Series([text, "a\nb\na", ""])
        self._eq(quality_oracle.line_stats_pandas(tser),
                 quality.apply_rules(tser), text)

    @settings(deadline=None, max_examples=200)
    @given(st.text(alphabet="ab @.0123456789\u0663\uff13\u00e9\n-",
                   max_size=40))
    @example("\u0663\uff13")
    def test_pii_candidate_flag(self, text):
        """The 14th column (rule_columns' pii_candidate) is set iff the
        text holds an ASCII digit or '@'; Arabic-Indic and fullwidth
        digits do not count."""
        from cld2_ray.functions import quality
        texts = [text, " " + text + " ", "", "\u0663"]
        got = quality.rule_columns(texts)["pii_candidate"].tolist()
        assert got == [any(c in "0123456789@" for c in t) for t in texts]

    def test_fold_lut_ascii(self):
        """quality_scan's stopword key builds an ASCII token's key from
        fold_lut directly (one byte per char), which needs fold_lut to
        map ASCII to non-NUL ASCII (NUL to itself)."""
        from cld2_ray.functions import quality
        fold = quality._scan_luts()[1][:128]
        assert fold[0] == 0
        assert ((fold[1:] >= 1) & (fold[1:] < 128)).all()

    def test_columns_read_downstream(self):
        """apply_rules and scrub_series keep the columns perfbench's
        oracle reads; pii_candidate is rule_columns' only extra."""
        import pandas as pd
        from cld2_ray.functions import quality, scrub
        texts = pd.Series(["a@b.com the la de", "x 1", None])
        assert list(quality.apply_rules(texts).columns) == [
            "n_words", "n_chars", "mean_word_len", "alpha_ratio",
            "n_stopwords", "n_lines", "bullet_ratio", "ellipsis_ratio",
            "dup_line_ratio", "n_sentences", "keep", "drop_reason"]
        assert set(quality.rule_columns(texts.fillna("").tolist())) - set(
            quality.apply_rules(texts).columns) == {"pii_candidate"}
        s = scrub.scrub_series(texts)
        assert list(s.columns) == ["scrubbed_text", "n_pii", "has_toxicity"]
        assert s.n_pii.tolist() == [1, 0, 0]


class TestStripInScan:
    """quality_scan strips each document's ends in C (py_strip over
    is_py_space), as ``str.strip()`` does, so rule_columns takes the
    extracted column as it is."""

    def test_is_py_space_is_str_isspace(self):
        """A one-char document scans as 0 chars exactly when its char is
        ``str.isspace`` (29 codepoints at Python's Unicode 14.0)."""
        import unicodedata
        from cld2_ray.functions import quality
        cps = [c for c in range(0x110000) if not 0xD800 <= c < 0xE000]
        blank = []
        for k in range(0, len(cps), 1 << 16):
            part = cps[k:k + (1 << 16)]
            stats = native.quality_scan(
                *native.utf8_cat([chr(c) for c in part]),
                *quality._scan_luts(), quality._stop_table())
            blank += [c for c, n in zip(part, stats[:, 1].tolist())
                      if n == 0]
        assert blank == [c for c in cps if chr(c).isspace()]
        if unicodedata.unidata_version == "14.0.0":
            assert len(blank) == 29

    EDGES = ["\xa0", "\u2028", "\u3000", "\x1c", "\x1d", "\x1e", "\x1f",
             "\x85", " \t\n", "\u3000\xa0 \x1f"]

    def test_column_equals_stripped_texts(self):
        """rule_columns(column) == rule_columns of the Python-stripped
        texts, for documents with whitespace at both ends, whitespace
        only, and a multi-byte char alone between the spaces."""
        import pyarrow as pa
        from cld2_ray.functions import quality
        body = ("the cat sat on the mat and then the dog ran to the park "
                "where it played with a ball for a while. ") * 3
        texts = [a + t + b for a in self.EDGES for b in self.EDGES
                 for t in (body, "中", "\U0001F600", "x\u2028y", "")]
        texts += ["", None] + self.EDGES
        col = pa.array(texts, type=pa.large_string())
        got = quality.rule_columns(col, ["en"] * len(texts))
        want = quality.rule_columns([(t or "").strip() for t in texts],
                                    ["en"] * len(texts))
        assert got.keys() == want.keys()
        for k in got:
            assert np.array_equal(got[k], want[k]), k
        assert got["n_chars"][-len(self.EDGES):].tolist() == \
            [0] * len(self.EDGES)


class TestScriptSpansScan:
    """C script_spans must be bit-equal to the numpy segmenter."""

    CASES = ["", " ", "a", "Hello, World! 123", "hello мир κόσμος",
             "one two и three four", "ж z ж z ж", "абв где ёж",
             ("w" * 30 + " ") * 2000,          # giant-run split
             "x" * 99 + "и" + "y" * 99,        # absorption mid-word
             "αβγ δε ζ 12 η"]

    @staticmethod
    def _eq(t):
        from cld2_ray.functions import spans
        c = spans.script_spans(t)
        n = spans_oracle.script_spans_numpy(t)
        assert len(c) == len(n), t[:60]
        for x, y in zip(c, n):
            assert x.text == y.text
            assert x.script == y.script
            assert x.offset == y.offset
            assert x.text_bytes == y.text_bytes
            assert x.end_offset == y.end_offset
            assert np.array_equal(np.asarray(x.letter_pos),
                                  np.asarray(y.letter_pos))

    def test_cases_and_corpus(self):
        for t in self.CASES + _page_texts(200):
            self._eq(t)

    def test_text_limit_truncation(self):
        """Pages whose letters pass the 160 KB budget: the scan stops
        at the letter that crosses it, and every span, letter position
        and text still equals the oracle's."""
        self._eq("word " * 50000)
        self._eq("один two τρία " * 20000)
        self._eq("\u023a\u023e " * 40000)    # lowercase is 3 bytes
        self._eq("x" * 200_000)

    def test_batched_equals_per_doc(self):
        """script_spans_batch (one C call per batch, packed shared
        buffers) must reproduce per-doc script_spans exactly —
        including empty docs between non-empty ones — with the spans
        back to back in the table's buffer."""
        from cld2_ray.functions import spans
        texts = self.CASES + _page_texts(150) + [""]
        t = spans.script_spans_batch(texts)
        assert len(t) == len(texts)
        assert t.start[0] == 0 and np.array_equal(t.start[1:], t.end[:-1])
        assert t.end[-1] == len(t.buf)
        assert np.array_equal(t.text_bytes, t.end - t.start)
        for d, text in enumerate(texts):
            ref = spans.script_spans(text)
            rows = range(t.doc_ptr[d], t.doc_ptr[d + 1])
            assert len(rows) == len(ref), text[:60]
            for r, y in zip(rows, ref):
                assert t.doc[r] == d
                assert t.buf[t.start[r]:t.end[r]].tobytes() == y.text_utf8
                assert (t.script[r], t.offset[r], t.end_offset[r],
                        t.text_bytes[r]) == (y.script, y.offset,
                                             y.end_offset, y.text_bytes)
                assert np.array_equal(
                    t.letter_pos[t.lp_start[r]:t.lp_end[r]],
                    np.asarray(y.letter_pos))

    @settings(deadline=None, max_examples=150)
    @given(st.text(alphabet=st.characters(max_codepoint=0x2FFF),
                   max_size=300))
    def test_fuzz(self, t):
        self._eq(t)

    @settings(deadline=None, max_examples=100)
    @given(st.text(alphabet=st.one_of(
        st.characters(min_codepoint=0x20, max_codepoint=0x2FFF),
        st.characters(min_codepoint=0xFB50, max_codepoint=0xFEFF)),
        max_size=300))
    def test_fuzz_arabic_presentation_forms(self, t):
        """C/numpy equivalence over the presentation-form fold range
        (U+FB50-FEFF -> base letters, uscript._fold_arabic_presentation)
        — the base fuzz caps at 0x2FFF and never exercises it."""
        self._eq(t)

    def test_spans_stable_across_scan_calls(self):
        """letter_pos must stay valid after LATER scan calls: the
        native kernel reuses scratch buffers, so spans must hand out
        private memory, not views into the scratch (regression: the
        first view-based optimization returned scratch views)."""
        from cld2_ray.functions import spans
        a = spans.script_spans("hello world " * 40 + "привет мир " * 40)
        snap = [np.asarray(sp.letter_pos).copy() for sp in a]
        spans.script_spans("zzzz " * 400)
        for s, sp in zip(snap, a):
            assert np.array_equal(s, np.asarray(sp.letter_pos))
        b = spans.script_spans_batch(["hello world " * 30,
                                      "привет мир " * 30])
        snap2 = (b.buf.copy(), b.letter_pos.copy(), b.start.copy())
        spans.script_spans_batch(["qqqq " * 300, "wwww " * 300])
        for s, x in zip(snap2, (b.buf, b.letter_pos, b.start)):
            assert np.array_equal(s, x)


class TestExtractScan:
    """The C extractor (extract_text) must be byte-equal to the Python
    extractor."""

    EDGES = [b"", b"<", b">", b"&", b"&amp", b"&amp;x", b"&lt",
             b"&Aacute", b"&Aacute;", b"&#65;&#x41;&#;&#x;",
             b"&#0;&#00065;", b"&#2147483647;&#2147483648;",
             b"&#xD800;&#xFFFE;&#x10FFFF;&#x110000;",
             b"&thetasym;&notathing;", b"a  b\n\n c \n d",
             b"<p>x</p><br>y<tr>z", b"<P >a<BR/>b",
             b"<script>ignored<b></script>kept",
             b"<style x=1>zap</style>ok",
             b"<SCRIPT\x01>x</ScRiPt  >no</ SCRIPT>yes",
             b"<!-- comment <p> -->after", b"<!-- unterminated",
             b"<tag attr='val>ue'>x", b'<tag a="v>v">y',
             b"<tag a='broken\nline>after", b"<tag a='broken\nline<after",
             b"<unclosed attr", b"a < b", b"a<b>c", b"5 > 4 & 3",
             b"&#xAG;", b"&#x0000041;",
             b"\xc3\xa9t\xc3\xa9 <i>caf\xc3\xa9</i>", b"<p", b"<br",
             b"&frac12;x", b"&frac12x", b"&quot stop", b"text<",
             b"tail&", b"&#x7fffffff;", b"&#xffffffffff;",
             b"&#99999999999;", b"<t '>x", b'<t ">y',
             b"<script >a</script>b", b"<stylex>keep</stylex>"]

    @staticmethod
    def _eq(h):
        from cld2_ray.functions import extract as E
        assert E.extract_text(h) == \
            extract_oracle.extract_text_with_map(h)[0], h[:80]

    def test_edges_and_corpus(self):
        from cld2_ray.functions import extract as E
        from cld2_ray.sources.pages import page_batch
        b = page_batch(0, 300, seed=42)
        for h in b["html"].to_pylist():
            h = h or b""
            if b"\r" in h:
                h = h.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            self._eq(h[:E.valid_utf8_prefix(h)])
        for h in self.EDGES:
            self._eq(h)

    @settings(deadline=None, max_examples=200)
    @given(st.text(alphabet=st.sampled_from(
        list("<>&;#xX09aAzZ '\"\n\t-!/=pbrstyleSCRIPT&amp&lt.é漢")),
        max_size=200))
    def test_fuzz_htmlish(self, t):
        h = t.encode("utf-8").replace(b"\r", b"\n")
        self._eq(h)


def _crlf_normalized(h: bytes) -> bytes:
    return h.replace(b"\r\n", b"\n").replace(b"\r", b"\n")


def _scan_map(pages):
    """(text bytes, src) per page from one with_map batch call."""
    from cld2_ray.functions.extract import _ent_table
    data, offsets, _, src = native.extract_scan_batch(
        b"".join(pages), np.cumsum([0] + [len(h) for h in pages]),
        *_ent_table(), with_map=True)
    return [(data[a:b].tobytes(), src[a:b])
            for a, b in zip(offsets[:-1], offsets[1:])]


def _check_map(pages):
    """The with_map text is extract_text's and its src equals the
    OffsetMap oracle at every text position; returns the positions
    checked."""
    from cld2_ray.functions.extract import extract_text
    n_pos = 0
    for h, (got, src) in zip(pages, _scan_map(pages)):
        assert got == extract_text(h).encode("utf-8"), h[:80]
        text, om = extract_oracle.extract_text_with_map(h)
        assert got == text.encode("utf-8"), h[:80]
        want = om.to_original(np.arange(len(src) + 1))
        assert np.array_equal(src, want[:-1]), h[:80]
        # a range ending at the text's end maps to the page's end
        assert want[-1] == len(h)
        n_pos += len(src)
    return n_pos


class TestExtractBatch:
    """extract_batch (one native.extract_scan_batch call per batch)
    gates each page to its valid-UTF-8 prefix as valid_utf8_prefix does
    and equals extract_text of that prefix and the Python extractor
    oracle, page by page; the kernel does the \\r normalization
    itself."""

    CRLF = [b"a\r\nb\rc\r\r\nd", b"\r", b"\r\n\r\n", b"x\r", b"\r\rx",
            b"<p a='1\r\n2'>t</p>\r<br\r>z", b"&amp;\r\n&lt\r",
            b"<tag a='q\rline>after", b"<p\r>x",
            b'<a title="x\ry>visible" more>after', b"<p>hi<p\r\n"]
    BAD = [b"caf\xc3\xa9 \xff tail", b"\xff\xfe", b"ok \xe2\x82",
           b"<p>x</p>\xc3", None, b""]
    ENTITIES = [("&amp;&lt;&gt;&quot;&#65;&#x42;&eacute;&frac12;"
                 "&thetasym;&#x1F600;&#128;&#x9f;&nbsp&copy x "
                 * 200).encode(), b"&" * 500 + b"&#" * 300]

    @staticmethod
    def _check(pages):
        from cld2_ray.functions.extract import (extract_batch,
                                                extract_text,
                                                valid_utf8_prefix)
        pre = [(h or b"")[:valid_utf8_prefix(h or b"")] for h in pages]
        col, valid = extract_batch(pages)
        assert valid.tolist() == [len(h) for h in pre]
        assert len(col) == len(pre)
        got = col.to_pylist()
        for h, t in zip(pre, got):
            assert t == extract_text(h), h[:80]
            assert t == extract_oracle.extract_text_with_map(
                _crlf_normalized(h))[0], h[:80]
        return col

    def test_edges_crlf_bad_utf8_entities(self):
        import pyarrow as pa
        col = self._check(TestExtractScan.EDGES + self.CRLF + self.BAD
                          + self.ENTITIES)
        assert col.type == pa.large_string() and col.null_count == 0

    def test_corpus_pages(self):
        from cld2_ray.sources.pages import page_batch
        self._check(page_batch(0, 200, seed=42)["html"].to_pylist())

    def test_giant_page_in_batch(self):
        from cld2_ray.functions.extract import extract_batch, extract_text
        big = (b"<p>" + b"lorem &amp; ipsum <b>dolor</b> sit\r\n" * 150_000
               + b"</p>")
        assert len(big) > 5_000_000
        pre = [b"<p>before</p>", big, b"after &eacute;", b""]
        assert extract_batch(pre)[0].to_pylist() == \
            [extract_text(h) for h in pre]

    def test_empty_batch(self):
        from cld2_ray.functions.extract import extract_batch
        col, valid = extract_batch([])
        assert col.to_pylist() == [] and len(valid) == 0

    def test_bad_ends_rejected(self):
        from cld2_ray.functions.extract import _ent_table
        for offsets in ([0, 2, 1], [-1, 3], [0, 1, 4], []):
            with pytest.raises(ValueError):
                native.extract_scan_batch(b"abc", np.array(offsets),
                                          *_ent_table())

    def test_invalid_utf8_cut_at_the_gate(self):
        """Invalid UTF-8 never reaches the text: a page is extracted up
        to its first invalid byte, so the column decodes."""
        from cld2_ray.functions.extract import extract_batch
        col, valid = extract_batch([b"ok", b"bad \xff<p>more", b"\xc3"])
        assert col.to_pylist() == ["ok", "bad ", ""]
        assert valid.tolist() == [2, 4, 0]

    def test_gate_every_short_sequence(self):
        """The C gate equals Python's strict decoder on every 1-4 byte
        sequence of a lead byte and continuation classes (each edge of
        the second byte's ranges, a continuation, a non-continuation),
        alone and followed by more text."""
        from cld2_ray.functions.extract import (extract_batch,
                                                valid_utf8_prefix)
        second = [0x00, 0x41, 0x7F, 0x80, 0x8F, 0x90, 0x9F, 0xA0, 0xBF,
                  0xC0, 0xC2, 0xE0, 0xF0, 0xF4, 0xFF]
        rest = [0x41, 0x80, 0xBF, 0xC0]
        seqs = [bytes([a]) for a in range(256)]
        seqs += [bytes([a, b]) for a in range(256) for b in second]
        seqs += [s + bytes([c]) for s in seqs[256:] if s[0] >= 0xE0
                 for c in rest]
        seqs += [s + bytes([c]) for s in seqs if len(s) == 3
                 and s[0] >= 0xF0 for c in rest]
        pages = seqs + [s + b"ok" for s in seqs] + [b"ok" + s for s in seqs]
        col, valid = extract_batch(pages)
        assert valid.tolist() == [valid_utf8_prefix(p) for p in pages]
        assert len(set(valid.tolist())) >= 6

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.one_of(st.none(), st.binary(max_size=40),
                              st.text(max_size=20).map(str.encode)),
                    max_size=12), st.data())
    def test_gate_random_null_and_sliced(self, pages, data):
        """Random bytes and null rows, as a column and as a slice of
        one: valid is valid_utf8_prefix of each page (a null reads as
        empty) and the text is that prefix's."""
        import pyarrow as pa
        from cld2_ray.functions.extract import (extract_batch,
                                                extract_text,
                                                valid_utf8_prefix)
        col = pa.array(pages, pa.binary())
        a = data.draw(st.integers(0, len(pages)))
        b = data.draw(st.integers(a, len(pages)))
        for arr, rows in ((col, pages), (col.slice(a, b - a), pages[a:b])):
            text, valid = extract_batch(arr)
            want = [valid_utf8_prefix(h or b"") for h in rows]
            assert valid.tolist() == want
            assert text.to_pylist() == [extract_text((h or b"")[:v])
                                        for h, v in zip(rows, want)]

    @settings(deadline=None, max_examples=150)
    @given(st.lists(st.text(alphabet=st.sampled_from(
        list("<>&;#x09aAzZ '\"\n\r\t-!/=pbrstyle&amp.é漢")),
        max_size=80).map(lambda t: t.encode("utf-8")), max_size=8))
    def test_fuzz_batches(self, pages):
        self._check(pages)
        _check_map(pages)


class TestHashKernels:
    """md5_batch / md5_windows / blake2b_batch must be bit-equal to
    hashlib (RFC 1321 / RFC 7693 reimplementations)."""

    @given(st.lists(st.text(max_size=300), max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_md5_batch_matches_hashlib(self, strs):
        import hashlib
        data, offs = native.utf8_cat(strs)
        dig = native.md5_batch(data, offs)
        assert [bytes(r) for r in dig] \
            == [hashlib.md5(s.encode()).digest() for s in strs]
        hx = [h.decode() for h in np.asarray(native.hex_digest(dig))]
        assert hx == [hashlib.md5(s.encode()).hexdigest() for s in strs]

    @given(st.lists(st.text(max_size=400), max_size=40),
           st.sampled_from([8, 16, 32, 64]))
    @settings(max_examples=40, deadline=None)
    def test_blake2b_batch_matches_hashlib(self, strs, nn):
        import hashlib
        data, offs = native.utf8_cat(strs)
        dig = native.blake2b_batch(data, offs, nn)
        assert [bytes(r) for r in dig] \
            == [hashlib.blake2b(s.encode(), digest_size=nn).digest()
                for s in strs]

    def test_block_boundaries(self):
        import hashlib
        # md5: 55/56/63/64/119/120 pad-path edges; blake2b: 127/128/129
        strs = ["x" * n for n in (0, 1, 55, 56, 63, 64, 119, 120,
                                  127, 128, 129, 255, 256, 1000)]
        data, offs = native.utf8_cat(strs)
        assert [bytes(r) for r in native.md5_batch(data, offs)] \
            == [hashlib.md5(s.encode()).digest() for s in strs]
        assert [bytes(r) for r in native.blake2b_batch(data, offs, 16)] \
            == [hashlib.blake2b(s.encode(), digest_size=16).digest()
                for s in strs]

    @pytest.mark.parametrize("kernel", ["md5_batch", "blake2b_batch"])
    def test_offsets_are_checked(self, kernel):
        """Offsets past the buffer (which the kernel would hash from
        beyond its end), descending, negative or empty raise ValueError,
        as in every binding that reads the layout of ``utf8_cat``."""
        for bad in ([0, 20], [0, 3, 2], [-1, 4], []):
            with pytest.raises(ValueError, match="offsets"):
                getattr(native, kernel)(b"abcd", bad)

    @pytest.mark.parametrize("nn", [0, 65, -1])
    def test_blake2b_digest_size_is_checked(self, nn):
        """A digest size outside 1..64 is the kernel's -2, raised as
        ValueError, not an array of uninitialised bytes."""
        with pytest.raises(ValueError, match="1..64"):
            native.blake2b_batch(b"abcd", [0, 4], nn)

    @given(st.lists(st.lists(st.text(
        alphabet=st.characters(blacklist_characters=" ",
                               blacklist_categories=("Cs",)),
        max_size=12), max_size=30), max_size=8),
        st.integers(min_value=1, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_md5_windows_matches_hashlib(self, docs, window):
        import hashlib
        flat = [w for d in docs for w in d]
        data, offs = native.utf8_cat(flat)
        doc_offsets = np.cumsum([0] + [len(d) for d in docs])
        got = [bytes(r) for r in
               native.md5_windows(data, offs, doc_offsets, window)]
        exp = [hashlib.md5(" ".join(d[i:i + window]).encode()).digest()
               for d in docs for i in range(len(d) - window + 1)]
        assert got == exp

    def test_md5_windows_checks_offsets_and_malloc(self, monkeypatch):
        """Token and doc offsets are checked like every Arrow-layout
        binding; a kernel that cannot allocate raises MemoryError."""
        data, offs = native.utf8_cat(["ab", "cd", "ef"])
        for bad in ([0, 2, 1, 3], [0, 4], [-1, 3], []):
            with pytest.raises(ValueError):
                native.md5_windows(data, offs, bad, 2)
        with pytest.raises(ValueError):
            native.md5_windows(data, offs[::-1], [0, 3], 2)
        assert len(native.md5_windows(data, offs, [0, 3], 2)) == 2
        monkeypatch.setattr(native, "_MDW", lambda *a: -1)
        with pytest.raises(MemoryError):
            native.md5_windows(data, offs, [0, 3], 2)

    def test_utf8_cat_arrow_zero_copy_and_sliced(self):
        import pyarrow as pa
        arr = pa.array(["aa", "bb", "ccc", None, "d"],
                       type=pa.large_string())
        data, offs = native.utf8_cat(arr)
        assert list(np.diff(offs)) == [2, 2, 3, 0, 1]
        sl = arr.slice(2, 2)   # ["ccc", None]
        data2, offs2 = native.utf8_cat(sl)
        assert bytes(data2[offs2[0]:offs2[1]]) == b"ccc"
        assert offs2[1] == offs2[2]


def _win_pairs_hashlib(text, window, fast):
    """Per-doc hashlib reference for dedup._win_pairs_batch: fast keys
    mix blake2b-128 token-hash halves; md5 keys are the LE halves of
    md5(space-joined window)."""
    import hashlib
    from cld2_ray.pipelines import dedup as dd
    ws = (text or "").split(" ")
    if len(ws) < window:
        return np.empty(0, dd._WPAIR)
    if fast:
        digs = [hashlib.blake2b(w.encode(), digest_size=16).digest()
                for w in ws]
        tl = np.array([int.from_bytes(d[:8], "little") for d in digs],
                      dtype=np.uint64)
        th = np.array([int.from_bytes(d[8:], "little") for d in digs],
                      dtype=np.uint64)
        return dd._mix_pair(tl, th, window)
    return np.frombuffer(b"".join(
        hashlib.md5(" ".join(ws[i:i + window]).encode()).digest()
        for i in range(len(ws) - window + 1)), dtype=dd._WPAIR)


class TestWinPairsBatchFallback:
    """_win_pairs_batch (one C hash pass per batch) must equal a per-doc
    hashlib reference for both key functions (the pinned identity
    behind substring_dedup)."""

    @given(st.lists(st.text(alphabet="ab cd", max_size=80),
                    max_size=12),
           st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_fallback_equals_native(self, texts, fast):
        from cld2_ray.pipelines import dedup as dd
        a = dd._win_pairs_batch(texts, 4, fast)
        b = [_win_pairs_hashlib(t, 4, fast) for t in texts]
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestRangesKernel:
    """quad_octa_chunk_score(with_ranges=True): first five outputs
    bit-equal to the plain pass (same totes feed), ranges outputs
    bit-equal to the numpy chain of detect_ranges_numpy
    (zeros-expected score_chunks_multi on one span +
    sharpen_boundaries)."""

    def test_parity_vs_python_chain(self):
        from cld2_ray.data.seeds import HELDOUT, SEEDS
        from cld2_ray.functions import langs, score, spans, uscript as us
        from cld2_ray.functions.langid import Detector
        det = Detector()
        m = det.model
        texts = [SEEDS["en"][:600] + " " + SEEDS["de"][:600],
                 (HELDOUT["fr"] + " ") * 3 + (HELDOUT["ru"] + " ") * 3,
                 SEEDS["en"][:300],
                 SEEDS["it"][:900] + " " + SEEDS["es"][:400]]
        many = [sp for t in texts for sp in spans.script_spans(t)
                if det._rtype(sp.script) == us.RTYPE_MANY]
        bufs = [sp.text_utf8 for sp in many]
        bounds = np.cumsum([len(b) for b in bufs]).astype(np.int64)
        cat = b"".join(bufs)
        latin = np.array([sp.script == us.LATIN for sp in many])
        s4 = us.LSCRIPT4[np.array([sp.script for sp in many])]
        csr = np.zeros(len(bufs) + 1, dtype=np.int64)
        flat = np.zeros(0, dtype=np.int64)
        args = (cat, bounds - np.diff(bounds, prepend=0), bounds, m.quad,
                m.socta, m.docta, m.xocta, latin,
                score.CHUNKSIZE_QUADS, m.expected_quad, langs.CLOSE_SET,
                csr, flat, s4)
        c = native.quad_octa_chunk_score(*args, with_ranges=True)
        b = native.quad_octa_chunk_score(*args)
        assert len(c) == 7 and len(b) == 5
        for x, y in zip(c[:5], b):
            assert np.array_equal(x, y)
        l1c, _, _, _, spanc, reldc, cletterc = c
        for i, sp in enumerate(many):
            sb = sp.text_utf8
            vals, offs, rdist = langid_oracle.many_hits(
                det, sb, np.array([len(sb)], dtype=np.int64),
                np.array([sp.script == us.LATIN]))
            sel = spanc == i
            if len(vals) == 0:
                assert sel.sum() == 0
                continue
            l3, q3 = unpack_langprobs(vals)
            lang1, _cb, _s1, rel, _ = score.score_chunks_multi(
                l3, q3, offs, np.zeros(len(offs), dtype=np.int64),
                np.zeros(1, dtype=np.int64),
                np.array([len(sb)], dtype=np.int64),
                np.array([score.CHUNKSIZE_QUADS], dtype=np.int64),
                np.zeros_like(m.expected_quad), distinct_mask=rdist,
                script4_of_span=us.LSCRIPT4[[sp.script]])
            bidx = langid_oracle.sharpen_boundaries(
                lang1, l3, q3, score.CHUNKSIZE_QUADS, len(offs))
            assert np.array_equal(lang1, l1c[sel].astype(lang1.dtype))
            assert np.array_equal(rel, reldc[sel])
            assert np.array_equal(_span_letter(sb, offs[bidx]),
                                  cletterc[sel])


class TestExtractScanMap:
    """extract_scan_batch(with_map=True): text byte-identical to
    extract_text on raw (CRLF-bearing) pages; src equal to the
    OffsetMap oracle (extract_text_with_map) at every text position."""

    @staticmethod
    def _cases():
        import cld2_ray.sources.pages as P
        from cld2_ray.functions.extract import valid_utf8_prefix
        cases = [b"<p>Bonjour &eacute;t&eacute;</p><script>x</script>",
                 b"a\r\nb\rc\r\r\nd", b"x &amp; y<br>z", b"",
                 b"<!-- c --><p>hi</p>",
                 b"&#233;t&#xE9; <b>bold</b>  many   spaces",
                 b"& bare <p unclosed", b"tail <b>", b"<p>\r\n x &lt;",
                 b'<a title="x\ry>visible" more>after', b"<p>hi<p\r\n"]
        tbl = P.page_batch(0, 120, 42)
        for h in tbl["html"].to_pylist():
            if valid_utf8_prefix(h or b"") == len(h or b""):
                cases.append(h or b"")
        return cases

    def test_text_and_map(self):
        from cld2_ray.functions.extract import extract_text
        cases = self._cases()
        for h, (got, src) in zip(cases, _scan_map(cases)):
            assert got == extract_text(h).encode("utf-8")
            if len(src):
                assert (np.diff(src) >= 0).all()
                assert src[0] >= 0 and src[-1] < max(len(h), 1)

    def test_map_equals_offsetmap_oracle(self):
        assert _check_map(self._cases()) > 100_000


# ASCII, 2/3/4-byte chars and runs of spaces: the predictor's packed
# char values and the word rule's space handling
_REP_ALPHABET = st.sampled_from(
    ["a", "b", "ab", "ba", "x", " ", "  ", "   ", "é", "ж", "中", "日",
     "𝄞", "😀"])
_REP_SPAN = st.lists(_REP_ALPHABET, max_size=80).map("".join)
# single chars of 1-4 UTF-8 bytes and the space
_SQ_CHARS = st.sampled_from(["a", "b", " ", "é", "ж", "中", "😀", "𝄞"])


def _check_squeeze(texts):
    """native.cheap_squeeze over ``texts`` == the per-text oracle of
    tests/oracles/repeats.py: a text of more than 4096 chars that
    squeeze_trigger passes becomes squeeze(text), any other stays as it
    is (None as ""). Returns the squeezed flags."""
    sq, out, offs = native.cheap_squeeze(*native.utf8_cat(texts))
    got = [out[a:b].tobytes().decode("utf-8")
           for a, b in zip(offs[:-1].tolist(), offs[1:].tolist())]
    want = [bool(t) and len(t) > repeats_oracle.SQUEEZE_TEST_THRESH
            and repeats_oracle.squeeze_trigger(t) for t in texts]
    assert sq.tolist() == want
    assert got == [repeats_oracle.squeeze(t) if w else (t or "")
                   for t, w in zip(texts, want)]
    return want


# 256 chars of a repeated file name: most of their bytes are predicted,
# so a text that starts with it passes the trigger test
_PROBE = "abc.jpg " * 32


class TestRepeatsKernels:
    """The predictor's two kernels against the numpy predictor of
    tests/oracles/repeats.py: cheap_squeeze, whose chunk drops read the
    predicted bytes of every 48-byte chunk, and rep_words_multi, against
    the oracle's word rule."""

    @staticmethod
    def _rep_words(texts):
        bufs = [t.encode("utf-8") for t in texts]
        bounds = np.cumsum([len(b) for b in bufs], dtype=np.int64)
        out, ob = native.rep_words_multi(
            b"".join(bufs), bounds - np.diff(bounds, prepend=0), bounds)
        got = [out[a:b].tobytes().decode("utf-8")
               for a, b in zip([0, *ob[:-1].tolist()], ob.tolist())]
        want = [repeats_oracle.remove_repeated_words(t) for t in texts]
        assert got == want

    def test_predictor_corpus(self):
        """Every seed text behind the probe, once followed by unique CJK
        chars (nothing predicted) and once repeated past 4096 chars (the
        repeats predicted); each on its own is too short to squeeze."""
        from cld2_ray.data.seeds import HELDOUT, SEEDS
        uniq = "".join(map(chr, range(0x4E00, 0x4E00 + 4000)))
        texts = []
        for t in [*SEEDS.values(), *HELDOUT.values(),
                  "foo.jpg bar.jpg " * 30, " ", "aaaaaaaa"]:
            texts += [t, _PROBE + t + uniq,
                      _PROBE + t * (4100 // max(len(t), 1) + 1)]
        assert _check_squeeze(texts).count(True) == 2 * len(texts) // 3
        # nearly every squeezed text loses some chunks and keeps some
        sq, out, offs = native.cheap_squeeze(*native.utf8_cat(texts))
        kept = np.diff(offs)[sq] / np.diff(native.utf8_cat(texts)[1])[sq]
        assert ((kept > 0) & (kept < 1)).mean() > 0.9

    @settings(max_examples=200, deadline=None)
    @given(_REP_SPAN, st.integers(0, 1))
    def test_predictor_fuzz(self, text, unique):
        """The predictor over the fuzz spans' 1-4 byte chars and space
        runs, behind the probe and padded past 4096 chars."""
        pad = "".join(map(chr, range(0x4E00, 0x4E00 + 4100))) if unique \
            else text * 4100
        _check_squeeze([_PROBE + text + pad, text])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_REP_SPAN, st.booleans()), max_size=8))
    def test_rep_words_multi_fuzz(self, parts):
        self._rep_words([f" {t} " if framed else t for t, framed in parts])

    def test_rep_words_multi_cases(self):
        from cld2_ray.data.seeds import SEEDS
        # the leading space of the last word is predicted: its byte
        # counts toward the word's predicted bytes but not its length,
        # which tips " a" (0 of 1 bytes predicted) into a drop
        mask, _ = repeats_oracle.predicted_bytes_mask_numpy("b b a")
        assert mask.tolist() == [False, False, False, True, False]
        assert native.rep_words_multi(b"b b a", [0], [5])[0] \
            .tobytes() == b" b b "
        # dropped first word (unframed), dropped last word
        first = "aaaaaaaaaa bcd "
        last = " qrs tuv aaaaaaaaaa "
        out, _ = native.rep_words_multi((first + last).encode(),
                                        [0, 15], [15, 35])
        assert out.tobytes() == b" bcd  qrs tuv "
        self._rep_words([first, last, "", "    a", " ", "", "x", "  ",
                         "b b a", " " + "selva " * 40 + "fox jumps "])
        self._rep_words([" " + s + " " for s in SEEDS.values()])
        self._rep_words([])
        with pytest.raises(ValueError):
            native.rep_words_multi(b"ab", [0], [3])
        with pytest.raises(ValueError):
            native.rep_words_multi(b"abc", [0, 2], [2, 1])


class TestSqueezeTriggers:
    """native.cheap_squeeze, the gate and the rewrite in one pass, at
    the gate's thresholds and edges, against squeeze_trigger and the
    numpy squeeze of tests/oracles/repeats.py."""

    PAD = "q" * 4200

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(_REP_SPAN, st.sampled_from(
        ["q", "ab ", "é", "中", "😀", " "])), max_size=6))
    def test_fuzz(self, parts):
        _check_squeeze([head + pad * 4200 for head, pad in parts])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([None, ""]), st.builds(
        lambda head, unit, n: ("".join(head) + "".join(unit) * n)[:n],
        st.lists(_SQ_CHARS, max_size=300),
        st.lists(_SQ_CHARS, min_size=1, max_size=60),
        st.sampled_from([4095, 4096, 4097, 4200]))), min_size=1,
        max_size=5))
    @example([" " * 4097, None, "中 " * 2100, ""])
    def test_fuzz_edges(self, texts):
        """Texts of 4095-4097 chars (the gate's edge), chars of 1-4
        bytes wherever the 48-byte chunk edges and the 256-char probe
        edge fall, texts that squeeze to nothing, and None and empty
        entries."""
        _check_squeeze(texts)

    def test_squeezes_to_nothing(self):
        texts = [" " * 4097, "中 " * 2100, "ab " * 1400]
        assert _check_squeeze(texts) == [True] * 3
        sq, out, offs = native.cheap_squeeze(*native.utf8_cat(texts))
        assert len(out) == 0 and offs.tolist() == [0, 0, 0, 0]

    def test_multibyte_at_the_cut(self):
        """The probe is 256 CHARS of multi-byte text: a space at char
        255 tips it over the 25% spaces threshold, one at char 256
        (past the cut) does not."""
        rng = np.random.default_rng(3)
        texts = []
        for lo, nbytes in ((0x4E00, 3), (0x1F300, 4)):
            pool = [chr(c) for c in range(lo, lo + 512)]
            # j spaces of 256 chars: 100 j >= 25 (j + nbytes (256 - j))
            need = -(-25 * nbytes * 256 // (100 + 25 * (nbytes - 1)))
            for j in (need - 1, need - 2):
                head = list(rng.choice(pool, 255 - j)) + [" "] * j
                rng.shuffle(head)
                head = "".join(head)
                c = str(rng.choice(pool))
                texts += [head + c + " " + self.PAD,
                          head + " " + c + self.PAD]
        assert _check_squeeze(texts) == [False, True, False, False] * 2

    def test_either_side_of_the_thresholds(self):
        """Spaces around 25% of the probe bytes (unpredictable CJK and
        ASCII letters around them) and predicted bytes around 67% (a
        run of unique chars, then a repeated pattern)."""
        rng = np.random.default_rng(11)
        pool = [chr(c) for c in range(0x4E00, 0x5E00)]
        texts = []
        for k in range(54, 74):
            chars = list(rng.choice(list("bcdfghjklmnpqrstvwxz"), 256))
            for i in rng.choice(256, size=k, replace=False):
                chars[i] = " "
            texts.append("".join(chars) + self.PAD)
        for k in range(10, 40):
            chars = list(rng.choice(pool, 256))
            for i in rng.choice(256, size=k, replace=False):
                chars[i] = " "
            texts.append("".join(chars) + self.PAD)
        want_sp = _check_squeeze(texts)
        assert True in want_sp and False in want_sp
        texts = []
        for u in range(0, 256, 4):
            uniq = "".join(rng.choice(pool, u, replace=False))
            texts.append(uniq + ("abcd" * 64)[:256 - u] + self.PAD)
        want_pred = _check_squeeze(texts)
        assert True in want_pred and False in want_pred

    def test_short_and_empty(self):
        """Texts of at most 4096 chars are never squeezed."""
        assert not any(_check_squeeze(["", None, "abc.jpg " * 512,
                                       "a" * 4096]))
        assert _check_squeeze(["abc.jpg " * 513]) == [True]
        assert _check_squeeze([]) == []


# document-stage fuzz: languages from close sets, closest-alt pairs,
# zh/zh-Hant, English/FIGS and tier-3 (plus the unknown language, whose
# adds are skipped); few byte sizes, so the 24-slot cap fills with ties
def _doc_stage_langs():
    from cld2_ray.functions import langs
    ids = set(range(0, 30)) | set(np.flatnonzero(langs.CLOSE_SET).tolist())
    ids |= set(np.flatnonzero(langs.CLOSEST_ALT).tolist())
    ids |= set(langs.CLOSEST_ALT[np.flatnonzero(langs.CLOSEST_ALT)].tolist())
    return sorted(ids)


_DS_ADD = st.tuples(
    st.integers(0, 2),                                 # stream
    st.sampled_from(_doc_stage_langs()),               # lang
    st.sampled_from([1, 2, 3, 5, 40, 300]),            # bytes
    st.integers(0, 3000),                              # score
    st.sampled_from([0, 10, 40, 41, 60, 100]))         # reliability %
_DS_DOC = st.tuples(
    st.lists(_DS_ADD, max_size=70),
    st.integers(0, 3000),                              # letter bytes
    st.one_of(st.none(), st.sets(st.sampled_from(
        [1, 2, 3, 4, 5, 6, 69, 70]), max_size=3)))     # declared


@st.composite
def _ds_full_doc(draw):
    """A document whose first stream fills the 24-slot cap with adds
    of equal bytes (ties), then later streams add to those languages
    again: which tied entry was evicted shows in the result."""
    pool = draw(st.permutations(_doc_stage_langs()[1:]))
    k = draw(st.integers(24, 32))
    nb = draw(st.sampled_from([1, 5, 40]))
    adds = [(0, lid, nb, draw(st.integers(0, 3000)),
             draw(st.sampled_from([0, 41, 100]))) for lid in pool[:k]]
    adds += draw(st.lists(st.tuples(
        st.integers(1, 2), st.sampled_from(pool[:k + 4]),
        st.sampled_from([1, 2, 5, 40, 300]), st.integers(0, 3000),
        st.sampled_from([0, 41, 100])), max_size=12))
    return adds, draw(st.integers(0, 3000)), None


class TestDocStage:
    """native.doc_stage (Detector._finalize's one C call per batch)
    against the Python document stage of tests/oracles/docstage.py:
    DocTote adds in stream order with the 24-slot cap, close-pair
    refinement, unreliable removal (not under best_effort),
    ExtractLangEtc, CalcSummaryLang with the declared set, the good
    test, and the DS_TOTE_TOP mode of the ranges pass."""

    @staticmethod
    def _run(docs, flags):
        from cld2_ray.functions import langs
        from cld2_ray.functions.langid import Detector
        from tests.oracles import docstage
        streams = []
        for s in range(3):
            rows = [(d, *a[1:]) for d, (adds, _, _) in enumerate(docs)
                    for a in adds if a[0] == s]
            streams.append(tuple(np.array([r[k] for r in rows],
                                          dtype=np.int64)
                                 for k in range(5)))
        got = Detector._doc_stage(
            len(docs), streams, np.array([t for _, t, _ in docs]),
            [dec for _, _, dec in docs], flags)
        best_effort = bool(flags & native.DS_BEST_EFFORT)
        for d, (adds, total, dec) in enumerate(docs):
            tote = docstage.DocTote()
            for _, lang, nb, sc, rel in sorted(adds, key=lambda a: a[0]):
                if lang != langs.UNKNOWN:
                    tote.add(lang, nb, sc, rel)
            if flags & native.DS_TOTE_TOP:
                assert got["summary"][d] == docstage._tote_range_lang(tote)
                continue
            r = docstage.finalize(tote, total, best_effort, dec)
            assert got["summary"][d] == r.summary_lang, d
            assert tuple(got["lang3"][d].tolist()) == r.language3
            assert tuple(got["pct3"][d].tolist()) == r.percent3
            assert tuple(got["nscore3"][d].tolist()) == r.normalized_score3
            assert got["text_bytes"][d] == r.text_bytes
            assert got["reliable"][d] == r.is_reliable
            assert got["good"][d] == docstage.is_good(r, total)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(_DS_DOC, _ds_full_doc()), min_size=1,
                    max_size=5),
           st.sampled_from([0, native.DS_BEST_EFFORT, native.DS_TOTE_TOP]))
    def test_fuzz(self, docs, flags):
        self._run(docs, flags)

    def test_full_tote_evicts_the_earliest_smallest(self):
        """30 languages of equal bytes: each new one is dropped (the
        smallest entry is not smaller); then bigger adds evict the
        earliest-inserted of the tied smallest entries, in order."""
        langs_ = _doc_stage_langs()[1:40]
        adds = [(1, lid, 5, 100, 100) for lid in langs_[:30]]
        adds += [(2, lid, 6, 100, 100) for lid in langs_[30:]]
        for flags in (0, native.DS_BEST_EFFORT, native.DS_TOTE_TOP):
            self._run([(adds, 0, None), (adds[::-1], 500, None)], flags)

    def test_rejects_bad_streams(self):
        from cld2_ray.functions.langid import Detector
        one = np.ones(2, dtype=np.int64)
        for doc, lang in (([1, 0], [1, 1]), ([0, 2], [1, 1]),
                          ([0, 1], [1, 10_000]), ([0, 1], [-1, 1])):
            with pytest.raises(ValueError):
                Detector._doc_stage(2, [(np.array(doc), np.array(lang),
                                         one, one, one)],
                                    np.zeros(2), [None, None], 0)

    def test_close_pairs_unreliable_and_zh(self):
        from cld2_ray.functions import langs
        L = langs.lang_id
        cases = [
            [(0, L("es"), 300, 900, 60), (1, L("pt"), 300, 901, 60),
             (1, L("gl"), 40, 10, 10)],
            [(0, L("cs"), 300, 900, 30), (1, L("sk"), 300, 900, 30)],
            [(0, L("zh"), 300, 900, 20), (2, L("zh-Hant"), 290, 800, 30),
             (2, L("en"), 40, 40, 100)],
            [(0, L("zh-Hant"), 300, 900, 20), (2, L("ja"), 30, 30, 20)],
            [(1, L("en"), 300, 900, 100), (1, L("fr"), 120, 500, 100),
             (2, L("sco"), 10, 9, 5)],
            [(1, L("de"), 300, 900, 100), (1, L("ja"), 150, 500, 100)],
        ]
        for flags in (0, native.DS_BEST_EFFORT, native.DS_TOTE_TOP):
            for total in (0, 256, 900):
                for dec in (None, {L("en")}, {L("fr"), L("ja")}):
                    self._run([(c, total, dec) for c in cases], flags)
