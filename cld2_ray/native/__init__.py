"""ctypes shim for the C hot-loop kernels (quadscan.c).

Compiles the kernel on first import (cached ``quadscan.so`` next to the
source, atomic rename so concurrent Ray workers race safely). The
kernel is required: if ``cc`` fails or the library does not load, the
import raises ``ImportError`` carrying the compiler's stderr. Every hot
kernel has this one runtime implementation; the tests check each entry
point against an independent numpy/hashlib oracle (tests/oracles/).

A batch of documents has one layout, the Arrow one ``utf8_cat`` returns:
``(data, offsets)`` with document d at ``data[offsets[d]:offsets[d+1]]``.
Every per-document binding takes it, and ``_docs`` checks it;
``utf8_array`` turns it back into an Arrow column without a copy, so a
layer hands text it did not change on as buffers, never re-encoded
(``cheap_squeeze`` writes a batch in this layout too). The chunk
kernels and ``rep_words_multi`` read chosen rows of a span table, so
they take per-span ``starts``/``ends`` instead (checked by ``_spans``).
``table_build`` builds the open-addressed table format that the C probe
(``table_lookup``) reads: the model's quad, socta and CJK unigram
tables, the perplexity table, the stopword set and the entity names.

One buffer policy holds at this boundary: a binding passes its kernel
only inputs and outputs, allocating each output per call at its worst
case, and each kernel allocates (and frees) its own scratch per call,
sized from the inputs it reads. A kernel returns a negative code when
its scratch cannot be allocated, which the binding raises as
``MemoryError``, and the chunk kernels check their output rows. The C
code keeps no writable state between calls, so the kernels are
reentrant: the C call releases the GIL (plain ctypes) and threads
overlap fully. Per-call buffers are cheap because ``_tune_malloc``
keeps freed buffers in the heap for the next call."""

from __future__ import annotations

import ctypes
import os
import subprocess

import numpy as np

def _tune_malloc() -> None:
    """Keep large free buffers in the heap instead of munmap'ing them.

    Every kernel call allocates multi-MB buffers: the outputs as numpy
    arrays here, the scratch with malloc in the C kernel. Both come
    from the same glibc heap. With glibc defaults each batch munmaps
    them back to the OS and the next batch pays a page-fault storm
    (measured 2-10x wall-time swings on virtualised hosts).
    mallopt(M_MMAP_THRESHOLD/M_TRIM_THRESHOLD) makes the allocator reuse
    those buffers — steady-state per-batch time becomes flat. Runs
    per-process (import-time), so every Ray worker that imports cld2_ray
    gets it without env plumbing.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.mallopt(ctypes.c_int(-3), ctypes.c_int(1 << 30))  # M_MMAP_THRESHOLD
        libc.mallopt(ctypes.c_int(-1), ctypes.c_int(1 << 30))  # M_TRIM_THRESHOLD
    except Exception:
        pass  # non-glibc platform: defaults apply


_tune_malloc()

_DIR = os.path.dirname(__file__)
_SRC = os.path.join(_DIR, "quadscan.c")
_SO = os.path.join(_DIR, "quadscan.so")

# The kernel is required: importing this module either loads it or
# raises ImportError. The constant stays for callers that report it.
AVAILABLE = True


# -O3 autovectorizes the elementwise float loops (fastlangid's 114-wide
# weight-row adds; that kernel waits on fetching the rows).
# -ffp-contract=off forbids FMA contraction so float results stay
# bit-identical to the numpy test oracles; -O3 never reassociates float
# reductions without -ffast-math. The output path is appended per build.
_CMD = ["cc", "-O3", "-ffp-contract=off", "-shared", "-fPIC", _SRC, "-lm",
        "-o"]


def _build_key() -> str:
    """Hash of the source and the compile command: the cached .so is
    reused only while both are unchanged."""
    import hashlib
    h = hashlib.sha256()
    with open(_SRC, "rb") as f:
        h.update(f.read())
    h.update("\0".join(_CMD).encode())
    return h.hexdigest()


def _compile() -> str:
    key = _build_key()
    stamp = _SO + ".key"
    try:
        with open(stamp) as f:
            if f.read() == key and os.path.exists(_SO):
                return _SO
    except FileNotFoundError:
        pass
    tmp = f"{_SO}.tmp.{os.getpid()}"
    cmd = [*_CMD, tmp]
    try:
        subprocess.run(cmd, check=True, capture_output=True, timeout=120)
    except subprocess.CalledProcessError as e:
        raise ImportError(
            f"cld2_ray.native: `{' '.join(cmd)}` failed:\n"
            f"{e.stderr.decode(errors='replace')}") from e
    except (OSError, subprocess.TimeoutExpired) as e:
        raise ImportError(
            f"cld2_ray.native: cannot run `{' '.join(cmd)}`: {e}") from e
    os.replace(tmp, _SO)
    with open(f"{stamp}.tmp.{os.getpid()}", "w") as f:
        f.write(key)
    os.replace(f.name, stamp)
    return _SO


def _load() -> None:
    global _LK, _ACC, _RW, _SQZ, _PP, _CS, _CJ, _DS, _QS, _SSM, _EXB
    global _PHS, _MD5, _MDW, _B2B, _LOW
    so = _compile()
    try:
        lib = ctypes.CDLL(so)
    except OSError as e:
        raise ImportError(f"cld2_ray.native: cannot load {so}: {e}") from e
    ptr, ro, rw = np.ctypeslib.ndpointer, "C_CONTIGUOUS", \
        "C_CONTIGUOUS,WRITEABLE"
    u8p, i8p, i16p, i32p, u32p, i64p, u64p, f32p, f64p = (
        ptr(t, flags=ro) for t in (np.uint8, np.int8, np.int16, np.int32,
                                   np.uint32, np.int64, np.uint64,
                                   np.float32, np.float64))
    u8wp, i64wp, f64wp = (
        ptr(t, flags=rw) for t in (np.uint8, np.int64, np.float64))
    u32bp = ptr(np.uint32, ndim=2, flags=ro)
    # raw void* pointers: NULL where a kernel's output is optional (the
    # chunk kernels' ranges pass, the source map), and where
    # ndpointer.from_param validation (~5us/arg/call) would cost
    vp = ctypes.c_void_p

    def bind(fn, restype, *argtypes):
        """The kernel fn with its restype and argtypes, one per
        parameter of the C definition (tests/test_oracle_boundary.py
        checks)."""
        fn.restype, fn.argtypes = restype, argtypes
        return fn

    i32, i64, u32, u64 = (ctypes.c_int, ctypes.c_int64, ctypes.c_uint32,
                          ctypes.c_uint64)
    # bucket-table argument bundle: buckets, nbuckets, keymask,
    # packed_latn, packed_othr
    bt = (u32bp, i64, u32, u64p, u64p)
    _LK = bind(lib.table_lookup_batch, i32,
               u64p, u64p, u64, u64p, i64, u64p)
    _ACC = bind(lib.fastlangid_score, i32,
                u8p, i64p, i64, u8p, i64, u8p, i32p, f32p, i64, i64,
                i32p, f32p, i64p, i64p)
    _RW = bind(lib.rep_words_multi, i64, u8p, i64p, i64p, i64, u8wp, i64p)
    _SQZ = bind(lib.cheap_squeeze, i64, u8p, i64p, i64, u8wp, i64wp, u8wp)
    _PP = bind(lib.ppl_score, i32,
               u8p, i64p, i64, i64p, u64p, u64p, u64, f64p, i64, f64p,
               i64p)
    _CS = bind(lib.quad_octa_chunk_score, i64,
               u8p, i64p, i64p, i64, u64p, u64p, u64, u64p, u64p, u64,
               *bt, *bt, u8p, u8p, i64, i32p, i8p, i64p, i64p, i64,
               i16p, i64p, i64p, i64p, i64p, vp, vp)
    _CJ = bind(lib.cjk_chunk_score, i64,
               u8p, i64p, i64p, i64, i64p, u64p, u64p, u64,
               u32bp, i64, u32, u64p, i64, i32p, i8p, i64p, i64p, i64,
               i16p, i64p, i64p, i64p, i64p)
    _DS = bind(lib.doc_stage, i64,
               i64, i64p, i64, i64p, i64p, i64p, i64p, i64p,
               i64p, i64p, i64p, i64, i64p, i64p,
               i64wp, i64wp, i64wp, f64wp, i64wp, u8wp, u8wp)
    _QS = bind(lib.quality_scan, i32,
               u8p, i64p, i64, u8p, i64, u32p, i64, u64p, u64p, u64, i64wp)
    _SSM = bind(lib.script_spans_scan_multi, i64,
                vp, vp, i64, vp, vp, i64, i64, i64, vp, vp, vp, vp)
    _EXB = bind(lib.extract_scan_batch, i64,
                u8p, i64p, i64, u64p, u64p, u64, u32p, u8wp, i64wp, i64wp,
                vp)
    _PHS = bind(lib.page_hints_scan, i64,
                u8p, i64p, i64p, i64, u8p, i64p, u64p, u64p, u64,
                i64p, i64p, i64p, u8p, i64p, i64p, i64, i64p, i64, i64,
                i64wp, i64wp, i64wp, i64wp, i64wp)
    _LOW = bind(lib.lower_docs, i64,
                u8p, i64p, i64p, i64, i64, i32, u32p, i64, u32p, u32p,
                u8p, i64, u8wp, i64wp)
    _MD5 = bind(lib.md5_batch, i32, u8p, i64p, i64, u8wp)
    _MDW = bind(lib.md5_windows, i64, u8p, i64p, i64p, i64, i64, u8wp)
    _B2B = bind(lib.blake2b_batch, i32, u8p, i64p, i64, i64, u8wp)


_load()


def _bt_args(bt):
    """BucketTable -> the 5-arg C bundle."""
    return (bt.buckets, bt.buckets.shape[0], int(bt.keymask),
            bt.packed_latn, bt.packed_othr)


def _chunk_bufs(starts: np.ndarray, bounds: np.ndarray, chunk_size: int):
    """The chunk kernels' per-chunk output rows (lang1 i16, cbytes, s1,
    rel, span i64). A span of s bytes yields at most h = 3 * (s + 8)
    hits (see quad_octa_chunk_score in quadscan.c), so it scores at most
    h // chunk_size + 1 chunks; the kernel checks the row count."""
    h = 3 * (bounds - starts + 8)
    out_cap = int((h // max(chunk_size, 1)).sum()) + len(h)
    return (np.empty(out_cap, dtype=np.int16),
            *(np.empty(out_cap, dtype=np.int64) for _ in range(4)))


def _chunk_args(chunk_size, expected_1kb, close_set, hint_csr, hint_flat):
    """The chunk kernels' scoring arguments as the C types they read; an
    empty hint payload becomes one unread slot."""
    flat = np.ascontiguousarray(hint_flat, dtype=np.int64)
    return (chunk_size, np.ascontiguousarray(expected_1kb, dtype=np.int32),
            np.ascontiguousarray(close_set, dtype=np.int8),
            np.ascontiguousarray(hint_csr, dtype=np.int64),
            flat if len(flat) else np.zeros(1, dtype=np.int64))


def _checked(rc: int, kernel: str, bad: str = "") -> int:
    """A kernel's return value rc; its error codes raise: -1 (its
    scratch could not be allocated) MemoryError, -2 ValueError(bad)."""
    if rc == -1:
        raise MemoryError(f"{kernel}: cannot allocate its scratch")
    if rc == -2:
        raise ValueError(f"{kernel}: {bad}")
    return rc


def _spans(cat, starts, ends):
    """(uint8 view of cat, int64 starts, int64 ends) of the spans
    cat[starts[i]:ends[i]]. Raises ValueError unless
    0 <= starts <= ends <= len(cat)."""
    buf = np.frombuffer(cat, dtype=np.uint8)
    ends = np.ascontiguousarray(ends, dtype=np.int64)
    starts = np.ascontiguousarray(starts, dtype=np.int64)
    if len(starts) != len(ends) or (len(ends) and (
            starts.min() < 0 or ends.max() > len(buf)
            or (ends < starts).any())):
        raise ValueError("spans must satisfy 0 <= starts <= ends <= "
                         "len(cat)")
    return buf, starts, ends


def _offsets(offsets, size: int) -> np.ndarray:
    """int64 ``offsets``; raises ValueError unless they are n + 1 >= 1
    ascending offsets into [0, size]."""
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    if len(offsets) == 0 or offsets[0] < 0 or offsets[-1] > size \
            or (offsets[1:] < offsets[:-1]).any():
        raise ValueError("offsets must hold n + 1 >= 1 ascending "
                         "offsets into the data")
    return offsets


def _docs(data, offsets):
    """(uint8 view of data, int64 offsets) of the documents
    data[offsets[d]:offsets[d+1]], the layout of ``utf8_cat``. Raises
    ValueError unless offsets holds n + 1 >= 1 ascending offsets into
    data."""
    buf = np.frombuffer(data, dtype=np.uint8)
    return buf, _offsets(offsets, len(buf))


def quad_octa_chunk_score(cat, starts: np.ndarray, bounds: np.ndarray,
                          quad_table,
                          socta, docta, xocta,
                          latin_of_span: np.ndarray,
                          chunk_size: int,
                          expected_1kb: np.ndarray, close_set: np.ndarray,
                          hint_csr: np.ndarray, hint_flat: np.ndarray,
                          script4_of_span: np.ndarray,
                          with_ranges: bool = False):
    """Fused scan + chunk scoring over MANY-script spans in one C
    pass, per-hit arrays never materialized. Span i is
    cat[starts[i]:bounds[i]] (cat: bytes or a uint8 array). Returns
    per-chunk
    (lang1 i16, cbytes i64, s1 i64, rel i64, span_of_chunk i64) —
    bit-equal to the numpy oracle chain tests/oracles/langid.py
    many_hits -> score.score_chunks_multi.

    with_ranges=True appends (rel_delta, cletter): rel_delta is the
    zeros-expected reliability (the ranges "un" gate) and cletter the
    index, among its span's letters, of the letter at the
    BetterBoundary-sharpened chunk start. The first five outputs do not
    change; the pass costs a hit-stream merge.

    expected_1kb: int32[NUM_LANGS, 4] in the kAvgDeltaOctaScore layout,
    read at each span's LScript4 slot ``script4_of_span``."""
    buf, starts, bounds = _spans(cat, starts, bounds)
    outs = _chunk_bufs(starts, bounds, chunk_size)
    ranges = tuple(np.empty(len(outs[0]), dtype=np.int64)
                   for _ in range(2 * with_ranges))
    nch = _checked(_CS(
        buf, starts, bounds, len(bounds),
        quad_table.keys, quad_table.vals, int(quad_table.mask),
        socta.keys, socta.vals, int(socta.mask),
        *_bt_args(docta), *_bt_args(xocta),
        np.ascontiguousarray(latin_of_span, dtype=np.uint8),
        np.ascontiguousarray(script4_of_span, dtype=np.uint8),
        *_chunk_args(chunk_size, expected_1kb, close_set, hint_csr,
                     hint_flat), len(outs[0]), *outs,
        *([a.ctypes.data for a in ranges] or [None] * 2)),
        "quad_octa_chunk_score", "the chunks pass the output rows")
    return tuple(a[:nch] for a in (*outs, *ranges))


def cjk_chunk_score(cat, starts: np.ndarray, bounds: np.ndarray,
                    pseudo_lens: np.ndarray, uni_table, cjkbi,
                    chunk_size: int, expected_1kb: np.ndarray,
                    close_set: np.ndarray, hint_csr: np.ndarray,
                    hint_flat: np.ndarray):
    """Fused CJK uni+bi scan + chunk scoring (the cjk_candidates ->
    lookup -> score_chunks_multi chain) in one C pass over the spans
    cat[starts[i]:bounds[i]]; pseudo_lens are the per-span text_bytes used for chunk extents
    (char positions scale x3, as in the numpy path). cjkbi is a
    BucketTable probed with BiHashV2 (othr decode)."""
    buf, starts, bounds = _spans(cat, starts, bounds)
    outs = _chunk_bufs(starts, bounds, chunk_size)
    nch = _checked(_CJ(
        buf, starts, bounds, len(bounds),
        np.ascontiguousarray(pseudo_lens, dtype=np.int64),
        uni_table.keys, uni_table.vals, int(uni_table.mask),
        cjkbi.buckets, cjkbi.buckets.shape[0], int(cjkbi.keymask),
        cjkbi.packed_othr,
        *_chunk_args(chunk_size, expected_1kb, close_set, hint_csr,
                     hint_flat), len(outs[0]), *outs),
        "cjk_chunk_score", "the chunks pass the output rows")
    return tuple(a[:nch] for a in outs)


def extract_scan_batch(data, offsets: np.ndarray, ent_keys: np.ndarray,
                       ent_vals: np.ndarray, ent_mask: int,
                       low_map: np.ndarray, with_map: bool = False):
    """The UTF-8 gate and extract_text over a batch in one C pass: page
    d is data[offsets[d]:offsets[d+1]], any bytes (an html column's
    buffers as ``arrow_docs`` reads them); its text is extracted from
    its longest valid UTF-8 prefix, whose \\r are not yet normalized.
    The entity table is (ent_keys, ent_vals, ent_mask) of
    ``table_build``. Returns (text uint8, text_offsets int64[n+1],
    valid int64[n]), all fresh: page d's text is text[text_offsets[d]:
    text_offsets[d+1]], the buffers of an Arrow large_string column, and
    valid[d] the length of its valid prefix (what Python's strict
    decoder decodes before its first error). with_map=True appends src
    int64 aligned with text: src[k] = position within its raw page of
    the byte that produced text[k]."""
    buf, offsets = _docs(data, offsets)
    n = len(offsets) - 1
    cap = int(offsets[-1] - offsets[0]) + 8
    out = np.empty(cap, dtype=np.uint8)
    text_offsets = np.empty(n + 1, dtype=np.int64)
    valid = np.empty(n, dtype=np.int64)
    src = np.empty(cap, dtype=np.int64) if with_map else None
    m = _checked(_EXB(buf, offsets, n, ent_keys, ent_vals, int(ent_mask),
                      low_map, out, text_offsets, valid,
                      None if src is None else src.ctypes.data),
                 "extract_scan_batch")
    if with_map:
        return out[:m], text_offsets, valid, src[:m]
    return out[:m], text_offsets, valid


# page_hints_scan's priors per page (quadscan.c HS_PRIORS)
HINT_PRIORS = 4


def page_hints_scan(html, html_offsets: np.ndarray, valid: np.ndarray,
                    url, url_offsets: np.ndarray, tables):
    """hints.page_hints of every page in one C pass: page d's head is
    the first min(valid[d], 8192) bytes of html[html_offsets[d]:
    html_offsets[d+1]] and its url url[url_offsets[d]:url_offsets[d+1]]
    (both in the layout of ``arrow_docs``). ``tables`` is the tuple of
    hints._scan_tables (the hint table, its entries, the encoding names
    and each code's lang id). Returns (prior_lid (n, 4), prior_w (n, 4),
    decl_csr int64[n+1], decl_flat, tld_lang int64[n]): row d of the
    priors is page d's trimmed priors, zero-padded; its declared ids
    are decl_flat[decl_csr[d]:decl_csr[d+1]]."""
    hbuf, html_offsets = _docs(html, html_offsets)
    ubuf, url_offsets = _docs(url, url_offsets)
    n = len(html_offsets) - 1
    valid = np.ascontiguousarray(valid, dtype=np.int64)
    if len(url_offsets) != n + 1 or len(valid) != n or (n and (
            valid.min() < 0 or (valid > np.diff(html_offsets)).any())):
        raise ValueError("page_hints_scan: valid and the urls must match "
                         "the pages")
    keys, vals, mask, ent_csr, ent_code, ent_w, enc_names, enc_off, \
        enc_code, code_lid, decl_max = tables
    # a declared id comes from a lang= match (>= 7 bytes of the head,
    # matches never overlap) or the one Content-Language match, each
    # adding at most decl_max[0] ids, and a page declares at most
    # decl_max[1] distinct codes
    head = np.minimum(valid, 8192)
    decl_cap = int(np.minimum(decl_max[0] * (head // 7 + 1),
                              decl_max[1]).sum())
    prior_lid = np.empty((n, HINT_PRIORS), dtype=np.int64)
    prior_w = np.empty((n, HINT_PRIORS), dtype=np.int64)
    decl_csr = np.empty(n + 1, dtype=np.int64)
    decl_flat = np.empty(max(decl_cap, 1), dtype=np.int64)
    tld_lang = np.empty(n, dtype=np.int64)
    nd = _checked(_PHS(hbuf, html_offsets, valid, n, ubuf, url_offsets,
                       keys, vals, int(mask), ent_csr, ent_code, ent_w,
                       enc_names, enc_off, enc_code, len(enc_code),
                       code_lid, len(code_lid), decl_cap, prior_lid,
                       prior_w, decl_csr, decl_flat, tld_lang),
                  "page_hints_scan", "the declared ids pass their bound")
    return prior_lid, prior_w, decl_csr, decl_flat[:nd], tld_lang


def script_spans_scan_multi(data, offsets: np.ndarray,
                            script_lut: np.ndarray, lower_lut: np.ndarray,
                            text_limit: int, max_span_bytes: int):
    """Script-run segmentation of a batch in one C pass
    (spans.script_spans_batch semantics, bit-equal to the numpy oracle
    — tested) over the documents data[offsets[d]:offsets[d+1]].
    Returns (meta int64[nspans, 7], ns_doc, out_buf view, lt_idx view);
    meta rows are [script, char_off, char_end, out_start, out_bytes,
    lp_start, lp_end] with out/lp indexing the shared out_buf/lt_idx,
    where the spans' texts and letters are packed back to back in
    document order; doc d owns meta rows [sum(ns_doc[:d]),
    sum(ns_doc[:d+1])). The arrays are fresh, sized to the worst case:
    the used prefix of out_buf and lt_idx ends at the last meta row."""
    buf, offsets = _docs(data, offsets)
    n_docs = len(offsets) - 1
    # pass 1 of the scan records at most c_d = min(len_d, text_limit + 1)
    # letters of doc d (see quadscan.c script_spans_scan); the outputs
    # hold sum(c_d) letters, out_buf 3 bytes per letter + 1 per doc, and
    # the scan writes every slot before it reads it
    lt_cap = int(np.minimum(np.diff(offsets), max(text_limit, 1) + 1).sum())
    lt_idx = np.empty(lt_cap, dtype=np.int64)
    out_buf = np.empty(3 * lt_cap + n_docs, dtype=np.uint8)
    # at most one span per letter; only emitted rows are written
    meta = np.empty(lt_cap * 7, dtype=np.int64)
    ns_doc = np.empty(n_docs, dtype=np.int64)
    ns = _checked(_SSM(*(a.ctypes.data for a in (buf, offsets)), n_docs,
                       script_lut.ctypes.data, lower_lut.ctypes.data,
                       len(script_lut), text_limit, max_span_bytes,
                       *(a.ctypes.data for a in (lt_idx, out_buf, meta,
                                                 ns_doc))),
                  "script_spans_scan_multi")
    return meta[:ns * 7].reshape(ns, 7), ns_doc, out_buf, lt_idx


def quality_scan(data, offsets: np.ndarray, letter_lut: np.ndarray,
                 fold_lut: np.ndarray, sw_table) -> np.ndarray:
    """One C pass over the utf-8 docs data[offsets[d]:offsets[d+1]],
    each stripped of its ``str.isspace`` chars at both ends (as
    ``str.strip()``) -> (n_docs, 14) int64 stats [n_words, n_chars, n_ws,
    alpha_words, n_stop, n_sentences, symbols, has_lorem, has_brace,
    n_lines(non-empty), bullet_lines, ellipsis_lines, dup_lines,
    pii_candidate] with RE2/pandas-pinned semantics (see quadscan.c
    quality_scan). pii_candidate is 1 iff the doc holds an ASCII digit
    or '@', which every match of a ``scrub.PII_PATTERNS`` pattern
    needs. sw_table is the stopword set's (keys, vals, mask) of
    ``table_build``."""
    buf, offsets = _docs(data, offsets)
    n_docs = len(offsets) - 1
    out = np.empty((n_docs, 14), dtype=np.int64)
    sw_keys, sw_vals, sw_mask = sw_table
    _checked(_QS(buf, offsets, n_docs, letter_lut, len(letter_lut),
                 fold_lut, len(fold_lut), sw_keys, sw_vals, int(sw_mask),
                 out), "quality_scan")
    return out


def table_build(kv) -> tuple[np.ndarray, np.ndarray, np.uint64]:
    """(keys, vals, mask) of the open-addressed table that the C probe
    (quadscan.c table_lookup, bound as ``table_lookup``) reads, holding
    ``kv``, a {key: value} dict of uint64 keys and values; a probe that
    misses reads 0, so a value of 0 reads as absent. Slots are a power
    of two >= 4x the entries (~25% load: nearly every lookup resolves
    in one probe); keys are inserted in ascending order, each at the
    first free slot from (mix(key) & mask) on, where mix(k) =
    h ^ (h >> 29) with h = k * 0x9E3779B97F4A7C15 mod 2^64. Key 0 marks
    an empty slot, so a key 0 is stored (and probed) as 1. The layout
    is a function of kv alone: the committed model artifacts are this
    builder's output."""
    n = max(8, 1 << (len(kv) * 4 - 1).bit_length())
    mask = n - 1
    keys = [0] * n
    vals = [0] * n
    for k, v in sorted(kv.items()):
        k = int(k) or 1
        h = (k * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        idx = (h ^ (h >> 29)) & mask
        while keys[idx]:
            idx = (idx + 1) & mask
        keys[idx] = k
        vals[idx] = int(v)
    return (np.array(keys, dtype=np.uint64), np.array(vals, dtype=np.uint64),
            np.uint64(mask))


def table_lookup(keys: np.ndarray, vals: np.ndarray, mask: int,
                 queries: np.ndarray) -> np.ndarray:
    """C probe loop for HashTable.lookup (bit-equal to
    tests/oracles/model.py lookup_numpy)."""
    q = np.ascontiguousarray(queries, dtype=np.uint64)
    out = np.empty(len(q), dtype=np.uint64)
    _LK(keys, vals, int(mask), q, len(q), out)
    return out


def lower_docs(data, offsets: np.ndarray, order: np.ndarray, tables,
               cap: int = -1, frame: bool = False):
    """Python's str.lower of the documents data[offsets[d]:offsets[d+1]]
    for d in ``order``, in one C pass (quadscan.c lower_docs): each
    first cut to its longest prefix of at most ``cap`` bytes that ends
    on a char boundary (when cap >= 0), then lowered, then framed by a
    space on each side when ``frame`` is set. ``tables`` is
    uscript.str_lower_tables(). Returns (out uint8[], out_offsets
    int64[len(order)+1]), the layout of ``utf8_cat``: out_offsets[j]
    starts document order[j]."""
    buf, offsets = _docs(data, offsets)
    order = np.ascontiguousarray(order, dtype=np.int64)
    if len(order) and (order.min() < 0
                       or order.max() >= len(offsets) - 1):
        raise ValueError("lower_docs: order names a document past the "
                         "batch")
    low, ext, cls_start, cls = tables
    # a document of b bytes lowers to at most 3b/2 + 1 bytes (see the
    # kernel), plus its frame
    sizes = np.diff(offsets)[order]
    if cap >= 0:
        sizes = np.minimum(sizes, cap)
    total = int(sizes.sum())
    out = np.empty(total + total // 2 + (1 + 2 * frame) * len(order),
                   dtype=np.uint8)
    out_offsets = np.empty(len(order) + 1, dtype=np.int64)
    m = _LOW(buf, offsets, order, len(order), cap, int(frame), low,
             len(low), ext, cls_start, cls, len(cls), out, out_offsets)
    return out[:m], out_offsets


def ppl_score(data, offsets: np.ndarray, lang_ids: np.ndarray,
              table, uni: np.ndarray):
    """Per-doc char-trigram LM bits over the framed lowered docs
    data[offsets[d]:offsets[d+1]]. Returns (bits float64[n], n_trigrams
    int64[n]). The char hash buckets are ``uni.shape[1]``, which must
    be a power of two."""
    buf, offsets = _docs(data, offsets)
    n_docs = len(offsets) - 1
    lang_ids = np.ascontiguousarray(lang_ids, dtype=np.int64)
    uni = np.ascontiguousarray(uni, dtype=np.float64)
    v = uni.shape[1]
    if v <= 0 or v & (v - 1):
        raise ValueError(f"ppl_score: uni.shape[1] = {v} is not a power "
                         "of two")
    bits = np.empty(n_docs, dtype=np.float64)
    cnt = np.empty(n_docs, dtype=np.int64)
    _checked(_PP(buf, offsets, n_docs, lang_ids, table.keys, table.vals,
                 int(table.mask), uni, v, bits, cnt), "ppl_score")
    return bits, cnt


def rep_words_multi(cat, starts: np.ndarray, bounds: np.ndarray):
    """CheapRepWords over space-framed UTF-8 spans cat[starts[i]:
    bounds[i]], the predictor restarting per span. Returns (out uint8[], out_bounds int64[n]):
    span i's result is out[out_bounds[i-1]:out_bounds[i]], bit-equal
    to tests/oracles/repeats.py remove_repeated_words on that span."""
    buf, starts, bounds = _spans(cat, starts, bounds)
    out = np.empty(int((bounds - starts).sum()) + 2 * len(bounds) + 1,
                   dtype=np.uint8)
    out_bounds = np.empty(len(bounds), dtype=np.int64)
    n = _RW(buf, starts, bounds, len(bounds), out, out_bounds)
    return out[:n], out_bounds


def cheap_squeeze(data, offsets: np.ndarray):
    """The CheapSqueeze pre-pass over the documents data[offsets[d]:
    offsets[d+1]] in one C pass (quadscan.c cheap_squeeze): a document
    of more than 4096 chars whose first 256 chars pass the trigger test
    loses its 48-byte chunks of mostly spaces or predicted bytes. Returns
    (squeezed bool[n], out uint8[], out_offsets int64[n+1]): the batch,
    each squeezed document rewritten and every other one copied, in the
    layout of ``utf8_cat``. tests/oracles/repeats.py is its oracle."""
    buf, offsets = _docs(data, offsets)
    n = len(offsets) - 1
    out = np.empty(len(buf), dtype=np.uint8)
    out_offsets = np.empty(n + 1, dtype=np.int64)
    squeezed = np.empty(n, dtype=np.uint8)
    m = _SQZ(buf, offsets, n, out, out_offsets, squeezed)
    return squeezed.view(bool), out[:m], out_offsets


# doc_stage flags (quadscan.c DS_*)
DS_BEST_EFFORT = 1
DS_TOTE_TOP = 2


def doc_stage(n_docs: int, streams, totals: np.ndarray,
              decl_csr: np.ndarray, decl_flat: np.ndarray, flags: int,
              lang_props: np.ndarray, ids: np.ndarray) -> dict:
    """CLD2's document stage for a batch in one C pass (quadscan.c
    doc_stage): per-document DocTote from the tote add ``streams``, then
    close-pair refinement, unreliable removal (not under
    DS_BEST_EFFORT), top-3 + percents, the summary calculus and the
    Repeats-retry good test.

    streams: list of (doc, lang, bytes, score, rel) array tuples; a
    document takes its adds from each stream in turn, in stream order,
    so each stream's ``doc`` must be non-decreasing. totals: int64[n]
    letter bytes per document; declared languages of doc d are
    decl_flat[decl_csr[d]:decl_csr[d+1]]. lang_props: int64[num_langs,
    4] (close set, closest alt, tier, 1=FIGS|2=EFIGS); ids: unknown,
    english, zh, zh-Hant. DS_TOTE_TOP reports the raw tote's top
    language as ``summary`` (UNKNOWN below 41% reliability) with no
    refinement or summary calculus.

    Returns a dict of numpy columns: summary, lang3 (n,3), pct3 (n,3),
    nscore3 (n,3) float64, text_bytes, reliable bool, good bool."""
    cols = [np.concatenate([np.asarray(st[k], dtype=np.int64)
                            for st in streams]) if streams
            else np.zeros(0, dtype=np.int64) for k in range(5)]
    ends = np.cumsum([len(st[0]) for st in streams], dtype=np.int64)
    for st in streams:
        d = np.asarray(st[0])
        if len(d) and (d[0] < 0 or d[-1] >= n_docs
                       or (np.diff(d) < 0).any()):
            raise ValueError("doc_stage: each stream's docs must be "
                             "non-decreasing ids below n_docs")
    if len(cols[1]) and (cols[1].min() < 0
                         or cols[1].max() >= len(lang_props)):
        raise ValueError("doc_stage: language ids outside lang_props")
    totals = np.ascontiguousarray(totals, dtype=np.int64)
    decl_csr = np.ascontiguousarray(decl_csr, dtype=np.int64)
    decl_flat = np.ascontiguousarray(decl_flat, dtype=np.int64)
    if len(totals) != n_docs or len(decl_csr) != n_docs + 1:
        raise ValueError("doc_stage: totals/decl_csr do not match n_docs")
    if len(decl_flat) == 0:
        decl_flat = np.zeros(1, dtype=np.int64)
    out = {"summary": np.empty(n_docs, dtype=np.int64),
           "lang3": np.empty((n_docs, 3), dtype=np.int64),
           "pct3": np.empty((n_docs, 3), dtype=np.int64),
           "nscore3": np.empty((n_docs, 3), dtype=np.float64),
           "text_bytes": np.empty(n_docs, dtype=np.int64),
           "reliable": np.empty(n_docs, dtype=np.uint8),
           "good": np.empty(n_docs, dtype=np.uint8)}
    if _DS(n_docs, ends, len(streams), *cols, totals, decl_csr, decl_flat,
           flags, np.ascontiguousarray(lang_props, dtype=np.int64),
           np.ascontiguousarray(ids, dtype=np.int64),
           *out.values()) < 0:
        raise ValueError("doc_stage: at most 16 streams")
    out["reliable"] = out["reliable"].view(bool)
    out["good"] = out["good"].view(bool)
    return out


def fastlangid_score(data, offsets: np.ndarray, idx: np.ndarray,
                     w: np.ndarray, script_lut: np.ndarray,
                     one_script: np.ndarray):
    """fastlangid.classify_batch's routing and scoring in one C pass
    over the lowered docs data[offsets[d]:offsets[d+1]], each scored as
    " " + doc + " ". script_lut maps a codepoint to its script id and
    one_script (uint8[256]) flags the scripts that imply one language.
    Returns (route int32[n], scores (n,k) f32, nfeats int64[n], nrows
    int64[n]): route is -1 for a whitespace-only doc, the dominant
    script for a doc it flags, and 0 for a scored doc; the other
    outputs are 0 on unscored docs (see quadscan.c)."""
    buf, offsets = _docs(data, offsets)
    n_docs = len(offsets) - 1
    if len(one_script) != 256:
        raise ValueError("one_script must hold 256 flags")
    route = np.empty(n_docs, dtype=np.int32)
    scores = np.empty((n_docs, w.shape[1]), dtype=np.float32)
    nfeats = np.empty(n_docs, dtype=np.int64)
    nrows = np.empty(n_docs, dtype=np.int64)
    _checked(_ACC(buf, offsets, n_docs, script_lut, len(script_lut),
                  np.ascontiguousarray(one_script, dtype=np.uint8), idx, w,
                  w.shape[0], w.shape[1], route, scores, nfeats, nrows),
             "fastlangid_score",
             "bucket_index names a row past the weight table")
    return route, scores, nfeats, nrows


# ---- batched hash kernels (dedup / sampling pipelines) -----------------

_HEXLUT = np.frombuffer(b"0123456789abcdef", dtype=np.uint8)


def arrow_docs(arr):
    """(data uint8[], offsets int64[n+1]) of a pyarrow binary or string
    array (large or not, or a ChunkedArray): the layout every
    per-document kernel takes, read in place from the array's buffers.
    A null reads as empty (a column with nulls is copied once, without
    them); a sliced array keeps its offsets into the shared data."""
    import pyarrow as _pa
    if isinstance(arr, _pa.ChunkedArray):
        arr = arr.combine_chunks()
    if arr.null_count:
        arr = arr.fill_null(_pa.scalar(b"", arr.type))
    wide = _pa.types.is_large_binary(arr.type) or \
        _pa.types.is_large_string(arr.type)
    _, off, data = arr.buffers()
    off = np.frombuffer(off, dtype=np.int64 if wide else np.int32,
                        count=len(arr) + 1 + arr.offset)[arr.offset:]
    data = np.frombuffer(data, dtype=np.uint8) if data else \
        np.empty(0, dtype=np.uint8)
    return data, off.astype(np.int64, copy=False)


def utf8_cat(strings):
    """(data uint8[], offsets int64[n+1]) for a sequence of strings —
    the batch layout every per-document kernel takes, offsets starting
    at 0. Accepts a list/ndarray/Series of str (None -> empty) or a
    pyarrow String/LargeString array (zero-copy when offsets are int64
    and start at 0)."""
    import pyarrow as _pa
    if not isinstance(strings, (_pa.Array, _pa.ChunkedArray)):
        strings = _pa.array(
            [s if isinstance(s, str) else "" for s in strings],
            type=_pa.large_string())
    data, off = arrow_docs(strings)
    if off[0]:
        # sliced array: rebase offsets onto a compact copy
        data = np.ascontiguousarray(data[off[0]:off[-1]])
        off = off - off[0]
    return data, np.ascontiguousarray(off)


def utf8_array(data: np.ndarray, offsets: np.ndarray):
    """The pyarrow LargeStringArray on the buffers (data, offsets) of
    ``utf8_cat``'s layout, offsets starting at 0, without a copy: the
    inverse of ``utf8_cat``."""
    import pyarrow as _pa
    return _pa.LargeStringArray.from_buffers(
        len(offsets) - 1, _pa.py_buffer(offsets), _pa.py_buffer(data))


def md5_batch(data: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """(n, 16) uint8 MD5 digests of data[offsets[i]:offsets[i+1]] (the
    layout of ``utf8_cat``, checked by ``_docs``)."""
    data, offsets = _docs(data, offsets)
    n = len(offsets) - 1
    out = np.empty((n, 16), dtype=np.uint8)
    if n:
        _MD5(data, offsets, n, out)
    return out


def md5_windows(word_data: np.ndarray, word_offsets: np.ndarray,
                doc_offsets: np.ndarray, window: int) -> np.ndarray:
    """(n_windows, 16) uint8 MD5 digests of every stride-1
    ``window``-token space-joined window, doc-major (docs shorter
    than ``window`` emit nothing) — the substring_dedup md5 keys.
    Token t is word_data[word_offsets[t]:word_offsets[t+1]] (the layout
    of ``utf8_cat``); doc d holds tokens doc_offsets[d]:doc_offsets[d+1]
    (both checked by ``_offsets``). Raises MemoryError if the kernel
    cannot allocate its window buffer."""
    data, word_offsets = _docs(word_data, word_offsets)
    doc_offsets = _offsets(doc_offsets, len(word_offsets) - 1)
    total = int(np.maximum(np.diff(doc_offsets) - window + 1, 0).sum())
    out = np.empty((total, 16), dtype=np.uint8)
    if total:
        _checked(_MDW(data, word_offsets, doc_offsets,
                      len(doc_offsets) - 1, window, out), "md5_windows")
    return out


def blake2b_batch(data: np.ndarray, offsets: np.ndarray,
                  digest_size: int = 16) -> np.ndarray:
    """(n, digest_size) uint8 keyless BLAKE2b digests of
    data[offsets[i]:offsets[i+1]] (checked by ``_docs``). Raises
    ValueError unless 1 <= digest_size <= 64."""
    data, offsets = _docs(data, offsets)
    n = len(offsets) - 1
    out = np.empty((n, max(digest_size, 0)), dtype=np.uint8)
    _checked(_B2B(data, offsets, n, digest_size, out), "blake2b_batch",
             f"digest_size {digest_size} outside 1..64")
    return out


def hex_digest(dig: np.ndarray) -> np.ndarray:
    """(n, k) uint8 digests -> numpy 'S2k' lowercase-hex bytes rows
    (hashlib.hexdigest parity; decode/astype(object) for str)."""
    n, k = dig.shape
    out = np.empty((n, 2 * k), dtype=np.uint8)
    out[:, 0::2] = _HEXLUT[dig >> 4]
    out[:, 1::2] = _HEXLUT[dig & 15]
    return out.reshape(-1).view(f"S{2 * k}")


def hex_digest_arrow(dig: np.ndarray):
    """(n, k) uint8 digests -> pyarrow string array of lowercase hex
    (zero Python-object churn: offsets + data buffers built directly)."""
    import pyarrow as _pa
    n, k = dig.shape
    hx = np.asarray(hex_digest(dig)).view(np.uint8).reshape(n, 2 * k)
    offs = np.arange(0, 2 * k * (n + 1), 2 * k, dtype=np.int32)
    return _pa.Array.from_buffers(
        _pa.utf8(), n,
        [None, _pa.py_buffer(offs.tobytes()),
         _pa.py_buffer(np.ascontiguousarray(hx).tobytes())])
