"""Offline parser for the reference's PRESENT generated model tables.

The reference ships its trained delta-octa / distinct-octa word tables,
CJK unigram property trie + compatible-langprob table, CJK bigram
table, and expected-score table as generated C arrays
(reference: internal/cld2_generated_deltaocta0527.cc,
cld2_generated_distinctocta0527.cc, cld_generated_cjk_uni_prop_80.cc,
cld2_generated_cjk_compatible.cc, cld_generated_cjk_delta_bi_32.cc,
cld_generated_score_quad_octa_2.cc).  This module parses them at
ARTIFACT BUILD time (``python -m tools.langmodel``) into numpy
arrays; nothing in ``cld2_ray/`` imports it.

What is extracted is the reference's MODEL — pure data (hash-bucket
contents, quantized probabilities, per-script language numberings),
i.e. "what to compute", not code.  The lookup semantics they imply
(OctaFPJustHash bucket probe, langprob decode through kLgProbV2Tbl,
per-script language numbers via kPLangToLanguageLatn/Othr) are
reimplemented in this engine's C kernels (cld2_ray/native) and, in
numpy, in tools/langmodel.py.

``python -m tools.refparse`` writes the other artifact parsed from the
reference, ``cld2_ray/state/artifacts/unicode_luts.npz``.

Validated against the generated files' own decode comments (e.g.
deltaocta Ind entry 0x500d2d0d == "sk.cs.fj_554") in
tests/test_refparse.py.
"""

from __future__ import annotations

import os
import re
from functools import lru_cache

import numpy as np

REF_DIR = os.environ.get("CLD2_REF_DIR", "/root/reference")

# utf8statetable.h:47-65 exit codes (the trie stores them inline)
_EXITS = {"X__": 240, "RJ_": 242, "S1_": 243, "S2_": 244, "S3_": 245,
          "S21": 246, "S31": 247, "S32": 248, "T1_": 249, "T2_": 250,
          "S11": 251, "SP_": 252, "D__": 253, "RJA": 254}


def _read(rel: str) -> str:
    with open(os.path.join(REF_DIR, "internal", rel),
              encoding="utf-8", errors="replace") as f:
        return f.read()


def _strip_comments(s: str) -> str:
    return re.sub(r"//[^\n]*", "", s)


def _array_body(text: str, name: str) -> str:
    m = re.search(re.escape(name) + r"\s*\[[^\]]*\]\s*=\s*\{", text)
    if m is None:
        raise ValueError(f"array {name} not found")
    start = m.end()
    depth, i = 1, start
    while depth:
        c = text[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
        i += 1
    return _strip_comments(text[start:i - 1])


def parse_int_array(text: str, name: str) -> list[int]:
    body = _array_body(text, name)
    return [int(t, 0)
            for t in re.findall(r"0[xX][0-9a-fA-F]+|-?\d+", body)]


def parse_const(text: str, name: str) -> int:
    m = re.search(re.escape(name) + r"\s*=\s*(0[xX][0-9a-fA-F]+|\d+)",
                  text)
    if m is None:
        raise ValueError(f"const {name} not found")
    return int(m.group(1), 0)


# ---------------------------------------------------------------------------
# Language tables (generated_language.{h,cc})
# ---------------------------------------------------------------------------

# legacy ISO codes the reference uses -> the codes this engine emits
CODE_ALIAS = {"iw": "he", "jw": "jv", "in": "id", "ji": "yi"}


@lru_cache(maxsize=1)
def language_tables():
    """Returns (code_of_id: dict, plang_latn: int[256], plang_othr:
    int[256]) where plang_* map per-script language numbers to
    reference Language enum ids (generated_language.cc:3022-3281)."""
    gh = _read("generated_language.h")
    name_id: dict[str, int] = {}
    for mm in re.finditer(r"^\s*([A-Z][A-Z_0-9]*)\s*=\s*(\d+),", gh,
                          re.M):
        name_id.setdefault(mm.group(1), int(mm.group(2)))

    gl = _read("generated_language.cc")
    m = re.search(r"kLanguageToCode\[kLanguageToCodeSize\] = \{(.*?)\n\};",
                  gl, re.S)
    code_of: dict[int, str] = {}
    for mm in re.finditer(r'"([^"]*)",\s*//\s*(\d+)', m.group(1)):
        code_of[int(mm.group(2))] = mm.group(1)

    def enum_arr(name: str) -> list[int]:
        mm = re.search(re.escape(name) + r"\[\d+\] = \{(.*?)\n\};", gl,
                       re.S)
        return [name_id.get(t, 26)  # 26 = UNKNOWN_LANGUAGE
                for t in re.findall(r"([A-Z][A-Z_0-9]+)\s*,",
                                    mm.group(1))]

    return code_of, enum_arr("kPLangToLanguageLatn"), \
        enum_arr("kPLangToLanguageOthr")


def pslang_code(ps: int, latin: bool) -> str:
    """Per-script language number -> engine language code ('' for
    unknown/fake languages)."""
    code_of, latn, othr = language_tables()
    ref_id = (latn if latin else othr)[ps]
    code = code_of.get(ref_id, "")
    code = CODE_ALIAS.get(code, code)
    # fake/test/unknown languages score as nothing
    if code in ("un", "xxx", "ut") or code.startswith(("zz", "xx-")):
        return ""
    return code


# ---------------------------------------------------------------------------
# kLgProbV2Tbl (cldutil_shared.h:62-308)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def lgprob_table() -> np.ndarray:
    cu = _read("cldutil_shared.h")
    arr = np.array(parse_int_array(cu, "kLgProbV2Tbl"), dtype=np.uint8)
    return arr.reshape(240, 8)


def decode_langprob(lp: int, latin: bool) -> list[tuple[str, int]]:
    """uint32 langprob -> [(code, qprob), ...] (ProcessProbV2Tote,
    cldutil.cc:128-141: byte0 = kLgProbV2Tbl subscript, bytes 1..3 =
    per-script language numbers scored with the entry's 3-byte side)."""
    lg = lgprob_table()
    sub = lp & 0xFF
    out = []
    for j, sh in enumerate((8, 16, 24)):
        ps = (lp >> sh) & 0xFF
        if ps:
            code = pslang_code(ps, latin)
            if code:
                out.append((code, int(lg[sub, 5 + j])))
    return out


# ---------------------------------------------------------------------------
# Bucket tables (CLD2TableSummary: buckets + indirect langprob array)
# ---------------------------------------------------------------------------

_TABLE_FILES = {
    "deltaocta": ("cld2_generated_deltaocta0527.cc", "kDeltaOcta0527"),
    "distinctocta": ("cld2_generated_distinctocta0527.cc",
                     "kDistinctOcta0527"),
    "cjkbi": ("cld_generated_cjk_delta_bi_32.cc", "kCjkDeltaBi"),
}


@lru_cache(maxsize=None)
def bucket_table(name: str):
    """-> dict(buckets (n,4) uint32, ind uint32[], keymask, size_one)."""
    fn, prefix = _TABLE_FILES[name]
    text = _read(fn)
    nbuckets = parse_const(text, prefix + "Size")
    keymask = parse_const(text, prefix + "KeyMask")
    size_one = parse_const(text, prefix + "SizeOne")
    flat = np.array(parse_int_array(text, prefix), dtype=np.uint32)
    if len(flat) != nbuckets * 4:
        raise ValueError(f"{name}: {len(flat)} entries != {nbuckets}*4")
    ind = np.array(parse_int_array(text, prefix + "Ind"), dtype=np.uint32)
    return {"buckets": flat.reshape(nbuckets, 4), "ind": ind,
            "keymask": np.uint32(keymask), "size_one": size_one}


@lru_cache(maxsize=1)
def compat_ind() -> np.ndarray:
    """CJK unigram compatible table: 239 propvals x 2 langprobs
    (cld2_generated_cjk_compatible.cc; SizeOne=0 so every propval uses
    the double-langprob form Ind[2p], Ind[2p+1])."""
    text = _read("cld2_generated_cjk_compatible.cc")
    return np.array(parse_int_array(text, "kCompatTableInd"),
                    dtype=np.uint32)


# ---------------------------------------------------------------------------
# CJK unigram property trie (cld_generated_cjk_uni_prop_80.cc), a
# UTF8PropObj state machine walked with the BigOneByte rules
# (utf8statetable.cc:271-321: byte-2-of-3 and byte-3-of-4 offsets are
# 16x, last-byte offsets are signed-relative).
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _cjk_trie() -> np.ndarray:
    src = _read("cld_generated_cjk_uni_prop_80.cc")
    body = _array_body(src, "static const uint8 cld_generated_CjkUni")
    toks = re.findall(r"[A-Z][A-Z_0-9]{2}|-?\d+", body)
    vals = [_EXITS[t] if t in _EXITS else (int(t) & 0xFF) for t in toks]
    total = parse_const(src, "cld_generated_CjkUni_TOTAL_SIZE")
    if len(vals) != total:
        raise ValueError(f"CjkUni trie: {len(vals)} != {total}")
    return np.array(vals, dtype=np.uint8)


def cjk_uni_props() -> dict[int, int]:
    """Enumerate codepoint -> propval (compat-table subscript) by
    walking the trie for every codepoint; only propvals 1..238 kept
    (>=240 are structural exit codes)."""
    st = _cjk_trie().astype(np.int64)
    sts = _cjk_trie().view(np.int8).astype(np.int64)
    shift = 6
    out: dict[int, int] = {}
    for cp in range(0x80, 0x110000):
        if 0xD800 <= cp < 0xE000:
            continue
        bs = chr(cp).encode("utf-8")
        c = bs[0]
        if (c & 0xE0) == 0xC0:
            e = st[c]
            p = st[(e << shift) + bs[1]]
        elif (c & 0xF0) == 0xE0:
            e = st[c]
            base = e << (shift + 4)
            e2 = sts[base + bs[1]]
            p = st[base + (e2 << shift) + bs[2]]
        else:
            e = st[c]
            e2 = st[(e << shift) + bs[1]]
            base = e2 << (shift + 4)
            e3 = sts[base + bs[2]]
            p = st[base + (e3 << shift) + bs[3]]
        p = int(p)
        if 0 < p < 239:
            out[cp] = p
    return out


# ---------------------------------------------------------------------------
# Expected-score table (cld_generated_score_quad_octa_2.cc):
# kAvgDeltaOctaScore[lang*4 + LScript4(script)], score per 1024 bytes
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def avg_delta_octa_score() -> np.ndarray:
    text = _read("cld_generated_score_quad_octa_2.cc")
    arr = np.array(parse_int_array(text, "kAvgDeltaOctaScore"),
                   dtype=np.int32)
    return arr.reshape(-1, 4)  # [ref_lang_id][lscript4]


# ---------------------------------------------------------------------------
# Closest-alt correlations (compact_lang_det_impl.cc:259-427)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def closest_alt_by_code() -> dict[str, str]:
    impl = _read("compact_lang_det_impl.cc")
    min_corr = parse_const(impl, "kMinCorrPercent")
    m = re.search(r"kClosestAltLanguage\[\] = \{(.*?)\n\};", impl, re.S)
    code_of, _, _ = language_tables()
    # enum-name -> ref id (reuse the header enum)
    gh = _read("generated_language.h")
    name_id: dict[str, int] = {}
    for mm in re.finditer(r"^\s*([A-Z][A-Z_0-9]*)\s*=\s*(\d+),", gh,
                          re.M):
        name_id.setdefault(mm.group(1), int(mm.group(2)))
    out: dict[str, str] = {}
    # one entry per line; the trailing comment names the SOURCE
    # language (the array's own positions have drifted from the enum —
    # its size COMPILE_ASSERT is commented out in the reference — so
    # the comments are the reliable identity)
    norm_id = {k.replace("_", "").upper(): v for k, v in name_id.items()}
    pat = re.compile(r"\(\s*(\d+)\s*>=\s*kMinCorrPercent\s*\)\s*\?\s*"
                     r"([A-Za-z][A-Za-z_0-9]*)\s*:.*//\s*(\S+)")
    for line in m.group(1).splitlines():
        mm = pat.search(line)
        if not mm:
            continue
        pct, alt_name, src_name = int(mm.group(1)), mm.group(2), \
            mm.group(3)
        if pct < min_corr or alt_name not in name_id:
            continue
        src_id = norm_id.get(src_name.replace("_", "").upper())
        if src_id is None:
            continue
        src_code = CODE_ALIAS.get(code_of.get(src_id, ""),
                                  code_of.get(src_id, ""))
        alt_code = code_of.get(name_id[alt_name], "")
        alt_code = CODE_ALIAS.get(alt_code, alt_code)
        if src_code and alt_code and alt_code != "un":
            out[src_code] = alt_code
    return out


# ---------------------------------------------------------------------------
# Registry of languages the parsed tables can score (used to generate
# the static extension of functions/langs.py)
# ---------------------------------------------------------------------------

def referenced_codes() -> set[str]:
    codes: set[str] = set()
    for name in ("deltaocta", "distinctocta", "cjkbi"):
        for lp in bucket_table(name)["ind"].tolist():
            for latin in (True, False) if name != "cjkbi" else (False,):
                for code, _q in decode_langprob(int(lp), latin):
                    codes.add(code)
    for lp in compat_ind().tolist():
        for code, _q in decode_langprob(int(lp), False):
            codes.add(code)
    return codes


# ---------------------------------------------------------------------------
# Hint tables (compact_lang_det_hint_code.cc): per-entry packed prior
# strengths. Weights are the W-macros >> 10 (W2=2 .. W12=12, qprob
# units; negative = suppression), :67-72.
# ---------------------------------------------------------------------------

def _parse_hint_entries(body: str, name_id: dict[str, int],
                        code_of: dict[int, str], with_code: bool):
    """Parse {"tag"[, "code"], NAME +/- Wk | 0, NAME +/- Wk | 0} rows."""
    out: dict[str, list[tuple[str, int]]] = {}
    pat = re.compile(
        r'\{\s*"([^"]+)"\s*,' +
        (r'\s*"[^"]*"\s*,' if with_code else "") +
        r'\s*([A-Z][A-Z_0-9]*\s*[+-]\s*W\d+|0)\s*,'
        r'\s*([A-Z][A-Z_0-9]*\s*[+-]\s*W\d+|0)\s*\}')
    for mm in pat.finditer(body):
        tag = mm.group(1)
        priors: list[tuple[str, int]] = []
        for g in (mm.group(2), mm.group(3)):
            if g == "0":
                continue
            m2 = re.match(r"([A-Z][A-Z_0-9]*)\s*([+-])\s*W(\d+)", g)
            if not m2 or m2.group(1) not in name_id:
                continue
            code = code_of.get(name_id[m2.group(1)], "")
            code = CODE_ALIAS.get(code, code)
            if not code or code == "un":
                continue
            w = int(m2.group(3))
            priors.append((code, w if m2.group(2) == "+" else -w))
        if priors:
            out[tag] = priors
    return out


@lru_cache(maxsize=1)
def hint_tables():
    """-> (langtag_long, langtag_short, tld) dicts of
    tag -> [(code, signed_weight), ...] parsed from
    kCLDLangTagsHintTable1 (213 long tags), kCLDLangTagsHintTable2
    (257 short tags), kCLDTLDHintTable (181 TLDs)."""
    hc = _read("compact_lang_det_hint_code.cc")
    gh = _read("generated_language.h")
    name_id: dict[str, int] = {}
    for mm in re.finditer(r"^\s*([A-Z][A-Z_0-9]*)\s*=\s*(\d+),", gh,
                          re.M):
        name_id.setdefault(mm.group(1), int(mm.group(2)))
    code_of, _, _ = language_tables()
    hc_nc = re.sub(r"//[^\n]*", "", hc)

    def section(name):
        m = re.search(re.escape(name) + r"\[[^\]]*\] = \{(.*?)\n\};",
                      hc_nc, re.S)
        return m.group(1)

    return (_parse_hint_entries(section("kCLDLangTagsHintTable1"),
                                name_id, code_of, True),
            _parse_hint_entries(section("kCLDLangTagsHintTable2"),
                                name_id, code_of, True),
            _parse_hint_entries(section("kCLDTLDHintTable"),
                                name_id, code_of, False))


@lru_cache(maxsize=1)
def latn_othr_codes():
    """-> (latn_codes, othr_codes): which languages can occur in
    Latin / non-Latin script per the reference's per-script round-trip
    (IsLatnLanguage/IsOthrLanguage, lang_script.cc:344-353)."""
    code_of, latn, othr = language_tables()
    gl = _read("generated_language.cc")
    m = re.search(r"kLanguageToPLang\[kLanguageToPLangSize\] = \{(.*?)\n\};",
                  gl, re.S)
    to_plang = [int(t) for t in re.findall(
        r"\d+", re.sub(r"//[^\n]*", "", m.group(1)))]
    latn_codes, othr_codes = set(), set()
    for ref_id in range(len(to_plang)):
        ps = to_plang[ref_id]
        code = CODE_ALIAS.get(code_of.get(ref_id, ""),
                              code_of.get(ref_id, ""))
        if not code or code == "un":
            continue
        if ps < len(latn) and latn[ps] == ref_id:
            latn_codes.add(code)
        if ps < len(othr) and othr[ps] == ref_id:
            othr_codes.add(code)
    return latn_codes, othr_codes


# ---------------------------------------------------------------------------
# Unicode letter/mark script property + lowercase remap, parsed from the
# reference's utf8statetable state machines:
#   internal/utf8prop_lettermarkscriptnum.h  (two-byte-entry property
#     table walked by UTF8GenericPropertyTwoByte, utf8statetable.cc:362;
#     GetUTF8LetterScriptNum, getonescriptspan.cc:1083 — codepoint ->
#     ULScript number, 0 for non-letters)
#   internal/utf8repl_lettermarklower.h  (replace table applied by
#     UTF8GenericReplaceInternal, utf8statetable.cc:608-871, through
#     ScriptScanner::LowerScriptSpan, getonescriptspan.cc:1033-1053 —
#     per-character lowercasing incl. Turkish I-dot and Georgian
#     Asomtavruli; every replacement in this table is 1 codepoint ->
#     1 codepoint, asserted at build)
# Both are enumerated per codepoint here at ARTIFACT BUILD time into
# flat numpy LUTs; nothing below runs in the pipeline hot path.
# ---------------------------------------------------------------------------

# two-byte-table exit codes (utf8statetable.h:69-85): same order as the
# one-byte codes but based at kExitIllegalStructure_2 = 0x8000
_EXITS_2 = {k: 0x8000 + v - 240 for k, v in _EXITS.items()}
_TOKEN_RE = r"0[xX][0-9a-fA-F]+|[A-Z][A-Z_0-9]{2}|\d+"


def _parse_state_table(text: str, name: str, exits: dict[str, int],
                       dtype) -> np.ndarray:
    body = _array_body(text, name)
    toks = re.findall(_TOKEN_RE, body)
    vals = [exits[t] if t in exits else int(t, 0) for t in toks]
    total = parse_const(text, name.rsplit(None, 1)[-1] + "_TOTAL_SIZE")
    if len(vals) != total:
        raise ValueError(f"{name}: {len(vals)} entries != {total}")
    return np.array(vals, dtype=dtype)


@lru_cache(maxsize=1)
def ulscript_prop_lut(lim: int = 0x30000) -> np.ndarray:
    """uint8[lim]: codepoint -> raw ULScript number (generated_ulscript.h
    numbering; 0 = Common / not-a-letter), by walking every codepoint's
    UTF-8 bytes through the property trie."""
    src = _read("utf8prop_lettermarkscriptnum.h")
    t = _parse_state_table(
        src, "static const unsigned short utf8prop_lettermarkscriptnum",
        _EXITS_2, np.int64)
    lut = np.zeros(lim, dtype=np.uint8)
    for cp in range(lim):
        if 0xD800 <= cp < 0xE000:
            continue
        bs = chr(cp).encode("utf-8")
        e = int(t[bs[0]])
        for b in bs[1:]:
            e = int(t[(e << 6) + b])
        if e >= 0x8000:
            raise ValueError(f"prop walk hit exit code for U+{cp:04X}")
        lut[cp] = e
    return lut


def _replace_one(t: np.ndarray, remap: list[tuple[int, int, int]],
                 remap_string: bytes, b: bytes) -> bytes:
    """Run ONE structurally-valid UTF-8 char through the replace machine
    (one-byte entries, shift 6), mirroring UTF8GenericReplaceInternal."""
    X, RJ, R1, R2, R3, R21, R31, R32, T1, T2, S11, SP, DA, RJA = (
        240, 242, 243, 244, 245, 246, 247, 248, 249, 250, 251, 252,
        253, 254)
    ne = 64
    src_i, dst = 0, bytearray()
    while True:
        tbl, e = 0, 0
        while src_i < len(b):
            c = b[src_i]
            e = int(t[tbl + c])
            dst.append(c)
            src_i += 1
            if e >= X:
                break
            tbl = e << 6
        if e < X:
            return bytes(dst)       # source consumed in state0: done
        if e == R31:
            del dst[-2:]
            dst[-1] = int(t[tbl + c + ne])
        elif e == R32:
            del dst[-1:]
            dst[-2] = int(t[tbl + c + ne * 2])
            dst[-1] = int(t[tbl + c + ne])
        elif e == R21:
            del dst[-1:]
            dst[-1] = int(t[tbl + c + ne])
        elif e in (R1, R2, R3):
            if e == R3:
                dst[-3] = int(t[tbl + c + ne * 3])
            if e in (R2, R3):
                dst[-2] = int(t[tbl + c + ne * 2])
            dst[-1] = int(t[tbl + c + ne])
        elif e == S11:              # 256-wide state0 replacement column
            dst[-1] = int(t[tbl + c + 256])
        elif e in (T1, T2, SP):     # offset replacement via RemapEntry
            mult = 256 if tbl == 0 else ne
            off = int(t[tbl + c + mult])
            if e == T2:
                off += int(t[tbl + c + mult * 2]) << 8
            d, a, so = remap[off]
            if (d | a) & 0x80:      # resume / html-pair: not in this table
                raise ValueError("unsupported remap flags")
            del dst[len(dst) - d:]
            dst += remap_string[so:so + a]
            # SP would run DoSpecialFixup next; it is a no-op
            # (utf8statetable.cc:597-601)
        else:                       # X__ / RJ_ / D__ / RJA: pass through
            return b
    raise AssertionError


@lru_cache(maxsize=1)
def lettermark_lower_lut(lim: int = 0x30000) -> np.ndarray:
    """uint32[lim]: the reference's per-codepoint lowercase remap
    (identity where the replace table passes through). Raises if any
    replacement is not exactly one codepoint."""
    src = _read("utf8repl_lettermarklower.h")
    t = _parse_state_table(
        src, "static const uint8 utf8repl_lettermarklower", _EXITS,
        np.int64)
    rb = _array_body(src,
                     "static const RemapEntry utf8repl_lettermarklower"
                     "_remap_base")
    remap = [tuple(int(x) for x in m)
             for m in re.findall(r"\{(\d+),\s*(\d+),\s*(\d+)\}", rb)]
    rs = _array_body(src,
                     "static const unsigned char utf8repl_lettermarklower"
                     "_remap_string")
    remap_string = bytes(int(tk, 0) for tk in re.findall(_TOKEN_RE, rs))
    lut = np.arange(lim, dtype=np.uint32)
    for cp in range(lim):
        if 0xD800 <= cp < 0xE000:
            continue
        b = chr(cp).encode("utf-8")
        o = _replace_one(t, remap, remap_string, b)
        if o != b:
            s = o.decode("utf-8")
            if len(s) != 1:
                raise ValueError(f"non-1:1 lowering U+{cp:04X} -> {s!r}")
            lut[cp] = ord(s)
    return lut


def build_unicode_luts(path: str) -> None:
    """Write state/artifacts/unicode_luts.npz: the parsed ULScript
    property LUT + lowercase remap, with a sha256 manifest (same
    dump/load+verify contract as the langmodel artifact)."""
    import hashlib
    uls = ulscript_prop_lut()
    low = lettermark_lower_lut()
    manifest = np.array(
        [f"{n}:{hashlib.sha256(a.tobytes()).hexdigest()}"
         for n, a in (("ulscript", uls), ("lower", low))])
    np.savez_compressed(path, ulscript=uls, lower=low, manifest=manifest)


if __name__ == "__main__":
    codes = referenced_codes()
    print(f"{len(codes)} referenced language codes:")
    print(" ".join(sorted(codes)))
    from cld2_ray.functions import uscript
    out = uscript.ARTIFACT
    build_unicode_luts(out)
    z = np.load(out)
    print(f"saved {out}: ulscript {z['ulscript'].shape} "
          f"({int((z['ulscript'] != 0).sum())} letter cps), "
          f"lower {z['lower'].shape} "
          f"({int((z['lower'] != np.arange(len(z['lower']))).sum())} "
          f"remapped)")
