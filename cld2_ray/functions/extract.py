"""HTML -> text extraction, reimplementing the reference's semantics.

Faithful reimplementation of the reference extraction chain
(reference: internal/getonescriptspan.cc):

* cheap tag parse / skip via the 40-state machine semantics
  (kTagParseTbl_0, getonescriptspan.cc:150-196): generic tags with
  quote-aware ends, ``<!-- -->`` comments, ``<script>..</script>`` and
  ``<style>..</style>`` element skipping, the unmatched-``<``
  error backscan (ScanToPossibleLetter, :503-542),
* ``<p`` / ``<br`` / ``<tr`` (next char < 0x40) replaced by newline,
  every other tag by a single space (GetOneTextSpan, :712-751),
* stray ``>`` copied through verbatim, bypassing space compression,
* HTML entity expansion with the IE6 compatibility quirk (named entity
  with value >= 256 requires a trailing ``;``), numeric dec/hex
  entities with CP1252-or-space mapping for values < 0x100 and U+FFFD
  for surrogates / non-characters / overflow (ReadEntity
  :393-468, fixunicodevalue.cc FixUnicodeValue), a bare invalid ``&``
  silently dropped,
* CR and LF canonicalized to LF; runs of [space, LF] compressed to the
  first whitespace character of the run; entity output bypasses the
  compression state (GetOneTextSpan :736-758).

The function is the single source of truth for ``extracted_text``: both
the single-process oracle and the Ray pipeline call it, which is what
makes the per-url byte-identical invariant hold.

Implementation note: this is a per-document kernel driven by compiled
regexes that jump between the rare "interesting" bytes (``< > &``),
with bulk memoryview copies in between — the vectorized-Python
equivalent of the reference's table-driven byte loop.
"""

from __future__ import annotations

import re

from cld2_ray.data.entities import NAME_TO_ENTITY

# FixUnicodeValue's mapping for values < 0x100: control chars -> space
# (except TAB/LF/FF/CR kept) and the 0x80-0x9F row treated as MS CP1252
# (reference: fixunicodevalue.h kMapFullMicrosoft1252OrSpace).
_CP1252_HIGH = [
    0x20AC, 0x20, 0x201A, 0x0192, 0x201E, 0x2026, 0x2020, 0x2021,
    0x02C6, 0x2030, 0x0160, 0x2039, 0x0152, 0x20, 0x017D, 0x20,
    0x20, 0x2018, 0x2019, 0x201C, 0x201D, 0x2022, 0x2013, 0x2014,
    0x02DC, 0x2122, 0x0161, 0x203A, 0x0153, 0x20, 0x017E, 0x0178,
]


def _build_low_map() -> list[int]:
    m = [0x20] * 256
    for cp in range(0x21, 0x7F):
        m[cp] = cp
    for cp in range(0xA0, 0x100):
        m[cp] = cp
    m[0x09] = 0x09
    m[0x0A] = 0x0A
    m[0x0C] = 0x0C
    m[0x0D] = 0x0D
    for i, v in enumerate(_CP1252_HIGH):
        m[0x80 + i] = v
    return m


_LOW_MAP = _build_low_map()


def fix_unicode_value(uv: int) -> int:
    """Map a codepoint to an interchange-valid one (FixUnicodeValue)."""
    if uv < 0:
        return 0xFFFD
    if uv < 0x100:
        return _LOW_MAP[uv]
    if uv < 0xD800:
        return uv
    if (uv & ~0x0F) in (0xFDD0, 0xFDE0):
        return 0xFFFD
    if (uv & 0xFFFE) == 0xFFFE:
        return 0xFFFD
    if 0xE000 <= uv <= 0x10FFFF:
        return uv
    return 0xFFFD


# --- entity reading ---------------------------------------------------------

_ENT_NUM_DEC = re.compile(rb"&#(0*[0-9]+)")
_ENT_NUM_HEX = re.compile(rb"&#[xX](0*[0-9A-Fa-f]+)")
_ENT_NAME = re.compile(rb"&([0-9A-Za-z]+)")


def read_entity(b: bytes, i: int) -> tuple[int, int]:
    """b[i] == '&'. Return (codepoint or -1, bytes consumed).

    Mirrors ReadEntity (getonescriptspan.cc:393-468): numeric entities
    end at the first non-digit, named at the first non-alnum; a named
    entity with value >= 256 must be ';'-terminated (IE6 rule); a
    trailing ';' is consumed.  Invalid -> (-1, 1): only the '&' is
    consumed and nothing is emitted.
    """
    m = _ENT_NUM_HEX.match(b, i)
    if m is None:
        m = _ENT_NUM_DEC.match(b, i)
        if m is not None:
            digits = m.group(1).lstrip(b"0") or b"0"
            # >10 digits or >kint32max cannot fit an int32 -> U+FFFD
            if len(digits) > 10 or (len(digits) == 10 and digits > b"2147483647"):
                val = 0xFFFD
            else:
                val = fix_unicode_value(int(digits))
        else:
            # named entity
            m = _ENT_NAME.match(b, i)
            if m is None:
                return -1, 1
            name = m.group(1).decode("ascii")
            val = NAME_TO_ENTITY.get(name, -1)
            if val < 0:
                return -1, 1
            terminated = m.end() < len(b) and b[m.end()] == 0x3B  # ';'
            if val >= 256 and not terminated:
                return -1, 1
    else:
        digits = m.group(1).lstrip(b"0") or b"0"
        if len(digits) > 8 or (len(digits) == 8 and digits[0:1] >= b"8"):
            val = 0xFFFD
        else:
            val = fix_unicode_value(int(digits, 16))

    end = m.end()
    if end < len(b) and b[end] == 0x3B:  # consume trailing ';'
        end += 1
    return val, end - i


# --- tag scanning -----------------------------------------------------------

# <script / <style openers: the state machine enters element-skip mode only
# when the tag name is followed by '>' or a space/control byte
# (kTagParseTbl_0 states 13-18 / 28-31).
_SCRIPT_OPEN = re.compile(rb"<[sS][cC][rR][iI][pP][tT][>\x00-\x20]")
_STYLE_OPEN = re.compile(rb"<[sS][tT][yY][lL][eE][>\x00-\x20]")
# closer: '</' then any spaces/controls then the name then exactly '>'
# (states 19-27 / 32-39).
_SCRIPT_CLOSE = re.compile(rb"</[\x00-\x20]*[sS][cC][rR][iI][pP][tT]>")
_STYLE_CLOSE = re.compile(rb"</[\x00-\x20]*[sS][tT][yY][lL][eE]>")

_TAG_INTEREST = re.compile(rb"[<>\"']")
_DQ_END = re.compile(rb"[\"\r\n]")
_SQ_END = re.compile(rb"['\r\n]")
_GT_LT = re.compile(rb"[<>]")


def scan_tag_end(b: bytes, i: int) -> int:
    """b[i] == '<'. Return index just past the consumed tag.

    Emulates ScanToPossibleLetter over kTagParseTbl_0
    (getonescriptspan.cc:503-542): on a second '<' inside a tag, only
    the opening '<' is consumed (error backscan); falling off the end
    consumes everything ("pretend the last char was '>'").
    """
    n = len(b)
    if b.startswith(b"<!--", i):
        j = b.find(b"-->", i + 4)
        return n if j < 0 else j + 3
    m = _SCRIPT_OPEN.match(b, i)
    if m is not None:
        mm = _SCRIPT_CLOSE.search(b, m.end())
        return n if mm is None else mm.end()
    m = _STYLE_OPEN.match(b, i)
    if m is not None:
        mm = _STYLE_CLOSE.search(b, m.end())
        return n if mm is None else mm.end()

    j = i + 1
    while j < n:
        m = _TAG_INTEREST.search(b, j)
        if m is None:
            return n
        c = m.group()
        if c == b">":
            return m.end()
        if c == b"<":
            return i + 1  # unmatched '<': consume only the opener
        # quoted attribute value; a newline inside disables quoting
        # (state 10/11 -> 12: then only > or < end the tag)
        endpat = _DQ_END if c == b'"' else _SQ_END
        mq = endpat.search(b, m.end())
        if mq is None:
            return n
        if mq.group() == c:
            j = mq.end()
            continue
        m12 = _GT_LT.search(b, mq.end())
        if m12 is None:
            return n
        if m12.group() == b">":
            return m12.end()
        return i + 1
    return n  # '<' at end of input: consume the rest (ref: "fell off the end")


# --- main extraction loop ---------------------------------------------------

_SPECIAL = re.compile(rb"[<>&]")
# compress runs of space/LF to the first char of the run
_WS_RUN = re.compile(rb"([ \n])[ \n]+")
_LEAD_WS = re.compile(rb"^[ \n]+")
_WS_AT = re.compile(rb"[ \n]+")   # anchored via .match(pos) (no ^ —
#                                   ^ would not match at pos > 0)


def _nonletter(c: int) -> bool:
    return c < 0x40


def _is_newline_tag(b: bytes, i: int, n: int) -> bool:
    """<p / <br / <tr (next char non-letter) => newline instead of space."""
    if i >= n - 3:
        return False
    c1 = b[i + 1] | 0x20
    if c1 == 0x70 and _nonletter(b[i + 2]):  # <p
        return True
    c2 = b[i + 2] | 0x20
    if c1 == 0x62 and c2 == 0x72 and _nonletter(b[i + 3]):  # <br
        return True
    if c1 == 0x74 and c2 == 0x72 and _nonletter(b[i + 3]):  # <tr
        return True
    return False


def valid_utf8_prefix(b: bytes) -> int:
    """Length of the longest valid-UTF-8 prefix (the reference's
    SpanInterchangeValid gate, compact_lang_det_impl.cc:74-80)."""
    try:
        b.decode("utf-8", "strict")
        return len(b)
    except UnicodeDecodeError as e:
        return e.start


from functools import lru_cache


@lru_cache(maxsize=1)
def _ent_table():
    """Open-addressed uint64 entity-name table + int32 values for the
    C extractor (names are <= 8 bytes, packed little-endian), plus the
    FixUnicodeValue low map as uint32[256]."""
    import numpy as np
    cap = 1024
    keys = np.zeros(cap, dtype=np.uint64)
    vals = np.zeros(cap, dtype=np.int32)
    for name, v in NAME_TO_ENTITY.items():
        bts = name.encode("ascii")
        assert 0 < len(bts) <= 8
        key = int.from_bytes(bts, "little")
        h = (key * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 29
        idx = h & (cap - 1)
        while keys[idx] != 0:
            idx = (idx + 1) & (cap - 1)
        keys[idx] = key
        vals[idx] = v
    low = np.asarray(_LOW_MAP, dtype=np.uint32)
    return keys, vals, low


def extract_text(html: bytes, is_plain_text: bool = False) -> str:
    """Extract visible text from HTML bytes per the reference semantics.

    Returns the processed text (no artificial leading/trailing span
    framing). Input must be valid UTF-8 — gate with
    ``valid_utf8_prefix`` first. One C pass (native.extract_scan;
    _extract_text_py below is its test oracle)."""
    b = html
    if b.find(b"\r") >= 0:
        b = b.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if is_plain_text:
        out = _WS_RUN.sub(rb"\1", b)
        return out.decode("utf-8")
    from cld2_ray import native
    return native.extract_scan(b, *_ent_table()).decode("utf-8")


def text_to_raw_ranges(html: bytes, ranges) -> list[tuple[int, int, str]]:
    """Map (byte_offset, byte_len, code) ranges of extract_text(html)
    back to RAW html byte offsets through the C extractor's per-byte
    source map (native.extract_scan_map) — the reference's
    map2original chain. A range end at the text's end maps to
    len(html). extract_text_with_map's OffsetMap is the test oracle."""
    if not ranges:
        return []
    import numpy as np
    from cld2_ray import native
    _text, src = native.extract_scan_map(html, *_ent_table())
    m = len(src)
    pos = np.array([[a, a + n] for a, n, _ in ranges], dtype=np.int64)
    raw = np.where(pos < m, src[np.minimum(pos, m - 1)], len(html))
    return [(int(a), int(b - a), r[2]) for (a, b), r in zip(raw, ranges)]


def _extract_text_py(b: bytes) -> str:
    """Python extractor: the tests' oracle for the C extractor. Input is
    already \\r-normalized."""
    n = len(b)
    pieces: list[bytes] = []
    seg = bytearray()
    last_ws = False  # last emitted byte was ' ' or '\n' (compressible state)
    pos = 0
    while pos < n:
        m = _SPECIAL.search(b, pos)
        if m is None:
            seg_end = n
        else:
            seg_end = m.start()
        if seg_end > pos:
            chunk = _WS_RUN.sub(rb"\1", b[pos:seg_end])
            if last_ws:
                chunk = _LEAD_WS.sub(b"", chunk)
            if chunk:
                seg += chunk
                last_ws = chunk[-1] in (0x20, 0x0A)
        if m is None:
            break
        c = m.group()
        i = m.start()
        if c == b"<":
            rep = 0x0A if _is_newline_tag(b, i, n) else 0x20
            if not (last_ws and rep in (0x20, 0x0A)):
                seg.append(rep)
                last_ws = True
            pos = scan_tag_end(b, i)
        elif c == b">":
            # stray '>' is copied through and does not touch the
            # compression state (GetOneTextSpan :744-747)
            seg.append(0x3E)
            pos = i + 1
        else:  # '&'
            val, consumed = read_entity(b, i)
            if val > 0:
                seg += chr(val).encode("utf-8")
                # entity emission bypasses last_ws (reference quirk)
            pos = i + consumed
    pieces.append(bytes(seg))
    return b"".join(pieces).decode("utf-8")


def extract_text_with_map(html: bytes, is_plain_text: bool = False):
    """extract_text + an OffsetMap from extracted-text BYTE positions
    back to ORIGINAL html byte positions (the reference's map2original,
    getonescriptspan.cc Advance/offsetmap composition) — the test
    oracle of native.extract_scan_map's source map. The text is
    byte-identical to extract_text(html) (tested); the map composes the
    CRLF canonicalization with the tag/entity/whitespace edits."""
    from .offsetmap import OffsetMap

    crlf = OffsetMap()
    b = html
    if b.find(b"\r") >= 0:
        # canonicalize CRLF->LF (delete \r), lone CR->LF (1:1 rewrite)
        out = bytearray()
        i = 0
        n = len(b)
        while True:
            j = b.find(b"\r", i)
            if j < 0:
                out += b[i:]
                crlf.copy(n - i)
                break
            out += b[i:j]
            crlf.copy(j - i)
            if j + 1 < n and b[j + 1] == 0x0A:
                crlf.delete(1)
                i = j + 1
            else:
                out.append(0x0A)
                crlf.copy(1)
                i = j + 1
        b = bytes(out)
    else:
        crlf.copy(len(b))

    om = OffsetMap()
    n = len(b)
    seg = bytearray()

    def emit_run(start: int, end: int, strip_lead: bool) -> bool:
        """Copy b[start:end) compressing [ \\n] runs to their first
        char; returns new last_ws. Mirrors _WS_RUN/_LEAD_WS exactly."""
        cur = start
        if strip_lead:
            m = _WS_AT.match(b, cur, end)
            if m is not None:
                om.delete(m.end() - cur)
                cur = m.end()
        while cur < end:
            m = _WS_RUN.search(b, cur, end)
            if m is None:
                seg.extend(b[cur:end])
                om.copy(end - cur)
                cur = end
                break
            keep_end = m.start() + 1
            seg.extend(b[cur:keep_end])
            om.copy(keep_end - cur)
            om.delete(m.end() - keep_end)
            cur = m.end()
        return bool(seg) and seg[-1] in (0x20, 0x0A)

    if is_plain_text:
        emit_run(0, n, False)
        return bytes(seg).decode("utf-8"), crlf.compose(om)

    last_ws = False
    pos = 0
    while pos < n:
        m = _SPECIAL.search(b, pos)
        seg_end = n if m is None else m.start()
        if seg_end > pos:
            before = len(seg)
            new_last = emit_run(pos, seg_end, last_ws)
            if len(seg) > before:
                last_ws = new_last
        if m is None:
            break
        c = m.group()
        i = m.start()
        if c == b"<":
            rep = 0x0A if _is_newline_tag(b, i, n) else 0x20
            end = scan_tag_end(b, i)
            if not (last_ws and rep in (0x20, 0x0A)):
                seg.append(rep)
                om.insert(1)
                last_ws = True
            om.delete(end - i)
            pos = end
        elif c == b">":
            seg.append(0x3E)
            om.copy(1)
            pos = i + 1
        else:  # '&'
            val, consumed = read_entity(b, i)
            if val > 0:
                enc = chr(val).encode("utf-8")
                seg.extend(enc)
                om.insert(len(enc))
            om.delete(consumed)
            pos = i + consumed
    return bytes(seg).decode("utf-8"), crlf.compose(om)
