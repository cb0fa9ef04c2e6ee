"""Python extractor with a source map: the oracle of the C extractor.

``extract_text_with_map`` walks the html with compiled regexes that jump
between the rare "interesting" bytes (``< > &``), following the
reference extraction chain (getonescriptspan.cc; the module docstring
of ``cld2_ray.functions.extract`` lists the rules). It is the oracle
of ``native.extract_scan_batch``: its text of the extracted text
(``extract.extract_batch`` / ``extract.extract_text``) and its
``OffsetMap`` of the per-byte source map (``with_map=True``, read by
``extract.text_to_raw``).
"""

from __future__ import annotations

import re

import numpy as np

from cld2_ray.data.entities import NAME_TO_ENTITY
from cld2_ray.functions.extract import _LOW_MAP


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
# a run of space/LF, compressed to its first char
_WS_RUN = re.compile(rb"([ \n])[ \n]+")
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


def extract_text_with_map(html: bytes, is_plain_text: bool = False):
    """extract_text + an OffsetMap from extracted-text BYTE positions
    back to ORIGINAL html byte positions (the reference's map2original,
    getonescriptspan.cc Advance/offsetmap composition) — the test
    oracle of native.extract_scan_batch's source map. The text is the
    oracle of extract_text(html); the map composes the CRLF
    canonicalization with the tag/entity/whitespace edits."""
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
        char, dropping a leading run when strip_lead; returns new
        last_ws."""
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


# --- source map ---------------------------------------------------------------
# Run-length offset mapping between a transformed text B and its source
# A — the reference's OffsetMap analogue (internal/offsetmap.{h,cc}:
# Copy/Insert/Delete runs, composable, used to report detected spans in
# ORIGINAL buffer offsets, getonescriptspan.cc:1076-1078). ``_freeze``
# turns the runs into cumulative boundary arrays, so ``to_original`` is
# one ``searchsorted`` per query batch.

COPY, INSERT, DELETE = 0, 1, 2


class OffsetMap:
    """Builds A->B edit runs; maps B (output) positions back to A."""

    def __init__(self):
        self._ops: list[tuple[int, int]] = []
        self._frozen = None

    # -- building ----------------------------------------------------------

    def _push(self, kind: int, n: int) -> None:
        if n <= 0:
            return
        if self._ops and self._ops[-1][0] == kind:
            self._ops[-1] = (kind, self._ops[-1][1] + n)
        else:
            self._ops.append((kind, n))
        self._frozen = None

    def copy(self, n: int) -> None:
        """n bytes of A copied verbatim into B."""
        self._push(COPY, n)

    def insert(self, n: int) -> None:
        """n bytes appear in B with no counterpart in A."""
        self._push(INSERT, n)

    def delete(self, n: int) -> None:
        """n bytes of A dropped from B."""
        self._push(DELETE, n)

    # -- querying ----------------------------------------------------------

    def _freeze(self):
        if self._frozen is None:
            kinds = np.array([k for k, _ in self._ops], dtype=np.int8)
            ns = np.array([n for _, n in self._ops], dtype=np.int64)
            b_len = np.where(kinds == DELETE, 0, ns)
            a_len = np.where(kinds == INSERT, 0, ns)
            b_bounds = np.cumsum(b_len)
            a_starts = np.concatenate([[0], np.cumsum(a_len)[:-1]])
            self._frozen = (b_bounds, a_starts, kinds)
        return self._frozen

    def to_original(self, positions) -> np.ndarray:
        """Map B positions (array-like) -> A positions. Exclusive end
        positions map monotonically, so [start, end) ranges stay valid."""
        b_bounds, a_starts, kinds = self._freeze()
        p = np.asarray(positions, dtype=np.int64)
        if len(b_bounds) == 0:
            return p.copy()
        run = np.searchsorted(b_bounds, p, side="right")
        run = np.minimum(run, len(b_bounds) - 1)
        b_starts = np.concatenate([[0], b_bounds[:-1]])
        within = p - b_starts[run]
        is_copy = kinds[run] == COPY
        out = a_starts[run] + np.where(is_copy, within, 0)
        # positions exactly at/after the end of B clamp to A's end
        total_b = b_bounds[-1]
        total_a = a_starts[-1] + (0 if kinds[-1] == INSERT
                                  else int(self._ops[-1][1]))
        out = np.where(p >= total_b, total_a, out)
        return out

    def compose(self, inner: "OffsetMap") -> "ComposedMap":
        """self: A->B map, inner: B->C map; returns a C->A mapper —
        the reference's offset-map composition (offsetmap.cc
        ComposeOffsets analogue, query-side)."""
        return ComposedMap(self, inner)


class ComposedMap:
    """Maps positions in C back through B to A."""

    def __init__(self, outer: OffsetMap, inner: OffsetMap):
        self.outer = outer
        self.inner = inner

    def to_original(self, positions) -> np.ndarray:
        return self.outer.to_original(self.inner.to_original(positions))
