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

Implementation note: the UTF-8 gate and the extraction are one C call
per batch of pages (``native.extract_scan_batch``: the gate finds each
page's longest valid UTF-8 prefix as Python's strict decoder does, then
the reference's table-driven byte loop extracts that prefix, one
scanner for the text and its source map). ``extract_batch`` reads an
Arrow html column's buffers in place and returns the kernel's output as
an Arrow ``large_string`` column with each page's valid-prefix length
(and the source map on request, which ``text_to_raw`` reads);
``extract_text`` is that call on one page. This module holds the
entity / low-codepoint tables. The Python extractor in
tests/oracles/extract.py is the tests' reference for the extraction,
``valid_utf8_prefix`` for the gate.
"""

from __future__ import annotations

from functools import lru_cache

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


def valid_utf8_prefix(b: bytes) -> int:
    """Length of the longest valid-UTF-8 prefix (the reference's
    SpanInterchangeValid gate, compact_lang_det_impl.cc:74-80), by
    Python's strict decoder: the test oracle of the C gate that
    ``extract_batch`` runs (the benchmark's per-document oracle calls
    it too)."""
    try:
        b.decode("utf-8", "strict")
        return len(b)
    except UnicodeDecodeError as e:
        return e.start


@lru_cache(maxsize=1)
def _ent_table():
    """The C extractor's tables: the entity names as a
    native.table_build table (keys, vals, mask) of name bytes (<= 8,
    read little-endian) -> codepoint, then the FixUnicodeValue low map
    as uint32[256]."""
    import numpy as np
    from cld2_ray import native
    names = {name.encode("ascii"): v for name, v in NAME_TO_ENTITY.items()}
    assert all(0 < len(name) <= 8 for name in names)
    return (*native.table_build({int.from_bytes(name, "little"): v
                                 for name, v in names.items()}),
            np.asarray(_LOW_MAP, dtype=np.uint32))


def extract_batch(htmls, with_map: bool = False):
    """The UTF-8 gate and extract_text of every page in one C pass ->
    (pyarrow LargeStringArray built on the kernel's output buffers (no
    copy), valid int64[n]).

    htmls is an Arrow binary column, read in place (a null reads as
    empty), or a list of bytes (None -> empty). Page d's text is
    extracted from its longest valid UTF-8 prefix, valid[d] bytes long
    (``valid_utf8_prefix``, in C); the kernel normalizes \\r\\n and
    lone \\r to \\n itself. Decoding the column (``to_pylist``) raises
    UnicodeDecodeError if the output were ever invalid UTF-8.

    with_map=True returns (column, valid, text_offsets, src) from the
    same call: page d's text is bytes text_offsets[d]:text_offsets[d+1]
    of the column's data, and src[k] the position within its raw page
    of the byte that produced text byte k (see ``text_to_raw``)."""
    import pyarrow as pa
    from cld2_ray import native
    if not isinstance(htmls, (pa.Array, pa.ChunkedArray)):
        htmls = pa.array(htmls, type=pa.binary())
    data, offsets, valid, *src = native.extract_scan_batch(
        *native.arrow_docs(htmls), *_ent_table(), with_map=with_map)
    col = native.utf8_array(data, offsets)
    return (col, valid, offsets, *src) if with_map else (col, valid)


def extract_text(html: bytes) -> str:
    """Extract visible text from HTML bytes per the reference semantics.

    Returns the processed text (no artificial leading/trailing span
    framing) of the page's longest valid UTF-8 prefix.
    ``extract_batch`` on one page (tests/oracles/extract.py is its test
    oracle)."""
    return extract_batch([html])[0].to_pylist()[0]


def text_to_raw(text_offsets, src, raw_lens, page, pos):
    """RAW html byte offsets of the text byte offsets ``pos`` of pages
    ``page`` (numpy arrays), through the source map of the
    extract_batch(with_map=True) call that extracted the pages
    (``text_offsets``, ``src``) — the reference's map2original chain.
    A position at or past the end of its page's text maps to
    raw_lens[page], the length of the page the call was given. The
    OffsetMap of tests/oracles/extract.py is the test oracle."""
    import numpy as np
    g = text_offsets[page] + pos
    inside = g < text_offsets[page + 1]
    return np.where(inside, src[np.where(inside, g, 0)], raw_lens[page])
