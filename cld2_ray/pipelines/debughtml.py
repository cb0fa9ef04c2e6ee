"""S4 — the reference's HTML debug writer, Ray-native form.

The reference streams per-chunk annotated HTML to stderr while scoring
(internal/debug.cc:275-478: CLD2_Debug / CLD2_Debug2 /
DumpResultChunkVector). A distributed engine has no single stderr, so
the result-vector rendering is exposed here as a pure string builder
over the engine's chunk vectors, plus a sampling sink stage that writes
one HTML debug page per sampled document next to the pipeline output
(metrics/lineage cover the aggregate side — SURVEY §2 S4 note). The
per-chunk CLD2_Debug/CLD2_Debug2 traces need each chunk's second
language and scores, which the engine does not produce, so they have
no counterpart.

Faithful pieces (same palette and row formats):
* 16 background / 16 text colors indexed by the REFERENCE Language
  enum number (debug.cc:148-169; low nibble -> background, bits 4-7 ->
  text color), special-cased ENGLISH / UNKNOWN exactly
  (debug.cc:171-209). Enum numbers ship in data/reflang.py, parsed
  from generated_language.cc.
* GetHtmlEscapedText's escaping incl. newlines -> spaces
  (debug.cc:225-249), which only DumpResultChunkVector applies (through
  GetColorHtmlEscapedText).
* DumpResultChunkVector's row format
  "[i]{offset bytes code} <span ...>text</span><br>"
  (debug.cc:464-476).
"""

from __future__ import annotations

import html as _html

from cld2_ray.data.reflang import REF_LANG_ENUM

# debug.cc:148-158 — 16 background colors, low 4 bits of language num
LANG_BACKGROUND = (
    0xffd8d8, 0xf8ffd8, 0xd8ffe7, 0xd8f3ff,
    0xefd8ff, 0xffd8eb, 0xfff7d8, 0xe3ffd8,
    0xd8ffff, 0xe3d8ff, 0xffd8f7, 0xffebd8,
    0xefffd8, 0xd8fff3, 0xd8e7ff, 0xf8d8ff,
)
# debug.cc:160-166 — 16 text colors, bits 4-7 of language num
LANG_COLOR = (
    0x000000, 0x7f2f00, 0x7f5f00, 0x6f7f00,
    0x3f7f00, 0x0f7f00, 0x007f1f, 0x007f4f,
    0x007f7f, 0x004f7f, 0x001f7f, 0x0f007f,
    0x3f007f, 0x6f007f, 0x7f005f, 0x7f002f,
)
UNSCORED_TEXT = 0xb0b0b0
UNSCORED_BACKGROUND = 0xffffff
IGNOREME_TEXT = 0x8090a0           # TG_UNKNOWN_LANGUAGE ("xxx")
IGNOREME_BACKGROUND = 0xffeecc
ENGLISH_BACKGROUND = 0xfffff4


def _ref_enum(code: str) -> int:
    return REF_LANG_ENUM.get(code, REF_LANG_ENUM["un"])


def back_color(code: str) -> int:
    """debug.cc GetBackColor (lighten=false)."""
    if code == "en":
        return ENGLISH_BACKGROUND
    if code == "xxx":              # TG_UNKNOWN_LANGUAGE, debug.cc:179
        return IGNOREME_BACKGROUND
    if code == "un" or code not in REF_LANG_ENUM:
        return UNSCORED_BACKGROUND
    return LANG_BACKGROUND[_ref_enum(code) & 0x0F]


def text_color(code: str) -> int:
    """debug.cc GetTextColor (lighten=false)."""
    if code == "xxx":              # TG_UNKNOWN_LANGUAGE, debug.cc:198
        return IGNOREME_TEXT
    if code == "un" or code not in REF_LANG_ENUM:
        return UNSCORED_TEXT
    return LANG_COLOR[(_ref_enum(code) >> 4) & 0x0F]


def html_escaped(txt: str) -> str:
    """debug.cc GetHtmlEscapedText: &<>'\" escaped, CR/LF -> space."""
    # html.escape(quote=True) emits &#x27; for apostrophes; the
    # reference writes &apos;
    out = _html.escape(txt, quote=True).replace("&#x27;", "&apos;")
    return out.replace("\n", " ").replace("\r", " ")


def color_span(code: str, txt: str) -> str:
    """debug.cc GetColorHtmlEscapedText."""
    return (f' <span style="background:#{back_color(code):06X};'
            f'color:#{text_color(code):06X};">\n'
            f"{html_escaped(txt)}</span>")


def dump_result_chunk_vector(src: str,
                             chunks: "list[tuple[int, int, str]]") -> str:
    """debug.cc DumpResultChunkVector over this engine's ranges
    ((byte_offset, byte_len, code) — detect_ranges / the flagship
    chunks column)."""
    sb = src.encode("utf-8")
    out = [f"DumpResultChunkVector[{len(chunks)}]<br>\n"]
    for i, (off, nbytes, code) in enumerate(chunks):
        piece = sb[off:off + nbytes].decode("utf-8", "replace")
        out.append(f"[{i}]{{{off} {nbytes} {code}}} ")
        out.append(color_span(code, piece))
        out.append("<br>\n")
    out.append("<br>\n")
    return "".join(out)


def debug_page(url: str, text: str,
               chunks: "list[tuple[int, int, str]]") -> str:
    """One self-contained HTML debug page per document (the stderr
    stream's distributed stand-in)."""
    return ("<html><head><meta charset='utf-8'></head><body>\n"
            f"<h3>{html_escaped(url)}</h3>\n"
            + dump_result_chunk_vector(text, chunks)
            + "</body></html>\n")


def write_debug_sample(pages_ds, out_dir: str, n: int = 20) -> int:
    """Sampling debug sink: the first ``n`` pages, one HTML file per page
    under ``out_dir``, through the flagship's batch kernels: one
    extract.extract_batch call over their html column (the C UTF-8 gate
    and extractor; a null html reads as empty) and one
    Detector.detect_batch(..., with_ranges=True) call over the texts.
    The ranges come from the same kernel ranges pass as the flagship
    ``chunks`` column, run without the page's hints. Offsets in the
    dump are EXTRACTED-TEXT byte offsets (the buffer the chunks are
    rendered from, like the reference's src pointer); the ``chunks``
    column of fused_batch(with_chunks=True) gives the ranges in raw
    page offsets. A limit() on the Dataset keeps this to a handful of
    blocks regardless of input size — the debug surface costs nothing
    unless asked for."""
    import os

    import pyarrow as pa

    from cld2_ray.functions.extract import extract_batch
    from cld2_ray.functions.langid import default_detector

    os.makedirs(out_dir, exist_ok=True)
    rows = pages_ds.limit(n).take(n)
    texts = extract_batch(pa.array([row["html"] for row in rows],
                                   type=pa.binary()))[0].to_pylist()
    ranges = default_detector().detect_batch(texts, with_ranges=True)[1]
    for i, row in enumerate(rows):
        page = debug_page(row.get("url") or f"row{i}", texts[i], ranges[i])
        with open(os.path.join(out_dir, f"debug_{i:04d}.html"), "w",
                  encoding="utf-8") as f:
            f.write(page)
    return len(rows)
