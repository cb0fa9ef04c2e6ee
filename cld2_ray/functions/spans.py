"""Script-run segmentation of extracted text (GetOneScriptSpan analogue).

Splits a document's extracted text into runs of same-script letters,
non-letters collapsed to single spaces, each span lowercased and framed
by a leading space and trailing spaces — the reference's LangSpan
format (reference: internal/getonescriptspan.cc:799-1027
GetOneScriptSpan + :1033-1065 LowerScriptSpan, langspan.h:28-36).

Parity semantics (round 2):
* lowercasing uses the PINNED 1:1 remap LUT (uscript.lower_lut — the
  utf8repl_lettermarklower.h analogue): only Latn/Cyrl/Grek/Armn
  change, never length, never Unicode-version drift,
* the single-foreign-letter continuation rule IS applied
  (getonescriptspan.cc:905-930 comment table): a lone letter of a
  different script is absorbed into the running span when its next
  character is a non-letter or a letter of the span's script; two
  consecutive foreign letters break the span.

One C call segments a whole batch (native.script_spans_scan_multi);
``script_spans`` is that call on one document. tests/oracles/spans.py
is the numpy segmenter the tests hold it to.
"""

from __future__ import annotations

import numpy as np

from . import uscript as us

MAX_SCRIPT_BYTES = 40960      # kMaxScriptBuffer (getonescriptspan.h:29-33)
TEXT_LIMIT = 160 * 1024       # FLAGS_cld_textlimit in KB (impl.cc:192,1811)


class ScriptSpan:
    """One same-script letter run: ``text`` is " word word word " —
    lowercased, space-framed. Backed by either a str or utf-8 bytes
    (``text_utf8``); each representation is derived lazily from the
    other, so the C segmenter can hand out bytes without paying a
    decode that most consumers (the utf-8 scoring kernels) re-encode.

    offset/end_offset: char index of the first letter / one past the
    last letter in the document. text_bytes: UTF-8 length of the
    letters+spaces content. letter_pos: int64[n_letters] original char
    index per span letter (offset-map back to the source text)."""

    __slots__ = ("_text", "_utf8", "script", "offset", "text_bytes",
                 "end_offset", "letter_pos")

    def __init__(self, text: str | None = None, script: int = 0,
                 offset: int = 0, text_bytes: int = 0,
                 end_offset: int = 0, letter_pos=None,
                 text_utf8: bytes | None = None):
        self._text = text
        self._utf8 = text_utf8
        self.script = script
        self.offset = offset
        self.text_bytes = text_bytes
        self.end_offset = end_offset
        self.letter_pos = letter_pos

    @property
    def text(self) -> str:
        if self._text is None:
            self._text = self._utf8.decode("utf-8")
        return self._text

    @property
    def text_utf8(self) -> bytes:
        if self._utf8 is None:
            self._utf8 = self._text.encode("utf-8")
        return self._utf8

    def __repr__(self):
        return (f"ScriptSpan(text={self.text!r}, script={self.script}, "
                f"offset={self.offset}, text_bytes={self.text_bytes}, "
                f"end_offset={self.end_offset})")


def _spans_of_meta(meta: np.ndarray, out_buf: np.ndarray,
                   lt_idx: np.ndarray) -> list[ScriptSpan]:
    """ScriptSpans from the C segmenter's meta rows (see
    native.script_spans_scan_multi)."""
    out: list[ScriptSpan] = []
    for r in range(meta.shape[0]):
        sc_id, c0, c1, os_, ob, lp0, lp1 = (int(x) for x in meta[r])
        out.append(ScriptSpan(
            text_utf8=bytes(out_buf[os_:os_ + ob]),
            script=sc_id, offset=c0, text_bytes=ob,
            end_offset=c1,
            letter_pos=lt_idx[lp0:lp1],
        ))
    return out


def script_spans(text: str, text_limit: int = TEXT_LIMIT) -> list[ScriptSpan]:
    """Split extracted text into same-script letter spans:
    ``script_spans_batch`` on one document."""
    return script_spans_batch([text], text_limit)[0]


def script_spans_batch(texts: list[str],
                       text_limit: int = TEXT_LIMIT
                       ) -> list[list[ScriptSpan]]:
    """Split each text into same-script letter spans in ONE C call
    (native.script_spans_scan_multi; a ctypes call per doc was ~15% of
    the fused stage). tests/oracles/spans.py is its test oracle."""
    from cld2_ray import native
    bufs = [t.encode("utf-8") for t in texts]
    bounds = np.cumsum(np.array([len(b) for b in bufs], dtype=np.int64))
    cat = b"".join(bufs)
    meta, ns_doc, out_buf, lt_idx = native.script_spans_scan_multi(
        cat, bounds, us.script_lut(), us.lower_lut(),
        text_limit, MAX_SCRIPT_BYTES)
    # the native lt_idx is a REUSED scratch buffer (overwritten by the
    # next scan call): bulk-copy the used prefix once so every span's
    # letter_pos views private memory
    lt_idx = lt_idx[:int(meta[:, 6].max()) if len(meta) else 0].copy()
    ends = np.cumsum(ns_doc).tolist()
    return [_spans_of_meta(meta[a:b], out_buf, lt_idx)
            for a, b in zip([0, *ends[:-1]], ends)]
