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

One C call segments a whole batch (native.script_spans_scan_multi)
into a ``SpanTable``: the spans' framed texts back to back in one
buffer plus numpy columns per span, which the langid kernels read in
place. ``script_spans`` is that call on one document, handed out as
``ScriptSpan`` objects for the per-document callers (tools/langmodel.py,
the tests). tests/oracles/spans.py is the numpy segmenter the tests
hold it to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import uscript as us

MAX_SCRIPT_BYTES = 40960      # kMaxScriptBuffer (getonescriptspan.h:29-33)
TEXT_LIMIT = 160 * 1024       # FLAGS_cld_textlimit in KB (impl.cc:192,1811)


@dataclass(eq=False)
class ScriptSpan:
    """One same-script letter run: ``text`` is " word word word " —
    lowercased, space-framed — decoded from its UTF-8 ``text_utf8``,
    the form the scoring kernels read.

    offset/end_offset: char index of the first letter / one past the
    last letter in the document. text_bytes: UTF-8 length of the
    letters+spaces content. letter_pos: int64[n_letters] original char
    index per span letter (offset-map back to the source text)."""

    text_utf8: bytes
    script: int = 0
    offset: int = 0
    text_bytes: int = 0
    end_offset: int = 0
    letter_pos: np.ndarray | None = None

    @property
    def text(self) -> str:
        return self.text_utf8.decode("utf-8")


@dataclass
class SpanTable:
    """The script spans of a batch of documents, one row per span in
    document order (the C segmenter's output as numpy columns).

    Span k's framed text is buf[start[k]:end[k]]; doc[k] is its
    document, script[k] its script, text_bytes[k] its UTF-8 length
    (kept from the original span on Repeats-retry tables, whose texts
    are shorter), offset/end_offset[k] the char range of its letters in
    the document, and letter_pos[lp_start[k]:lp_end[k]] the document
    char index of each of its letters. Document d owns rows
    doc_ptr[d]:doc_ptr[d+1]; ``len()`` is the number of documents."""

    buf: np.ndarray
    start: np.ndarray
    end: np.ndarray
    doc: np.ndarray
    script: np.ndarray
    text_bytes: np.ndarray
    offset: np.ndarray
    end_offset: np.ndarray
    lp_start: np.ndarray
    lp_end: np.ndarray
    letter_pos: np.ndarray
    doc_ptr: np.ndarray

    def __len__(self) -> int:
        return len(self.doc_ptr) - 1

    def doc_totals(self, col: np.ndarray) -> np.ndarray:
        """Per-document sum of the int64 span column ``col``."""
        c = np.concatenate([[0], np.cumsum(col, dtype=np.int64)])
        return c[self.doc_ptr[1:]] - c[self.doc_ptr[:-1]]

    def rows_of(self, docs: np.ndarray) -> np.ndarray:
        """Row indexes of the spans of ``docs``, in order."""
        return index_runs(self.doc_ptr[docs], self.doc_ptr[docs + 1])[1]


def index_runs(lo: np.ndarray, hi: np.ndarray):
    """(csr int64[n+1], idx): idx is the index runs lo[k]..hi[k]-1 back
    to back, run k at idx[csr[k]:csr[k+1]]."""
    n = hi - lo
    csr = np.zeros(len(n) + 1, dtype=np.int64)
    np.cumsum(n, out=csr[1:])
    return csr, np.repeat(lo - csr[:-1], n) + np.arange(csr[-1])


def script_spans(text: str, text_limit: int = TEXT_LIMIT) -> list[ScriptSpan]:
    """Split extracted text into same-script letter spans:
    ``script_spans_batch`` on one document, as ScriptSpan objects."""
    t = script_spans_batch([text], text_limit)
    return [ScriptSpan(text_utf8=t.buf[a:b].tobytes(), script=int(sc),
                       offset=int(o), text_bytes=int(nb),
                       end_offset=int(e), letter_pos=t.letter_pos[p:q])
            for a, b, sc, o, nb, e, p, q in zip(
                t.start.tolist(), t.end.tolist(), t.script.tolist(),
                t.offset.tolist(), t.text_bytes.tolist(),
                t.end_offset.tolist(), t.lp_start.tolist(),
                t.lp_end.tolist())]


def script_spans_batch(texts: list[str],
                       text_limit: int = TEXT_LIMIT) -> SpanTable:
    """Split each text into same-script letter spans in ONE C call
    (native.script_spans_scan_multi; a ctypes call per doc was ~15% of
    the fused stage). ``texts`` is a sequence of str or an Arrow string
    column, whose buffer the scan reads in place (Detector.detect_batch
    passes its encoded batch so). tests/oracles/spans.py is its test
    oracle."""
    from cld2_ray import native
    meta, ns_doc, out_buf, lt_idx = native.script_spans_scan_multi(
        *native.utf8_cat(texts), us.script_lut(), us.lower_lut(),
        text_limit, MAX_SCRIPT_BYTES)
    # the native outputs are sized to the scan's worst case, packed
    # span after span: copy the used prefixes so that the table does
    # not keep the worst-case buffers alive
    meta = meta.T.copy()
    start = meta[3]
    end = start + meta[4]
    return SpanTable(
        buf=out_buf[:int(end[-1]) if len(end) else 0].copy(),
        start=start, end=end,
        doc=np.repeat(np.arange(len(texts), dtype=np.int64), ns_doc),
        script=meta[0], text_bytes=meta[4], offset=meta[1],
        end_offset=meta[2], lp_start=meta[5], lp_end=meta[6],
        letter_pos=lt_idx[:int(meta[6, -1]) if len(end) else 0].copy(),
        doc_ptr=np.concatenate([[0], np.cumsum(ns_doc)]).astype(np.int64))
