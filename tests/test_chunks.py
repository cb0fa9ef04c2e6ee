"""The ``chunks`` column of fused_batch(with_chunks=True), page by page
against the per-page oracle chain: the Python extractor with its
OffsetMap (tests/oracles/extract.py), the squeeze gate
(tests/oracles/repeats.py) and the span-by-span numpy ranges chain
(tests/oracles/langid.py detect_ranges_numpy) with the page's hints.
Also: the column costs one extraction call per (sub-)batch."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cld2_ray import native
from cld2_ray.data.seeds import HELDOUT, SEEDS
from cld2_ray.functions import langs
from cld2_ray.functions.extract import valid_utf8_prefix
from cld2_ray.functions.hints import MAX_SCAN_BYTES, page_hints
from cld2_ray.functions.langid import default_detector
from cld2_ray.sources.pages import SCHEMA
from cld2_ray.stages import core
from tests.oracles.extract import extract_text_with_map
from tests.oracles.langid import detect_ranges_numpy
from tests.oracles.repeats import squeeze_trigger


def page_chunks_oracle(url, html) -> list[dict]:
    """One page's chunks by the oracle chain: [] for an invalid-UTF-8
    or textless page; a squeeze-triggered text takes its unhinted
    ranges."""
    html, url = html or b"", url or ""
    if valid_utf8_prefix(html) < len(html):
        return []
    text, om = extract_text_with_map(html)
    if not text:
        return []
    hints = [lid for lid, w in page_hints(url, html[:MAX_SCAN_BYTES])[0]
             if w > 0]
    squeezed = len(text) > 4096 and squeeze_trigger(text)
    out = []
    for a, n, code in detect_ranges_numpy(default_detector(), text,
                                          None if squeezed else hints):
        ra, rb = om.to_original([a, a + n]).tolist()
        out.append({"offset": ra, "bytes": rb - ra, "lang": code})
    return out


def _table(urls, htmls) -> pa.Table:
    n = len(htmls)
    return pa.table({"url": pa.array(urls, pa.string()),
                     "warc_ts": pa.array([0] * n, pa.timestamp("us")),
                     "html": pa.array(htmls, pa.binary()),
                     "text": pa.array([None] * n, pa.string()),
                     "lang": pa.array([None] * n, pa.string())},
                    schema=SCHEMA)


def _p(text: str) -> bytes:
    return f"<html><body><p>{text}</p></body></html>".encode()


# squeezed (>4096 chars, >= 25% spaces up front), hinted, CJK, one-
# script, invalid-UTF-8, empty and null pages
EDGE = [
    ("https://sq.example.com/",
     _p("a " * 200 + (HELDOUT["fr"] + " ") * 24 + (HELDOUT["de"] + " ") * 16)),
    ("https://hinted.example.com/",
     b'<html lang="da"><body><p>' + HELDOUT["no"][:120].encode() + b" "
     + HELDOUT["en"][:120].encode() + b"</p></body></html>"),
    ("https://ja.example.jp/", _p(SEEDS["ja"][:400] + " hello world " * 6)),
    ("https://zh.example.cn/", _p(SEEDS["zh"][:300] + " "
                                  + HELDOUT["ru"])),
    ("https://el.example.gr/", _p(HELDOUT["el"] + " " + HELDOUT["th"])),
    ("https://bad.example.com/", _p(HELDOUT["fr"]) + b"\xff\xfe tail"),
    ("https://empty.example.com/", b""),
    (None, None),
    ("https://tags.example.com/", b"<script>x</script><p> </p>"),
]


def _pages() -> pa.Table:
    from perfbench.workloads import make_table
    parts = [make_table("snippets", 11, 48), make_table("longform_job", 11, 6),
             make_table("webmix", 11, 32)]
    edge = _table(*zip(*EDGE))
    return pa.concat_tables([p.select(SCHEMA.names) for p in parts]
                            + [edge])


def _check(t: pa.Table, chunks) -> int:
    want = [page_chunks_oracle(u, h) for u, h in
            zip(t["url"].to_pylist(), t["html"].to_pylist())]
    got = chunks.to_pylist()
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, (i, t["url"][i].as_py())
    return sum(len(w) > 1 for w in want)


class TestChunksOracle:
    def test_chunks_equal_page_oracle(self):
        t = _pages()
        out = core.fused_batch(t, with_chunks=True)
        assert out["chunks"].type == core.CHUNKS_TYPE
        assert _check(t, out["chunks"]) >= 10
        # the edge pages: the squeezed page and the hinted one (whose
        # hint moves its ranges) split, the invalid, empty, null and
        # textless pages have none
        edge = out["chunks"].to_pylist()[-len(EDGE):]
        sq_text = extract_text_with_map(EDGE[0][1])[0]
        assert len(sq_text) > 4096 and squeeze_trigger(sq_text)
        assert len(edge[0]) >= 2 and len(edge[1]) >= 2
        hinted_text = extract_text_with_map(EDGE[1][1])[0]
        assert detect_ranges_numpy(default_detector(), hinted_text) \
            != detect_ranges_numpy(default_detector(), hinted_text,
                                   [langs.lang_id("da")])
        assert edge[5:] == [[]] * 4

    def test_chunks_of_byte_cut_batch(self, monkeypatch):
        t = _pages()
        whole = core.fused_batch(t, with_chunks=True)
        monkeypatch.setattr(core, "MAX_CALL_HTML_BYTES", t["html"].nbytes // 3)
        cut = core.fused_batch(t, with_chunks=True)
        assert cut.equals(whole)
        _check(t, cut["chunks"])


class TestOneExtraction:
    """The with_chunks pass extracts each (sub-)batch once: the chunks
    column maps through the source map of the same extraction call."""

    @pytest.mark.parametrize("cuts", [1, 3])
    def test_one_extract_call_per_sub_batch(self, cuts, monkeypatch):
        from perfbench.workloads import make_table
        t = make_table("snippets", 5, 256)
        calls = []
        real = native.extract_scan_batch

        def counted(*args, **kwargs):
            calls.append(kwargs.get("with_map", False))
            return real(*args, **kwargs)

        monkeypatch.setattr(native, "extract_scan_batch", counted)
        if cuts > 1:
            cap = t["html"].nbytes // cuts + 1
            monkeypatch.setattr(core, "MAX_CALL_HTML_BYTES", cap)
            sizes = np.array([len(h) for h in t["html"].to_pylist()])
            cuts = len(core._byte_cuts(sizes, cap)) - 1
        out = core.fused_batch(t, with_chunks=True)
        assert sum(len(c) > 0 for c in out["chunks"].to_pylist()) > 200
        assert calls == [True] * cuts


_FRAGMENTS = [b"<p>", b"</p>", b"<br>", b"&amp;", b"&eacute;", b" ", b"\r\n",
              b"<script>x</script>", b"<!-- c -->", b"\xff", b"\xe6\x97",
              b"Bonjour le monde et la mer ", b"hello world of the sea ",
              "Привет мир и море ".encode(),
              "日本語のテキストです".encode(),
              "ελληνικά κείμενο ".encode(), b"spam " * 30]
_HTML = st.one_of(
    st.none(), st.binary(max_size=120),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map(b"".join))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.one_of(st.none(), st.sampled_from(
    ["https://a.example.fr/", "https://b.example.ru/x", ""])), _HTML),
    min_size=1, max_size=6))
def test_fuzz_chunks(rows):
    """Arbitrary bytes, null html and url: no exception, and the chunks
    equal the oracle's."""
    t = _table(*zip(*rows))
    out = core.fused_batch(t, with_chunks=True)
    assert out.num_rows == len(rows)
    _check(t, out["chunks"])
