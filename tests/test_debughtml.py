"""S4 HTML debug writer tests (reference: internal/debug.cc)."""

import pandas as pd


class TestColors:
    def test_palette_indexing(self):
        """Colors key off the REFERENCE enum number exactly
        (debug.cc:171-209): fr=4 -> background[4], ru=12 ->
        background[12] / text[0]; en/un special-cased."""
        from cld2_ray.pipelines.debughtml import (
            LANG_BACKGROUND, LANG_COLOR, back_color, text_color)
        from cld2_ray.data.reflang import REF_LANG_ENUM
        assert REF_LANG_ENUM["fr"] == 4
        assert back_color("fr") == LANG_BACKGROUND[4]
        assert text_color("fr") == LANG_COLOR[0]
        ru = REF_LANG_ENUM["ru"]
        assert back_color("ru") == LANG_BACKGROUND[ru & 0x0F]
        assert text_color("ru") == LANG_COLOR[(ru >> 4) & 0x0F]
        assert back_color("en") == 0xFFFFF4
        assert back_color("un") == 0xFFFFFF
        assert text_color("un") == 0xB0B0B0
        assert back_color("zzz-not-a-lang") == 0xFFFFFF

    def test_escaping(self):
        """GetHtmlEscapedText semantics: &<>'\" escaped, CR/LF ->
        spaces (debug.cc:225-249)."""
        from cld2_ray.pipelines.debughtml import html_escaped
        assert html_escaped("<a href='x'>&\"\ny\r") \
            == "&lt;a href=&apos;x&apos;&gt;&amp;&quot; y "


class TestDumpFormats:
    def test_result_chunk_vector_format(self):
        from cld2_ray.pipelines.debughtml import dump_result_chunk_vector
        s = dump_result_chunk_vector(
            "Bonjour le monde. Hello.", [(0, 18, "fr"), (18, 6, "en")])
        assert s.startswith("DumpResultChunkVector[2]<br>\n")
        assert "[0]{0 18 fr} " in s
        assert "[1]{18 6 en} " in s
        assert s.count("</span><br>\n") == 2
        assert s.endswith("<br>\n")
        # offsets are BYTE offsets into the utf-8 text
        s2 = dump_result_chunk_vector("héé ok", [(0, 5, "fr"), (5, 3, "en")])
        assert "héé" in s2


class TestDebugSink:
    def test_write_debug_sample(self, tmp_path, ray_session):
        """End-to-end: sample pages -> one HTML debug page each, with
        the DumpResultChunkVector body and per-chunk colored spans."""
        import os
        import ray.data as rd
        from cld2_ray.sources.pages import page_batch
        from cld2_ray.pipelines.debughtml import write_debug_sample
        ds = rd.from_arrow(page_batch(0, 40, seed=7))
        n = write_debug_sample(ds, str(tmp_path), n=5)
        assert n == 5
        files = sorted(os.listdir(tmp_path))
        assert len(files) == 5
        body = open(os.path.join(tmp_path, files[0])).read()
        assert body.startswith("<html>")
        assert "DumpResultChunkVector[" in body

    @staticmethod
    def _pages():
        import pyarrow as pa
        from cld2_ray.sources.pages import edge_pages, page_batch
        return pa.concat_tables([edge_pages(), page_batch(0, 6, seed=7)])

    def test_batch_kernels_equal_per_page_path(self, tmp_path, ray_session):
        """Each file is debug_page(url, text, ranges) of the per-page
        path (valid_utf8_prefix, extract_text, detect_ranges), for the
        edge pages (null and invalid UTF-8 html among them) and normal
        pages; the null page reads as empty and gets an empty vector."""
        import os
        import ray.data as rd
        from cld2_ray.functions.extract import extract_text, valid_utf8_prefix
        from cld2_ray.functions.langid import default_detector
        from cld2_ray.pipelines.debughtml import debug_page, write_debug_sample
        pages = self._pages()
        rows = pages.to_pylist()
        assert rows[0]["html"] is None
        n = write_debug_sample(rd.from_arrow(pages), str(tmp_path),
                               n=len(rows))
        assert n == len(rows)
        det = default_detector()
        for i, row in enumerate(rows):
            h = row["html"] or b""
            text = extract_text(h[:valid_utf8_prefix(h)])
            with open(os.path.join(tmp_path, f"debug_{i:04d}.html"),
                      encoding="utf-8") as f:
                got = f.read()
            assert got == debug_page(row["url"], text,
                                     det.detect_ranges(text)), i
        with open(os.path.join(tmp_path, "debug_0000.html")) as f:
            assert "DumpResultChunkVector[0]" in f.read()

    def test_run_cli_debug_html_on_edge_pages(self, tmp_path, ray_session):
        """cld2_ray.run --debug-html over a parquet file of those pages
        exits 0 and writes one debug page per sampled page."""
        import json
        import os
        import pyarrow.parquet as pq
        from cld2_ray.run import main
        os.makedirs(tmp_path / "in")
        pq.write_table(self._pages(), str(tmp_path / "in" / "a.parquet"))
        out = str(tmp_path / "o")
        assert main(["--input", str(tmp_path / "in"), "--output", out,
                     "--partitions", "1", "--debug-html", "8"]) == 0
        assert len(os.listdir(os.path.join(out, "debug"))) == 8
        m = json.load(open(os.path.join(out, "part=00000", "MANIFEST.json")))
        assert m["rows"] == 12
