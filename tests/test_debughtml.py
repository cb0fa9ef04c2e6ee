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
