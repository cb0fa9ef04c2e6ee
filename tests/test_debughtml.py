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

    def test_debug2_bracket_logic(self):
        """debug.cc:411-459: '[]' on reliable match-prior, '[code]'
        reliable, '[c1*.s1/c2.s2]' unreliable; reliable ==
        min(delta, score) >= 75."""
        from cld2_ray.pipelines.debughtml import debug2_chunks
        s = debug2_chunks("aaaa bbbb cccc", [
            (0, 5, "fr", 900, "en", 100, 80, 90),    # reliable, no prior
            (5, 5, "fr", 900, "en", 100, 99, 75),    # reliable, matches
            (10, 4, "de", 500, "fr", 400, 74, 99),   # min<75 -> unreliable
        ])
        assert "Debug2[0] [fr]" in s
        assert "Debug2[1] []" in s
        assert "Debug2[2] [de*.500/fr.400]" in s
        # chunk text is printed raw (debug.cc:454), unlike the escaped
        # DumpResultChunkVector rows
        raw = debug2_chunks("""a&b <i>'q"</i>""", [
            (0, 14, "en", 900, "fr", 100, 99, 99)])
        assert """a&b <i>'q"</i></span>""" in raw
        assert "&amp;" not in raw and "&lt;" not in raw


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
