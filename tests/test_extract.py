"""Extraction semantics tests — each case exercises a cited reference
behavior (see FIXTURES.md §1 and cld2_ray/functions/extract.py)."""

from cld2_ray.functions.extract import extract_text, valid_utf8_prefix
from tests.oracles.extract import (
    extract_text_with_map, fix_unicode_value, read_entity, scan_tag_end)


def x(html: str) -> str:
    return extract_text(html.encode("utf-8"))


class TestTags:
    def test_simple_tag_becomes_space(self):
        assert x("a<b>c</b>d") == "a c d"

    def test_p_br_tr_become_newline(self):
        assert x("a<p>b") == "a\nb"
        assert x("a<br>b") == "a\nb"
        assert x("a<br/>b") == "a\nb"
        assert x("a<tr>b") == "a\nb"
        assert x("a<P>b") == "a\nb"

    def test_para_is_not_p(self):
        # <para...: next char after p is a letter (>= 0x40) -> plain space
        assert x("a<para>b") == "a b"

    def test_tag_near_end_no_newline(self):
        # take >= len-3: no <p check possible
        assert x("a<p>") == "a "

    def test_comment_skipped_including_tags_inside(self):
        assert x("a<!-- <b> hidden -->c") == "a c"

    def test_unterminated_comment_eats_rest(self):
        assert x("a<!-- never closed b c") == "a "

    def test_script_block_skipped(self):
        assert x("a<script>var x = 'b';</script>c") == "a c"
        assert x("a<SCRIPT type='x'>hidden</SCRIPT>c") == "a c"

    def test_script_close_with_spaces(self):
        assert x("a<script>q</ script>c") == "a c"

    def test_scriptx_is_generic_tag(self):
        assert x("a<scripty>visible</scripty>b") == "a visible b"

    def test_style_block_skipped(self):
        assert x("a<style>.x{color:red}</style>c") == "a c"

    def test_unterminated_script_eats_rest(self):
        assert x("a<script>rest") == "a "

    def test_quoted_gt_inside_tag(self):
        assert x('a<img alt="x > y">b') == "a b"

    def test_newline_in_quote_disables_quoting(self):
        # state 10 -> 12 on CR/NL: the next > ends the tag
        assert x('a<img alt="x\n> y">b') == "a y\">b"

    def test_unmatched_lt_consumes_only_opener(self):
        # ScanToPossibleLetter error backscan: only '<' eaten, rest rescanned
        assert x("a<b c < d>e") == "a b c e"

    def test_stray_gt_copied(self):
        assert x("a > b") == "a >b"  # '>' bypasses space compression

    def test_lt_at_eof(self):
        assert x("a<tag") == "a "

    def test_empty_tag(self):
        assert x("a<>b") == "a b"


class TestEntities:
    def test_named(self):
        assert x("caf&eacute;") == "café"

    def test_named_without_semicolon_low_value(self):
        # value < 256: no ';' required
        assert x("caf&eacute blah") == "café blah"

    def test_ie6_lang_trap(self):
        # &lang -> U+2329 is >= 256 so MUST have ';' (IE6 rule,
        # getonescriptspan.cc:433-440)
        # invalid entity: only the '&' is consumed, "lang=en" stays as text
        assert x("/search?q=test&lang=en") == "/search?q=testlang=en"
        # entity emission bypasses the compression state -> next space eaten
        assert x("a &lang; b") == "a 〈b"

    def test_numeric_decimal(self):
        assert x("a&#233;b") == "aéb"

    def test_numeric_hex(self):
        assert x("a&#xE9;b") == "aéb"
        assert x("a&#Xe9;b") == "aéb"

    def test_numeric_no_semicolon_ends_at_nondigit(self):
        assert x("a&#233b") == "aéb"

    def test_overflow_becomes_replacement_char(self):
        assert x("a&#x110000;b") == "a�b"
        assert x("a&#99999999999;b") == "a�b"

    def test_surrogate_becomes_replacement(self):
        assert x("a&#xD800;b") == "a�b"

    def test_cp1252_row(self):
        # values 0x80-0x9F map through CP1252 (fixunicodevalue.h)
        assert x("a&#128;b") == "a€b"
        assert x("a&#146;b") == "a’b"

    def test_control_becomes_space(self):
        assert x("a&#1;b") == "a b"

    def test_bare_ampersand_dropped(self):
        assert x("AT&T") == "ATT"
        assert x("a & b") == "a  b".replace("  ", " ")  # '&' gone, spaces merge? no:
        # 'a',' ' copied; '&' dropped (no output, lws unchanged=True);
        # ' ' skipped; 'b'
        assert x("a & b") == "a b"

    def test_entity_bypasses_space_compression(self):
        # entity output does not update last_byte_was_space:
        # "a &amp; b" -> 'a', ' ', '&' (lws stays True), ' ' skipped, 'b'
        assert x("a &amp; b") == "a &b"

    def test_amp_quirk_values(self):
        # reference table: lang=9001, rang=9002 (HTML4, not HTML5)
        assert x("&lang;") == "〈"
        assert x("&rang;") == "〉"
        assert x("&emdash;") == "—"


class TestWhitespace:
    def test_ws_runs_compress_to_first(self):
        assert x("a  \n b") == "a b"
        assert x("a\n  b") == "a\nb"

    def test_crlf_canonical(self):
        assert x("a\r\nb") == "a\nb"
        assert x("a\rb") == "a\nb"

    def test_tab_not_compressed(self):
        assert x("a\t\tb") == "a\t\tb"

    def test_newline_after_space_tag(self):
        # "text <p>more": space emitted, then <p>'s \n skipped (lws=True)
        assert x("text <p>more") == "text more"


class TestUTF8Gate:
    def test_valid(self):
        assert valid_utf8_prefix("héllo".encode()) == 6

    def test_invalid_suffix(self):
        b = "ok ".encode() + b"\xff\xfe"
        assert valid_utf8_prefix(b) == 3

    def test_truncated_multibyte(self):
        b = "é".encode()[:1]
        assert valid_utf8_prefix(b) == 0


class TestHelpers:
    def test_read_entity_consumed(self):
        assert read_entity(b"&amp; x", 0) == (38, 5)
        assert read_entity(b"&amp x", 0) == (38, 4)
        assert read_entity(b"&zzz; x", 0) == (-1, 1)
        assert read_entity(b"&#65;", 0) == (65, 5)

    def test_scan_tag_end(self):
        assert scan_tag_end(b"<b>x", 0) == 3
        assert scan_tag_end(b"<b attr='>'>x", 0) == 12
        assert scan_tag_end(b"<a <b>", 0) == 1

    def test_fix_unicode_value(self):
        assert fix_unicode_value(0x41) == 0x41
        assert fix_unicode_value(0x80) == 0x20AC
        assert fix_unicode_value(0xFDD5) == 0xFFFD
        assert fix_unicode_value(0x1FFFE) == 0xFFFD
        # 0x10FFFF itself is an xxFFFE/xxFFFF non-character -> U+FFFD
        assert fix_unicode_value(0x10FFFF) == 0xFFFD
        assert fix_unicode_value(0x10FFFD) == 0x10FFFD


class TestOffsetMap:
    def test_text_identical_to_plain_extract(self):
        cases = [
            b"<p>Bonjour &eacute;t&eacute;</p><script>j()</script> fin",
            b"A\r\nB\rC  D   E&#233;&amp;x > y <a href='q\"z'>l</a>",
            b"<!-- c --><style>s{}</style>A  B &Aacute;tail",
            b"& bare <p unclosed",
        ]
        for html in cases:
            t2, _ = extract_text_with_map(html)
            assert t2 == extract_text(html)

    def test_map_monotone_and_exact_on_copied_bytes(self):
        import numpy as np
        html = (b"<html><body><p>Hello &amp; world</p>\r\n"
                b"<div>seconde   ligne</div></body></html>")
        text, om = extract_text_with_map(html)
        tb = text.encode("utf-8")
        orig = om.to_original(np.arange(len(tb) + 1))
        assert (np.diff(orig) >= 0).all()
        for p, c in enumerate(tb):
            if chr(c).isalnum():   # verbatim-copied bytes
                assert html[orig[p]] == c


class TestRangesOnRawPage:
    def test_html_byte_ranges_slice_the_page(self):
        """The chunks column gives the ranges in RAW page offsets."""
        import pyarrow as pa
        from cld2_ray.data.seeds import HELDOUT
        from cld2_ray.sources.pages import SCHEMA
        from cld2_ray.stages.core import fused_batch
        html = ("<html><body><p>" + HELDOUT["fr"] + "</p><div>"
                + HELDOUT["ru"] + "</div></body>").encode("utf-8")
        page = pa.Table.from_pylist(
            [{"url": "https://example.com/", "warc_ts": 0, "html": html,
              "text": "", "lang": "fr"}], schema=SCHEMA)
        ranges = [(r["offset"], r["bytes"], r["lang"]) for r in
                  fused_batch(page, with_chunks=True)["chunks"][0].as_py()]
        codes = [c for _, _, c in ranges]
        assert codes == ["fr", "ru"]
        fr_a, fr_len, _ = ranges[0]
        # the range, sliced out of the RAW page bytes, is the French text
        assert html[fr_a:fr_a + fr_len].decode("utf-8").startswith("Voici")
        ru_a, ru_len, _ = ranges[1]
        assert html[ru_a:ru_a + ru_len].decode("utf-8").strip() \
            .startswith("Это")

    def test_same_script_chunk_split_word_aligned(self):
        from cld2_ray.data.seeds import HELDOUT
        from cld2_ray.functions.langid import Detector
        d = Detector()
        text = (HELDOUT["en"] + " ") * 4 + (HELDOUT["fr"] + " ") * 4
        ranges = d.detect_ranges(text)
        assert [c for _, _, c in ranges] == ["en", "fr"]
        tb = text.encode("utf-8")
        a, n, _ = ranges[1]
        # BetterBoundary places the split within a word or so of the
        # true en->fr transition (the 8-hit window has +-1-word fuzz,
        # as in the reference), and the boundary is word-aligned
        true_b = len(((HELDOUT["en"] + " ") * 4).encode("utf-8"))
        assert abs(a - true_b) <= 16, (a, true_b)
        assert a == 0 or tb[a - 1:a] == b" "
