"""Validate the reference-table parser against the generated files'
own annotations, and the CJK scoring against the reference unittest's
own CJK samples (cld2_unittest.cc kTestPair entries — the reference's
conformance spec, i.e. 'what to compute')."""

import os

import numpy as np
import pytest

REF = "/root/reference/internal"
pytestmark = pytest.mark.skipif(not os.path.isdir(REF),
                                reason="reference tree not present")


def _expected_score_by_code() -> dict[str, tuple[int, int, int, int]]:
    """kAvgDeltaOctaScore rows keyed by language code."""
    from tools.refparse import (CODE_ALIAS, avg_delta_octa_score,
                                language_tables)
    code_of, _, _ = language_tables()
    arr = avg_delta_octa_score()
    out = {}
    for ref_id in range(min(len(arr), 614)):
        code = CODE_ALIAS.get(code_of.get(ref_id, ""),
                              code_of.get(ref_id, ""))
        if code and not code.startswith(("zz", "xx")) \
                and code not in ("un", "xxx", "ut"):
            out[code] = tuple(int(x) for x in arr[ref_id])
    return out


class TestParsedTables:
    def test_langprob_decode_matches_file_comments(self):
        """deltaocta0527.cc annotates Ind entries with their decode
        (e.g. 0x500d2d0d == 'sk.cs.fj_554'); the parser must agree."""
        from tools.refparse import decode_langprob
        assert decode_langprob(0x500D2D0D, True) == \
            [("sk", 5), ("cs", 5), ("fj", 4)]
        assert decode_langprob(0x13000907, True) == [("pl", 4), ("et", 2)]
        assert decode_langprob(0x0B000A21, True) == [("pt", 8), ("es", 6)]
        # othr interpretation: compat entry [3] is ko.12, [5] zhT.12
        from tools.refparse import compat_ind
        ind = compat_ind()
        assert decode_langprob(int(ind[2 * 3]), False) == [("ko", 12)]
        assert decode_langprob(int(ind[2 * 5]), False) == \
            [("zh-Hant", 12)]

    def test_bucket_probe_finds_annotated_tokens(self):
        """The generated bucket table annotates each entry with its
        source token (e.g. bucket [000] holds _ngagem_ with keyvalue
        0x72fd0004): OctaHash40 + the reimplemented probe must land
        exactly there."""
        from tools import ngram
        from tools.langmodel import bucket_keyvalues
        from cld2_ray.state.model import default_model
        m = default_model()

        def octa40(word: bytes) -> int:
            sb = b" " + word + b" " + b" " * 28
            buf = np.frombuffer(sb, dtype=np.uint8)
            wins = ngram.gather_windows(buf, np.array([1]), 24)
            return int(ngram.octa_hash40(
                wins, np.array([len(word)]),
                np.array([True]), np.array([True]))[0])

        for word, keyvalue in ((b"ngagem", 0x72FD0004),
                               (b"vihar", 0x92901002),
                               (b"vietoj", 0xE3EB4005),
                               (b"mwambo", 0xD2497006)):
            h = np.array([octa40(word)], dtype=np.uint64)
            kv = bucket_keyvalues(m.docta, h)
            assert int(kv[0]) == keyvalue, word

    def test_cjk_trie_props(self):
        """Trie enumeration: hiragana/katakana are pure-Japanese
        propvals, hangul pure-Korean, bopomofo pure-ChineseT (decoded
        through the compat table); Cyrillic and Latin map to nothing."""
        from cld2_ray.functions import langs
        from cld2_ray.state.model import default_model
        from tools.langmodel import unpack_langprobs
        m = default_model()

        def top_lang(ch: str) -> str:
            v = m.uni.lookup(np.array([ord(ch)], dtype=np.uint64))
            if int(v[0]) == 0:
                return ""
            l4, q4 = unpack_langprobs(v)
            best = int(l4[0][np.argmax(q4[0])])
            return langs.lang_code(best)

        assert top_lang("あ") == "ja" and top_lang("カ") == "ja"
        assert top_lang("한") == "ko" and top_lang("글") == "ko"
        assert top_lang("ㄅ") == "zh-Hant"
        assert top_lang("Ж") == "" and top_lang("é") == ""

    def test_expected_score_table_parses(self):
        exp = _expected_score_by_code()
        # spot values from cld_generated_score_quad_octa_2.cc comments
        assert exp["en"][0] == 1163      # ENGLISH Latn
        assert exp["ja"][3] == 3100      # Japanese Other
        assert exp["ru"][1] == 648       # RUSSIAN Cyrl

    def test_trained_expected_table_layout(self):
        """The trained expected table mirrors the reference's
        kAvgDeltaOctaScore shape — one int32 cell per (language,
        LScript4 slot) — and fills the slots a language's seed corpus
        actually exercises: multi-script languages get DISTINCT
        per-script rates (the round-4 exact-ramp fix), single-script
        languages leave foreign slots 0 (= "no estimate")."""
        from cld2_ray.functions import langs
        from cld2_ray.state.model import default_model
        m = default_model()
        assert m.expected_quad.shape == (langs.NUM_LANGS, 4)
        assert m.expected_quad.dtype == np.int32
        assert (m.expected_quad >= 0).all()
        en = langs.lang_id("en")
        assert m.expected_quad[en, 0] > 0          # Latn measured
        assert (m.expected_quad[en, 1:] == 0).all()  # en never Cyrl/Arab
        kk = langs.lang_id("kk")
        assert m.expected_quad[kk, 0] > 0          # kk-Latn translit
        assert m.expected_quad[kk, 1] > 0          # kk Cyrillic
        assert m.expected_quad[kk, 0] != m.expected_quad[kk, 1]
        ja = langs.lang_id("ja")
        assert m.expected_uni[ja] > 0              # CJK rate separate
        assert (m.expected_quad[ja] == 0).all()


class TestCJKConformance:
    """The reference unittest's own CJK samples (unittest_data.h
    kTeststr_{zh_Hans,zh_Hant,ja,ko}_Hani; expectations
    cld2_unittest.cc kTestPair) must detect as the reference expects
    — these exercise the PARSED real CJK tables end to end."""

    SAMPLES = {
        "ja": ("このペ ジでは アカウントに指定された予算の履歴を一覧にして"
               "います それぞれの項目には 予算額と特定期間のステ タスが表示"
               "されます 現在または今後の予算を設定するには"),
        "ko": ("개별적으로 리포트 액세스 권한을 부여할 수 있습니다 액세스 "
               "권한 부여사용자에게 프로필 리포트에 액세스할 수 있는 권한을 "
               "부여하시려면 가용 프로필 상자에서 프로필 이름을 선택한 다음"),
        "zh": ("产品的简报和公告 提交该申请后无法进行更改 请确认您的选择是"
               "正确的 对于要提交的图书 我确认 我是版权所有者或已得到版权"
               "所有者的授权 要更改您的国家 地区 请在此表的最上端更改您的"),
        "zh-Hant": ("之前為 帳單交易作業區 已變更 廣告內容 之前為 銷售代表 "
                    "之前為 張貼日期為 百分比之前為 合約 為 目標對象條件已"
                    "刪除 結束日期之前為"),
    }

    @pytest.mark.parametrize("code", sorted(SAMPLES))
    def test_reference_cjk_sample(self, code):
        from cld2_ray.functions.langid import Detector
        d = Detector()
        r = d.detect(self.SAMPLES[code])
        assert r.summary_code == code, \
            f"{code} sample detected as {r.summary_code}"
        assert r.percent3[0] >= 90
