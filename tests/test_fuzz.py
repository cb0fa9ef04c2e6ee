"""Property-based robustness: arbitrary bytes through the full
per-document chain must never crash and must be deterministic."""

from hypothesis import given, settings, strategies as st

from cld2_ray.functions.extract import extract_text, valid_utf8_prefix
from cld2_ray.functions.langid import default_detector
from cld2_ray.functions.spans import script_spans


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=2000))
def test_extract_never_crashes(data):
    vp = valid_utf8_prefix(data)
    text = extract_text(data[:vp])
    assert isinstance(text, str)
    # deterministic
    assert extract_text(data[:vp]) == text


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=1000))
def test_detect_never_crashes(text):
    det = default_detector()
    r = det.detect(text)
    assert 0 <= r.percent3[0] <= 100
    r2 = det.detect(text)
    assert r.summary_lang == r2.summary_lang
    assert r.percent3 == r2.percent3


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=500))
def test_spans_roundtrip(text):
    for sp in script_spans(text):
        assert sp.text.startswith(" ") and sp.text.endswith(" ")
        assert sp.text_bytes > 0
