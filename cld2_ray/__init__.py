"""cld2_ray — a Ray-Data-native language-ID + quality-filter + PII-scrub engine.

A from-scratch rebuild of the data-processing capabilities of CLD2
(Compact Language Detector 2, reference at /root/reference) as an
idiomatic Ray Data pipeline: `ray.data.Dataset` -> vectorized
`map_batches` over zero-copy Arrow batches, one fused task function for
the quality filter whose immutable model tables (quadgram/unigram
Naive-Bayes scoring tables, char-n-gram LM, hashed-n-gram classifier)
load lazily once per worker process, and groupby/aggregate shuffles
only for the wide metric/eval steps.

Layout:
  functions/  pure vectorized kernels (no Ray imports)
  stages/     map_batches callables / actor-pool classes
  sources/    readers + deterministic synthetic pages generator
  pipelines/  end-to-end Dataset pipelines (flagship quality filter, dedup, ANN)
  state/      model-table build/load + checkpoint/lineage manifest
  data/       deterministic seed corpora (authored, no external data)
"""

__version__ = "0.1.0"

def detect_language(content, is_plain_text: bool = True,
                    url: str = "", best_effort: bool = False,
                    default_to_english: bool = False):
    """Single-call analogue of the reference's public entry points
    (DetectLanguage / ExtDetectLanguageSummaryCheckUTF8,
    compact_lang_det.h:236-338): pass raw HTML bytes with
    ``is_plain_text=False`` to get UTF-8 validation + tag/entity
    extraction + TLD/lang-attr hints, or plain text (a str, or its
    UTF-8 bytes) with the default. Returns a DetectResult
    (summary_code, language3, percent3, normalized_score3, is_reliable,
    text_bytes). Bytes that are not valid UTF-8 throughout give
    UNKNOWN_LANGUAGE, unreliable, as the reference's CheckUTF8 entry
    does.

    This is the interactive convenience path — batch pipelines should
    use Detector.detect_batch inside map_batches (see
    pipelines/flagship.py) so table loads amortize per worker."""
    from cld2_ray.functions import langs, score
    from cld2_ray.functions.extract import extract_batch
    from cld2_ray.functions.hints import scan_batch
    from cld2_ray.functions.langid import default_detector
    # a str holding a lone surrogate has no UTF-8 form: "surrogatepass"
    # gives its invalid bytes, which the checks below answer
    raw = content if isinstance(content, bytes) \
        else content.encode("utf-8", "surrogatepass")
    text = hints = None
    if is_plain_text:
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            pass
    else:
        col, valid = extract_batch([raw])
        if valid[0] == len(raw):
            text = col.to_pylist()[0]
            # the flagship's hint scan and hints: the positive priors' ids
            hints = scan_batch([raw], valid, [url]).priors.positive_ids()
    if text is None:
        u = langs.UNKNOWN
        return score.DetectResult(u, (u, u, u), (0, 0, 0),
                                  (0.0, 0.0, 0.0), 0, False)
    return default_detector().detect_batch(
        [text], hints, best_effort=best_effort,
        default_to_english=default_to_english)[0]
