"""Single-process per-document oracle for the output check.

Same per-document path as ``tests/test_pipeline.py::oracle_rows``: one
``Detector.detect`` per page instead of the pipeline's batched scoring,
no Ray. The pipeline must agree with it on every checked column.
"""

from __future__ import annotations

import pandas as pd

CHECKED = ["keep", "drop_reason", "lang_summary", "scrubbed_text"]


def oracle_rows(pages: list[dict], det) -> pd.DataFrame:
    from cld2_ray.functions import langs, perplexity
    from cld2_ray.functions.extract import extract_text, valid_utf8_prefix
    from cld2_ray.functions.hints import page_hints
    from cld2_ray.functions.quality import apply_rules
    from cld2_ray.functions.scrub import scrub_series

    rows = []
    for p in pages:
        h = p["html"] or b""
        vp = valid_utf8_prefix(h)
        text = extract_text(h[:vp]) if vp else ""
        priors, declared, tld = page_hints(p["url"], h[:vp])
        if text:
            r = det.detect(text,
                           hint_langs=[lid for lid, w in priors if w > 0],
                           declared=frozenset(declared) or None)
            summary, reliable, pct1 = (r.summary_code, r.is_reliable,
                                       r.percent3[0])
        else:
            summary, reliable, pct1 = "un", False, 0
        if summary == "un" and not reliable:
            fb = declared[0] if declared else tld
            summary = langs.lang_code(fb) if fb else "en"
        rows.append({"url": p["url"], "extracted_text": text,
                     "utf8_valid": vp == len(h), "lang_summary": summary,
                     "lang_reliable": reliable, "pct1": pct1})
    df = pd.DataFrame(rows)
    q = apply_rules(df.extracted_text, df.lang_summary)
    s = scrub_series(df.extracted_text)
    reason = q.drop_reason.mask(~df.utf8_valid, "utf8_invalid")
    lang_bad = (df.lang_summary == "un") | ~df.lang_reliable | (df.pct1 < 50)
    reason = reason.mask((reason == "") & lang_bad, "lang_filter")
    _, gib = perplexity.score_batch(df.extracted_text.tolist(),
                                    df.lang_summary.tolist())
    reason = reason.mask((reason == "") & pd.Series(gib), "perplexity")
    reason = reason.mask((reason == "") & s.has_toxicity, "toxicity")
    df["scrubbed_text"] = s.scrubbed_text
    df["drop_reason"] = reason
    df["keep"] = reason == ""
    return df[["url", *CHECKED]]


def mismatches(got: pd.DataFrame, want: pd.DataFrame) -> list[str]:
    """Describe every (url, column) where ``got`` differs from ``want``."""
    g = got.set_index("url")
    out = []
    for row in want.itertuples(index=False):
        if row.url not in g.index:
            out.append(f"{row.url}: missing")
            continue
        for col in CHECKED:
            a, b = g.at[row.url, col], getattr(row, col)
            if a != b:
                out.append(f"{row.url}: {col} {a!r} != {b!r}"[:200])
    return out
