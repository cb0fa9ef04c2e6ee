"""The flagship quality filter's row-level kernel.

One Ray Data task function, ``fused_batch``, runs every layer on a
pyarrow batch of pages: UTF-8 gate + HTML->text, page hints, CLD2-style
langid, Gopher/C4 rules, PII/toxicity scrub, fastText-style aux langid
and char-LM perplexity, then the keep/drop decision. Each document's
text is materialized once as a Python string and shared by every
layer. All per-row logic calls the same functions the single-process
oracle uses, so pipeline == oracle per url.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pandas as pd
import pyarrow as pa

from cld2_ray.functions import langs
from cld2_ray.functions.extract import extract_text, valid_utf8_prefix

# ResultChunkVector analogue (reference: public/compact_lang_det.h:146-153
# ResultChunk {offset, bytes, lang1}): per-document list of language
# ranges in RAW PAGE byte offsets.
CHUNKS_TYPE = pa.large_list(pa.struct([
    ("offset", pa.int64()), ("bytes", pa.int64()), ("lang", pa.string())]))


def _compose_chunks(htmls, valid, ok, todo, rng_list) -> pa.Array:
    """list<struct{offset,bytes,lang}> per page from the MAIN scoring
    pass's text-level ranges (detect_batch(with_ranges=True)) mapped
    into RAW page byte offsets by extract.text_to_raw_ranges — the
    reference produces the vector in the same pass
    (scoreonescriptspan.cc:1099-1111), not by re-detecting.
    Invalid-UTF-8 pages get an empty list, like the UNKNOWN result."""
    from cld2_ray.functions.extract import text_to_raw_ranges
    rng_of = dict(zip(todo, rng_list))
    rows = []
    for j, h in enumerate(htmls):
        r = rng_of.get(j) if ok[j] else None
        rows.append([{"offset": a, "bytes": n, "lang": c}
                     for a, n, c in text_to_raw_ranges(
                         (h or b"")[:int(valid[j])], r)])
    return pa.array(rows, type=CHUNKS_TYPE)


# keep/drop: a page whose top language covers less than this percent
# of its text is dropped as lang_filter
MIN_PCT1 = 50


@lru_cache(maxsize=1)
def _detector():
    from cld2_ray.functions.langid import Detector
    return Detector()


def fused_batch(batch: pa.Table, with_chunks: bool = False) -> pa.Table:
    """pages batch (url, warc_ts, lang, html) -> annotated batch.

    Runs as plain Ray tasks with lazy process-global models (the
    Detector here, ``fastlangid.weights()`` and ``perplexity.models()``
    behind their own caches): Ray reuses task worker processes across
    Dataset executions, so the one-time setup (imports, mmap'd table
    load — see state/mmapcache) is paid once per worker per node
    lifetime, and the stage fills every CPU the scheduler offers.

    ``with_chunks=True`` adds the ``chunks`` column (see
    _compose_chunks) from the same scoring pass."""
    from cld2_ray.functions import fastlangid, perplexity
    from cld2_ray.functions.hints import MAX_SCAN_BYTES, page_hints
    from cld2_ray.functions.quality import apply_rules
    from cld2_ray.functions.scrub import scrub_series

    htmls = batch["html"].to_pylist()
    urls = batch["url"].to_pylist()
    n = len(htmls)

    # 1. extract (text materialized once)
    texts = [""] * n
    valid = np.empty(n, dtype=np.int64)
    ok = np.empty(n, dtype=bool)
    for j, h in enumerate(htmls):
        h = h or b""
        vp = valid_utf8_prefix(h)
        valid[j] = vp
        ok[j] = vp == len(h)
        if vp:
            texts[j] = extract_text(h[:vp])

    # 2. langid (batch-vectorized) — every row that yielded text,
    # including the salvaged valid prefix of bad-UTF-8 pages (the
    # keep/drop gate below still drops those as utf8_invalid). One hint
    # scan per page: priors feed detection, declared languages protect
    # the boilerplate summary flip, and declared/TLD give the metadata
    # fallback. The valid-prefix slice is capped at the hint scan
    # window so it never copies a whole page body.
    todo = [j for j in range(n) if texts[j]]
    ph = [page_hints(urls[j] or "",
                     (htmls[j] or b"")[:min(int(valid[j]), MAX_SCAN_BYTES)])
          for j in range(n)]
    hints = [[lid for lid, w in ph[j][0] if w > 0] for j in todo]
    declared = [frozenset(ph[j][1]) or None for j in todo]
    if with_chunks:
        # ranges ride along on the SAME scoring pass (results are
        # bit-identical to the plain call — tested)
        results, rng_list = _detector().detect_batch(
            [texts[j] for j in todo], hints,
            declared_list=declared, with_ranges=True)
    else:
        results = _detector().detect_batch(
            [texts[j] for j in todo], hints, declared_list=declared)
    lang1 = ["un"] * n
    lang2 = ["un"] * n
    lang3 = ["un"] * n
    summary = ["un"] * n
    pct = np.zeros((n, 3), dtype=np.int8)
    nscore1 = np.zeros(n, dtype=np.float32)
    reliable = np.zeros(n, dtype=bool)
    text_bytes = np.zeros(n, dtype=np.int32)
    for j, r in zip(todo, results):
        summary[j] = r.summary_code
        lang1[j] = langs.lang_code(r.language3[0])
        lang2[j] = langs.lang_code(r.language3[1])
        lang3[j] = langs.lang_code(r.language3[2])
        pct[j] = np.clip(r.percent3, 0, 100)
        nscore1[j] = r.normalized_score3[0]
        reliable[j] = r.is_reliable
        text_bytes[j] = min(r.text_bytes, 2**31 - 1)
    # Metadata fallback: when the content carries no language signal
    # at all (empty pages, repeated-token junk), attribute the page's
    # declared language, else the TLD prior's language, else English —
    # the reference's own plain-DetectLanguage default (M25,
    # compact_lang_det.h DetectLanguage returns ENGLISH when nothing is
    # detected). lang_reliable stays False, so keep/drop is unchanged —
    # this only improves the attribution column.
    for j in range(n):
        if summary[j] == "un" and not reliable[j]:
            _, dec, tld = ph[j]
            fb = dec[0] if dec else tld
            summary[j] = langs.lang_code(fb) if fb else "en"

    # 3. quality + scrub + aux models on the SAME strings
    tser = pd.Series(texts)
    sser = pd.Series(summary)
    q = apply_rules(tser, sser)
    sc = scrub_series(tser)
    aux_lang, aux_conf = fastlangid.classify_batch(texts)
    ppl, gibberish = perplexity.score_batch(texts, summary)

    reason = q["drop_reason"].copy()
    reason = reason.mask(pd.Series(~ok), "utf8_invalid")
    lang_bad = ((sser == "un") | ~pd.Series(reliable)
                | (pd.Series(pct[:, 0].astype(int)) < MIN_PCT1))
    reason = reason.mask((reason == "") & lang_bad, "lang_filter")
    reason = reason.mask((reason == "") & pd.Series(gibberish),
                         "perplexity")
    reason = reason.mask((reason == "") & sc["has_toxicity"], "toxicity")

    return pa.table({
        "url": batch["url"],
        "warc_ts": batch["warc_ts"],
        "lang": batch["lang"],
        "extracted_text": pa.array(texts, type=pa.large_string()),
        "utf8_valid": pa.array(ok),
        "lang_summary": pa.array(summary),
        "lang1": pa.array(lang1), "lang2": pa.array(lang2),
        "lang3": pa.array(lang3),
        "pct1": pa.array(pct[:, 0]), "pct2": pa.array(pct[:, 1]),
        "pct3": pa.array(pct[:, 2]),
        "nscore1": pa.array(nscore1),
        "lang_reliable": pa.array(reliable),
        "text_bytes": pa.array(text_bytes),
        "n_words": pa.array(q["n_words"].to_numpy()),
        "n_chars": pa.array(q["n_chars"].to_numpy()),
        "aux_lang": pa.array(aux_lang),
        "aux_conf": pa.array(np.asarray(aux_conf, dtype=np.float32)),
        "ppl": pa.array(np.asarray(ppl, dtype=np.float32)),
        "scrubbed_text": pa.array(sc["scrubbed_text"].tolist(),
                                  type=pa.large_string()),
        "n_pii": pa.array(sc["n_pii"].to_numpy()),
        "has_toxicity": pa.array(sc["has_toxicity"].to_numpy()),
        "keep": pa.array((reason == "").to_numpy()),
        "drop_reason": pa.array(reason.tolist()),
    } | ({"chunks": _compose_chunks(htmls, valid, ok, todo, rng_list)}
         if with_chunks else {}))


def partial_metrics(df: pd.DataFrame) -> pd.DataFrame:
    """Per-batch partial aggregation for the metrics groupby (combine
    inside map_batches before the shuffle — SURVEY.md §2.5 A4)."""
    g = df.groupby(["lang_summary", "keep", "drop_reason"], as_index=False)
    out = g.agg(n_docs=("url", "count"), bytes=("text_bytes", "sum"),
                n_pii=("n_pii", "sum"))
    return out


def combine_metrics(df: pd.DataFrame) -> pd.DataFrame:
    """Merge partial_metrics outputs (associative; used at every level
    of the tree combine in pipelines/flagship.metrics)."""
    g = df.groupby(["lang_summary", "keep", "drop_reason"], as_index=False)
    return g.agg(n_docs=("n_docs", "sum"), bytes=("bytes", "sum"),
                 n_pii=("n_pii", "sum"))


