"""The flagship quality filter's row-level kernel.

One Ray Data task function, ``fused_batch``, runs every layer on a
pyarrow batch of pages: UTF-8 gate + HTML->text, page hints, CLD2-style
langid, Gopher/C4 rules, PII/toxicity scrub, fastText-style aux langid
and char-LM perplexity, then the keep/drop decision. No layer before
langid makes a Python call per page: the UTF-8 gate and the extraction
are one C call over the html column's Arrow buffers, whose output
buffer is the ``extracted_text`` column, and the hint scan is one C
call over the pages' valid heads and the url column, whose array
columns langid takes as they are. The quality rules, scrub, fastlangid
and perplexity read the text column's buffer in place: the two aux
models each lower it in one C pass (native.lower_docs, Python's
str.lower exactly) and score its pages grouped by langid's summary
language. The rules and both aux models take langid's summary ids, and
langs.codes names ids only for the output. Langid alone takes Python
strings (one ``to_pylist``) and encodes its list once for all its
steps. Langid, fastlangid and perplexity hand back numpy and Arrow
columns (score.DetectColumns) that land in the output as they are.
All per-row logic calls the same functions the single-process oracle
uses, so pipeline == oracle per url.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from cld2_ray.functions import langs
# extract_text and valid_utf8_prefix are not called here; they stay
# module globals because perfbench's tracer wraps them
from cld2_ray.functions.extract import (extract_batch, extract_text,  # noqa: F401
                                        text_to_raw, valid_utf8_prefix)

# ResultChunkVector analogue (reference: public/compact_lang_det.h:146-153
# ResultChunk {offset, bytes, lang1}): per-document list of language
# ranges in RAW PAGE byte offsets.
CHUNKS_TYPE = pa.large_list(pa.struct([
    ("offset", pa.int64()), ("bytes", pa.int64()), ("lang", pa.string())]))


def _chunks(rng, ok, valid, text_offsets, src) -> pa.Array:
    """list<struct{offset,bytes,lang}> per page: the MAIN scoring
    pass's ranges ``rng`` mapped into RAW page byte offsets through the
    batch's extraction source map — the reference produces the vector
    in the same pass (scoreonescriptspan.cc:1099-1111). Invalid-UTF-8
    pages get an empty list, like the UNKNOWN result."""
    page = np.repeat(np.arange(len(ok)), np.diff(rng.doc_ptr))
    keep = ok[page]
    page = page[keep]
    a, b = (text_to_raw(text_offsets, src, valid, page, p[keep])
            for p in (rng.start, rng.end))
    offsets = np.searchsorted(page, np.arange(len(ok) + 1))
    items = pa.StructArray.from_arrays(
        [pa.array(a), pa.array(b - a), langs.codes(rng.lid[keep])],
        fields=list(CHUNKS_TYPE.value_type))
    return pa.LargeListArray.from_arrays(pa.array(offsets), items,
                                         type=CHUNKS_TYPE)


# keep/drop: a page whose top language covers less than this percent
# of its text is dropped as lang_filter
MIN_PCT1 = 50


# html bytes per kernel call: fused_batch cuts a larger batch into
# consecutive sub-batches. Ray Data sizes batches by rows only, and the
# kernels' per-call scratch grows with the batch's bytes (the span scan
# alone takes ~14 bytes per text byte), so this bounds one call's
# memory when large pages arrive: 2048 Common Crawl records of up to
# 1 MiB would otherwise be 2 GiB in one call. It sits above a
# longform_job block (120 pages, 3.5 MB) and a 2048-page snippets
# batch (1.1 MB), so those run whole; a 2048-page webmix batch (6 MB)
# runs as two calls.
MAX_CALL_HTML_BYTES = 4 << 20


def _byte_cuts(sizes: np.ndarray, cap: int) -> list[int]:
    """Row offsets that cut rows of ``sizes`` bytes into consecutive
    runs of at most ``cap`` bytes, or of one row if that row alone is
    larger: [0, ..., len(sizes)]."""
    cuts = [0]
    total = 0
    for i, b in enumerate(sizes.tolist()):
        if total + b > cap and i > cuts[-1]:
            cuts.append(i)
            total = 0
        total += b
    return cuts + [len(sizes)]


def fused_batch(batch: pa.Table, with_chunks: bool = False) -> pa.Table:
    """pages batch (url, warc_ts, lang, html) -> annotated batch.

    Runs as plain Ray tasks with lazy process-global models (the
    Detector here, ``fastlangid.weights()`` and ``perplexity.models()``
    behind their own caches): Ray reuses task worker processes across
    Dataset executions, so the one-time setup (imports, mmap'd table
    load — see state/mmapcache) is paid once per worker per node
    lifetime, and the stage fills every CPU the scheduler offers.

    A batch of more than MAX_CALL_HTML_BYTES of html runs as
    consecutive sub-batches whose outputs are concatenated; every
    output row depends only on its own page, so the result is the
    same.

    ``with_chunks=True`` adds the ``chunks`` column (see _chunks) from
    the same scoring pass and the same extraction call."""
    html = batch["html"]
    if html.nbytes <= MAX_CALL_HTML_BYTES:
        return _fused(batch, with_chunks)
    sizes = pc.binary_length(html).fill_null(0).to_numpy()
    cuts = _byte_cuts(sizes, MAX_CALL_HTML_BYTES)
    return pa.concat_tables([_fused(batch.slice(a, b - a), with_chunks)
                             for a, b in zip(cuts, cuts[1:])])


def _fused(batch: pa.Table, with_chunks: bool) -> pa.Table:
    """fused_batch on one call's worth of pages (called directly, not
    through the module global, which tracers may wrap)."""
    from cld2_ray.functions import fastlangid, perplexity
    from cld2_ray.functions.hints import scan_batch
    from cld2_ray.functions.langid import default_detector
    from cld2_ray.functions.quality import rule_columns
    from cld2_ray.functions.scrub import scrub_arrow

    html = batch["html"]

    # 1. extract: one C pass over the html column's buffers gates each
    # page to its longest valid UTF-8 prefix and extracts it; its output
    # buffer is the extracted_text column (and, for the chunks column,
    # its source map)
    text_col, valid, *text_map = extract_batch(html, with_map=with_chunks)
    ok = valid == pc.binary_length(html).fill_null(0).to_numpy()
    texts = text_col.to_pylist()

    # 2. langid (batch-vectorized) over every page: a page without
    # letters scores as UNKNOWN with zero columns, and the salvaged
    # valid prefix of a bad-UTF-8 page is scored too (the keep/drop
    # gate below still drops it as utf8_invalid). One C hint scan over
    # the pages' valid heads and urls: the positive priors' ids feed
    # detection, declared languages protect the boilerplate summary
    # flip, and declared/TLD give the metadata fallback.
    ph = scan_batch(html, valid, batch["url"])
    hints = ph.priors.positive_ids()
    if with_chunks:
        # ranges ride along on the SAME scoring pass (results are
        # bit-identical to the plain call — tested)
        results, rng = default_detector().detect_batch(
            texts, hints, declared_list=ph.declared, with_ranges=True)
    else:
        results = default_detector().detect_batch(
            texts, hints, declared_list=ph.declared)
    reliable = results.reliable
    pct = np.clip(results.pct3, 0, 100).astype(np.int8)
    # Metadata fallback: when the content carries no language signal
    # at all (empty pages, repeated-token junk), attribute the page's
    # first declared language, else the TLD prior's language, else
    # English — the reference's own plain-DetectLanguage default (M25,
    # compact_lang_det.h DetectLanguage returns ENGLISH when nothing is
    # detected). lang_reliable stays False, so keep/drop is unchanged —
    # this only improves the attribution column.
    first = ph.declared.first()
    fb = np.where(first != 0, first, ph.tld_lang)
    summary = np.where((results.summary == langs.UNKNOWN) & ~reliable,
                       np.where(fb != 0, fb, langs.ENGLISH),
                       results.summary)

    # 3. quality + scrub + aux models on the SAME text
    q = rule_columns(text_col, summary)
    scrubbed, n_pii, toxic = scrub_arrow(text_col, q["pii_candidate"])
    # both aux models read the text column and score its pages grouped
    # by summary language
    aux_lang, aux_conf = fastlangid.classify_batch(text_col, summary)
    ppl, gibberish = perplexity.score_batch(text_col, summary)

    # drop_reason: utf8_invalid overrides the quality rule's reason;
    # the later gates only name pages no earlier one dropped
    lang_bad = ((summary == langs.UNKNOWN) | ~reliable
                | (pct[:, 0] < MIN_PCT1))
    reason = np.select(
        [~ok, q["drop_reason"] != "", lang_bad, gibberish, toxic],
        ["utf8_invalid", q["drop_reason"], "lang_filter", "perplexity",
         "toxicity"], "")

    return pa.table({
        "url": batch["url"],
        "warc_ts": batch["warc_ts"],
        "lang": batch["lang"],
        "extracted_text": text_col,
        "utf8_valid": pa.array(ok),
        "lang_summary": langs.codes(summary),
        "lang1": langs.codes(results.lang3[:, 0]),
        "lang2": langs.codes(results.lang3[:, 1]),
        "lang3": langs.codes(results.lang3[:, 2]),
        "pct1": pa.array(pct[:, 0]), "pct2": pa.array(pct[:, 1]),
        "pct3": pa.array(pct[:, 2]),
        "nscore1": pa.array(results.nscore3[:, 0].astype(np.float32)),
        "lang_reliable": pa.array(reliable),
        "text_bytes": pa.array(np.minimum(results.text_bytes, 2**31 - 1)
                               .astype(np.int32)),
        "n_words": pa.array(q["n_words"]),
        "n_chars": pa.array(q["n_chars"]),
        "aux_lang": aux_lang,
        "aux_conf": pa.array(aux_conf.astype(np.float32)),
        "ppl": pa.array(ppl.astype(np.float32)),
        "scrubbed_text": scrubbed,
        "n_pii": pa.array(n_pii),
        "has_toxicity": pa.array(toxic),
        "keep": pa.array(reason == ""),
        "drop_reason": pa.array(reason, type=pa.string()),
    } | ({"chunks": _chunks(rng, ok, valid, *text_map)}
         if with_chunks else {}))


# metrics group key and value columns, in output order
METRIC_KEYS = ["lang_summary", "keep", "drop_reason"]
_METRIC_VALUES = ["n_docs", "bytes", "n_pii"]
# partial_metrics' output with no rows: flagship.metrics' fold starts
# from it, so an empty dataset still gives every column
EMPTY_METRICS = pa.table(
    {"lang_summary": pa.array([], pa.string()),
     "keep": pa.array([], pa.bool_()),
     "drop_reason": pa.array([], pa.string())}
    | {c: pa.array([], pa.int64()) for c in _METRIC_VALUES})


def _group(table: pa.Table, aggs: list[tuple]) -> pa.Table:
    """METRIC_KEYS + _METRIC_VALUES from one group_by; aggs are the
    (column, function[, options]) of the three values, in order."""
    out = table.group_by(METRIC_KEYS).aggregate(aggs)
    return out.select(METRIC_KEYS + [f"{a[0]}_{a[1]}" for a in aggs]) \
        .rename_columns(METRIC_KEYS + _METRIC_VALUES)


def partial_metrics(batch: pa.Table) -> pa.Table:
    """Per-batch partial aggregation for the metrics fold (combine
    inside map_batches before flagship.metrics' fold — SURVEY.md §2.5 A4):
    n_docs (every row, with or without a url), bytes (sum of
    text_bytes) and n_pii per METRIC_KEYS group."""
    return _group(batch, [("keep", "count", pc.CountOptions(mode="all")),
                          ("text_bytes", "sum"), ("n_pii", "sum")])


def combine_metrics(table: pa.Table) -> pa.Table:
    """Merge partial_metrics outputs (associative; the fold of
    pipelines/flagship.metrics)."""
    return _group(table, [(c, "sum") for c in _METRIC_VALUES])
