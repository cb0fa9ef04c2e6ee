"""The flagship quality-filter pipeline (north rule end-to-end).

read/generate pages -> fused_batch (Ray tasks: extract, langid, hints,
aux langid, perplexity, rules, scrub, keep/drop) -> [write kept docs +
metrics fold].

Sizing notes for the 100 TB case (see also state/checkpoint.py):
- the kernel runs as plain Ray tasks with lazy per-worker models, so
  it elastically fills whatever CPUs are free;
- batches are BATCH_SIZE rows, so each kernel's per-call fixed costs
  (re-warming its model tables and memo after the other kernels
  evicted them, numpy set-up, Arrow assembly) spread over many pages;
  an input of fewer than BATCH_SIZE x CPUs rows leaves CPUs idle;
- per-call memory is capped by html bytes, not rows: fused_batch runs
  a batch of more than core.MAX_CALL_HTML_BYTES (4 MiB) of html as
  consecutive sub-batches, which bounds the kernels' scratch when
  large pages arrive. Per-page cost is not capped: the 160KB budget
  bounds only the letters langid scans, while extraction (and the
  rules, scrub and aux models on its output) read the whole page, so
  a giant page costs time in proportion to its size;
- metrics pre-aggregate per batch (partial_metrics) before the tiny
  fold in flagship.metrics.
"""

from __future__ import annotations

import pyarrow as pa

from cld2_ray.stages.core import (EMPTY_METRICS, METRIC_KEYS,
                                  combine_metrics, fused_batch,
                                  partial_metrics)

# fused_batch's output columns, in its order (then ``chunks`` if asked)
OUT_COLUMNS = [
    "url", "warc_ts", "lang", "extracted_text", "utf8_valid",
    "lang_summary", "lang1", "lang2", "lang3", "pct1", "pct2", "pct3",
    "nscore1", "lang_reliable", "text_bytes", "n_words", "n_chars",
    "aux_lang", "aux_conf", "ppl", "scrubbed_text", "n_pii",
    "has_toxicity", "keep", "drop_reason",
]

# rows per fused_batch call (see the module docstring)
BATCH_SIZE = 2048


def build_fused(pages_ds, with_chunks: bool = False):
    """pages Dataset -> fully annotated Dataset (lazy), one map_batches
    of stages/core.fused_batch.

    ``with_chunks=True`` adds a ``chunks`` list<struct{offset,bytes,lang}>
    column — per-page language ranges in RAW page byte offsets, the
    ResultChunkVector analogue (reference public/compact_lang_det.h:
    146-153 via ExtDetectLanguageSummary's vector output)."""
    return pages_ds.map_batches(fused_batch, batch_format="pyarrow",
                                batch_size=BATCH_SIZE,
                                fn_kwargs={"with_chunks": with_chunks})


def metrics(annotated_ds):
    """Per-language / per-outcome metrics -> pandas DataFrame with
    columns lang_summary, keep, drop_reason, n_docs, bytes, n_pii, one
    row per group, sorted by the group key.

    Shape: per-batch partial aggregation (partial_metrics, a pyarrow
    ``group_by`` FUSED by Ray Data into the main map op — its input
    never leaves the worker), then a streaming fold, in the calling
    process, of the tiny pre-aggregated Arrow blocks, converted to pandas once at the
    end. The group-key cardinality is small (languages x outcomes,
    ~100 rows), so any distributed combine is pure overhead here:
    - a sort-based ``groupby().aggregate()`` shuffle costs ~65 s of
      CPU for 8,794 partial rows and its all-to-all reservation
      starves the expensive map op (26.3 s vs 16.5 s measured span);
    - even a fusion-separated bundling ``map_batches`` combine level
      adds an operator reservation worth ~3.5 s on a 14 s run;
    - and a NON-separated combine level is a trap: Ray fuses the whole
      task chain into one op, so its large ``batch_size`` becomes the
      fused op's min-rows-per-bundle and collapses parallelism to
      n_rows/batch_size tasks (measured 70 s vs 14 s).
    The driver fold processes each ~45-row partial block as it
    streams in and compacts whenever the buffer tops 64k rows, so
    driver memory is bounded by groups + 64k rows regardless of
    corpus size (at 100 TB / ~1M blocks: ~45M tiny rows trickle to
    the driver over the life of the job — a few KB/s)."""
    slim = annotated_ds.select_columns(
        ["lang_summary", "keep", "drop_reason", "text_bytes", "n_pii"])
    partial = slim.map_batches(partial_metrics, batch_format="pyarrow")
    buf: list[pa.Table] = [EMPTY_METRICS]
    buffered = 0
    for b in partial.iter_batches(batch_format="pyarrow", batch_size=None):
        buf.append(b)
        buffered += len(b)
        if buffered >= 65536:
            buf = [combine_metrics(pa.concat_tables(buf))]
            buffered = len(buf[0])
    return combine_metrics(pa.concat_tables(buf)) \
        .sort_by([(k, "ascending") for k in METRIC_KEYS]).to_pandas()
