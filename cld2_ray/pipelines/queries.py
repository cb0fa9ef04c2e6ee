"""Driver-facing query registry: Ray pipelines + DuckDB oracle SQL.

Every SQL-checked query here is written twice — once Ray-Data-first,
once as ANSI SQL over the same parquet views — with IDENTICAL output
column names and value semantics (the driver hash-compares them at
sf=0.01). Tokenization/regex contracts shared with the SQL live in
cld2_ray.functions.textstats / quality / scrub.

Non-SQL-expressible operators (langid, MinHash-LSH, SimHash, IVF-ANN,
the flagship pages pipeline) register without oracle SQL — the driver
records rows-only checks for them.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from cld2_ray.functions.quality import (
    MAX_DUP_LINE_RATIO, MAX_MEAN_WORD_LEN, MAX_SYMBOL_WORD_RATIO,
    MIN_ALPHA_WORD_RATIO, MIN_MEAN_WORD_LEN, MIN_SENTENCES, MIN_WORDS)
from cld2_ray.functions.textstats import (BPE_TOKEN_PATTERN,
                                          TRIM_CHARS)

STOPWORD_LIST = ["the", "of", "and", "to", "in", "a", "is", "that",
                 "for", "it", "with", "as", "on", "by"]


def _read(sf_dir: str, table: str, columns=None):
    import ray.data as rd
    return rd.read_parquet(os.path.join(sf_dir, f"{table}.parquet"),
                           columns=columns)


# --------------------------------------------------------------------------
# documents: counting / stats / dedup / scrub
# --------------------------------------------------------------------------

def q_lang_counts(sf_dir):
    from ray.data.aggregate import Count, Sum
    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    return ds.groupby("lang").aggregate(
        Count(alias_name="n_docs"), Sum("n_chars", alias_name="total_chars"))


SQL_LANG_COUNTS = """
SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS total_chars
FROM documents GROUP BY lang
"""


def q_source_lang_matrix(sf_dir):
    from ray.data.aggregate import Count
    ds = _read(sf_dir, "documents", ["source", "lang"])
    return ds.groupby(["source", "lang"]).aggregate(Count(alias_name="n_docs"))


SQL_SOURCE_LANG_MATRIX = """
SELECT source, lang, CAST(count(*) AS BIGINT) AS n_docs
FROM documents GROUP BY source, lang
"""


def q_token_stats(sf_dir):
    from cld2_ray.functions.textstats import count_tokens
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def stats(df: pd.DataFrame) -> pd.DataFrame:
        t = count_tokens(df["text"])
        return pd.DataFrame({"doc_id": df["doc_id"],
                             "n_ws_tokens": t.n_ws_tokens,
                             "n_bpe_tokens": t.n_bpe_tokens,
                             "n_chars": df["text"].fillna("").str.len()
                             .astype(np.int64)})
    return ds.map_batches(stats, batch_format="pandas", batch_size=None)


def q_gopher_repetition(sf_dir):
    """Gopher/MassiveText n-gram repetition filters (Rae et al. 2021
    §A1.1): most-frequent-bigram mass and duplicated-trigram token
    coverage per document, in exact-integer form (functions/
    textstats.gopher_repetition). Map-only — no shuffle; the
    fractions the paper thresholds are top2_chars/total_chars and
    dup3_cov_tokens/n_tokens."""
    from cld2_ray.functions.textstats import gopher_repetition
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def rep(df: pd.DataFrame) -> pd.DataFrame:
        out = gopher_repetition(df["text"])
        out.insert(0, "doc_id", df["doc_id"])
        return out
    return ds.map_batches(rep, batch_format="pandas", batch_size=None)


SQL_GOPHER_REPETITION = """
WITH toks AS (
  SELECT doc_id, CASE WHEN trim(coalesce(text, '')) = ''
         THEN CAST([] AS VARCHAR[])
         ELSE string_split_regex(trim(coalesce(text, '')), '\\s+') END AS t
  FROM documents
), base AS (
  SELECT doc_id, len(t) AS n_tokens,
         -- array_to_string([], ' ') is NULL, not '' (empty docs)
         length(coalesce(array_to_string(t, ' '), '')) AS total_chars, t
  FROM toks
), bg AS (
  SELECT doc_id, t[i] || ' ' || t[i+1] AS g
  FROM base, LATERAL (SELECT unnest(generate_series(1, len(t) - 1)) AS i) s
  WHERE len(t) >= 2
), bgc AS (
  SELECT doc_id, g, count(*) AS c FROM bg GROUP BY doc_id, g
), bgt AS (
  SELECT doc_id, c, c * length(g) AS cl FROM bgc
  QUALIFY c = max(c) OVER (PARTITION BY doc_id)
), top2 AS (
  SELECT doc_id, max(c) AS top2_count, max(cl) AS top2_chars
  FROM bgt GROUP BY doc_id
), tg AS (
  SELECT doc_id, i, t[i] || ' ' || t[i+1] || ' ' || t[i+2] AS g
  FROM base, LATERAL (SELECT unnest(generate_series(1, len(t) - 2)) AS i) s
  WHERE len(t) >= 3
), tgd AS (
  SELECT doc_id, g FROM tg GROUP BY doc_id, g HAVING count(*) >= 2
), marked AS (
  SELECT tg.doc_id, tg.i FROM tg JOIN tgd USING (doc_id, g)
), dup3 AS (
  SELECT doc_id, count(*) AS dup3_windows FROM marked GROUP BY doc_id
), cov AS (
  SELECT doc_id, count(DISTINCT p) AS dup3_cov_tokens
  FROM marked, LATERAL (SELECT unnest(generate_series(i, i + 2)) AS p) q
  GROUP BY doc_id
)
SELECT b.doc_id,
       CAST(b.n_tokens AS BIGINT) AS n_tokens,
       CAST(b.total_chars AS BIGINT) AS total_chars,
       CAST(coalesce(t2.top2_count, 0) AS BIGINT) AS top2_count,
       CAST(coalesce(t2.top2_chars, 0) AS BIGINT) AS top2_chars,
       CAST(coalesce(d.dup3_windows, 0) AS BIGINT) AS dup3_windows,
       CAST(coalesce(c.dup3_cov_tokens, 0) AS BIGINT) AS dup3_cov_tokens
FROM base b
LEFT JOIN top2 t2 USING (doc_id)
LEFT JOIN dup3 d USING (doc_id)
LEFT JOIN cov c USING (doc_id)
"""


# C4's bad-words page rule, demonstrated with a fixed small list that
# actually fires on the synthetic corpus vocabulary. Production use:
# ray.put the real list once, read the ObjectRef in each actor.
BLOCKLIST_WORDS = ("slow", "stream", "vector")


def q_blocklist_filter(sf_dir):
    """Bad-words page filter (Raffel et al. 2020 §2.2: drop any page
    containing a blocklisted word). One Arrow split + is_in over the
    flattened token column per batch (functions/quality.
    blocklist_filter); the list rides the task closure (broadcast
    once), the corpus side never shuffles."""
    from cld2_ray.functions.quality import blocklist_filter
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        out = blocklist_filter(df["text"], BLOCKLIST_WORDS)
        out.insert(0, "doc_id", df["doc_id"])
        return out
    return ds.map_batches(f, batch_format="pandas", batch_size=None)


SQL_BLOCKLIST_FILTER = """
WITH toks AS (
  SELECT doc_id, CASE WHEN trim(coalesce(text, '')) = ''
         THEN CAST([] AS VARCHAR[])
         ELSE string_split_regex(trim(coalesce(text, '')), '\\s+') END AS t
  FROM documents
), m AS (
  SELECT doc_id,
         len(list_filter(t, w ->
             regexp_replace(lower(w), '^[^a-z0-9]+|[^a-z0-9]+$', '', 'g')
             IN ('slow', 'stream', 'vector')))
           AS n_blocked
  FROM toks
)
SELECT doc_id, CAST(n_blocked AS BIGINT) AS n_blocked_tokens,
       n_blocked = 0 AS keep
FROM m
"""


def _derived_lines(t: pa.Table) -> pa.Array:
    """Deterministic multi-line webpage text per doc (documents.text is
    single-line): tokens regrouped into lines of 5 + doc_id % 4 words,
    with line endings, a "javascript" word, and lorem-ipsum / brace
    page markers injected on fixed doc_id/line residues so every
    c4_line_filter rule fires somewhere in the corpus. Mirrored
    token-for-token in SQL_C4_LINE_FILTER's derivation CTEs (the hash
    check proves the line FILTER ran, not the derivation formula)."""
    from cld2_ray.functions.textstats import TRIM_CHARS, _WS
    d = t["doc_id"].to_numpy(zero_copy_only=False)
    texts = t["text"].to_pylist()
    out = []
    for did, s in zip(d, texts):
        did = int(did)
        s = (s or "").strip(TRIM_CHARS)
        toks = _WS.split(s) if s else []
        L = 5 + did % 4
        lines = []
        for j in range((len(toks) + L - 1) // L):
            body = " ".join(toks[j * L:(j + 1) * L])
            if (did * 3 + j) % 5 == 0:
                body += " javascript"
            body += ["", ".", "!", "?"][(did + j) % 4]
            lines.append(body)
        if did % 97 == 0:
            lines.append("lorem ipsum dolor sit amet.")
        if did % 89 == 0:
            lines.append("include { some source } here")
        out.append("\n".join(lines))
    return pa.array(out, type=pa.string())


def q_c4_line_filter(sf_dir):
    """C4 line-level cleaning (Raffel et al. 2020 §2.2): per-line
    javascript / word-count / terminal-punctuation rules, then the
    page verdict (lorem-ipsum, brace, <3 sentences) on the retained
    text (functions/quality.c4_line_filter — Arrow RE2 kernels over
    the exploded line table). Map-only, no shuffle; kept_text is the
    cleaned page."""
    from cld2_ray.functions.quality import c4_line_filter
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        ml = _derived_lines(t)
        out = c4_line_filter(pd.Series(ml.to_pylist()))
        out.insert(0, "doc_id", t["doc_id"].to_numpy(zero_copy_only=False))
        return pa.Table.from_pandas(out, preserve_index=False)
    return ds.map_batches(f, batch_format="pyarrow", batch_size=None)


SQL_C4_LINE_FILTER = """
WITH toks AS (
  SELECT doc_id, CASE WHEN trim(coalesce(text, '')) = ''
         THEN CAST([] AS VARCHAR[])
         ELSE string_split_regex(trim(coalesce(text, '')), '\\s+') END AS t
  FROM documents
), base AS (
  SELECT doc_id, t, len(t) AS n, 5 + doc_id % 4 AS L FROM toks
), lj AS (
  SELECT doc_id, t, n, L,
         unnest(generate_series(0,
             CAST(ceil(n / (1.0 * L)) AS BIGINT) - 1)) AS j
  FROM base WHERE n > 0
), body AS (
  SELECT doc_id, j,
         array_to_string(list_slice(t, j * L + 1, least((j + 1) * L, n)), ' ')
         || CASE WHEN (doc_id * 3 + j) % 5 = 0 THEN ' javascript'
                 ELSE '' END
         || CASE (doc_id + j) % 4 WHEN 1 THEN '.' WHEN 2 THEN '!'
                 WHEN 3 THEN '?' ELSE '' END AS line
  FROM lj
), withex AS (
  SELECT doc_id, line, j FROM body
  UNION ALL SELECT doc_id, 'lorem ipsum dolor sit amet.', 1000000
    FROM base WHERE doc_id % 97 = 0
  UNION ALL SELECT doc_id, 'include { some source } here', 1000001
    FROM base WHERE doc_id % 89 = 0
  UNION ALL SELECT doc_id, '', 0
    FROM base WHERE n = 0 AND doc_id % 97 != 0 AND doc_id % 89 != 0
), page AS (
  SELECT doc_id, string_agg(line, chr(10) ORDER BY j) AS text
  FROM withex GROUP BY doc_id
),
-- derivation above; the mirrored FILTER below
lines2 AS (
  SELECT doc_id, trim(ls[k]) AS l, k FROM (
    SELECT doc_id, string_split(text, chr(10)) AS ls,
           unnest(generate_series(1, len(string_split(text, chr(10))))) AS k
    FROM page)
), flags AS (
  SELECT doc_id, l, k,
         regexp_matches(lower(l), '(^|[^a-z])javascript([^a-z]|$)') AS js,
         len(regexp_extract_all(l, '\\S+')) AS w,
         regexp_matches(l, '[.!?"”]$') AS ok
  FROM lines2
), cl AS (
  SELECT doc_id, l, k, js,
         (NOT js AND w < 5) AS few,
         (NOT js AND w >= 5 AND NOT ok) AS np_,
         (NOT js AND w >= 5 AND ok) AS keepl
  FROM flags
), agg AS (
  SELECT doc_id,
         count(*) AS n_lines,
         sum(CASE WHEN keepl THEN 1 ELSE 0 END) AS n_kept_lines,
         sum(CASE WHEN js THEN 1 ELSE 0 END) AS drop_javascript,
         sum(CASE WHEN few THEN 1 ELSE 0 END) AS drop_few_words,
         sum(CASE WHEN np_ THEN 1 ELSE 0 END) AS drop_no_punct,
         coalesce(string_agg(CASE WHEN keepl THEN l END,
                             chr(10) ORDER BY k), '') AS kept_text
  FROM cl GROUP BY doc_id
), verdict AS (
  SELECT a.doc_id, a.n_lines, a.n_kept_lines, a.drop_javascript,
         a.drop_few_words, a.drop_no_punct, a.kept_text,
         len(regexp_extract_all(a.kept_text, '[.!?]')) AS n_sentences,
         contains(lower(p.text), 'lorem ipsum') AS lorem,
         contains(p.text, '{') AS brace
  FROM agg a JOIN page p USING (doc_id)
)
SELECT doc_id,
  CAST(n_lines AS BIGINT) AS n_lines,
  CAST(n_kept_lines AS BIGINT) AS n_kept_lines,
  CAST(drop_javascript AS BIGINT) AS drop_javascript,
  CAST(drop_few_words AS BIGINT) AS drop_few_words,
  CAST(drop_no_punct AS BIGINT) AS drop_no_punct,
  CAST(n_sentences AS BIGINT) AS n_sentences,
  CAST(length(kept_text) AS BIGINT) AS kept_chars,
  (NOT lorem AND NOT brace AND n_sentences >= 3) AS keep,
  CASE WHEN lorem THEN 'lorem_ipsum' WHEN brace THEN 'brace'
       WHEN n_sentences < 3 THEN 'too_few_sentences' ELSE '' END
    AS drop_reason,
  kept_text
FROM verdict
"""


# Gopher repetition thresholds (Rae et al. 2021 Table A1), as integer
# percent numerators for exact cross-multiplied comparisons:
# fraction > th/100  <=>  chars * 100 > th * total_chars
GOPHER_TOP_THRESH = {2: 20, 3: 18, 4: 16}
GOPHER_DUP_THRESH = {5: 15, 6: 14, 7: 13, 8: 12, 9: 11, 10: 10}

# the composite pipeline's blocklist: a RARE corpus word, so the C4 /
# Gopher rules carry most verdicts and the blocklist drops a visible
# handful (q_blocklist_filter above demonstrates the high-hit case)
WEBTEXT_BLOCKLIST = ("dup",)


def webtext_verdict(cleaned: pd.Series,
                    blocklist=WEBTEXT_BLOCKLIST) -> pd.DataFrame:
    """Blocklist + Gopher-threshold verdict over already-line-cleaned
    text (the post-C4 half of q_webtext_clean, factored out so the
    dup-{5..10} branches are unit-testable without the derivation
    layer). Returns n_tokens, keep, drop_reason ('' | 'blocklist' |
    'top_{2,3,4}gram' | 'dup_{5..10}gram')."""
    from cld2_ray.functions.quality import blocklist_filter
    from cld2_ray.functions.textstats import (
        gopher_repetition_full, ws_token_table)
    tok = ws_token_table(cleaned)      # tokenize ONCE for both kernels
    bl = blocklist_filter(cleaned, blocklist, _tok=tok)
    gf = gopher_repetition_full(cleaned, _tok=tok)
    tc = gf["total_chars"].to_numpy()
    reason = np.full(len(cleaned), "", dtype=object)
    # assign in REVERSE priority so higher-priority rules overwrite
    for n in (10, 9, 8, 7, 6, 5):
        bad = gf[f"dup{n}_cov_chars"].to_numpy() * 100 \
            > GOPHER_DUP_THRESH[n] * tc
        reason[bad] = f"dup_{n}gram"
    for n in (4, 3, 2):
        bad = gf[f"top{n}_chars"].to_numpy() * 100 \
            > GOPHER_TOP_THRESH[n] * tc
        reason[bad] = f"top_{n}gram"
    reason[~bl["keep"].to_numpy()] = "blocklist"
    return pd.DataFrame({"n_tokens": gf["n_tokens"],
                         "keep": reason == "",
                         "drop_reason": reason})


def q_webtext_clean(sf_dir):
    """The quality_filter tier end-to-end: C4 line-level cleaning →
    bad-words blocklist → full-Gopher repetition thresholds, all over
    the CLEANED text, in ONE map-only pass per batch (zero shuffle —
    at 100 TB this is the embarrassingly-parallel front of the
    pipeline; every stage is the already-tested operator kernel).
    drop_reason priority: the C4 page verdict, then blocklist, then
    top-{2,3,4}-gram mass, then dup-{5..10}-gram coverage."""
    from cld2_ray.functions.quality import c4_line_filter
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        ml = pd.Series(_derived_lines(t).to_pylist())
        c4 = c4_line_filter(ml)
        v = webtext_verdict(c4["kept_text"])
        reason = v["drop_reason"].to_numpy()
        c4r = c4["drop_reason"].to_numpy()
        reason = np.where(c4r != "", c4r, reason)
        return pa.Table.from_pandas(pd.DataFrame({
            "doc_id": t["doc_id"].to_numpy(zero_copy_only=False),
            "n_kept_lines": c4["n_kept_lines"],
            "n_tokens": v["n_tokens"],
            "kept_chars": c4["kept_chars"],
            "keep": reason == "",
            "drop_reason": reason}), preserve_index=False)
    return ds.map_batches(f, batch_format="pyarrow", batch_size=None)


# domain blocklist for q_url_blocklist: residue-picked canonical hosts
# (every 100th site id), so the filter provably drops a deterministic
# slice. Production shape: the real list (Cloudflare/UT1-style, ~1e6
# domains) is ray.put once and read per actor.
BLOCKED_DOMAINS = tuple(f"site{i}.example.com" for i in range(0, 500, 100))


def q_url_blocklist(sf_dir):
    """URL/domain blocklist filter (the RefinedWeb-style URL filter
    slot: drop documents whose registered domain is on a blocklist,
    before any content processing). Pure pyarrow: canonical
    registered_domain (functions/urltools) + one is_in against the
    broadcast list. Map-only — the cheapest possible first gate at
    100 TB because it prunes on the URL column alone (no text read:
    note the column pruning below)."""
    from cld2_ray.functions.urltools import registered_domain
    ds = _read(sf_dir, "documents", ["doc_id"])

    def f(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        dom = registered_domain(_derived_urls(t))
        hit = pc.is_in(dom, value_set=pa.array(BLOCKED_DOMAINS,
                                               type=pa.string()))
        return pa.table({"doc_id": t["doc_id"], "domain": dom,
                         "keep": pc.invert(hit)})
    return ds.map_batches(f, batch_format="pyarrow", batch_size=None)


SQL_URL_BLOCKLIST = """
SELECT doc_id,
       'site' || (doc_id % 500) || '.example.com' AS domain,
       (doc_id % 500) % 100 != 0 AS keep
FROM documents
"""


SEQ_TOKENS = 256          # pack target: tokens per training sequence
PACK_BUCKET_W = 4096      # doc_ids per scan bucket (see scale note)


def q_pack_sequences(sf_dir):
    """Training-sequence packing (the tokenize-and-pack step of an LLM
    data pipeline): documents in doc_id order are laid head-to-tail
    and cut into SEQ_TOKENS-token training sequences; each doc reports
    the shard its first token lands in and its offset within it —
    i.e. a GLOBAL prefix sum of token counts, computed distributed:

    pass 1 (streaming): per-doc token counts -> per-bucket
      (doc_id // PACK_BUCKET_W) partial sums — a tiny groupby
      (corpus_docs / W rows) whose exclusive prefix scan runs on the
      driver and is broadcast back in the task closure;
    pass 2 (streaming): co-partition by bucket, sort by doc_id inside
      each group, local cumsum + the bucket's base offset.

    Scale notes: the driver table is bounded by W — at 10^12 docs set
    W ~ 10^7 so the scan table stays ~10^5 rows; counts are
    recomputed in pass 2 rather than materializing a corpus-length
    intermediate (one extra tokenize pass beats 10^12 rows of object
    store). The packing CONTRACT (doc_id order, exclusive prefix) is
    what the SQL window mirror checks."""
    from ray.data.aggregate import Sum
    from cld2_ray.functions.textstats import ws_token_table
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def counts(t: pa.Table) -> pa.Table:
        _f, _p, cnt = ws_token_table(pd.Series(t["text"].to_pylist()))
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({"doc_id": t["doc_id"],
                         "n_tokens": pa.array(cnt, type=pa.int64()),
                         "part_": pa.array(d // PACK_BUCKET_W,
                                           type=pa.int64())})

    cds = ds.map_batches(counts, batch_format="pyarrow", batch_size=None)
    sums = cds.groupby("part_").aggregate(
        Sum("n_tokens", alias_name="tok")).to_pandas()
    sums = sums.sort_values("part_")
    prev = np.concatenate(
        [[0], np.cumsum(sums["tok"].to_numpy(np.int64))[:-1]])
    base = dict(zip(sums["part_"].tolist(), prev.tolist()))

    def pack(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id")
        nt = g["n_tokens"].to_numpy(np.int64)
        start = int(base[int(g["part_"].iloc[0])])
        prevs = start + np.concatenate([[0], np.cumsum(nt)[:-1]])
        return pd.DataFrame({
            "doc_id": g["doc_id"].to_numpy(np.int64),
            "n_tokens": nt,
            "shard_id": (prevs // SEQ_TOKENS).astype(np.int64),
            "shard_offset": (prevs % SEQ_TOKENS).astype(np.int64)})

    return cds.groupby("part_").map_groups(pack, batch_format="pandas")


SQL_PACK_SEQUENCES = """
WITH c AS (
  SELECT doc_id,
         CASE WHEN trim(coalesce(text, '')) = '' THEN 0
              ELSE len(string_split_regex(trim(coalesce(text, '')),
                                          '\\s+')) END AS n_tokens
  FROM documents
), s AS (
  SELECT doc_id, n_tokens,
         coalesce(sum(n_tokens) OVER (ORDER BY doc_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
           AS prev
  FROM c
)
SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
       CAST(prev // 256 AS BIGINT) AS shard_id,
       CAST(prev % 256 AS BIGINT) AS shard_offset
FROM s
"""


def _derived_dup_lines(t: pa.Table) -> pa.Array:
    """Multi-line text with guaranteed duplicate lines: tokens grouped
    into 4-word lines; every line j with (doc_id + j) % 3 == 0 is
    emitted twice (adjacent repeat). Mirrored in
    SQL_LINE_DEDUP's derivation CTEs."""
    from cld2_ray.functions.textstats import TRIM_CHARS, _WS
    d = t["doc_id"].to_numpy(zero_copy_only=False)
    texts = t["text"].to_pylist()
    out = []
    for did, s in zip(d, texts):
        did = int(did)
        s = (s or "").strip(TRIM_CHARS)
        toks = _WS.split(s) if s else []
        lines = []
        for j in range((len(toks) + 3) // 4):
            body = " ".join(toks[j * 4:(j + 1) * 4])
            lines.append(body)
            if (did + j) % 3 == 0:
                lines.append(body)
        out.append("\n".join(lines))
    return pa.array(out, type=pa.string())


def q_line_dedup(sf_dir):
    """Within-document duplicate-line REMOVAL (the removal form of
    Gopher's duplicate-line filters): repeats of earlier non-empty
    lines are dropped, first occurrences kept in order, and the
    Gopher dup-line numerators (count + chars of the removed repeats)
    returned beside the cleaned text (functions/quality.
    dedup_lines_within_doc — Arrow split/dictionary-encode, one
    np.unique, C++ re-join). Map-only, no shuffle."""
    from cld2_ray.functions.quality import dedup_lines_within_doc
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        ml = _derived_dup_lines(t)
        out = dedup_lines_within_doc(pd.Series(ml.to_pylist()))
        out.insert(0, "doc_id", t["doc_id"].to_numpy(zero_copy_only=False))
        return pa.Table.from_pandas(out, preserve_index=False)
    return ds.map_batches(f, batch_format="pyarrow", batch_size=None)


SQL_LINE_DEDUP = """
WITH toks AS (
  SELECT doc_id, CASE WHEN trim(coalesce(text, '')) = ''
         THEN CAST([] AS VARCHAR[])
         ELSE string_split_regex(trim(coalesce(text, '')), '\\s+') END AS t
  FROM documents
), base AS (
  SELECT doc_id, t, len(t) AS n FROM toks
), lj AS (
  SELECT doc_id, t, n,
         unnest(generate_series(0,
             CAST(ceil(n / 4.0) AS BIGINT) - 1)) AS j
  FROM base WHERE n > 0
), body AS (
  SELECT doc_id, j,
         array_to_string(list_slice(t, j * 4 + 1, least((j + 1) * 4, n)),
                         ' ') AS line
  FROM lj
), withdup AS (
  SELECT doc_id, line, j * 2 AS ord FROM body
  UNION ALL
  SELECT doc_id, line, j * 2 + 1 AS ord FROM body
  WHERE (doc_id + j) % 3 = 0
), page AS (
  SELECT doc_id, coalesce(string_agg(line, chr(10) ORDER BY ord), '')
           AS text
  FROM base LEFT JOIN withdup USING (doc_id) GROUP BY doc_id
),
-- derivation above; the mirrored line-dedup below
lines2 AS (
  SELECT doc_id, ls[k] AS l, k FROM (
    SELECT doc_id, string_split(text, chr(10)) AS ls,
           unnest(generate_series(1, len(string_split(text, chr(10))))) AS k
    FROM page)
), marked AS (
  SELECT doc_id, l, k,
         (l != '' AND k > min(k) OVER (PARTITION BY doc_id, l)) AS dropped
  FROM lines2
)
SELECT doc_id,
  CAST(count(*) AS BIGINT) AS n_lines,
  CAST(sum(CASE WHEN dropped THEN 1 ELSE 0 END) AS BIGINT)
    AS dup_line_count,
  CAST(coalesce(sum(CASE WHEN dropped THEN length(l) END), 0) AS BIGINT)
    AS dup_line_chars,
  coalesce(string_agg(CASE WHEN NOT dropped THEN l END,
                      chr(10) ORDER BY k), '') AS cleaned_text
FROM marked GROUP BY doc_id
"""


def q_gopher_full(sf_dir):
    """The FULL Gopher repetition set (Rae et al. 2021 Table A1):
    most-frequent-{2,3,4}-gram mass plus duplicated-{5..10}-gram
    character coverage per document, exact-integer form
    (functions/textstats.gopher_repetition_full). Map-only — no
    shuffle; the published fractions are topN_chars/total_chars and
    dupN_cov_chars/total_chars."""
    from cld2_ray.functions.textstats import gopher_repetition_full
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def rep(df: pd.DataFrame) -> pd.DataFrame:
        out = gopher_repetition_full(df["text"])
        out.insert(0, "doc_id", df["doc_id"])
        return out
    return ds.map_batches(rep, batch_format="pandas", batch_size=None)


SQL_GOPHER_FULL = """
WITH toks AS (
  SELECT doc_id, CASE WHEN trim(coalesce(text, '')) = ''
         THEN CAST([] AS VARCHAR[])
         ELSE string_split_regex(trim(coalesce(text, '')), '\\s+') END AS t
  FROM documents
), base AS (
  SELECT doc_id, len(t) AS n_tokens,
         length(coalesce(array_to_string(t, ' '), '')) AS total_chars, t
  FROM toks
), tns AS (SELECT unnest([2, 3, 4]) AS n
), twi AS (
  SELECT doc_id, n, t,
         unnest(generate_series(1, len(t) - n + 1)) AS i
  FROM base, tns WHERE len(t) >= n
), tw AS (
  SELECT doc_id, n, array_to_string(list_slice(t, i, i + n - 1), ' ') AS g
  FROM twi
), twc AS (
  SELECT doc_id, n, g, count(*) AS c FROM tw GROUP BY doc_id, n, g
), twt AS (
  SELECT doc_id, n, c, c * length(g) AS cl FROM twc
  QUALIFY c = max(c) OVER (PARTITION BY doc_id, n)
), tops AS (
  SELECT doc_id, n, max(c) AS tc, max(cl) AS tch
  FROM twt GROUP BY doc_id, n
), dns AS (SELECT unnest([5, 6, 7, 8, 9, 10]) AS n
), dwi AS (
  SELECT doc_id, n, t,
         unnest(generate_series(1, len(t) - n + 1)) AS i
  FROM base, dns WHERE len(t) >= n
), dw AS (
  SELECT doc_id, n, i,
         array_to_string(list_slice(t, i, i + n - 1), ' ') AS g
  FROM dwi
), dg AS (
  SELECT doc_id, n, g FROM dw GROUP BY doc_id, n, g HAVING count(*) >= 2
), mk AS (
  SELECT dw.doc_id, dw.n, dw.i FROM dw JOIN dg USING (doc_id, n, g)
), cov AS (
  SELECT DISTINCT doc_id, n, p FROM (
    SELECT doc_id, n, unnest(generate_series(i, i + n - 1)) AS p FROM mk)
), tok AS (
  SELECT doc_id, p, length(t[p]) AS wl FROM (
    SELECT doc_id, t, unnest(generate_series(1, len(t))) AS p
    FROM base WHERE len(t) >= 1)
), covc AS (
  SELECT c.doc_id, c.n, sum(k.wl) AS ch
  FROM cov c JOIN tok k ON c.doc_id = k.doc_id AND c.p = k.p
  GROUP BY c.doc_id, c.n
)
SELECT b.doc_id,
  CAST(b.n_tokens AS BIGINT) AS n_tokens,
  CAST(b.total_chars AS BIGINT) AS total_chars,
  CAST(coalesce(max(CASE WHEN tp.n = 2 THEN tp.tc END), 0) AS BIGINT)
    AS top2_count,
  CAST(coalesce(max(CASE WHEN tp.n = 2 THEN tp.tch END), 0) AS BIGINT)
    AS top2_chars,
  CAST(coalesce(max(CASE WHEN tp.n = 3 THEN tp.tc END), 0) AS BIGINT)
    AS top3_count,
  CAST(coalesce(max(CASE WHEN tp.n = 3 THEN tp.tch END), 0) AS BIGINT)
    AS top3_chars,
  CAST(coalesce(max(CASE WHEN tp.n = 4 THEN tp.tc END), 0) AS BIGINT)
    AS top4_count,
  CAST(coalesce(max(CASE WHEN tp.n = 4 THEN tp.tch END), 0) AS BIGINT)
    AS top4_chars,
  CAST(coalesce(max(CASE WHEN cc.n = 5 THEN cc.ch END), 0) AS BIGINT)
    AS dup5_cov_chars,
  CAST(coalesce(max(CASE WHEN cc.n = 6 THEN cc.ch END), 0) AS BIGINT)
    AS dup6_cov_chars,
  CAST(coalesce(max(CASE WHEN cc.n = 7 THEN cc.ch END), 0) AS BIGINT)
    AS dup7_cov_chars,
  CAST(coalesce(max(CASE WHEN cc.n = 8 THEN cc.ch END), 0) AS BIGINT)
    AS dup8_cov_chars,
  CAST(coalesce(max(CASE WHEN cc.n = 9 THEN cc.ch END), 0) AS BIGINT)
    AS dup9_cov_chars,
  CAST(coalesce(max(CASE WHEN cc.n = 10 THEN cc.ch END), 0) AS BIGINT)
    AS dup10_cov_chars
FROM base b
LEFT JOIN tops tp USING (doc_id)
LEFT JOIN covc cc USING (doc_id)
GROUP BY b.doc_id, b.n_tokens, b.total_chars
"""


# Composed oracle: the three operator SQL mirrors chained over the
# CLEANED text (c4.kept_text), exactly like the Ray pass. The gopher /
# blocklist mirrors read "FROM documents" in exactly one place each —
# re-pointed at the cleaned CTE by replace() (kept out of f-strings:
# the C4 SQL contains literal braces).
SQL_WEBTEXT_CLEAN = (
    "WITH c4 AS (" + SQL_C4_LINE_FILTER + "),\n"
    "cleaned AS (SELECT doc_id, kept_text AS text FROM c4),\n"
    "gop AS ("
    + SQL_GOPHER_FULL.replace("FROM documents", "FROM cleaned") + "),\n"
    "bl AS ("
    + SQL_BLOCKLIST_FILTER
        .replace("FROM documents", "FROM cleaned")
        .replace("'slow', 'stream', 'vector'", "'dup'")
    + "),\n"
    """verdict AS (
  SELECT c4.doc_id,
    CAST(c4.n_kept_lines AS BIGINT) AS n_kept_lines,
    CAST(gop.n_tokens AS BIGINT) AS n_tokens,
    CAST(c4.kept_chars AS BIGINT) AS kept_chars,
    CASE WHEN c4.drop_reason != '' THEN c4.drop_reason
         WHEN NOT bl.keep THEN 'blocklist'
         WHEN gop.top2_chars * 100 > 20 * gop.total_chars THEN 'top_2gram'
         WHEN gop.top3_chars * 100 > 18 * gop.total_chars THEN 'top_3gram'
         WHEN gop.top4_chars * 100 > 16 * gop.total_chars THEN 'top_4gram'
         WHEN gop.dup5_cov_chars * 100 > 15 * gop.total_chars
           THEN 'dup_5gram'
         WHEN gop.dup6_cov_chars * 100 > 14 * gop.total_chars
           THEN 'dup_6gram'
         WHEN gop.dup7_cov_chars * 100 > 13 * gop.total_chars
           THEN 'dup_7gram'
         WHEN gop.dup8_cov_chars * 100 > 12 * gop.total_chars
           THEN 'dup_8gram'
         WHEN gop.dup9_cov_chars * 100 > 11 * gop.total_chars
           THEN 'dup_9gram'
         WHEN gop.dup10_cov_chars * 100 > 10 * gop.total_chars
           THEN 'dup_10gram'
         ELSE '' END AS drop_reason
  FROM c4 JOIN gop USING (doc_id) JOIN bl USING (doc_id)
)
SELECT doc_id, n_kept_lines, n_tokens, kept_chars,
       drop_reason = '' AS keep, drop_reason
FROM verdict
""")


SQL_TOKEN_STATS = f"""
SELECT doc_id,
  CAST(CASE WHEN trim(text) = '' THEN 0
       ELSE len(string_split_regex(trim(text), '\\s+')) END AS BIGINT)
    AS n_ws_tokens,
  CAST(len(regexp_extract_all(text, '{BPE_TOKEN_PATTERN}')) AS BIGINT)
    AS n_bpe_tokens,
  CAST(length(text) AS BIGINT) AS n_chars
FROM documents
"""


def q_fingerprint(sf_dir):
    from cld2_ray.functions.textstats import fingerprint
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def fp(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": df["doc_id"],
                             "content_md5": fingerprint(df["text"])})
    return ds.map_batches(fp, batch_format="pandas", batch_size=None)


SQL_FINGERPRINT = "SELECT doc_id, md5(text) AS content_md5 FROM documents"


def q_exact_dedup(sf_dir):
    from cld2_ray.pipelines.dedup import exact_dedup
    return exact_dedup(_read(sf_dir, "documents", ["doc_id", "text"]))


SQL_EXACT_DEDUP = """
SELECT md5(text) AS content_md5, CAST(min(doc_id) AS BIGINT) AS keep_id,
       CAST(count(*) AS BIGINT) AS n_copies
FROM documents GROUP BY md5(text)
"""


def q_substring_dedup(sf_dir):
    """Substring-level (stride-1 rolling-window) exact dedup — the
    Lee-et-al-2022 suffix-array family, windowed so it distributes
    (pipelines/dedup.substring_dedup). Runs mode="join" — the 100-TB
    pass-2 path where the duplicate-window set never touches the
    driver — so the driver gate hash-verifies the distributed
    membership join (broadcast == join is additionally pinned in
    tests/test_dedup_ann.py::TestDistributedPass2)."""
    from cld2_ray.pipelines.dedup import substring_dedup
    return substring_dedup(_read(sf_dir, "documents", ["doc_id", "text"]),
                           mode="join")


SQL_SUBSTRING_DEDUP = """
WITH toks AS (
  SELECT doc_id, string_split(coalesce(text, ''), ' ') AS w FROM documents
), wtok AS (
  SELECT doc_id, unnest(w) AS wd, generate_subscripts(w, 1) AS gs FROM toks
), wins AS (
  SELECT doc_id, i AS start, md5(array_to_string(w[i:i+7], ' ')) AS h
  FROM toks, LATERAL (SELECT unnest(generate_series(1, len(w) - 7)) AS i) t
  WHERE len(w) >= 8
), dup AS (
  SELECT h FROM wins GROUP BY h HAVING count(*) >= 2
), marked AS (
  SELECT doc_id, start FROM wins WHERE h IN (SELECT h FROM dup)
), cov AS (
  SELECT doc_id, start, GREATEST(start, coalesce(max(start + 8) OVER (
      PARTITION BY doc_id ORDER BY start
      ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)) AS s_eff
  FROM marked
), agg AS (
  SELECT doc_id, count(*) AS n_dup_windows,
         CAST(sum(GREATEST(start + 8 - s_eff, 0)) AS BIGINT) AS dup_tokens
  FROM cov GROUP BY doc_id
), kept AS (
  SELECT w.doc_id, w.gs, w.wd FROM wtok w
  WHERE NOT EXISTS (SELECT 1 FROM marked m
                    WHERE m.doc_id = w.doc_id
                      AND w.gs BETWEEN m.start AND m.start + 7)
), clean AS (
  SELECT doc_id, string_agg(wd, ' ' ORDER BY gs) AS clean_text
  FROM kept GROUP BY doc_id
)
SELECT t.doc_id, CAST(len(t.w) AS BIGINT) AS n_tokens,
       coalesce(a.n_dup_windows, 0) AS n_dup_windows,
       coalesce(a.dup_tokens, 0) AS dup_tokens,
       coalesce(c.clean_text, '') AS clean_text
FROM toks t
LEFT JOIN agg a USING (doc_id)
LEFT JOIN clean c USING (doc_id)
"""


def q_segment_dedup(sf_dir):
    """C4-style corpus-wide duplicate-segment removal (reference
    analogue: the corpus-level line dedup of the C4/Gopher recipes;
    the keep-first rule mirrors exact_dedup's min-id survivor).
    mode="join" so the driver gate hash-verifies the distributed
    pass-2 (see q_substring_dedup)."""
    from cld2_ray.pipelines.dedup import segment_dedup
    return segment_dedup(_read(sf_dir, "documents", ["doc_id", "text"]),
                         mode="join")


SQL_SEGMENT_DEDUP = """
WITH w AS (
  SELECT doc_id,
         unnest(string_split(coalesce(text, ''), ' ')) AS wd,
         generate_subscripts(string_split(coalesce(text, ''), ' '), 1) AS gs
  FROM documents
), segs AS (
  SELECT doc_id, CAST(floor((gs - 1) / 10) AS INT) AS seg,
         string_agg(wd, ' ' ORDER BY gs) AS seg_text
  FROM w GROUP BY doc_id, seg
), stats AS (
  SELECT seg_text, count(*) AS cnt,
         min(doc_id * 1048576 + seg) AS keeper
  FROM segs GROUP BY seg_text
)
SELECT s.doc_id,
       coalesce(string_agg(
         CASE WHEN st.cnt < 2 OR s.doc_id * 1048576 + s.seg = st.keeper
              THEN s.seg_text END, ' ' ORDER BY s.seg), '') AS clean_text,
       CAST(sum(CASE WHEN st.cnt >= 2
                      AND s.doc_id * 1048576 + s.seg <> st.keeper
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_dropped
FROM segs s JOIN stats st USING (seg_text)
GROUP BY s.doc_id
"""


def q_source_quota(sf_dir, n: int = 10):
    """Per-source document cap (the per-domain quota of web-corpus
    recipes): keep the first ``n`` docs per source by doc_id. Shape:
    per-batch partial top-n per key, then a merge per HASH BUCKET of
    sources (64 buckets, vectorized groupby-head inside each) rather
    than per-source map_groups — source cardinality is unbounded at
    corpus scale (millions of domains) and per-group dispatch costs
    ~100us/group; the shuffle still carries at most n rows per
    (source, block)."""
    import zlib
    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def partial_top(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values("doc_id").groupby(
            "source", as_index=False).head(n)
        df["bucket_"] = [zlib.crc32(s.encode()) & 63 for s in df["source"]]
        return pa.Table.from_pandas(df, preserve_index=False)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values("doc_id").groupby(
            "source", as_index=False).head(n).drop(columns=["bucket_"])

    return ds.map_batches(partial_top, batch_format="pandas",
                          batch_size=None) \
        .groupby("bucket_").map_groups(merge, batch_format="pandas") \
        .select_columns(["source", "doc_id"])


SQL_SOURCE_QUOTA = """
SELECT source, doc_id FROM (
  SELECT source, doc_id,
         row_number() OVER (PARTITION BY source ORDER BY doc_id) AS rn
  FROM documents) t
WHERE rn <= 10 ORDER BY source, doc_id
"""


def q_tfidf_top5(sf_dir):
    """Per-document top-5 TF-IDF terms — the classic keyword-extraction
    op. Fully distributed: token explode -> per-(doc,token) tf ->
    token-df groupby -> LARGE x LARGE hash-shuffle join (tf rows x df
    table) -> per-doc top-5 via hash-bucketed vectorized head (no
    per-doc map_groups dispatch, no vocabulary broadcast).

    The idf is quantized to integer micros (floor(ln(n/df)*1e6 + 0.5))
    on BOTH the Ray and SQL sides, so score_u = tf * idf_u is pure
    int64 arithmetic and the ranking + value hash are deterministic —
    DuckDB's ln() differs from libm by ulps, so a raw double score
    would not be hash-stable (verified empirically for all df in
    1..n at every test scale)."""
    import ray

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    n_docs = ds.count()
    n_part = max(4, int(ray.cluster_resources().get("CPU", 8)) // 2)

    def explode_tf(t: pa.Table) -> pa.Table:
        # Arrow end to end: split/flatten/take plus Arrow's own C++
        # hash group_by for the per-(doc, token) counts — the pandas
        # explode materialized every token occurrence as a Python
        # string
        import pyarrow.compute as pc
        toks = pc.split_pattern(
            pc.coalesce(t["text"].combine_chunks(), pa.scalar("")), " ")
        lens = pc.list_value_length(toks).to_numpy()
        doc = pc.take(t["doc_id"].combine_chunks(),
                      pa.array(np.repeat(np.arange(len(lens)), lens)))
        g = pa.table({"doc_id": doc, "token": pc.list_flatten(toks)}) \
            .group_by(["doc_id", "token"]).aggregate([("token", "count")])
        return pa.table({"doc_id": g["doc_id"], "token": g["token"],
                         "tf": pc.cast(g["token_count"], pa.int64())})

    # tf feeds BOTH the df groupby and the join: materialize so the
    # token explode runs once, not once per consumer
    tf = ds.map_batches(explode_tf, batch_format="pyarrow",
                        batch_size=None).materialize()

    from ray.data.aggregate import Sum

    from cld2_ray.pipelines.shuffle import coalesced
    dfq = coalesced(tf.map_batches(
        lambda d: pa.Table.from_pandas(
            d.groupby("token", as_index=False).size()
            .rename(columns={"size": "df_"}), preserve_index=False),
        batch_format="pandas", batch_size=None).materialize()) \
        .groupby("token").aggregate(Sum("df_", alias_name="df")) \
        .materialize()

    if dfq.count() <= 2_000_000:
        # broadcast fast path: the df table is VOCABULARY-sized, so
        # ship it once via ray.put and join map-side — and because tf
        # blocks keep each document's rows together (the explode never
        # splits a doc), the per-doc top-5 finishes locally too: the
        # whole query runs with NO tf-row shuffle at all
        dfp = dfq.to_pandas()
        idf_u = np.floor(np.log(
            float(n_docs) / dfp["df"].to_numpy(np.float64)) * 1e6
            + 0.5).astype(np.int64)
        ref = ray.put((pd.Series(dfp["df"].to_numpy(np.int64),
                                 index=dfp["token"]),
                       pd.Series(idf_u, index=dfp["token"])))

        class LocalTop5:
            def __init__(self):  # fetch the broadcast once per actor
                self.df_map, self.idf_map = ray.get(ref)

            def __call__(self, t: pa.Table) -> pa.Table:
                d = t.to_pandas()
                d["df"] = d["token"].map(self.df_map).astype(np.int64)
                d["score_u"] = d["tf"].to_numpy(np.int64) \
                    * d["token"].map(self.idf_map).to_numpy(np.int64)
                d = d.sort_values(["doc_id", "score_u", "token"],
                                  ascending=[True, False, True])
                top = d.groupby("doc_id", as_index=False).head(5)
                return pa.Table.from_pandas(top, preserve_index=False)

        local = tf.map_batches(LocalTop5, batch_format="pyarrow",
                               batch_size=None, concurrency=(1, 8))

        # re-select top 5 globally: Ray may slice an oversized explode
        # output block MID-DOC, in which case each fragment contributed
        # its own (correct but partial) top-5 — the union contains the
        # true top-5. Distributed re-merge (64 doc-id hash buckets, at
        # most 5 rows per (doc, fragment) enter the shuffle); the
        # result stays a Dataset — nothing doc-cardinality ever lands
        # on the driver.
        def bucket(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            return t.append_column("bucket_",
                                   pa.array(ids % 64, pa.int64()))

        def remerge(g: pd.DataFrame) -> pd.DataFrame:
            g = g.sort_values(["doc_id", "score_u", "token"],
                              ascending=[True, False, True])
            g = g.groupby("doc_id", as_index=False).head(5)
            for c in ("tf", "df", "score_u"):
                g[c] = g[c].astype("int64")
            return g[["doc_id", "token", "tf", "df", "score_u"]]

        return coalesced(
            local.map_batches(bucket, batch_format="pyarrow",
                              batch_size=None).materialize()) \
            .groupby("bucket_").map_groups(remerge, batch_format="pandas")

    joined = tf.join(dfq, join_type="inner", num_partitions=n_part,
                     on=("token",),
                     aggregator_ray_remote_args={"num_cpus": 0.25})

    def score_and_bucket(d: pd.DataFrame) -> pa.Table:
        idf_u = np.floor(np.log(
            float(n_docs) / d["df"].to_numpy(dtype=np.float64)) * 1e6
            + 0.5).astype(np.int64)
        return pa.table({
            "doc_id": d["doc_id"].to_numpy(np.int64),
            "token": d["token"].to_numpy(dtype=object),
            "tf": d["tf"].to_numpy(np.int64),
            "df": d["df"].to_numpy(np.int64),
            "score_u": d["tf"].to_numpy(dtype=np.int64) * idf_u,
            "bucket_": d["doc_id"].to_numpy(np.int64) % 64})

    def top5(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["doc_id", "score_u", "token"],
                          ascending=[True, False, True])
        return g.groupby("doc_id", as_index=False).head(5) \
            .drop(columns=["bucket_"])

    def top5_cast(g: pd.DataFrame) -> pd.DataFrame:
        g = top5(g)
        for c in ("tf", "df", "score_u"):
            g[c] = g[c].astype("int64")
        return g[["doc_id", "token", "tf", "df", "score_u"]]

    return joined.map_batches(score_and_bucket, batch_format="pandas",
                              batch_size=None) \
        .groupby("bucket_").map_groups(top5_cast, batch_format="pandas")


SQL_TFIDF_TOP5 = """
WITH tok AS (
  SELECT doc_id, unnest(string_split(coalesce(text, ''), ' ')) AS token FROM documents
), tf AS (
  SELECT doc_id, token, count(*) AS tf FROM tok GROUP BY doc_id, token
), dfq AS (
  SELECT token, count(*) AS df FROM tf GROUP BY token
), nd AS (SELECT count(*) AS n FROM documents),
scored AS (
  SELECT tf.doc_id, tf.token, tf.tf, dfq.df,
         tf.tf * CAST(floor(ln(CAST(nd.n AS DOUBLE) / dfq.df) * 1e6 + 0.5)
                      AS BIGINT) AS score_u
  FROM tf JOIN dfq ON tf.token = dfq.token CROSS JOIN nd
)
SELECT doc_id, CAST(token AS VARCHAR) AS token, CAST(tf AS BIGINT) AS tf,
       CAST(df AS BIGINT) AS df, score_u
FROM (SELECT *, row_number() OVER (PARTITION BY doc_id
        ORDER BY score_u DESC, token) AS rn FROM scored)
WHERE rn <= 5 ORDER BY doc_id, score_u DESC, token
"""


def q_lang_quantiles(sf_dir):
    """Exact per-language length quantiles (25/50/75, linear
    interpolation — numpy 'linear' == SQL percentile_cont), computed
    from a DISTRIBUTED per-(lang, n_chars) histogram rather than a
    per-language group: language is the canonical skewed key (at web
    scale 'en' is about half the corpus, so one group would be half
    the dataset in a single worker). n_chars is a small bounded int
    domain, so the histogram is tiny; the exact order statistics each
    percentile needs come from cumulative counts — bit-identical to
    np.percentile over the raw values (interpolation is the same
    a + (b - a) * frac lerp on the same float64 order statistics)."""
    from ray.data.aggregate import Sum
    ds = _read(sf_dir, "documents", ["lang", "n_chars"])

    def partial(df: pd.DataFrame) -> pa.Table:
        g = df.groupby(["lang", "n_chars"], as_index=False).size()
        return pa.table({"lang": g["lang"].to_numpy(dtype=object),
                         "n_chars": g["n_chars"].to_numpy(np.int64),
                         "n_": g["size"].to_numpy(np.int64)})

    hist = ds.map_batches(partial, batch_format="pandas",
                          batch_size=None) \
        .groupby(["lang", "n_chars"]).aggregate(Sum("n_", alias_name="n")) \
        .to_pandas()  # bounded: n_langs x distinct lengths

    rows = []
    for lang, g in hist.sort_values(["lang", "n_chars"]).groupby("lang"):
        vals = g["n_chars"].to_numpy(np.float64)
        cum = np.cumsum(g["n"].to_numpy(np.int64))
        n = int(cum[-1])

        def pct(q: float) -> float:
            h = (n - 1) * q
            k = int(np.floor(h))
            a = vals[np.searchsorted(cum, k, side="right")]
            b = vals[np.searchsorted(cum, min(k + 1, n - 1), side="right")]
            return float(a + (b - a) * (h - k))

        rows.append({"lang": lang, "p25": pct(0.25), "p50": pct(0.50),
                     "p75": pct(0.75), "n_docs": np.int64(n)})
    out = pd.DataFrame(rows, columns=["lang", "p25", "p50", "p75",
                                      "n_docs"])
    out["n_docs"] = out["n_docs"].astype("int64")
    return out.sort_values("lang").reset_index(drop=True)


SQL_LANG_QUANTILES = """
SELECT lang,
       percentile_cont(0.25) WITHIN GROUP (ORDER BY n_chars) AS p25,
       percentile_cont(0.50) WITHIN GROUP (ORDER BY n_chars) AS p50,
       percentile_cont(0.75) WITHIN GROUP (ORDER BY n_chars) AS p75,
       CAST(count(*) AS BIGINT) AS n_docs
FROM documents GROUP BY lang ORDER BY lang
"""


def q_top_longest(sf_dir):
    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    return ds.sort(["n_chars", "doc_id"],
                   descending=[True, False]).limit(20)


SQL_TOP_LONGEST = """
SELECT doc_id, n_chars FROM documents
ORDER BY n_chars DESC, doc_id LIMIT 20
"""


def q_token_freq_top50(sf_dir):
    from ray.data.aggregate import Sum
    ds = _read(sf_dir, "documents", ["text"])

    def explode(t: pa.Table) -> pa.Table:
        # partial count per batch BEFORE the shuffle, fully Arrow
        # (split/flatten/value_counts kernels — the pandas explode
        # materialized every token as a Python string, ~6x slower).
        # Trim SPACES only and keep "" edge tokens: DuckDB trim()
        # does not strip tabs/newlines, and the oracle counts the ""
        # tokens their edges produce; only trim-empty DOCS are skipped
        # (the WHERE trim(text) <> '' clause)
        import pyarrow.compute as pc
        col = pc.utf8_trim(pc.coalesce(
            t["text"].combine_chunks(), pa.scalar("")), TRIM_CHARS)
        col = pc.filter(col, pc.not_equal(col, ""))
        vc = pc.drop_null(
            pc.list_flatten(pc.split_pattern_regex(col, r"\s+"))) \
            .value_counts()
        return pa.table({"token": vc.field("values"),
                         "n": pc.cast(vc.field("counts"), pa.int64())})
    # bounded partials materialized before the sort aggregate (see
    # q_events_hourly); map side coalesced so the exchange's sort
    # pieces stay above Ray's owner-inline threshold (measured
    # 347 MiB of driver heap at stress scale uncoalesced —
    # pipelines/shuffle.py)
    from cld2_ray.pipelines.shuffle import coalesced
    partial = ds.map_batches(explode, batch_format="pyarrow",
                             batch_size=None).materialize()
    total = coalesced(partial).groupby("token") \
        .aggregate(Sum("n", alias_name="n"))
    df = total.to_pandas().sort_values(["n", "token"],
                                       ascending=[False, True]).head(50)
    return df.reset_index(drop=True)


SQL_TOKEN_FREQ_TOP50 = """
SELECT token, CAST(count(*) AS BIGINT) AS n FROM (
  SELECT unnest(string_split_regex(trim(text), '\\s+')) AS token
  FROM documents WHERE trim(text) <> ''
) GROUP BY token ORDER BY n DESC, token LIMIT 50
"""


def q_stopword_counts(sf_dir):
    from cld2_ray.functions.textstats import stopword_counts
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["doc_id"],
            "n_stop": stopword_counts(df["text"], STOPWORD_LIST)})
    return ds.map_batches(f, batch_format="pandas", batch_size=None)


_STOP_SQL = ", ".join(f"'{w}'" for w in STOPWORD_LIST)
SQL_STOPWORD_COUNTS = f"""
SELECT doc_id,
  CAST(CASE WHEN trim(text) = '' THEN 0 ELSE
    len(list_filter(string_split_regex(trim(text), '\\s+'),
        t -> lower(t) IN ({_STOP_SQL}))) END AS BIGINT) AS n_stop
FROM documents
"""


def q_length_histogram(sf_dir):
    from ray.data.aggregate import Count
    ds = _read(sf_dir, "documents", ["n_chars"])

    def bucket(df: pd.DataFrame) -> pa.Table:
        return pa.table({
            "bucket": (df["n_chars"] // 100).to_numpy(np.int64)})
    return ds.map_batches(bucket, batch_format="pandas", batch_size=None) \
        .groupby("bucket").aggregate(Count(alias_name="n_docs"))


SQL_LENGTH_HISTOGRAM = """
SELECT CAST(n_chars // 100 AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS n_docs
FROM documents GROUP BY bucket
"""


def q_quality_rules(sf_dir):
    from cld2_ray.functions.quality import apply_rules
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        q = apply_rules(df["text"])
        return pd.DataFrame({"doc_id": df["doc_id"], "keep": q["keep"],
                             "drop_reason": q["drop_reason"]})
    return ds.map_batches(f, batch_format="pandas", batch_size=None)


# documents.text has no newlines (single-line docs), so the line-level
# rules (bullet/ellipsis/dup-line) cannot fire and are omitted from the
# CASE chain; the order of the remaining rules matches apply_rules.
SQL_QUALITY_RULES = f"""
WITH stats AS (
  SELECT doc_id, text,
    CASE WHEN trim(text) = '' THEN 0
         ELSE len(string_split_regex(trim(text), '\\s+')) END AS n_words,
    length(regexp_replace(text, '\\s', '', 'g')) AS word_chars,
    CASE WHEN trim(text) = '' THEN 0
         ELSE len(list_filter(string_split_regex(trim(text), '\\s+'),
              w -> regexp_matches(w, '[A-Za-z]'))) END AS alpha_words,
    length(text) - length(replace(text, '#', ''))
      + len(regexp_extract_all(text, '\\.\\.\\.'))
      + length(text) - length(replace(text, '…', '')) AS symbols,
    len(regexp_extract_all(text, '[.!?。！？]')) AS n_sentences
  FROM documents
)
SELECT doc_id,
  CASE
    WHEN n_words < {MIN_WORDS} THEN 'too_few_words'
    WHEN n_words > 100000 THEN 'too_many_words'
    WHEN (CAST(word_chars AS DOUBLE) / n_words) < {MIN_MEAN_WORD_LEN}
      OR (CAST(word_chars AS DOUBLE) / n_words) > {MAX_MEAN_WORD_LEN}
      THEN 'mean_word_len'
    WHEN (CAST(symbols AS DOUBLE) / n_words) > {MAX_SYMBOL_WORD_RATIO}
      THEN 'symbol_ratio'
    WHEN (CAST(alpha_words AS DOUBLE) / n_words) < {MIN_ALPHA_WORD_RATIO}
      THEN 'alpha_ratio'
    WHEN contains(lower(text), 'lorem ipsum') THEN 'lorem_ipsum'
    WHEN contains(text, '{{') THEN 'brace_source_code'
    WHEN n_sentences < {MIN_SENTENCES} THEN 'too_few_sentences'
    ELSE ''
  END AS drop_reason,
  CASE
    WHEN n_words < {MIN_WORDS} THEN FALSE
    WHEN n_words > 100000 THEN FALSE
    WHEN (CAST(word_chars AS DOUBLE) / n_words) < {MIN_MEAN_WORD_LEN}
      OR (CAST(word_chars AS DOUBLE) / n_words) > {MAX_MEAN_WORD_LEN}
      THEN FALSE
    WHEN (CAST(symbols AS DOUBLE) / n_words) > {MAX_SYMBOL_WORD_RATIO}
      THEN FALSE
    WHEN (CAST(alpha_words AS DOUBLE) / n_words) < {MIN_ALPHA_WORD_RATIO}
      THEN FALSE
    WHEN contains(lower(text), 'lorem ipsum') THEN FALSE
    WHEN contains(text, '{{') THEN FALSE
    WHEN n_sentences < {MIN_SENTENCES} THEN FALSE
    ELSE TRUE
  END AS keep
FROM stats
"""


def q_pii_scrub(sf_dir):
    from cld2_ray.functions.scrub import scrub_series
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        s = scrub_series(df["text"])
        return pd.DataFrame({"doc_id": df["doc_id"],
                             "scrubbed_text": s["scrubbed_text"]})
    return ds.map_batches(f, batch_format="pandas", batch_size=None)


def _scrub_sql_expr() -> str:
    from cld2_ray.functions.scrub import PII_PATTERNS
    expr = "text"
    for token, pat in PII_PATTERNS:
        pat = pat.replace("'", "''")
        expr = f"regexp_replace({expr}, '{pat}', '{token}', 'g')"
    return expr


SQL_PII_SCRUB = f"SELECT doc_id, {_scrub_sql_expr()} AS scrubbed_text FROM documents"


# --------------------------------------------------------------------------
# relational: aggregates / join / window (lineitem, orders, events)
# --------------------------------------------------------------------------

def q_tpch_q1(sf_dir):
    from ray.data.aggregate import Count, Sum
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity"])
    out = ds.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("l_quantity", alias_name="sum_qty"),
        Count(alias_name="n_rows"))
    df = out.to_pandas()
    df["sum_qty"] = df["sum_qty"].astype(np.int64)
    return df


SQL_TPCH_Q1 = """
SELECT l_returnflag, l_linestatus,
       CAST(sum(l_quantity) AS BIGINT) AS sum_qty,
       CAST(count(*) AS BIGINT) AS n_rows
FROM lineitem GROUP BY l_returnflag, l_linestatus
"""


def q_orders_by_segment(sf_dir):
    """Broadcast hash join: customer (small side) is collected once and
    joined per batch — no shuffle join."""
    import ray
    from ray.data.aggregate import Count
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).to_pandas()
    ref = ray.put(dict(zip(cust.c_custkey, cust.c_mktsegment)))
    ds = _read(sf_dir, "orders", ["o_custkey"])

    def join(df: pd.DataFrame) -> pa.Table:
        m = ray.get(ref)
        return pa.table({
            "c_mktsegment": df["o_custkey"].map(m).fillna("")
            .to_numpy(dtype=object)})
    joined = ds.map_batches(join, batch_format="pandas", batch_size=None)
    return joined.groupby("c_mktsegment").aggregate(
        Count(alias_name="n_orders"))


SQL_ORDERS_BY_SEGMENT = """
SELECT c_mktsegment, CAST(count(*) AS BIGINT) AS n_orders
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY c_mktsegment
"""


def q_tpch_q3(sf_dir):
    """TPC-H Q3-style: top-10 orders by revenue for one market segment
    — a LARGE x LARGE distributed hash-shuffle join (Dataset.join),
    complementing the broadcast joins: customer->orders on custkey,
    then orders->lineitem on orderkey, with filters pushed below both
    joins so only qualifying rows shuffle. Revenue is summed in integer
    cents (floor(x*100 + 0.5) per row on BOTH sides) so the aggregate
    is order-independent and hash-stable."""
    import ray
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    # partition count scales with the cluster; fractional-CPU
    # aggregators so a small session can still schedule them all
    # (16 full-CPU aggregators on a 4-CPU test session deadlocks)
    n_part = max(4, int(ray.cluster_resources().get("CPU", 8)) // 2)
    join_kw = dict(num_partitions=n_part,
                   aggregator_ray_remote_args={"num_cpus": 0.25})

    cutoff = pd.Timestamp("1998-06-01")

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    cust = cust.map_batches(
        lambda t: t.filter(pc.equal(t["c_mktsegment"], "BUILDING"))
        .select(["c_custkey"]), batch_format="pyarrow", batch_size=None)

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"])
    orders = orders.map_batches(
        lambda t: t.filter(pc.less(t["o_orderdate"], pa.scalar(cutoff))),
        batch_format="pyarrow", batch_size=None)

    def line_prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["l_shipdate"], pa.scalar(cutoff)))
        p = t["l_extendedprice"].to_numpy(zero_copy_only=False)
        d = t["l_discount"].to_numpy(zero_copy_only=False)
        cents = np.floor(p * (1 - d) * 100 + 0.5).astype(np.int64)
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "rev_cents": cents})

    line = _read(sf_dir, "lineitem",
                 ["l_orderkey", "l_extendedprice", "l_discount",
                  "l_shipdate"])
    line = line.map_batches(line_prep, batch_format="pyarrow", batch_size=None)

    oc = orders.join(cust, join_type="inner", on=("o_custkey",),
                     right_on=("c_custkey",), **join_kw)
    oc = oc.map_batches(
        lambda t: pa.table({
            "o_orderkey": t["o_orderkey"],
            "o_date": pc.cast(pc.divide(pc.cast(
                t["o_orderdate"], pa.int64()), 10**6), pa.int64())}),
        batch_format="pyarrow", batch_size=None)
    ol = line.join(oc, join_type="inner", on=("l_orderkey",),
                   right_on=("o_orderkey",), **join_kw)
    agg = ol.groupby(["l_orderkey", "o_date"]).aggregate(
        Sum("rev_cents", alias_name="revenue_cents"))
    # distributed top-10: sort + limit streams through Ray's sample
    # sort — the full (qualifying-order cardinality) aggregate never
    # lands on the driver
    return agg.sort(["revenue_cents", "l_orderkey"],
                    descending=[True, False]).limit(10) \
        .map_batches(lambda t: pa.table(
            {"l_orderkey": pc.cast(t["l_orderkey"], pa.int64()),
             "o_date": pc.cast(t["o_date"], pa.int64()),
             "revenue_cents": pc.cast(t["revenue_cents"], pa.int64())}),
            batch_format="pyarrow", batch_size=None)


SQL_TPCH_Q3 = """
SELECT l_orderkey, o_date, revenue_cents FROM (
  SELECT l_orderkey, CAST(epoch(o_orderdate) AS BIGINT) AS o_date,
         CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100
                             + 0.5) AS BIGINT)) AS BIGINT)
           AS revenue_cents
  FROM customer
  JOIN orders ON c_custkey = o_custkey
  JOIN lineitem ON l_orderkey = o_orderkey
  WHERE c_mktsegment = 'BUILDING'
    AND o_orderdate < TIMESTAMP '1998-06-01'
    AND l_shipdate > TIMESTAMP '1998-06-01'
  GROUP BY l_orderkey, o_date
) ORDER BY revenue_cents DESC, l_orderkey LIMIT 10
"""


def q_customers_without_orders(sf_dir):
    """Anti-join: customers with no URGENT-priority order — Ray's
    native distributed LEFT ANTI hash join. Both sides
    shuffle-partition on the key; nothing is broadcast or collected
    (both sides are unbounded at corpus scale; a driver-side id-set
    would not be). The priority filter is applied below the join so
    only qualifying order keys shuffle."""
    import ray
    import pyarrow.compute as pc
    n_part = max(4, int(ray.cluster_resources().get("CPU", 8)) // 2)
    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])
    urgent = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"]) \
        .map_batches(lambda t: t.filter(
            pc.equal(t["o_orderpriority"], "1-URGENT"))
            .select(["o_custkey"]), batch_format="pyarrow", batch_size=None)
    out = cust.join(urgent, join_type="left_anti", on=("c_custkey",),
                    right_on=("o_custkey",), num_partitions=n_part,
                    aggregator_ray_remote_args={"num_cpus": 0.25})
    # stays a Dataset: the anti-join result is customer-cardinality
    return out.map_batches(
        lambda t: pa.table({
            "c_custkey": pc.cast(t["c_custkey"], pa.int64()),
            "c_acctbal": pc.cast(t["c_acctbal"], pa.float64())}),
        batch_format="pyarrow", batch_size=None)


SQL_CUSTOMERS_WITHOUT_ORDERS = """
SELECT c_custkey, c_acctbal FROM customer
WHERE NOT EXISTS (SELECT 1 FROM orders
                  WHERE o_custkey = c_custkey
                    AND o_orderpriority = '1-URGENT')
ORDER BY c_custkey
"""


def q_orders_per_customer(sf_dir):
    """TPC-H Q13 shape: histogram of orders-per-customer including
    zero-order customers. orders pre-aggregates per custkey (one keyed
    shuffle of (key, partial-count) pairs), customer LEFT OUTER joins
    the counts (distributed hash join), nulls become 0, and the final
    histogram groupby is tiny (distinct count values only)."""
    import ray
    from ray.data.aggregate import Count
    n_part = max(4, int(ray.cluster_resources().get("CPU", 8)) // 2)
    counts = _read(sf_dir, "orders", ["o_custkey"]) \
        .groupby("o_custkey").aggregate(Count(alias_name="n_orders"))
    cust = _read(sf_dir, "customer", ["c_custkey"])
    joined = cust.join(counts, join_type="left_outer", on=("c_custkey",),
                       right_on=("o_custkey",), num_partitions=n_part,
                       aggregator_ray_remote_args={"num_cpus": 0.25})

    def fill(df: pd.DataFrame) -> pa.Table:
        return pa.table({"n_orders": df["n_orders"]
                         .fillna(0).to_numpy(np.int64)})
    hist = joined.map_batches(fill, batch_format="pandas", batch_size=None) \
        .groupby("n_orders").aggregate(Count(alias_name="n_customers"))
    df = hist.to_pandas().astype("int64")
    return df.sort_values("n_orders").reset_index(drop=True)


SQL_ORDERS_PER_CUSTOMER = """
SELECT CAST(n_orders AS BIGINT) AS n_orders,
       CAST(count(*) AS BIGINT) AS n_customers
FROM (SELECT c_custkey, count(o_orderkey) AS n_orders
      FROM customer LEFT JOIN orders ON c_custkey = o_custkey
      GROUP BY c_custkey)
GROUP BY n_orders ORDER BY n_orders
"""


_KMV_K = 64  # interpolated into SQL_KMV_DISTINCT — keep in sync


def q_kmv_distinct(sf_dir, k: int = _KMV_K):
    """KMV (k-minimum-values) distinct-count sketch over the corpus
    token set — the SCALE path beside q_source_vocab's exact count:
    at 100 TB the exact distinct needs a corpus-wide dedup shuffle,
    while the KMV union ships k 128-bit hashes per block and merges
    associatively (Bar-Yossef et al. 2002, the standard bottom-k
    sketch). The sketch CONTENT is deterministic — the k smallest
    md5s of the distinct token set — so the DuckDB oracle checks it
    bit-for-bit (fixed-width hex sorts lexicographically = numerically);
    the cardinality estimate is a pure function of row k
    (functions/textstats.kmv_estimate, tested vs the exact count).

    Shape: per-block distinct -> local bottom-k partial (k hashes per
    block leave the node), then the bounded union (blocks x k rows)
    merges driver-side — the textbook KMV merge; the driver return is
    k rows by contract."""
    ds = _read(sf_dir, "documents", ["text"])

    def partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        from cld2_ray import native
        toks = pc.split_pattern(
            pc.coalesce(t["text"].combine_chunks(), pa.scalar("")), " ")
        words = pc.unique(pc.list_flatten(toks))
        # one C md5 pass over the distinct tokens, bottom-k via
        # np.partition on the fixed-width hex (lexicographic ==
        # numeric for fixed-width hex)
        data, offs = native.utf8_cat(words)
        hx = np.asarray(native.hex_digest(native.md5_batch(data, offs)))
        if len(hx) > k:
            hx = np.partition(hx, k - 1)[:k]
        hs = [h.decode() for h in np.sort(hx)]
        return pa.table({"h": pa.array(hs, pa.string())})

    small = ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=None).to_pandas()
    hs = sorted(set(small["h"]))[:k]
    return pd.DataFrame({"rank": np.arange(1, len(hs) + 1,
                                           dtype=np.int64),
                         "h": hs})


# LIMIT interpolated from _KMV_K so the oracle can never drift from
# q_kmv_distinct's default (calls with a non-default k are outside
# the gate's contract)
SQL_KMV_DISTINCT = f"""
WITH toks AS (
  SELECT DISTINCT unnest(string_split(coalesce(text, ''), ' ')) AS w
  FROM documents
), hs AS (
  SELECT DISTINCT md5(w) AS h FROM toks
)
SELECT CAST(row_number() OVER (ORDER BY h) AS BIGINT) AS rank, h
FROM hs ORDER BY h LIMIT {_KMV_K}
"""


def q_source_vocab(sf_dir):
    """Exact COUNT(DISTINCT token) per source. Per-batch local distinct
    collapses occurrences to unique (source, token) pairs BEFORE the
    shuffle (the keyed exchange carries distinct pairs, not token
    instances), then one pair-key groupby dedupes globally and a small
    per-source count finishes."""
    from ray.data.aggregate import Count
    ds = _read(sf_dir, "documents", ["source", "text"])

    def pairs(t: pa.Table) -> pa.Table:
        # Arrow kernels end to end (split/flatten/take/join/unique —
        # the pandas explode materialized every token occurrence as a
        # Python string). Composite single key: the sort aggregate is
        # ~14x slower on pandas blocks and slower again on two object
        # key columns; tokens are space-split fields, so the LAST
        # space in the key always separates source from token, even
        # for a source containing spaces.
        import pyarrow.compute as pc
        toks = pc.split_pattern(
            pc.coalesce(t["text"].combine_chunks(), pa.scalar("")), " ")
        lens = pc.list_value_length(toks).to_numpy()
        src = pc.take(t["source"].combine_chunks(),
                      pa.array(np.repeat(np.arange(len(lens)), lens)))
        key = pc.binary_join_element_wise(src, pc.list_flatten(toks), " ")
        return pa.table({"k": pc.unique(key)})

    # bounded distinct-pair partials materialized before the sort
    # aggregate (see q_events_hourly); coalesced map side (see
    # q_token_freq_top50 / pipelines/shuffle.py)
    from cld2_ray.pipelines.shuffle import coalesced
    uniq = coalesced(
        ds.map_batches(pairs, batch_format="pyarrow",
                       batch_size=None).materialize()) \
        .groupby("k").aggregate(Count(alias_name="c_"))

    def unkey(t: pa.Table) -> pa.Table:
        src = t["k"].to_pandas().str.rsplit(" ", n=1).str[0]
        return pa.table({"source": src.to_numpy(dtype=object)})

    out = uniq.map_batches(unkey, batch_format="pyarrow", batch_size=None) \
        .groupby("source").aggregate(Count(alias_name="n_distinct_tokens"))
    df = out.to_pandas()
    df["n_distinct_tokens"] = df["n_distinct_tokens"].astype("int64")
    return df.sort_values("source").reset_index(drop=True)


SQL_SOURCE_VOCAB = """
SELECT source, CAST(count(DISTINCT token) AS BIGINT) AS n_distinct_tokens
FROM (SELECT source, unnest(string_split(coalesce(text, ''), ' ')) AS token
      FROM documents)
GROUP BY source ORDER BY source
"""


def q_bigram_top50(sf_dir):
    """Corpus-wide top-50 word bigrams — positional n-gram explode.
    Bigrams are formed per document with a vectorized shift (no Python
    pair loop), counted per batch BEFORE the shuffle (the keyed
    exchange carries (bigram, partial-count), not occurrences), then a
    global groupby-sum and a tiny driver top-50."""
    from ray.data.aggregate import Sum
    ds = _read(sf_dir, "documents", ["text"])

    def bigrams(t: pa.Table) -> pa.Table:
        # Arrow kernels end to end: split/flatten, adjacent-pair join
        # on two slices of the flat token array, boundary mask from
        # the list offsets (the pandas explode + object-array roll
        # materialized every token as a Python string). Single
        # composite key: tokens are space-split fields, so a space
        # separator is unambiguous.
        import pyarrow.compute as pc
        toks = pc.split_pattern(
            pc.coalesce(t["text"].combine_chunks(), pa.scalar("")), " ")
        flat = pc.list_flatten(toks)
        m = len(flat)
        if m < 2:
            return pa.table({"bg": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        bg = pc.binary_join_element_wise(flat.slice(0, m - 1),
                                         flat.slice(1), " ")
        # drop pairs that straddle a document boundary: positions
        # ending at a list offset (cumulative doc lengths)
        lens = pc.list_value_length(toks).to_numpy()
        same = np.ones(m - 1, dtype=bool)
        ends = np.cumsum(lens)[:-1] - 1          # last token of doc d
        same[ends[(ends >= 0) & (ends < m - 1)]] = False
        vc = pc.filter(bg, pa.array(same)).value_counts()
        return pa.table({"bg": vc.field("values"),
                         "n": pc.cast(vc.field("counts"), pa.int64())})

    # bounded partials materialized before the sort aggregate (see
    # q_events_hourly); coalesced map side (pipelines/shuffle.py)
    from cld2_ray.pipelines.shuffle import coalesced
    partial = ds.map_batches(bigrams, batch_format="pyarrow",
                             batch_size=None).materialize()
    total = coalesced(partial).groupby("bg") \
        .aggregate(Sum("n", alias_name="n"))
    # distributed top-k: sort + limit, never a full to_pandas of the
    # (unbounded at corpus scale) distinct-bigram table
    top = total.sort(["n", "bg"], descending=[True, False]).limit(50)
    df = top.to_pandas()
    parts = df["bg"].str.split(" ", n=1, expand=True)
    out = pd.DataFrame({"w1": parts[0], "w2": parts[1],
                        "n": df["n"].astype("int64")})
    return out.sort_values(["n", "w1", "w2"],
                           ascending=[False, True, True]) \
        .reset_index(drop=True)


SQL_BIGRAM_TOP50 = """
WITH toks AS (
  SELECT doc_id, string_split(coalesce(text, ''), ' ') AS t FROM documents
), pairs AS (
  SELECT t[i] AS w1, t[i + 1] AS w2
  FROM toks, unnest(generate_series(1, len(t) - 1)) AS g(i)
)
SELECT w1, w2, CAST(count(*) AS BIGINT) AS n FROM pairs
GROUP BY w1, w2 ORDER BY n DESC, w1, w2 LIMIT 50
"""


def q_embedding_label_stats(sf_dir):
    """Per-label stats over the list<float> embedding column. Each
    element is quantized to integer micros (floor(x*1e6 + 0.5), exact
    float32->double on both sides), squared and summed as int64 — the
    vector-norm arithmetic is pure integer so partial sums commute and
    the value hash is deterministic. Per-batch partials (label, count,
    sum) shuffle; the global groupby sees one row per label per block."""
    from ray.data.aggregate import Sum
    ds = _read(sf_dir, "embeddings", ["label", "embedding"])

    def partial(df: pd.DataFrame) -> pa.Table:
        m = np.vstack(df["embedding"].to_numpy()).astype(np.float64)
        q = np.floor(m * 1e6 + 0.5).astype(np.int64)
        norm2 = (q * q).sum(axis=1)
        out = pd.DataFrame({"label": df["label"].to_numpy(np.int64),
                            "norm2_u": norm2,
                            "n_": np.ones(len(df), np.int64)})
        return pa.Table.from_pandas(out.groupby("label", as_index=False)
                                    .sum(), preserve_index=False)

    out = ds.map_batches(partial, batch_format="pandas", batch_size=None) \
        .groupby("label").aggregate(Sum("n_", alias_name="n_vecs"),
                                    Sum("norm2_u", alias_name="sum_norm2_u"))
    df = out.to_pandas().astype("int64")
    return df[["label", "n_vecs", "sum_norm2_u"]] \
        .sort_values("label").reset_index(drop=True)


SQL_EMBEDDING_LABEL_STATS = """
SELECT CAST(label AS BIGINT) AS label,
       CAST(count(*) AS BIGINT) AS n_vecs,
       CAST(sum(norm2_u) AS BIGINT) AS sum_norm2_u
FROM (
  SELECT label,
         list_sum(list_transform(embedding,
             x -> CAST(floor(CAST(x AS DOUBLE) * 1e6 + 0.5) AS BIGINT)
                  * CAST(floor(CAST(x AS DOUBLE) * 1e6 + 0.5) AS BIGINT)
         )) AS norm2_u
  FROM embeddings)
GROUP BY label ORDER BY label
"""


def q_stratified_sample(sf_dir):
    """Deterministic per-language quota sampling (rebalance a skewed
    corpus by downsampling the head language). The keep decision is a
    pure hash of doc_id — reproducible across runs, cluster sizes and
    partitionings, with no shuffle (a stateless filter map). The md5
    recipe is shared bit-for-bit with the SQL oracle."""
    RATE_EN, RATE_OTHER = 0.1, 0.5
    ds = _read(sf_dir, "documents", ["doc_id", "lang"])

    def f(df: pd.DataFrame) -> pd.DataFrame:
        from cld2_ray import native
        keys = [f"{int(d)}:strat" for d in df["doc_id"]]
        dig = native.md5_batch(*native.utf8_cat(keys))
        # hexdigest[:8] == first 4 digest bytes big-endian
        u = dig[:, :4].copy().view(">u4").ravel() \
            .astype(np.float64) / 4294967296.0
        rate = np.where(df["lang"].to_numpy() == "en", RATE_EN,
                        RATE_OTHER)
        return df[u < rate]
    return ds.map_batches(f, batch_format="pandas", batch_size=None)


SQL_STRATIFIED_SAMPLE = """
SELECT doc_id, lang FROM documents
WHERE ('0x' || substr(md5(CAST(doc_id AS VARCHAR) || ':strat'), 1, 8))
        ::UBIGINT / 4294967296.0
      < CASE WHEN lang = 'en' THEN 0.1 ELSE 0.5 END
"""


def q_events_hourly(sf_dir):
    from ray.data.aggregate import Sum
    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def bucket(df: pd.DataFrame) -> pa.Table:
        # per-batch partial pre-agg BEFORE the shuffle (the exchange
        # carries one row per (type, hour) per block, not per event),
        # emitted as an Arrow block with ONE composite key column: the
        # sort aggregate is ~14x slower on pandas blocks and ~2x
        # slower again on a two-column key. Hour is numeric, so the
        # LAST '|' always splits the key unambiguously.
        hour = (df["ts"].astype("int64") // 10**6 // 3600).astype(np.int64)
        part = pd.DataFrame({"k": df["event_type"] + "|"
                             + hour.astype(str),
                             "sum_value_cents": (df["value"] * 100).round()
                             .astype(np.int64),
                             "n_events": np.ones(len(df), np.int64)})
        g = part.groupby("k", as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    # materialize the BOUNDED pre-aggregated partials before the
    # sort aggregate: Ray's sort aggregate on a lazy fused upstream
    # measured ~8x slower at high key cardinality (58.7 s vs 7.5 s on
    # 2M events / 10.8k keys)
    b = ds.map_batches(bucket, batch_format="pandas",
                       batch_size=None).materialize()
    out = b.groupby("k").aggregate(
        Sum("n_events", alias_name="n_events"),
        Sum("sum_value_cents", alias_name="sum_value_cents"))

    def unkey(t: pa.Table) -> pa.Table:
        k = t["k"].to_pandas().str.rsplit("|", n=1)
        return pa.table({
            "event_type": k.str[0].to_numpy(dtype=object),
            "hour": k.str[1].astype(np.int64).to_numpy(),
            "n_events": t["n_events"],
            "sum_value_cents": t["sum_value_cents"]})

    return out.map_batches(unkey, batch_format="pyarrow", batch_size=None)


SQL_EVENTS_HOURLY = """
SELECT event_type,
       CAST(floor(epoch(ts) / 3600) AS BIGINT) AS hour,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
         AS sum_value_cents
FROM events GROUP BY event_type, hour
"""




def q_event_sessions(sf_dir):
    """Session windows over the events stream (SURVEY.md §2.9 / ray
    guide streaming-shaped pattern): per user, sessions split at >30min
    gaps, with explicit (ts, event_id) ordering — the ordering
    assumption the oracle SQL shares via its window. Co-partitioned
    into 64 user-hash buckets (one shuffle) and fully vectorized
    inside each bucket — per-USER groups would pay Ray's ~100us
    per-group dispatch once per user (unbounded key at corpus scale),
    exactly the q_asof_join partitioning pattern."""
    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts"])

    def bucket(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        u = t["user_id"].to_numpy(zero_copy_only=False)
        return t.append_column("part_", pa.array(u % 64, pa.int64()))

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"])
        u = g["user_id"].to_numpy(np.int64)
        t = g["ts"].astype("int64").to_numpy()
        same_user = np.concatenate([[False], u[1:] == u[:-1]])
        gap_break = same_user & np.concatenate(
            [[False], (t[1:] - t[:-1]) > 1800 * 10**6])
        out = pd.DataFrame({"user_id": u,
                            "brk": gap_break.astype(np.int64)})
        agg = out.groupby("user_id", as_index=False).agg(
            n_sessions=("brk", "sum"), n_events=("brk", "size"))
        agg["n_sessions"] = (agg["n_sessions"] + 1).astype(np.int64)
        agg["n_events"] = agg["n_events"].astype(np.int64)
        return agg
    return ds.map_batches(bucket, batch_format="pyarrow",
                          batch_size=None) \
        .groupby("part_").map_groups(sessions, batch_format="pandas")


SQL_EVENT_SESSIONS = """
SELECT user_id,
  CAST(1 + sum(CASE WHEN gap > 1800 * 1000000 THEN 1 ELSE 0 END) AS BIGINT)
    AS n_sessions,
  CAST(count(*) AS BIGINT) AS n_events
FROM (
  SELECT user_id,
         epoch_us(ts) - lag(epoch_us(ts)) OVER (
           PARTITION BY user_id ORDER BY ts, event_id) AS gap
  FROM events
) GROUP BY user_id
"""


def q_events_window(sf_dir):
    """Sliding RANGE-window aggregate (the brief's 'windowed aggregate'
    custom operator): for every event, the count and value-sum (integer
    cents) of the same user's events in the trailing hour, inclusive of
    ties — exactly SQL's RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND
    CURRENT ROW. Distributed as groupby(user).map_groups with a
    vectorized two-searchsorted frame per group (partitioning
    assumption: one user's stream fits one group — the same contract
    the SQL window's PARTITION BY carries)."""
    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts", "value"])

    def bucket(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False)
        return t.append_column("part_", pa.array(u % 64, pa.int64()))

    def win(g: pd.DataFrame) -> pd.DataFrame:
        # one 64-bucket shuffle, then a per-user searchsorted frame
        # inside the bucket (users looped locally — no Ray per-group
        # dispatch, no whole-corpus single-user group)
        g = g.sort_values(["user_id", "ts", "event_id"])
        u = g["user_id"].to_numpy(np.int64)
        t = g["ts"].astype("int64").to_numpy()
        ev = g["event_id"].to_numpy()
        cents = np.floor(g["value"].to_numpy() * 100 + 0.5).astype(np.int64)
        cum = np.concatenate([[0], np.cumsum(cents)])
        # user segment boundaries in the sorted frame
        seg = np.concatenate([[0], np.flatnonzero(u[1:] != u[:-1]) + 1,
                              [len(u)]])
        n1 = np.empty(len(u), np.int64)
        s1 = np.empty(len(u), np.int64)
        for a, b in zip(seg[:-1], seg[1:]):
            tt = t[a:b]
            lo = a + np.searchsorted(tt, tt - 3600 * 10**6, side="left")
            hi = a + np.searchsorted(tt, tt, side="right")
            n1[a:b] = hi - lo
            s1[a:b] = cum[hi] - cum[lo]
        return pd.DataFrame({"event_id": ev, "n_1h": n1,
                             "sum_cents_1h": s1})
    return ds.map_batches(bucket, batch_format="pyarrow",
                          batch_size=None) \
        .groupby("part_").map_groups(win, batch_format="pandas")


SQL_EVENTS_WINDOW = """
SELECT event_id,
       CAST(count(*) OVER w AS BIGINT) AS n_1h,
       CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) OVER w
            AS BIGINT) AS sum_cents_1h
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts
             RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
"""


def q_asof_join(sf_dir):
    """Distributed AS-OF join (the brief's named custom operator): for
    every event, the user's most recent order at or before the event
    time. Shape: both sides are projected to one common (key, kind,
    id, ts) schema, unioned, hash-partitioned into 64 part buckets
    with ONE shuffle (groupby(part).map_groups — per-KEY groups would
    pay Ray's ~100us group dispatch once per user), then matched per
    key inside each bucket with a vectorized searchsorted. Ties on
    (custkey, orderdate) are collapsed to max(o_orderkey) on BOTH
    sides so the answer is deterministic (DuckDB ASOF leaves ties
    unspecified)."""
    _NP = 64
    ev = _read(sf_dir, "events", ["user_id", "event_id", "ts"])
    ev = ev.map_batches(lambda df: pa.table({
        "key": df["user_id"].to_numpy(np.int64),
        "part": (df["user_id"] % _NP).to_numpy(np.int64),
        "kind": np.full(len(df), 0, np.int8),
        "id": df["event_id"].to_numpy(np.int64),
        "ts_us": df["ts"].astype("int64").to_numpy()}),
        batch_format="pandas", batch_size=None)
    od = _read(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_orderdate"])
    od = od.map_batches(lambda df: pa.table({
        "key": df["o_custkey"].to_numpy(np.int64),
        "part": (df["o_custkey"] % _NP).to_numpy(np.int64),
        "kind": np.full(len(df), 1, np.int8),
        "id": df["o_orderkey"].to_numpy(np.int64),
        "ts_us": df["o_orderdate"].astype("int64").to_numpy()}),
        batch_format="pandas", batch_size=None)

    _EMPTY = pd.DataFrame({"event_id": pd.Series([], dtype="int64"),
                           "o_orderkey": pd.Series([], dtype="int64")})

    def merge(part: pd.DataFrame) -> pd.DataFrame:
        outs = [_EMPTY]
        for _, g in part.groupby("key", sort=False):
            o = g[g["kind"] == 1].sort_values(["ts_us", "id"])
            e = g[g["kind"] == 0]
            if not len(e) or not len(o):
                continue
            # collapse orderdate ties to the max orderkey (deterministic)
            o = o.groupby("ts_us", sort=True)["id"].max()
            ots = o.index.to_numpy()
            oid = o.to_numpy()
            pos = np.searchsorted(ots, e["ts_us"].to_numpy(),
                                  side="right") - 1
            ok = pos >= 0
            outs.append(pd.DataFrame({
                "event_id": e["id"].to_numpy()[ok],
                "o_orderkey": oid[np.maximum(pos, 0)][ok]}))
        return pd.concat(outs, ignore_index=True)

    return ev.union(od).groupby("part").map_groups(
        merge, batch_format="pandas").select_columns(
        ["event_id", "o_orderkey"])


SQL_ASOF_JOIN = """
WITH o AS (
  SELECT o_custkey, o_orderdate, max(o_orderkey) AS o_orderkey
  FROM orders GROUP BY o_custkey, o_orderdate
)
SELECT e.event_id, o.o_orderkey
FROM events e ASOF JOIN o
  ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
"""


# price bands for the range join — the literal table is shared
# verbatim with the SQL oracle's VALUES list
_PRICE_BANDS = [(0.0, 950.0, "budget"), (950.0, 1050.0, "mid"),
                (1050.0, 1200.0, "premium"), (1200.0, 10**9, "luxury")]


def q_range_join(sf_dir):
    """Range (interval) join — the brief's named custom operator: each
    part joins the price band whose [lo, hi) interval contains its
    retail price. The band table is tiny, so the scale shape is
    broadcast + per-batch searchsorted over the sorted bounds (no
    shuffle at all); a large band table would fall back to the same
    union + co-partition shape as q_asof_join."""
    from ray.data.aggregate import Count
    lo = np.array([b[0] for b in _PRICE_BANDS])
    hi = np.array([b[1] for b in _PRICE_BANDS])
    names = np.array([b[2] for b in _PRICE_BANDS], dtype=object)
    ds = _read(sf_dir, "part", ["p_partkey", "p_retailprice"])

    def band(df: pd.DataFrame) -> pd.DataFrame:
        price = df["p_retailprice"].to_numpy()
        i = np.searchsorted(lo, price, side="right") - 1
        # rows outside every interval drop, matching the inner join
        ok = (i >= 0) & (price < hi[np.maximum(i, 0)])
        return pa.table({"band": pa.array(names[i[ok]], pa.string())})
    return ds.map_batches(band, batch_format="pandas", batch_size=None)         .groupby("band").aggregate(Count(alias_name="n_parts"))


SQL_RANGE_JOIN = f"""
WITH bands(lo, hi, band) AS (
  VALUES {", ".join(f"({lo}, {hi}, '{nm}')"
                    for lo, hi, nm in _PRICE_BANDS)}
)
SELECT band, CAST(count(*) AS BIGINT) AS n_parts
FROM part JOIN bands
  ON p_retailprice >= lo AND p_retailprice < hi
GROUP BY band
"""


def q_supplier_regions(sf_dir):
    """Two-level broadcast dimension join: supplier -> nation -> region
    (both dimension tables shipped once via ray.put)."""
    import ray
    from ray.data.aggregate import Count
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_regionkey"]).to_pandas()
    region = _read(sf_dir, "region", ["r_regionkey", "r_name"]).to_pandas()
    n2r = dict(zip(nation.n_nationkey, nation.n_regionkey))
    r2n = dict(zip(region.r_regionkey, region.r_name))
    ref = ray.put((n2r, r2n))
    ds = _read(sf_dir, "supplier", ["s_nationkey"])

    def join(df: pd.DataFrame) -> pa.Table:
        n2r_, r2n_ = ray.get(ref)
        return pa.table({
            "r_name": df["s_nationkey"].map(n2r_).map(r2n_).fillna("")
            .to_numpy(dtype=object)})
    return ds.map_batches(join, batch_format="pandas", batch_size=None) \
        .groupby("r_name").aggregate(Count(alias_name="n_suppliers"))


SQL_SUPPLIER_REGIONS = """
SELECT r_name, CAST(count(*) AS BIGINT) AS n_suppliers
FROM supplier
JOIN nation ON s_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name
"""


def q_part_brand_stats(sf_dir):
    from ray.data.aggregate import Count, Max
    ds = _read(sf_dir, "part", ["p_brand", "p_size"])
    out = ds.groupby("p_brand").aggregate(
        Count(alias_name="n_parts"), Max("p_size", alias_name="max_size"))
    df = out.to_pandas()
    df["max_size"] = df["max_size"].astype(np.int64)
    return df


SQL_PART_BRAND_STATS = """
SELECT p_brand, CAST(count(*) AS BIGINT) AS n_parts,
       CAST(max(p_size) AS BIGINT) AS max_size
FROM part GROUP BY p_brand
"""




def q_jaccard_pairs(sf_dir):
    """Exact token-set Jaccard near-dup pairs: 2*|A∩B| > |A∪B| over
    distinct whitespace tokens. Distributed exact set-similarity join
    (identical-set collapse + prefix-filter buckets + per-bucket bitset
    verify + distributed expansion) — no corpus broadcast, no
    driver-side texts; see dedup.jaccard_pairs_exact."""
    from cld2_ray.pipelines.dedup import jaccard_pairs_exact
    return jaccard_pairs_exact(_read(sf_dir, "documents",
                                     ["doc_id", "text"]))


SQL_JACCARD_PAIRS = """
WITH toks AS (
  SELECT doc_id, list_distinct(string_split_regex(trim(text), '\\s+')) AS t
  FROM documents WHERE trim(text) <> ''
)
SELECT x.doc_id AS a, y.doc_id AS b
FROM toks x, toks y
WHERE x.doc_id < y.doc_id
  AND 2 * len(list_intersect(x.t, y.t))
      > len(x.t) + len(y.t) - len(list_intersect(x.t, y.t))
"""


# --------------------------------------------------------------------------
# embeddings: similarity search
# --------------------------------------------------------------------------

def q_ann_top1(sf_dir):
    from cld2_ray.pipelines.simsearch import brute_force_topk
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    top = brute_force_topk(ds, list(range(20)), k=1)
    return top[["query_id", "neighbor_id"]].astype("int64") \
        .sort_values("query_id").reset_index(drop=True)


SQL_ANN_TOP1 = """
SELECT query_id, neighbor_id FROM (
  SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
         ROW_NUMBER() OVER (
           PARTITION BY q.vec_id
           ORDER BY list_cosine_similarity(q.embedding, e.embedding) DESC,
                    e.vec_id) AS rn
  FROM embeddings q, embeddings e
  WHERE q.vec_id < 20 AND e.vec_id <> q.vec_id
) WHERE rn = 1
"""


def q_embedding_near_pairs(sf_dir):
    from cld2_ray.pipelines.dedup import embedding_near_pairs
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return embedding_near_pairs(ds, threshold=0.45)


SQL_EMBEDDING_NEAR_PAIRS = """
SELECT a.vec_id AS a, b.vec_id AS b
FROM embeddings a, embeddings b
WHERE a.vec_id < b.vec_id
  AND list_cosine_similarity(a.embedding, b.embedding) > 0.45
"""


# --------------------------------------------------------------------------
# non-SQL-expressible (rows-only checks)
# --------------------------------------------------------------------------

def _langid_batch(df: pd.DataFrame) -> pd.DataFrame:
    """Task-form langid stage with the lazy process-global Detector
    (langid.default_detector, shared with stages/core.fused_batch): Ray
    reuses task workers, so table load is once per worker lifetime and
    the stage elastically fills all CPUs instead of a pre-sized actor
    pool."""
    from cld2_ray.functions.langid import default_detector
    # one concatenated scoring pass per batch (detect_batch),
    # not a per-row detect() loop
    res = default_detector().detect_batch([t or "" for t in df["text"]])
    return pd.DataFrame({
        "doc_id": df["doc_id"],
        "lang1": [r.summary_code for r in res],
        "pct1": [r.percent3[0] for r in res],
        "reliable": [r.is_reliable for r in res]})


def q_langid_documents(sf_dir):
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(_langid_batch, batch_format="pandas", batch_size=None)


def q_minhash_dedup(sf_dir):
    """MinHash-LSH near-dup groups, SQL-hash-checked end to end: the
    md5/M61 variant makes every stage — shingle hashes, 16-perm
    signatures, 4-band keys, candidate pairs, exact-Jaccard verify,
    connected components — bit-reproducible by the DuckDB oracle
    below (components via recursive-CTE transitive closure). The
    blake2b production variant is pinned by pytest."""
    from cld2_ray.pipelines.dedup import minhash_dedup
    out = minhash_dedup(_read(sf_dir, "documents", ["doc_id", "text"]),
                        variant="sql", clique_cutoff=1 << 30)
    return out.astype({"doc_id": "int64", "group_id": "int64"})


def q_simhash_pairs(sf_dir):
    """SimHash near-dup pairs (hamming <= 3). The 4x16-bit band
    bucketing is EXACT for this radius (pigeonhole: <=3 differing bits
    cannot touch all 4 bands), so the all-pairs SQL oracle matches."""
    from cld2_ray.pipelines.dedup import simhash_dedup
    out = simhash_dedup(_read(sf_dir, "documents", ["doc_id", "text"]))
    return out.astype({"a": "int64", "b": "int64", "hamming": "int64"})


# the oracle recomputes simhash64 in SQL: md5-based shingle hashes,
# per-bit majority vote, then an all-pairs hamming filter
SQL_SIMHASH_PAIRS = """
WITH toks AS (
  SELECT doc_id, CASE WHEN trim(text) = ''
      THEN ['<pad>','<pad>','<pad>']
      ELSE string_split_regex(trim(text), '\\s+') END AS t
  FROM documents
), padded AS (
  SELECT doc_id, CASE WHEN len(t) >= 3 THEN t
      WHEN len(t) = 2 THEN list_append(t, '<pad>')
      ELSE [t[1], '<pad>', '<pad>'] END AS t
  FROM toks
), sh AS (
  SELECT doc_id,
         unnest(list_transform(generate_series(1, len(t) - 2),
                i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2])) AS s
  FROM padded
), hashed AS (
  SELECT doc_id, ('0x' || substr(md5(s), 1, 16))::UBIGINT AS h FROM sh
), bits AS (
  SELECT doc_id, b.b AS bit,
         sum(CASE WHEN (h >> b.b) & 1 = 1 THEN 1 ELSE -1 END) AS v
  FROM hashed, range(64) b(b) GROUP BY doc_id, b.b
), sim AS (
  SELECT doc_id,
         CAST(sum(CASE WHEN v > 0 THEN (1::UBIGINT << bit)
                       ELSE 0::UBIGINT END) AS UBIGINT) AS s
  FROM bits GROUP BY doc_id
)
SELECT x.doc_id AS a, y.doc_id AS b,
       CAST(bit_count(xor(x.s, y.s)) AS BIGINT) AS hamming
FROM sim x, sim y
WHERE x.doc_id < y.doc_id AND bit_count(xor(x.s, y.s)) <= 3
"""


# MinHash signature perms shared by the Ray path and the SQL oracle:
# sig_i = min over shingles s of (a_i * (md5_64(s) % M61) + b_i) % M61.
# a_i <= 7 keeps a*(h%M61) < 2^64, so DuckDB UBIGINT arithmetic and
# numpy uint64 arithmetic agree bit-for-bit (no modular wrap).
from cld2_ray.pipelines.dedup import (MH_M61 as _MH_M61,
                                       MH_PERMS as _MH_PERMS)


def q_minhash_signatures(sf_dir):
    """Per-document MinHash signatures (16 perms, long format) with a
    bit-exact SQL oracle — the hash-verified half of the MinHash-LSH
    operator (the banding/grouping half is pinned by pytest). md5 is
    used per shingle so DuckDB can replicate; the production
    minhash_dedup path uses the faster blake2b hashing."""
    from cld2_ray.pipelines.dedup import _shingle_hashes_md5
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    a = np.array([p[0] for p in _MH_PERMS], dtype=np.uint64)
    b = np.array([p[1] for p in _MH_PERMS], dtype=np.uint64)
    m61 = np.uint64(_MH_M61)

    def f(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for did, text in zip(df["doc_id"], df["text"]):
            sh = _shingle_hashes_md5(text or "") % m61
            sig = (a[:, None] * sh[None, :] + b[:, None]) % m61
            mn = sig.min(axis=1)
            for i in range(len(a)):
                rows.append((int(did), i, int(mn[i])))
        return pd.DataFrame(rows, columns=["doc_id", "perm", "minhash"])

    out = ds.map_batches(f, batch_format="pandas", batch_size=None)
    return out


SQL_MINHASH_SIGNATURES = f"""
WITH toks AS (
  SELECT doc_id, CASE WHEN trim(text) = ''
      THEN ['<pad>','<pad>','<pad>']
      ELSE string_split_regex(trim(text), '\\s+') END AS t
  FROM documents
), padded AS (
  SELECT doc_id, CASE WHEN len(t) >= 3 THEN t
      WHEN len(t) = 2 THEN list_append(t, '<pad>')
      ELSE [t[1], '<pad>', '<pad>'] END AS t
  FROM toks
), sh AS (
  SELECT doc_id,
         unnest(list_transform(generate_series(1, len(t) - 2),
                i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2])) AS s
  FROM padded
), hashed AS (
  SELECT doc_id,
         ('0x' || substr(md5(s), 1, 16))::UBIGINT
             % {_MH_M61}::UBIGINT AS h
  FROM sh
), perms(perm, a, b) AS (
  VALUES {", ".join(f"({i}, {a}::UBIGINT, {b}::UBIGINT)"
                    for i, (a, b) in enumerate(_MH_PERMS))}
)
SELECT doc_id, CAST(perm AS BIGINT) AS perm,
       CAST(min((a * h + b) % {_MH_M61}::UBIGINT) AS BIGINT) AS minhash
FROM hashed, perms GROUP BY doc_id, perm
"""


# minhash_dedup oracle: same shingle/signature math as above, then
# band keys (4 bands x 4 perms), all co-bucket candidate pairs, exact
# Jaccard >= 0.8 on distinct shingle hashes, and connected components
# by recursive-CTE transitive closure with min-id labels.
SQL_MINHASH_DEDUP = f"""
WITH RECURSIVE toks AS (
  SELECT doc_id, CASE WHEN trim(text) = ''
      THEN ['<pad>','<pad>','<pad>']
      ELSE string_split_regex(trim(text), '\\s+') END AS t
  FROM documents
), padded AS (
  SELECT doc_id, CASE WHEN len(t) >= 3 THEN t
      WHEN len(t) = 2 THEN list_append(t, '<pad>')
      ELSE [t[1], '<pad>', '<pad>'] END AS t
  FROM toks
), sh AS (
  SELECT doc_id,
         unnest(list_transform(generate_series(1, len(t) - 2),
                i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2])) AS s
  FROM padded
), hashed AS (
  SELECT doc_id,
         ('0x' || substr(md5(s), 1, 16))::UBIGINT
             % {_MH_M61}::UBIGINT AS h
  FROM sh
), perms(perm, a, b) AS (
  VALUES {", ".join(f"({i}, {a}::UBIGINT, {b}::UBIGINT)"
                    for i, (a, b) in enumerate(_MH_PERMS))}
), sigs AS (
  SELECT doc_id, perm, min((a * h + b) % {_MH_M61}::UBIGINT) AS minhash
  FROM hashed, perms GROUP BY doc_id, perm
), bands AS (
  SELECT doc_id, perm // 4 AS band_id,
         string_agg(CAST(minhash AS VARCHAR), '_' ORDER BY perm) AS bkey
  FROM sigs GROUP BY doc_id, perm // 4
), cand AS (
  SELECT DISTINCT x.doc_id AS a, y.doc_id AS b
  FROM bands x JOIN bands y
    ON x.band_id = y.band_id AND x.bkey = y.bkey AND x.doc_id < y.doc_id
), shing AS (
  SELECT DISTINCT doc_id, h FROM hashed
), sizes AS (
  SELECT doc_id, count(*) AS sz FROM shing GROUP BY doc_id
), isect AS (
  SELECT c.a, c.b, count(*) AS i
  FROM cand c
  JOIN shing s1 ON s1.doc_id = c.a
  JOIN shing s2 ON s2.doc_id = c.b AND s2.h = s1.h
  GROUP BY c.a, c.b
), edges AS (
  SELECT n.a, n.b FROM isect n
  JOIN sizes sa ON sa.doc_id = n.a
  JOIN sizes sb ON sb.doc_id = n.b
  WHERE CAST(n.i AS DOUBLE) / (sa.sz + sb.sz - n.i) >= 0.8
), und AS (
  SELECT a, b FROM edges UNION SELECT b AS a, a AS b FROM edges
), reach(n, m) AS (
  SELECT a AS n, b AS m FROM und
  UNION
  SELECT r.n, u.b AS m FROM reach r JOIN und u ON u.a = r.m
)
SELECT n AS doc_id, CAST(least(n, min(m)) AS BIGINT) AS group_id
FROM reach GROUP BY n ORDER BY doc_id
"""


def q_ivf_topk(sf_dir):
    """IVF at default n_probe=4 — exact nonetheless (cell-bound pruned
    expansion), hence SQL-hash-checked against brute force."""
    from cld2_ray.pipelines.simsearch import ivf_topk
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = ivf_topk(ds, list(range(10)), k=5)
    return out[["query_id", "rank", "neighbor_id"]].astype("int64")


def q_ivf_topk_exact(sf_dir):
    """IVF with n_probe = n_clusters: every cell probed, so the result
    equals exact brute force — which makes the cluster-assign ->
    cell-filter -> local-topk -> merge machinery SQL-checkable (the
    approximate ivf_topk stays as the scale path, pytest-pinned)."""
    from cld2_ray.pipelines.simsearch import ivf_topk
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = ivf_topk(ds, list(range(10)), k=5, n_clusters=16, n_probe=16)
    return out[["query_id", "rank", "neighbor_id"]].astype("int64")


SQL_IVF_TOPK_EXACT = """
SELECT query_id, rank, neighbor_id FROM (
  SELECT q.vec_id AS query_id, e.vec_id AS neighbor_id,
         CAST(ROW_NUMBER() OVER (
           PARTITION BY q.vec_id
           ORDER BY list_cosine_similarity(q.embedding, e.embedding) DESC,
                    e.vec_id) AS BIGINT) AS rank
  FROM embeddings q, embeddings e
  WHERE q.vec_id < 10 AND e.vec_id <> q.vec_id
) WHERE rank <= 5
"""


def q_knn_classify(sf_dir):
    from cld2_ray.pipelines.simsearch import knn_classify
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    out = knn_classify(ds, list(range(50)), k=5)
    return out.astype({"query_id": "int64", "predicted_label": "int64"})


SQL_KNN_CLASSIFY = """
WITH ranked AS (
  SELECT q.vec_id AS query_id, e.label,
         ROW_NUMBER() OVER (
           PARTITION BY q.vec_id
           ORDER BY list_cosine_similarity(q.embedding, e.embedding) DESC,
                    e.vec_id) AS rn
  FROM embeddings q, embeddings e
  WHERE q.vec_id < 50 AND e.vec_id <> q.vec_id
), votes AS (
  SELECT query_id, label, count(*) AS c FROM ranked
  WHERE rn <= 5 GROUP BY query_id, label
), best AS (
  SELECT query_id, label,
         ROW_NUMBER() OVER (PARTITION BY query_id
                            ORDER BY c DESC, label) AS rn
  FROM votes
)
SELECT query_id, CAST(label AS BIGINT) AS predicted_label
FROM best WHERE rn = 1
"""


def q_flagship_pages(sf_dir):
    """The full quality-filter pipeline over deterministic synthetic
    pages (count scaled to the documents table)."""
    import pyarrow.parquet as pq

    from cld2_ray.pipelines import flagship
    from cld2_ray.sources.pages import pages_dataset
    n_docs = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    ds = pages_dataset(min(n_docs, 500), seed=42)
    return flagship.build_fused(ds).drop_columns(["warc_ts"])


def q_eval_confusion(sf_dir):
    """Corpus evaluation harness (S2/A3): per-language P/R/F1 of the
    flagship pipeline against the generator's labels."""
    from cld2_ray.pipelines.evaluate import evaluate
    return evaluate(q_flagship_pages(sf_dir))


def q_media_decode(sf_dir):
    """Multimodal image pipeline with a REAL decoder: one BMP per
    documents row (dimensions a pure function of doc_id — the oracle
    contract), decoded by parsing the actual bytes in the actor stage.
    A decode that stops parsing breaks the hash check."""
    from cld2_ray.functions.media import make_bmp
    from cld2_ray.stages.multimodal import ImageDecodeStage, ImageEmbedStage
    ds = _read(sf_dir, "documents", ["doc_id"])

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "media_id": df["doc_id"].astype(np.int64),
            "image": [make_bmp(int(d)) for d in df["doc_id"]]})

    ds = ds.map_batches(gen, batch_format="pandas", batch_size=None)
    ds = ds.map_batches(ImageDecodeStage, batch_format="pyarrow",
                        batch_size=64, concurrency=(1, 2))
    ds = ds.map_batches(ImageEmbedStage, batch_format="pyarrow",
                        batch_size=64, concurrency=(1, 2))
    return ds.select_columns(["media_id", "width", "height", "channels"])


# width/height formulas = cld2_ray.functions.media.bmp_dims_for
SQL_MEDIA_DECODE = """
SELECT doc_id AS media_id,
       CAST(16 + doc_id % 64 AS BIGINT) AS width,
       CAST(16 + (doc_id * 7) % 64 AS BIGINT) AS height,
       CAST(3 AS BIGINT) AS channels
FROM documents
"""


def q_media_resize(sf_dir):
    """Multimodal image RESIZE pipeline: one BMP per documents row,
    nearest-neighbor resized to 24x24 by the actor stage (real pixels,
    re-encoded), then decoded AGAIN by ImageDecodeStage — so the hash
    check proves the resized bytes are themselves a valid image of the
    target dimensions, not just that metadata was stamped."""
    from cld2_ray.functions.media import make_bmp
    from cld2_ray.stages.multimodal import ImageDecodeStage, ImageResizeStage
    ds = _read(sf_dir, "documents", ["doc_id"])

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "media_id": df["doc_id"].astype(np.int64),
            "image": [make_bmp(int(d)) for d in df["doc_id"]]})

    ds = ds.map_batches(gen, batch_format="pandas", batch_size=None)
    ds = ds.map_batches(ImageResizeStage, batch_format="pyarrow",
                        batch_size=64, concurrency=(1, 2))
    ds = ds.map_batches(ImageDecodeStage, batch_format="pyarrow",
                        fn_constructor_kwargs={"image_col": "resized"},
                        batch_size=64, concurrency=(1, 2))
    return ds.select_columns(["media_id", "out_width", "out_height",
                              "width", "height", "resize_ok"])


SQL_MEDIA_RESIZE = """
SELECT doc_id AS media_id,
       CAST(24 AS BIGINT) AS out_width, CAST(24 AS BIGINT) AS out_height,
       CAST(24 AS BIGINT) AS width, CAST(24 AS BIGINT) AS height,
       TRUE AS resize_ok
FROM documents
"""


def q_media_audio(sf_dir):
    """Multimodal audio pipeline with a REAL PCM-WAV parser: one WAV
    per documents row (sample count a pure function of doc_id),
    frame-sampled by the actor stage."""
    from cld2_ray.functions.media import make_wav
    from cld2_ray.stages.multimodal import AudioFrameStage
    ds = _read(sf_dir, "documents", ["doc_id"])

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "media_id": df["doc_id"].astype(np.int64),
            "audio": [make_wav(int(d)) for d in df["doc_id"]]})

    ds = ds.map_batches(gen, batch_format="pandas", batch_size=None)
    ds = ds.map_batches(AudioFrameStage, batch_format="pyarrow",
                        batch_size=64, concurrency=(1, 2))
    return ds.select_columns(["media_id", "sample_rate", "n_samples",
                              "n_frames"])


# n_samples = 800 + (doc_id % 32) * 400 (media.wav_params_for);
# n_frames = n_samples // (16000 * 25ms / 1000) = n_samples // 400
SQL_MEDIA_AUDIO = """
SELECT doc_id AS media_id,
       CAST(16000 AS BIGINT) AS sample_rate,
       CAST(800 + (doc_id % 32) * 400 AS BIGINT) AS n_samples,
       CAST((800 + (doc_id % 32) * 400) // 400 AS BIGINT) AS n_frames
FROM documents
"""


def q_media_video(sf_dir):
    """Multimodal VIDEO pipeline with a REAL container parser
    (YUV4MPEG2): one Y4M clip per documents row (dimensions and frame
    count pure functions of doc_id — the oracle contract), frame
    markers walked and every 2nd luma plane decoded by the actor
    stage. A parser that stops reading the stream breaks the n_frames
    hash check."""
    from cld2_ray.functions.media import make_y4m
    from cld2_ray.stages.multimodal import VideoFrameSampleStage
    ds = _read(sf_dir, "documents", ["doc_id"])

    def gen(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "media_id": df["doc_id"].astype(np.int64),
            "video": [make_y4m(int(d)) for d in df["doc_id"]]})

    ds = ds.map_batches(gen, batch_format="pandas", batch_size=None)
    ds = ds.map_batches(VideoFrameSampleStage, batch_format="pyarrow",
                        batch_size=64, concurrency=(1, 2))
    return ds.select_columns(["media_id", "width", "height",
                              "n_frames", "n_sampled"])


# contracts = media.y4m_params_for; n_sampled = ceil(n_frames / 2)
SQL_MEDIA_VIDEO = """
SELECT doc_id AS media_id,
       CAST(16 + (doc_id % 8) * 2 AS BIGINT) AS width,
       CAST(16 + (doc_id % 5) * 4 AS BIGINT) AS height,
       CAST(4 + doc_id % 12 AS BIGINT) AS n_frames,
       CAST((4 + doc_id % 12 + 1) // 2 AS BIGINT) AS n_sampled
FROM documents
"""


# --------------------------------------------------------------------------
# training-data curation: decontamination / rollup / inverted index / CDF
# --------------------------------------------------------------------------

def q_decontaminate(sf_dir, n: int = 4, mod: int = 97):
    """Benchmark decontamination: flag every corpus document sharing a
    word ``n``-gram with the held-out eval subset (doc_id % mod == 0
    stands in for the benchmark suite), with its distinct-overlap
    count. Production recipes use 13-grams (GPT-3 appx. C); the test
    corpus's tiny vocabulary needs n=4 for any overlap to exist.

    Scale shape: the benchmark side is tiny and FIXED (an eval suite),
    so its shingle set is collected once (bounded by benchmark size,
    not corpus size) and broadcast via ray.put; the corpus side is one
    streaming map_batches with NO shuffle. Matching is 64-bit-hash
    prefiltered (vectorized searchsorted) and string-verified at the
    rare hash hits — exact up to 64-bit cross-string hash collisions
    (verification runs once per distinct matched hash using its first
    occurrence in the batch, so two DIFFERENT strings sharing a 64-bit
    hash could mis-flag; odds ~2^-64 per pair, accepted)."""
    import ray

    from cld2_ray.functions.textstats import shingle_hashes, token_hashes

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def bench_shingles(t: pa.Table) -> pa.Table:
        # SAME tokenizer as the flag side (Arrow RE2 \s+, = the DuckDB
        # oracle's string_split_regex): python str.split() treats
        # unicode whitespace (NBSP etc.) differently and would build a
        # shingle set the corpus side can never match
        import pyarrow.compute as pc
        sel = t["doc_id"].to_numpy() % mod == 0
        out: set[str] = set()
        if sel.any():
            col = pc.utf8_trim(pc.coalesce(
                t.filter(pa.array(sel))["text"].combine_chunks(),
                pa.scalar("")), TRIM_CHARS)    # DuckDB-trim parity: spaces only
            col = pc.filter(col, pc.not_equal(col, ""))
            toks = pc.split_pattern_regex(col, r"\s+")
            for ws in toks.to_pylist():      # benchmark side is tiny
                for j in range(len(ws) - n + 1):
                    out.add(" ".join(ws[j:j + n]))
        return pa.table({"sh": pa.array(sorted(out), pa.string())})

    # benchmark shingle set: small by construction — collect + broadcast
    bench_parts = ds.map_batches(bench_shingles, batch_format="pyarrow",
                                 batch_size=None).take_all()
    bench_set = {r["sh"] for r in bench_parts}
    bench_hashes = np.unique(np.concatenate([
        shingle_hashes(token_hashes(s.split(" ")), n)
        for s in bench_set]) if bench_set else
        np.empty(0, np.uint64))
    bench_ref = ray.put((bench_hashes, bench_set))

    class Flag:
        def __init__(self):
            self.hashes, self.strings = ray.get(bench_ref)

        def __call__(self, t: pa.Table) -> pa.Table:
            # fully batch-vectorized: one Arrow tokenize over the
            # batch, token hashes computed once per DISTINCT token
            # (factorize + one C pass), shingle hashes rolled
            # over the flat token stream with doc-boundary masking,
            # one searchsorted prefilter — the per-doc Python loop
            # cost 87us/doc at the 200k stress scale
            import pyarrow.compute as pc
            empty = pa.table({"doc_id": pa.array([], pa.int64()),
                              "n_hits": pa.array([], pa.int64())})
            if not len(self.hashes):
                return empty
            doc_ids = t["doc_id"].to_numpy()
            keep = doc_ids % mod != 0
            if not keep.any():
                return empty
            sub = t.filter(pa.array(keep))
            col = pc.utf8_trim(pc.coalesce(
                sub["text"].combine_chunks(), pa.scalar("")), TRIM_CHARS)
            nonempty = pc.not_equal(col, "") \
                .to_numpy(zero_copy_only=False)  # DuckDB-trim parity
            doc_ids = sub["doc_id"].to_numpy()[nonempty]
            toks = pc.split_pattern_regex(
                pc.filter(col, pa.array(nonempty)), r"\s+")
            lens = pc.list_value_length(toks).to_numpy()
            # dictionary_encode: only the VOCABULARY becomes Python
            # strings, never the 10^2x larger occurrence stream
            enc = pc.list_flatten(toks).dictionary_encode()
            codes = enc.indices.to_numpy()
            uniq = enc.dictionary.to_pylist()
            uh = token_hashes(uniq)
            sh_all = shingle_hashes(uh[codes], n)
            if not len(sh_all):
                return empty
            # window start p (flat index) is valid iff it stays inside
            # one document: p >= doc_start and p+n-1 <= doc_end
            ends = np.cumsum(lens)                     # exclusive ends
            doc_of = np.repeat(np.arange(len(lens)), lens)[:len(sh_all)]
            valid = (np.arange(len(sh_all)) + n) <= ends[doc_of]
            pos = np.searchsorted(self.hashes, sh_all)
            pos[pos == len(self.hashes)] = 0
            cand = np.nonzero(valid
                              & (self.hashes[pos] == sh_all))[0]
            if not len(cand):
                return empty
            # string-verify once per DISTINCT matched hash (bounded by
            # the benchmark size, not by corpus occurrences), then the
            # per-doc distinct-overlap count is a vectorized unique
            # over (doc, hash) pairs
            sh_c = sh_all[cand]
            uniq_h, first_i = np.unique(sh_c, return_index=True)
            ok_hashes = np.array([
                h for h, p in zip(uniq_h.tolist(),
                                  cand[first_i].tolist())
                if " ".join(uniq[c] for c in codes[p:p + n])
                in self.strings], dtype=np.uint64)
            if not len(ok_hashes):
                return empty
            ok_hashes.sort()
            j = np.searchsorted(ok_hashes, sh_c)
            j[j == len(ok_hashes)] = 0
            m = ok_hashes[j] == sh_c
            # distinct (doc, hash) pairs via lexsort + consecutive
            # dedup (np.unique(axis=1) sorts void records, ~8x slower)
            dm, sm = doc_of[cand[m]], sh_c[m]
            order = np.lexsort((sm, dm))
            dm, sm = dm[order], sm[order]
            new = np.empty(len(dm), bool)
            new[0] = True
            new[1:] = (dm[1:] != dm[:-1]) | (sm[1:] != sm[:-1])
            docs, n_hits = np.unique(dm[new], return_counts=True)
            return pa.table({
                "doc_id": pa.array(doc_ids[docs], pa.int64()),
                "n_hits": pa.array(n_hits.astype(np.int64))})

    return ds.map_batches(Flag, batch_format="pyarrow",
                          batch_size=None, concurrency=(1, 8))


SQL_DECONTAMINATE = """
WITH toks AS (
  SELECT doc_id, string_split_regex(trim(text), '\\s+') AS t
  FROM documents WHERE trim(text) <> ''
),
grams AS (
  SELECT doc_id, array_to_string(t[i:i+3], ' ') AS sh
  FROM (SELECT doc_id, t, unnest(range(1, len(t) - 2)) AS i FROM toks)
),
bench AS (SELECT DISTINCT sh FROM grams WHERE doc_id % 97 = 0)
SELECT g.doc_id, CAST(count(DISTINCT g.sh) AS BIGINT) AS n_hits
FROM grams g JOIN bench b USING (sh)
WHERE g.doc_id % 97 <> 0
GROUP BY g.doc_id
"""


def q_lang_source_rollup(sf_dir):
    """Multi-level aggregate (GROUP BY ROLLUP): per-(lang, source),
    per-lang, and grand-total doc/char counts in ONE pass — each batch
    emits all three rollup levels as pre-aggregated partials (3x a few
    rows per batch), so a single tiny groupby finishes every level; no
    second scan, no driver-side accumulation. An explicit grouping
    level rides along (SQL: GROUPING(lang, source) bitmask) so a real
    lang/source value spelled 'ALL' can never merge into a subtotal
    row."""
    from ray.data.aggregate import Sum
    ds = _read(sf_dir, "documents", ["lang", "source", "n_chars"])

    def partial(df: pd.DataFrame) -> pa.Table:
        g = df.groupby(["lang", "source"], as_index=False).agg(
            n_docs=("n_chars", "size"), total_chars=("n_chars", "sum"))
        g["grouping_level"] = 0
        l1 = g.groupby("lang", as_index=False)[
            ["n_docs", "total_chars"]].sum()
        l1["source"] = "ALL"
        l1["grouping_level"] = 1
        l2 = pd.DataFrame({"lang": ["ALL"], "source": ["ALL"],
                           "n_docs": [g["n_docs"].sum()],
                           "total_chars": [g["total_chars"].sum()],
                           "grouping_level": [3]})
        cols = ["lang", "source", "grouping_level", "n_docs",
                "total_chars"]
        out = pd.concat([g[cols], l1[cols], l2[cols]], ignore_index=True)
        out["n_docs"] = out["n_docs"].astype(np.int64)
        out["total_chars"] = out["total_chars"].astype(np.int64)
        out["grouping_level"] = out["grouping_level"].astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    # bounded partials materialized before the sort aggregate (see
    # q_events_hourly)
    return ds.map_batches(partial, batch_format="pandas",
                          batch_size=None).materialize() \
        .groupby(["lang", "source", "grouping_level"]).aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("total_chars", alias_name="total_chars"))


SQL_LANG_SOURCE_ROLLUP = """
SELECT coalesce(lang, 'ALL') AS lang, coalesce(source, 'ALL') AS source,
       CAST(GROUPING(lang, source) AS BIGINT) AS grouping_level,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS total_chars
FROM documents GROUP BY ROLLUP (lang, source)
"""


def q_inverted_index(sf_dir, cap: int = 10):
    """Inverted index with truncated postings: token -> total document
    frequency + the first ``cap`` doc_ids (ascending), the classic
    index-build primitive. Scale shape: each batch pre-merges to at
    most (cap ids + 1 count) per token, so the shuffle carries O(vocab
    x cap) per block regardless of corpus size; the final per-token
    merge is a vectorized sort + groupby-head over 64 hash buckets
    (never one Python group per token)."""
    from ray.data.aggregate import Sum
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def pairs(t: pa.Table) -> pa.Table:
        # distinct (token, doc) pairs fully vectorized: Arrow tokenize,
        # dictionary-encode the occurrence stream (only the vocabulary
        # becomes Python strings), lexsort + consecutive dedup (a doc's
        # tokens live in one row -> per-doc distinct IS global distinct)
        import pyarrow.compute as pc
        col = pc.utf8_trim(pc.coalesce(
            t["text"].combine_chunks(), pa.scalar("")), TRIM_CHARS)
        # DuckDB-trim parity: spaces-only trim, trim-empty DOCS are
        # excluded, but "" edge tokens from tab/newline edges are kept
        # (the oracle indexes them)
        nonempty = pc.not_equal(col, "").to_numpy(zero_copy_only=False)
        toks = pc.split_pattern_regex(
            pc.filter(col, pa.array(nonempty)), r"\s+")
        lens = pc.list_value_length(toks).to_numpy()
        enc = pc.list_flatten(toks).dictionary_encode()
        codes = enc.indices.to_numpy().astype(np.int64)
        doc = np.repeat(t["doc_id"].to_numpy()[nonempty], lens)
        order = np.lexsort((doc, codes))
        codes, doc = codes[order], doc[order]
        if len(codes):
            new = np.empty(len(codes), bool)
            new[0] = True
            new[1:] = (codes[1:] != codes[:-1]) | (doc[1:] != doc[:-1])
            codes, doc = codes[new], doc[new]
        part = pd.DataFrame({"token": pd.array(
            enc.dictionary.to_pandas().to_numpy(dtype=object)[codes],
            dtype=object), "doc_id": doc})
        cnt = part.groupby("token", sort=False)["doc_id"]
        head = part[cnt.cumcount() < cap]
        g = cnt.size()
        return pa.table({
            "token": pa.array(head["token"], pa.string()),
            "doc_id": pa.array(head["doc_id"].to_numpy(np.int64)),
            # per-token partial df rides on the token's FIRST head row;
            # other rows carry 0 so the Sum is exact
            "df_part": pa.array(np.where(
                ~head["token"].duplicated(), g.loc[head["token"]].to_numpy(),
                0).astype(np.int64))})

    p = ds.map_batches(pairs, batch_format="pyarrow", batch_size=None)

    def bucket(t: pa.Table) -> pa.Table:
        b = (pd.util.hash_pandas_object(
            pd.Series(t["token"].to_pandas()), index=False).to_numpy()
            % 64).astype(np.int64)
        return t.append_column("bucket", pa.array(b))

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["token", "doc_id"], kind="stable")
        df_tot = g.groupby("token", sort=False)["df_part"].sum()
        head = g[g.groupby("token", sort=False).cumcount() < cap]
        posting = head.groupby("token", sort=False)["doc_id"].agg(
            lambda s: ",".join(map(str, s)))
        return pd.DataFrame({
            "token": posting.index.to_numpy(dtype=object),
            "n_docs": df_tot.loc[posting.index].to_numpy(np.int64),
            "posting": posting.to_numpy(dtype=object)})

    # coalesced map side before the bucket exchange (the postings
    # partials are vocab x cap-scaled; measured 479 MiB of driver
    # heap at stress scale uncoalesced — pipelines/shuffle.py)
    from cld2_ray.pipelines.shuffle import coalesced
    return coalesced(
        p.map_batches(bucket, batch_format="pyarrow",
                      batch_size=None).materialize()) \
        .groupby("bucket").map_groups(merge, batch_format="pandas") \
        .select_columns(["token", "n_docs", "posting"])


SQL_INVERTED_INDEX = """
WITH pairs AS (
  SELECT DISTINCT doc_id, token FROM (
    SELECT doc_id, unnest(string_split_regex(trim(text), '\\s+')) AS token
    FROM documents WHERE trim(text) <> '')
),
r AS (
  SELECT token, doc_id,
         row_number() OVER (PARTITION BY token ORDER BY doc_id) AS rn,
         count(*) OVER (PARTITION BY token) AS c
  FROM pairs
)
SELECT token, CAST(max(c) AS BIGINT) AS n_docs,
       string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id)
         FILTER (rn <= 10) AS posting
FROM r GROUP BY token
"""


def q_length_cdf(sf_dir):
    """Cumulative length distribution: histogram buckets with a
    running total (SUM OVER ORDER BY window parity). The corpus-wide
    work is the pre-aggregated histogram groupby; the cumulative sum
    runs on the driver over the tiny bucket table (same bounded-result
    pattern as the top-k queries)."""
    from ray.data.aggregate import Count
    ds = _read(sf_dir, "documents", ["n_chars"])

    def bucket(df: pd.DataFrame) -> pa.Table:
        return pa.table({
            "bucket": (df["n_chars"] // 100).to_numpy(np.int64)})
    h = ds.map_batches(bucket, batch_format="pandas", batch_size=None) \
        .groupby("bucket").aggregate(Count(alias_name="n_docs")) \
        .to_pandas().sort_values("bucket")
    h["cum_docs"] = h["n_docs"].cumsum().astype(np.int64)
    return h.reset_index(drop=True)


SQL_LENGTH_CDF = """
WITH h AS (SELECT CAST(n_chars // 100 AS BIGINT) AS bucket,
                  count(*) AS n FROM documents GROUP BY 1)
SELECT bucket, CAST(n AS BIGINT) AS n_docs,
       CAST(sum(n) OVER (ORDER BY bucket) AS BIGINT) AS cum_docs
FROM h
"""


def q_incremental_dedup(sf_dir, mod: int = 7):
    """Dedup against a prior snapshot (the incremental-crawl case):
    new documents (doc_id % mod != 0) are kept only if their content
    md5 does not appear in the prior corpus (doc_id % mod == 0).
    Distributed LEFT ANTI hash join on the md5 — BOTH sides shuffle
    on the hash key (the prior corpus is unbounded at 100 TB, so a
    broadcast set would not survive; text itself never shuffles)."""
    import hashlib

    import pyarrow.parquet as pq
    import ray
    # partition count scales with the input, not just the cluster: a
    # tiny snapshot doesn't need CPU/2 aggregator actors spun up
    n_rows = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    n_part = max(2, min(int(ray.cluster_resources().get("CPU", 8)) // 2,
                        n_rows // 25_000 + 2))
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def fp(keep_new: bool):
        def f(df: pd.DataFrame) -> pa.Table:
            sub = df[(df["doc_id"] % mod != 0) == keep_new]
            md5 = [hashlib.md5((t or "").encode()).hexdigest()
                   for t in sub["text"]]
            cols = {"content_md5": pa.array(md5, pa.string())}
            if keep_new:
                cols["doc_id"] = pa.array(
                    sub["doc_id"].to_numpy(np.int64))
            return pa.table(cols)
        return f

    new = ds.map_batches(fp(True), batch_format="pandas", batch_size=None)
    prior = ds.map_batches(fp(False), batch_format="pandas", batch_size=None)
    out = new.join(prior, join_type="left_anti", on=("content_md5",),
                   num_partitions=n_part,
                   aggregator_ray_remote_args={"num_cpus": 0.25})
    # stays a Dataset: kept-doc cardinality is corpus-sized at 100 TB
    import pyarrow.compute as pc
    return out.map_batches(
        lambda t: pa.table({
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "content_md5": pc.cast(t["content_md5"], pa.string())}),
        batch_format="pyarrow", batch_size=None)


def _md5_h64(texts) -> tuple:
    """(hex_md5: list[str], h1: uint64[], h2: uint64[]) per text —
    the two independent 64-bit halves of the md5 digest drive the
    Bloom filter's double hashing. One C md5 pass."""
    from cld2_ray import native
    raw = native.md5_batch(*native.utf8_cat([t or "" for t in texts]))
    # pin LITTLE-endian: a platform-endian view would set bloom bits
    # under one interpretation and probe under another on mixed-endian
    # clusters
    h = raw.view(np.dtype("<u8")).reshape(-1, 2) \
        .astype(np.uint64, copy=True)
    hexes = np.asarray(native.hex_digest(raw)).astype("U32")
    return hexes.tolist(), h[:, 0].copy(), h[:, 1].copy()


BLOOM_BITS_PER_KEY = 16
BLOOM_K = 8


def _bloom_bits(sf_dir, mod: int) -> int:
    """Bloom filter size m (bits, a multiple of 64) for the prior
    snapshot of q_incremental_dedup_bloom: BLOOM_BITS_PER_KEY per
    prior key (doc_id % mod == 0), counted from the doc_id column
    alone — doc_ids need not be dense, so n_rows / mod can be far off."""
    def count(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table({"n": [int(np.count_nonzero(ids % mod == 0))]})

    n_prior = sum(r["n"] for r in _read(sf_dir, "documents", ["doc_id"])
                  .map_batches(count, batch_format="pyarrow",
                               batch_size=None).take_all())
    return max(64, ((n_prior * BLOOM_BITS_PER_KEY + 63) // 64) * 64)


def q_incremental_dedup_bloom(sf_dir, mod: int = 7):
    """Bloom-accelerated incremental dedup — EXACT same output as
    q_incremental_dedup (same oracle SQL): the corpus side is pruned
    with a Bloom filter of the prior snapshot BEFORE the shuffle
    join. Definite-misses (the vast majority of genuinely-new docs)
    are kept with ZERO shuffle; only maybe-present docs (true dups +
    the filter's ~0.06% false positives at 16 bits/key, k=8) enter
    the exact LEFT ANTI join, shrinking the join's shuffle volume to
    ~the duplicate rate. The output stays exact because the bloom is
    only a pre-filter — false positives are re-checked by the join,
    and a Bloom filter has no false negatives.

    Build: per-block partial filters (m/64 uint64 words, bits set by
    double hashing h1 + i*h2 over the md5 halves) OR-reduced on the
    driver and ray.put once. Driver memory is m bits — 2 bytes/key;
    at 10^12 prior keys shard the filter by key-bucket (one object
    per shard, tasks probe their bucket's shard) instead of one
    global array; one shard suffices at any test scale here."""
    import ray

    m = _bloom_bits(sf_dir, mod)
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    # ONE pass over the prior snapshot emits BOTH the anti-join key
    # rows (doc_id == -1) and one per-block partial-bloom carrier row
    # (doc_id == -2, filter bytes hex in content_md5) — the prior
    # text is read and hashed exactly once. Materialized: fixed-width
    # key rows only, no text.
    def prior_pass(df: pd.DataFrame) -> pa.Table:
        sub = df[df["doc_id"] % mod == 0]
        words = np.zeros(m // 64, dtype=np.uint64)
        ids = np.full(len(sub) + 1, -1, np.int64)
        ids[-1] = -2
        parts = np.full(len(sub) + 1, -1, np.int64)
        if len(sub):
            hexes, h1, h2 = _md5_h64(sub["text"].tolist())
            for i in range(BLOOM_K):
                idx = (h1 + np.uint64(i) * h2) % np.uint64(m)
                np.bitwise_or.at(words, (idx >> np.uint64(6)).astype(
                    np.int64), np.uint64(1) << (idx & np.uint64(63)))
            parts[:-1] = (h1 % np.uint64(64)).astype(np.int64)
        else:
            hexes = []
        keys = list(hexes) + [words.astype("<u8").tobytes().hex()]
        return pa.table({"doc_id": pa.array(ids),
                         "content_md5": pa.array(keys, pa.string()),
                         "part_": pa.array(parts)})

    prior_all = ds.map_batches(prior_pass, batch_format="pandas",
                               batch_size=None).materialize()
    bloom = np.zeros(m // 64, dtype=np.uint64)
    for row in prior_all.filter(expr="doc_id == -2").take_all():
        bloom |= np.frombuffer(bytes.fromhex(row["content_md5"]),
                               dtype="<u8").astype(np.uint64)
    bloom_ref = ray.put(bloom)
    prior = prior_all.filter(expr="doc_id == -1")

    def probe(df: pd.DataFrame) -> pa.Table:
        sub = df[df["doc_id"] % mod != 0]
        if not len(sub):
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "content_md5": pa.array([], pa.string()),
                             "part_": pa.array([], pa.int64()),
                             "maybe": pa.array([], pa.bool_())})
        blm = ray.get(bloom_ref)
        hexes, h1, h2 = _md5_h64(sub["text"].tolist())
        maybe = np.ones(len(sub), dtype=bool)
        for i in range(BLOOM_K):
            idx = (h1 + np.uint64(i) * h2) % np.uint64(m)
            bit = (blm[(idx >> np.uint64(6)).astype(np.int64)]
                   >> (idx & np.uint64(63))) & np.uint64(1)
            maybe &= bit.astype(bool)
        return pa.table({
            "doc_id": pa.array(sub["doc_id"].to_numpy(np.int64)),
            "content_md5": pa.array(np.array(hexes, dtype=object),
                                    pa.string()),
            "part_": pa.array((h1 % np.uint64(64)).astype(np.int64)),
            "maybe": pa.array(maybe)})

    # ONE text+md5 pass; materialized so the definite/maybe consumers
    # below don't each re-execute it. The materialized table is keys
    # only (fixed-width doc_id/md5/bucket/flag — no text): ~60 B/doc,
    # object-store-resident and spillable at corpus scale.
    probed = ds.map_batches(probe, batch_format="pandas",
                            batch_size=None).materialize()
    definite_new = probed.filter(expr="maybe == False") \
        .select_columns(["doc_id", "content_md5"])
    maybe = probed.filter(expr="maybe == True") \
        .select_columns(["doc_id", "content_md5", "part_"])

    # exact anti join over the pruned candidates, via the repo's
    # 64-bucket co-partition idiom (groupby + vectorized isin) —
    # ray.data's hash-shuffle join drops partition schema when the
    # bloom leaves a partition EMPTY (reproduced; the unpruned
    # incremental_dedup never hits it because its left side is the
    # whole corpus). doc_id == -1 marks the prior side; buckets key
    # off the md5's first 64-bit half, so both sides co-locate.
    # (an Arrow table, not pandas: a bucket with only prior rows gives
    # an empty object column, whose size Ray's estimator cannot take)
    def anti(g: pd.DataFrame) -> pa.Table:
        prior_keys_ = set(g.loc[g["doc_id"] < 0, "content_md5"])
        keep = g[(g["doc_id"] >= 0)
                 & ~g["content_md5"].isin(prior_keys_)]
        return pa.table({
            "doc_id": pa.array(keep["doc_id"].to_numpy(np.int64)),
            "content_md5": pa.array(keep["content_md5"].tolist(),
                                    pa.string())})

    # coalesce before the sort shuffle: the two key tables arrive as
    # one tiny block per input row-group (~600 rows each here), and
    # fragmented sort pieces inline on the owner (the round-5
    # _exchange_blocks lesson — BASELINE.md)
    survivors = maybe.union(prior).repartition(16) \
        .groupby("part_").map_groups(anti, batch_format="pandas")
    return definite_new.union(survivors)


# coalesce: the Ray side hashes NULL text as '' (a NULL never matches
# anything under SQL equality, which would silently keep every
# null-text doc); both sides pin "null text == empty text"
SQL_INCREMENTAL_DEDUP = """
SELECT d.doc_id, md5(coalesce(d.text, '')) AS content_md5
FROM documents d
WHERE d.doc_id % 7 <> 0
  AND NOT EXISTS (SELECT 1 FROM documents p
                  WHERE p.doc_id % 7 = 0
                    AND md5(coalesce(p.text, '')) = md5(coalesce(d.text, '')))
ORDER BY d.doc_id
"""


def q_partitioned_sink(sf_dir):
    """Partitioned-parquet sink round-trip (the resumable-output
    layout): write documents partitioned by lang (one directory per
    partition value — a failed run can skip finished partitions),
    read the partition tree back, and aggregate. Checked against the
    original table's oracle, so a writer that drops or duplicates
    rows across partitions fails the hash."""
    import shutil
    import ray.data as rd
    out = f"/tmp/cld2_ray_part_sink_{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    ds = _read(sf_dir, "documents", ["lang", "source", "n_chars"])
    ds.write_parquet(out, partition_cols=["lang"])
    back = rd.read_parquet(out)
    from ray.data.aggregate import Count, Sum
    return back.groupby("lang").aggregate(
        Count(alias_name="n_docs"),
        Sum("n_chars", alias_name="total_chars"))


def q_click_buyers(sf_dir):
    """Groupby + HAVING (INTERSECT-shaped semi-join): users with BOTH
    click and purchase events, with per-type counts. One pass: each
    batch pre-aggregates conditional counts per user, a small groupby
    sums them, and the HAVING filter is a trivial post-map — no join,
    no second scan of the events table."""
    from ray.data.aggregate import Sum
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def partial(df: pd.DataFrame) -> pa.Table:
        g = pd.DataFrame({
            "user_id": df["user_id"],
            "n_clicks": (df["event_type"] == "click").astype(np.int64),
            "n_purchases": (df["event_type"] == "purchase")
            .astype(np.int64),
        }).groupby("user_id", as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    # bounded partials materialized before the sort aggregate (see
    # q_events_hourly)
    out = ds.map_batches(partial, batch_format="pandas",
                         batch_size=None).materialize() \
        .groupby("user_id").aggregate(
            Sum("n_clicks", alias_name="n_clicks"),
            Sum("n_purchases", alias_name="n_purchases"))
    def having(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return t.filter(pc.and_(pc.greater(t["n_clicks"], 0),
                                pc.greater(t["n_purchases"], 0)))
    return out.map_batches(having, batch_format="pyarrow", batch_size=None)


SQL_CLICK_BUYERS = """
SELECT user_id,
       CAST(count(*) FILTER (event_type = 'click') AS BIGINT)
         AS n_clicks,
       CAST(count(*) FILTER (event_type = 'purchase') AS BIGINT)
         AS n_purchases
FROM events GROUP BY user_id
HAVING n_clicks > 0 AND n_purchases > 0
"""


def q_epoch_shuffle(sf_dir):
    """Deterministic global shuffle (training-epoch permutation): every
    row keyed by md5 of its doc_id and globally sorted — the seeded,
    resumable alternative to random_shuffle() (same all-to-all cost,
    but any worker can recompute its slice). The check returns the
    first 20 rows of the permuted order."""
    import hashlib
    ds = _read(sf_dir, "documents", ["doc_id"])

    def key(df: pd.DataFrame) -> pa.Table:
        sk = [hashlib.md5(str(int(d)).encode()).hexdigest()
              for d in df["doc_id"]]
        return pa.table({"doc_id": df["doc_id"].to_numpy(np.int64),
                         "shuffle_key": pa.array(sk, pa.string())})

    return ds.map_batches(key, batch_format="pandas", batch_size=None) \
        .sort("shuffle_key").limit(20)


SQL_EPOCH_SHUFFLE = """
SELECT doc_id, md5(CAST(doc_id AS VARCHAR)) AS shuffle_key
FROM documents ORDER BY shuffle_key LIMIT 20
"""


def _roundtrip(sf_dir, fmt: str):
    """Write the documents table out in ``fmt`` (jsonl / csv) and read
    it back with the matching ray.data reader, then aggregate — proves
    the non-parquet source paths end to end against the parquet oracle.
    Output goes to a per-format dir under /tmp, one file per block
    (resumable-output layout)."""
    import shutil
    import ray.data as rd
    # pid suffix: two concurrent runs (selfcheck + pytest on this
    # shared VM) must not rmtree each other's tree mid-read
    out = f"/tmp/cld2_ray_roundtrip_{fmt}_{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    ds = _read(sf_dir, "documents", ["lang", "n_chars"])
    if fmt == "jsonl":
        ds.write_json(out)
        back = rd.read_json(out)
    else:
        ds.write_csv(out)
        back = rd.read_csv(out)
    from ray.data.aggregate import Count, Sum
    return back.groupby("lang").aggregate(
        Count(alias_name="n_docs"),
        Sum("n_chars", alias_name="total_chars"))


def q_source_jsonl(sf_dir):
    return _roundtrip(sf_dir, "jsonl")


def q_source_csv(sf_dir):
    return _roundtrip(sf_dir, "csv")


# --------------------------------------------------------------------------
# URL canonicalization / per-domain aggregation (web-pipeline ops over a
# derived URL column — same oracle contract as the media queries: the raw
# URL is a pure function of doc_id, constructed identically in the SQL, so
# the hash check proves the STRING canonicalization ran, not the formula)
# --------------------------------------------------------------------------

def _derived_urls(t: pa.Table) -> pa.Array:
    """Messy raw URL per doc_id: scheme / www. / host-case / tracking-
    query variants so several doc_ids canonicalize to the same key."""
    d = t["doc_id"].to_numpy(zero_copy_only=False)
    scheme = np.where(d % 2 == 0, "https://", "http://")
    www = np.where(d % 3 == 0, "www.", "")
    dom = np.char.add("site", (d % 500).astype("U4"))
    host = np.where(d % 5 == 0, np.char.add(dom, ".Example.COM"),
                    np.char.add(dom, ".example.com"))
    path = np.char.add("/page/", (d % 2000).astype("U5"))
    query = np.where(d % 4 == 0, "?utm_source=feed&ref=rss", "")
    raw = np.char.add(np.char.add(np.char.add(scheme, www),
                                  np.char.add(host, path)), query)
    return pa.array(raw.tolist(), type=pa.string())


def q_url_canonical_dedup(sf_dir):
    """URL-canonicalization dedup (the cheap first pass of a crawl
    pipeline, before any content hashing): canonicalize the raw URL
    string column (functions/urltools.canonicalize_urls — scheme/
    query/fragment dropped, host lowercased, www. and default port
    stripped) and keep the smallest doc_id per canonical key.
    100-TB shape: the partials collapse each block to its distinct
    canonical keys before the groupby, so the shuffle moves keys, not
    documents."""
    from ray.data.aggregate import Min, Sum

    from cld2_ray.functions.urltools import canonicalize_urls
    ds = _read(sf_dir, "documents", ["doc_id"])

    def canon(t: pa.Table) -> pa.Table:
        curl = canonicalize_urls(_derived_urls(t))
        part = pa.table({"canonical_url": curl, "doc_id": t["doc_id"]})
        g = part.group_by("canonical_url").aggregate(
            [("doc_id", "min"), ("doc_id", "count")])
        return pa.table({"canonical_url": g["canonical_url"],
                         "doc_id": g["doc_id_min"],
                         "n_dups": g["doc_id_count"].cast(pa.int64())})

    return ds.map_batches(canon, batch_format="pyarrow",
                          batch_size=None) \
        .groupby("canonical_url").aggregate(
            Min("doc_id", alias_name="doc_id"),
            Sum("n_dups", alias_name="n_dups"))


SQL_URL_CANONICAL_DEDUP = """
WITH raw AS (
  SELECT doc_id,
         (CASE WHEN doc_id % 2 = 0 THEN 'https://' ELSE 'http://' END)
         || (CASE WHEN doc_id % 3 = 0 THEN 'www.' ELSE '' END)
         || (CASE WHEN doc_id % 5 = 0
                  THEN 'site' || (doc_id % 500) || '.Example.COM'
                  ELSE 'site' || (doc_id % 500) || '.example.com' END)
         || '/page/' || (doc_id % 2000)
         || (CASE WHEN doc_id % 4 = 0
                  THEN '?utm_source=feed&ref=rss' ELSE '' END) AS url
  FROM documents),
-- canonicalization mirrored in SQL: query dropped, scheme dropped,
-- lowercased, www. stripped (paths here carry no uppercase, so
-- whole-string lower() equals the host-only lowercasing of
-- functions/urltools.canonicalize_urls on this data)
canon AS (
  SELECT doc_id,
         regexp_replace(regexp_replace(lower(
             regexp_replace(url, '[?#].*$', '')),
             '^[a-z][a-z0-9+.\\-]*://', ''),
             '^www\\.', '') AS canonical_url
  FROM raw)
SELECT canonical_url, MIN(doc_id) AS doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_dups
FROM canon GROUP BY canonical_url
"""


def q_domain_stats(sf_dir):
    """Per-domain corpus stats (crawl-health dashboard aggregate):
    docs, chars and distinct languages per canonical host. Partials
    pre-aggregate (domain, lang) inside each block, so the groupby
    shuffles at most |domains| x |langs| rows per block; the final
    distinct-language count folds the tiny merged table."""
    from cld2_ray.functions.urltools import registered_domain
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        dom = registered_domain(_derived_urls(t))
        part = pa.table({"domain": dom, "lang": t["lang"],
                         "n_chars": t["n_chars"]})
        g = part.group_by(["domain", "lang"]).aggregate(
            [("n_chars", "count"), ("n_chars", "sum")])
        return pa.table({"domain": g["domain"], "lang": g["lang"],
                         "n_docs": g["n_chars_count"].cast(pa.int64()),
                         "sum_chars": g["n_chars_sum"].cast(pa.int64())})

    from ray.data.aggregate import Count, Sum

    # after the (domain, lang) groupby each pair is globally unique,
    # so distinct-language count per domain is a plain row Count
    merged = ds.map_batches(partial, batch_format="pyarrow",
                            batch_size=None) \
        .groupby(["domain", "lang"]).aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("sum_chars", alias_name="sum_chars"))
    return merged.groupby("domain").aggregate(
        Sum("n_docs", alias_name="n_docs"),
        Sum("sum_chars", alias_name="sum_chars"),
        Count(alias_name="n_langs"))


SQL_DOMAIN_STATS = """
SELECT 'site' || (doc_id % 500) || '.example.com' AS domain,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS sum_chars,
       CAST(count(DISTINCT lang) AS BIGINT) AS n_langs
FROM documents GROUP BY 1
"""


# Ordering note: the driver gate checks the FIRST 50 registry entries
# per round. Round 3 green-checked positions 1-50 of the r3 ordering;
# round 4 rotated the seven never-checked entries in (all green) and
# eleven r3-green entries out. Round 5 rotates those eleven
# (minhash_dedup .. range_join — green in r3, unchecked in r4) back
# into the head, and eleven r4-HASH-GREEN entries whose operator
# families keep another in-window representative rotate out
# (jaccard_pairs, events_window, asof_join, knn_classify,
# click_buyers, epoch_shuffle, length_cdf, lang_source_rollup,
# orders_by_segment, part_brand_stats, inverted_index). Union of
# r4+r5 driver rows covers all 61 with at-most-one-round staleness.
# All queries always run in selfcheck and pytest regardless of
# driver budget.
QUERIES = {
    "lang_counts": q_lang_counts,
    "langid_documents": q_langid_documents,
    "source_jsonl": q_source_jsonl,
    # new in r5 (never driver-checked -> head of the window)
    "gopher_repetition": q_gopher_repetition,
    "gopher_full": q_gopher_full,
    "c4_line_filter": q_c4_line_filter,
    "blocklist_filter": q_blocklist_filter,
    "webtext_clean": q_webtext_clean,
    "line_dedup": q_line_dedup,
    "url_blocklist": q_url_blocklist,
    "pack_sequences": q_pack_sequences,
    "incremental_dedup_bloom": q_incremental_dedup_bloom,
    # new in r4 (never driver-checked -> head of the window)
    "url_canonical_dedup": q_url_canonical_dedup,
    "domain_stats": q_domain_stats,
    "substring_dedup": q_substring_dedup,
    "kmv_distinct": q_kmv_distinct,
    "token_stats": q_token_stats,
    "exact_dedup": q_exact_dedup,
    "segment_dedup": q_segment_dedup,
    "source_quota": q_source_quota,
    "tfidf_top5": q_tfidf_top5,
    "lang_quantiles": q_lang_quantiles,
    "orders_per_customer": q_orders_per_customer,
    "source_vocab": q_source_vocab,
    "bigram_top50": q_bigram_top50,
    "embedding_label_stats": q_embedding_label_stats,
    "decontaminate": q_decontaminate,
    "incremental_dedup": q_incremental_dedup,
    "flagship_pages": q_flagship_pages,
    "eval_confusion": q_eval_confusion,
    "token_freq_top50": q_token_freq_top50,
    "quality_rules": q_quality_rules,
    "pii_scrub": q_pii_scrub,
    "tpch_q1": q_tpch_q1,
    "tpch_q3": q_tpch_q3,
    "stratified_sample": q_stratified_sample,
    "events_hourly": q_events_hourly,
    "event_sessions": q_event_sessions,
    "ann_top1": q_ann_top1,
    "minhash_dedup": q_minhash_dedup,
    "simhash_pairs": q_simhash_pairs,
    # r3-green, unchecked in r4 -> rotated back into the r5 window
    "embedding_near_pairs": q_embedding_near_pairs,
    "ivf_topk": q_ivf_topk,
    "media_resize": q_media_resize,
    "media_audio": q_media_audio,
    "media_video": q_media_video,
    "ivf_topk_exact": q_ivf_topk_exact,
    "minhash_signatures": q_minhash_signatures,
    "supplier_regions": q_supplier_regions,
    "range_join": q_range_join,
    # -- position > 50: every entry below is hash-green in
    # CORRECTNESS_r04.json (verified when rotating), rotated out so
    # the 11 r3-green entries above get r5 driver rows — r4 ∪ r5
    # then covers all 61; each tail entry keeps a same-family
    # sibling in the window (exact/segment/substring/incremental/
    # minhash for jaccard_pairs, events_hourly+event_sessions for
    # events_window, range_join for asof_join, ann_top1/ivf_* for
    # knn_classify, tpch_q3 for click_buyers/orders_by_segment,
    # top_longest for epoch_shuffle, length_histogram for
    # length_cdf, source_lang_matrix for lang_source_rollup,
    # lang_quantiles/tpch_q1 for part_brand_stats, source_vocab/
    # bigram_top50 for inverted_index) --
    # media_decode is r4-green and its three siblings (media_resize/
    # audio/video) sit in the r5 window — rotated out to make room
    # for gopher_repetition at the head. stopword_counts,
    # partitioned_sink and source_csv (all r4-green) moved down for
    # the r5 quality-filter additions (gopher_full, c4_line_filter,
    # blocklist_filter, webtext_clean); each keeps an in-window family
    # sibling (token_freq_top50 / lang_counts / source_jsonl /
    # length_cdf's r4 row for length_histogram / token_freq_top50's
    # sort+limit for top_longest / exact_dedup's md5 kernel for
    # fingerprint / lang_counts + lang_source_rollup's r4 row for
    # source_lang_matrix / incremental_dedup + the bloom variant's
    # anti-join for customers_without_orders)
    "customers_without_orders": q_customers_without_orders,
    "source_lang_matrix": q_source_lang_matrix,
    "fingerprint": q_fingerprint,
    "stopword_counts": q_stopword_counts,
    "partitioned_sink": q_partitioned_sink,
    "source_csv": q_source_csv,
    "length_histogram": q_length_histogram,
    "top_longest": q_top_longest,
    "media_decode": q_media_decode,
    "click_buyers": q_click_buyers,
    "epoch_shuffle": q_epoch_shuffle,
    "lang_source_rollup": q_lang_source_rollup,
    "inverted_index": q_inverted_index,
    "length_cdf": q_length_cdf,
    "jaccard_pairs": q_jaccard_pairs,
    "orders_by_segment": q_orders_by_segment,
    "events_window": q_events_window,
    "asof_join": q_asof_join,
    "part_brand_stats": q_part_brand_stats,
    "knn_classify": q_knn_classify,
}

ORACLE_SQL = {
    "lang_counts": SQL_LANG_COUNTS,
    "url_canonical_dedup": SQL_URL_CANONICAL_DEDUP,
    "domain_stats": SQL_DOMAIN_STATS,
    "source_lang_matrix": SQL_SOURCE_LANG_MATRIX,
    "token_stats": SQL_TOKEN_STATS,
    "fingerprint": SQL_FINGERPRINT,
    "exact_dedup": SQL_EXACT_DEDUP,
    "segment_dedup": SQL_SEGMENT_DEDUP,
    "substring_dedup": SQL_SUBSTRING_DEDUP,
    "kmv_distinct": SQL_KMV_DISTINCT,
    "source_quota": SQL_SOURCE_QUOTA,
    "tfidf_top5": SQL_TFIDF_TOP5,
    "lang_quantiles": SQL_LANG_QUANTILES,
    "customers_without_orders": SQL_CUSTOMERS_WITHOUT_ORDERS,
    "orders_per_customer": SQL_ORDERS_PER_CUSTOMER,
    "source_vocab": SQL_SOURCE_VOCAB,
    "bigram_top50": SQL_BIGRAM_TOP50,
    "embedding_label_stats": SQL_EMBEDDING_LABEL_STATS,
    "decontaminate": SQL_DECONTAMINATE,
    "incremental_dedup": SQL_INCREMENTAL_DEDUP,
    "partitioned_sink": SQL_LANG_COUNTS,
    "click_buyers": SQL_CLICK_BUYERS,
    "epoch_shuffle": SQL_EPOCH_SHUFFLE,
    "source_jsonl": SQL_LANG_COUNTS,
    "source_csv": SQL_LANG_COUNTS,
    "lang_source_rollup": SQL_LANG_SOURCE_ROLLUP,
    "inverted_index": SQL_INVERTED_INDEX,
    "length_cdf": SQL_LENGTH_CDF,
    "jaccard_pairs": SQL_JACCARD_PAIRS,
    "gopher_repetition": SQL_GOPHER_REPETITION,
    "gopher_full": SQL_GOPHER_FULL,
    "c4_line_filter": SQL_C4_LINE_FILTER,
    "blocklist_filter": SQL_BLOCKLIST_FILTER,
    "webtext_clean": SQL_WEBTEXT_CLEAN,
    "line_dedup": SQL_LINE_DEDUP,
    "url_blocklist": SQL_URL_BLOCKLIST,
    "pack_sequences": SQL_PACK_SEQUENCES,
    "incremental_dedup_bloom": SQL_INCREMENTAL_DEDUP,
    "top_longest": SQL_TOP_LONGEST,
    "token_freq_top50": SQL_TOKEN_FREQ_TOP50,
    "stopword_counts": SQL_STOPWORD_COUNTS,
    "length_histogram": SQL_LENGTH_HISTOGRAM,
    "quality_rules": SQL_QUALITY_RULES,
    "pii_scrub": SQL_PII_SCRUB,
    "tpch_q1": SQL_TPCH_Q1,
    "tpch_q3": SQL_TPCH_Q3,
    "stratified_sample": SQL_STRATIFIED_SAMPLE,
    "orders_by_segment": SQL_ORDERS_BY_SEGMENT,
    "events_hourly": SQL_EVENTS_HOURLY,
    "event_sessions": SQL_EVENT_SESSIONS,
    "events_window": SQL_EVENTS_WINDOW,
    "asof_join": SQL_ASOF_JOIN,
    "range_join": SQL_RANGE_JOIN,
    "supplier_regions": SQL_SUPPLIER_REGIONS,
    "part_brand_stats": SQL_PART_BRAND_STATS,
    "ann_top1": SQL_ANN_TOP1,
    "embedding_near_pairs": SQL_EMBEDDING_NEAR_PAIRS,
    "simhash_pairs": SQL_SIMHASH_PAIRS,
    "minhash_signatures": SQL_MINHASH_SIGNATURES,
    "minhash_dedup": SQL_MINHASH_DEDUP,
    "ivf_topk_exact": SQL_IVF_TOPK_EXACT,
    # ivf_topk is pruned-EXACT (triangle-inequality cell bound), so the
    # brute-force SQL is its oracle too
    "ivf_topk": SQL_IVF_TOPK_EXACT,
    "knn_classify": SQL_KNN_CLASSIFY,
    "media_decode": SQL_MEDIA_DECODE,
    "media_resize": SQL_MEDIA_RESIZE,
    "media_audio": SQL_MEDIA_AUDIO,
    "media_video": SQL_MEDIA_VIDEO,
}
