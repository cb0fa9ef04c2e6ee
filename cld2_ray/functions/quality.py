"""Heuristic quality rules for web text — Gopher/C4-style filters.

North-rule stage (BASELINE.json): new code, not in the reference.
Rule set follows the published heuristics (Rae et al. 2021 "Scaling
Language Models" Gopher rules, Raffel et al. 2020 C4): word-count
bounds, mean word length, symbol/word ratios, bullet/ellipsis line
ratios, alpha-word ratio, stopword evidence, duplicate-line fractions,
brace/lorem-ipsum markers.

Every document statistic comes from one C pass per batch
(native.quality_scan, which strips each document's ends as
``str.strip()`` does) and the rules run on numpy arrays. Handed an Arrow
string column (the flagship kernel's extracted column), the pass reads
its UTF-8 buffer in place, so nothing is re-encoded. The scan's
letters (alpha words) are RE2's ``\\pL`` and its stopword case folds
RE2's ``(?i)`` orbits, both probed from RE2 at first use
(``_scan_luts``), so the scan counts what the Arrow oracle and the
DuckDB mirror count on every code point. Each rule has a
stable name used as ``drop_reason`` (first failing rule wins, in the
declared order). The same function is both the Ray `map_batches` kernel
body and the single-process oracle. The Arrow/pandas form in
tests/oracles/quality.py is the tests' reference for the scan.

Tokenization contract: words = regexp split on whitespace — chosen so
that every rule below is expressible in DuckDB SQL for the driver's
oracle comparison (string_split_regex(text, '\\s+')).
"""

from __future__ import annotations

import re
from functools import lru_cache

import numpy as np
import pandas as pd

from . import langs

MIN_WORDS = 20
MAX_WORDS = 100_000
MIN_MEAN_WORD_LEN = 2.0
MAX_MEAN_WORD_LEN = 12.0
MAX_SYMBOL_WORD_RATIO = 0.1      # '#' or '...' per word
MAX_BULLET_LINE_RATIO = 0.9
MAX_ELLIPSIS_LINE_RATIO = 0.3
MIN_ALPHA_WORD_RATIO = 0.7       # words containing at least one letter
MIN_STOPWORDS = 2
MAX_DUP_LINE_RATIO = 0.3
MIN_SENTENCES = 1

# small cross-lingual stopword set (en/fr/de/es/pt/ru + universal
# particles); evidence of running prose rather than keyword lists
_STOP_WORDS_ALT = "|".join(
    "the of and to in a is that for it with as was on be at by this "
    "le la de et les des un une du en que est pour dans "
    "der die das und den von zu mit sich auf ist im "
    "el los las y o del para con una por se no "
    "e os as um uma não com "
    "и в не на с что он как по это".split())


@lru_cache(maxsize=1)
def _scan_luts():
    """(is_letter uint8[], fold uint32[]): quality_scan's two code-point
    tables, classified by RE2 itself (the engine of the Arrow oracle and
    the DuckDB mirror) over one column of every code point of planes
    0-3, surrogates blanked to NUL. is_letter[cp] is 1 where ``^\\pL$``
    matches. fold[cp] is the stopword-alphabet letter whose ``(?i)``
    orbit holds cp (ſ U+017F -> s, ᲀ U+1C80 -> в, ᲂ -> о, ᲃ -> с,
    ᲄ/ᲅ -> т), and cp elsewhere: one match against the whole
    alphabet finds the candidates, and one match per letter over them
    assigns each its letter. A code point whose orbit holds no alphabet
    letter can never be part of a stopword match, so identity is exact.
    The letter table ends after the last letter and the fold table after
    the last candidate; the kernel reads a code point past a table's end
    as no letter and as itself. No code point above plane 3 is a
    letter (tests/test_native.py probes all of them)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from cld2_ray import native

    def match(col, pattern):
        return pc.match_substring_regex(col, pattern) \
            .to_numpy(zero_copy_only=False)

    cps = np.arange(0x40000, dtype="<u4")
    cps[0xD800:0xE000] = 0
    offsets = np.zeros(len(cps) + 1, dtype=np.int64)
    np.cumsum(1 + (cps >= 0x80) + (cps >= 0x800) + (cps >= 0x10000),
              out=offsets[1:])
    col = native.utf8_array(np.frombuffer(
        cps.tobytes().decode("utf-32-le").encode(), dtype=np.uint8), offsets)
    letter = match(col, r"^\pL$")
    alphabet = sorted(set("".join(_STOP_WORDS_ALT.split("|"))))
    cand = np.flatnonzero(match(
        col, "(?i)^[" + "".join(map(re.escape, alphabet)) + "]$"))
    fold = np.arange(cand[-1] + 1, dtype=np.uint32)
    sub = col.take(pa.array(cand))
    for ch in alphabet:
        fold[cand[match(sub, "(?i)^" + re.escape(ch) + "$")]] = ord(ch)
    return letter[:np.flatnonzero(letter)[-1] + 1].astype(np.uint8), fold


@lru_cache(maxsize=1)
def _stop_table():
    """The stopword set as a native.table_build table: key = the word's
    UTF-8 bytes (all <= 8) read little-endian, value 1."""
    from cld2_ray import native
    words = [w.encode("utf-8") for w in _STOP_WORDS_ALT.split("|")]
    assert all(0 < len(w) <= 8 for w in words)
    return native.table_build({int.from_bytes(w, "little"): 1
                               for w in words})


# languages written without inter-word spaces: word-shape rules do not
# apply; word count is approximated by character count
SPACELESS_LANGS = frozenset(["zh", "zh-Hant", "ja", "th", "km", "lo", "my"])

# languages whose stopwords the stopword list actually covers — the
# too_few_stopwords rule only fires for these (demanding en/fr/de/es/
# pt/ru function words from, say, Turkish prose would drop every
# well-formed Turkish page)
STOPWORD_LANGS = frozenset(["en", "fr", "de", "es", "pt", "ru"])


# the two sets as bool[NUM_LANGS] masks over lang ids
_SPACELESS, _STOPWORD_GATED = (np.isin(langs.CODES, sorted(s))
                               for s in (SPACELESS_LANGS, STOPWORD_LANGS))


def rule_columns(texts, lang=None) -> dict[str, np.ndarray]:
    """The quality rules on a batch: keep (bool), drop_reason (str, ''
    if kept) and the stats, one numpy array each, plus pii_candidate
    (bool: the text holds an ASCII digit or '@'), the mask
    ``scrub.scrub_arrow`` takes.

    ``texts`` is a sequence of str (None counts as "") or an Arrow
    string column, read in place. Rule order is the drop_reason
    priority order (first failure wins).
    ``lang`` (optional: ids or codes, as langs.ids reads them) marks
    spaceless-script documents, whose word-shape rules are evaluated on
    characters instead, and those the stopword rule applies to.

    Every stat comes from the single C scan, so the rule cascade runs on
    plain numpy arrays. Output equals apply_rules_arrow of
    tests/oracles/quality.py, pinned by tests/test_native.py."""
    from cld2_ray import native
    scan = native.quality_scan(*native.utf8_cat(texts), *_scan_luts(),
                               _stop_table())
    n = len(scan)
    n_words = scan[:, 0]
    n_chars = scan[:, 1]
    word_chars = n_chars - scan[:, 2]
    alpha_words = scan[:, 3]
    n_stop = scan[:, 4]
    n_sentences = scan[:, 5]
    symbols = scan[:, 6]
    has_lorem = scan[:, 7] != 0
    has_brace = scan[:, 8] != 0
    n_lines = np.maximum(scan[:, 9], 1)
    bullet_ratio = scan[:, 10] / n_lines
    ellipsis_ratio = scan[:, 11] / n_lines
    dup_line_ratio = scan[:, 12] / n_lines
    nz_words = np.maximum(n_words, 1)
    mean_wl = np.where(n_words > 0, word_chars / nz_words, 0.0)
    alpha_ratio = np.where(n_words > 0, alpha_words / nz_words, 0.0)

    lid = langs.ids(lang, n)
    spaceless = _SPACELESS[lid]
    stopword_gated = _STOPWORD_GATED[lid]
    eff_words = np.where(spaceless, (n_chars / 2.5).astype(np.int64),
                         n_words)

    names = np.array([
        "too_few_words", "too_many_words", "mean_word_len",
        "symbol_ratio", "bullet_lines", "ellipsis_lines", "alpha_ratio",
        "too_few_stopwords", "dup_lines", "lorem_ipsum",
        "brace_source_code", "too_few_sentences", ""], dtype=object)
    masks = [
        eff_words < MIN_WORDS,
        eff_words > MAX_WORDS,
        ~spaceless & ((mean_wl < MIN_MEAN_WORD_LEN)
                      | (mean_wl > MAX_MEAN_WORD_LEN)),
        (symbols / np.where(eff_words == 0, 1, eff_words))
        > MAX_SYMBOL_WORD_RATIO,
        bullet_ratio > MAX_BULLET_LINE_RATIO,
        ellipsis_ratio > MAX_ELLIPSIS_LINE_RATIO,
        ~spaceless & (alpha_ratio < MIN_ALPHA_WORD_RATIO),
        stopword_gated & (n_stop < MIN_STOPWORDS),
        dup_line_ratio > MAX_DUP_LINE_RATIO,
        has_lorem,
        has_brace,
        n_sentences < MIN_SENTENCES,
    ]
    ridx = np.full(n, len(names) - 1, dtype=np.int64)  # default: kept
    for i in range(len(masks) - 1, -1, -1):            # first match wins
        ridx[masks[i]] = i
    return {
        "n_words": n_words, "n_chars": n_chars, "mean_word_len": mean_wl,
        "alpha_ratio": alpha_ratio, "n_stopwords": n_stop,
        "n_lines": n_lines, "bullet_ratio": bullet_ratio,
        "ellipsis_ratio": ellipsis_ratio,
        "dup_line_ratio": dup_line_ratio,
        "n_sentences": n_sentences, "keep": ridx == len(names) - 1,
        "drop_reason": names[ridx], "pii_candidate": scan[:, 13] != 0}


def apply_rules(texts: pd.Series,
                lang_codes: pd.Series | None = None) -> pd.DataFrame:
    """rule_columns' rule columns (all but ``pii_candidate``, which
    only the scrub reads) as a DataFrame on the index of ``texts``."""
    cols = rule_columns(texts.fillna("").tolist(), lang_codes)
    del cols["pii_candidate"]
    return pd.DataFrame(cols, index=texts.index)


# ---------------------------------------------------------------------------
# C4 line-level cleaning (Raffel et al. 2020 "Exploring the Limits of
# Transfer Learning", §2.2). The reference engine has no line-level
# cleaner; this is the standard webtext pre-filter that runs BEFORE
# document-level rules: drop boilerplate LINES, then judge the page on
# what remains.
# ---------------------------------------------------------------------------

def _rejoin_lines(flat, keep: np.ndarray, n_kept: np.ndarray):
    """Re-join kept lines per document in C++: the exploded line
    column is already in (doc, line) order, so filtering by the keep
    mask and re-listing with per-doc kept counts reconstructs each
    document; binary_join adds the separators. Shared by
    c4_line_filter and dedup_lines_within_doc (one place owns the
    LargeList-offset subtleties)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    kept_flat = flat.filter(pa.array(keep))
    offsets = np.zeros(len(n_kept) + 1, dtype=np.int64)
    np.cumsum(n_kept, out=offsets[1:])
    return pc.binary_join(
        pa.LargeListArray.from_arrays(offsets, kept_flat), "\n")


C4_MIN_LINE_WORDS = 5        # "only retained lines with >= 5 words"
C4_MIN_SENTENCES = 3         # "discarded pages with < 3 sentences"
# terminal punctuation a retained line must end with (period,
# exclamation, question mark, end quotation mark)
C4_TERMINAL = '[.!?"”]'
# the word "javascript" (any case) drops the line. Matched on the
# LOWERCASED line with a case-sensitive pattern — exactly what the SQL
# oracle does with lower(l); RE2's (?i) would additionally simple-fold
# U+017F/U+212A-style characters and diverge from lower() (review
# finding, round 5)
_JS_PATTERN = r"(^|[^a-z])javascript([^a-z]|$)"


def c4_line_filter(texts: pd.Series) -> pd.DataFrame:
    """C4-style line filter + page verdict, fully vectorized (Arrow
    RE2 kernels over the exploded line table — no Python loop over
    lines). Per document:

    line rules (priority order for the drop counters; each line counts
    under its FIRST failing rule):
      1. ``javascript`` — line contains the word "javascript"
      2. ``few_words``  — fewer than C4_MIN_LINE_WORDS whitespace words
      3. ``no_punct``   — trimmed line does not end in C4_TERMINAL

    page rules on the surviving text (priority order):
      ``lorem_ipsum`` (original text, case-insensitive), ``brace``
      ('{' anywhere in the original text), ``too_few_sentences``
      (< C4_MIN_SENTENCES terminal marks in the kept text).

    Lines are trimmed with DuckDB trim() semantics (Zs spaces) before
    the word/punctuation rules so the SQL oracle mirrors exactly;
    ``kept_text`` re-joins the retained (trimmed) lines with '\\n'.
    """
    import pyarrow as pa
    import pyarrow.compute as pc
    from cld2_ray.functions.textstats import TRIM_CHARS

    t = texts.fillna("")
    arr = pa.array(t, type=pa.string(), from_pandas=True)
    lines = pc.split_pattern(arr, "\n")
    flat = pc.utf8_trim(pc.list_flatten(lines), TRIM_CHARS)
    parent = pc.list_parent_indices(lines).to_numpy(zero_copy_only=False)
    n = len(t)

    is_js = pc.match_substring_regex(pc.utf8_lower(flat), _JS_PATTERN) \
        .to_numpy(zero_copy_only=False)
    n_words = pc.count_substring_regex(flat, r"\S+") \
        .to_numpy(zero_copy_only=False)
    ends_ok = pc.match_substring_regex(flat, C4_TERMINAL + "$") \
        .to_numpy(zero_copy_only=False)

    few = ~is_js & (n_words < C4_MIN_LINE_WORDS)
    nopunct = ~is_js & ~few & ~ends_ok
    keep_line = ~is_js & ~few & ~nopunct

    n_lines = np.bincount(parent, minlength=n).astype(np.int64)
    c_js = np.bincount(parent, weights=is_js, minlength=n).astype(np.int64)
    c_few = np.bincount(parent, weights=few, minlength=n).astype(np.int64)
    c_np = np.bincount(parent, weights=nopunct, minlength=n).astype(np.int64)
    n_kept = n_lines - c_js - c_few - c_np

    kept_arr = _rejoin_lines(flat, keep_line, n_kept)
    kept_text = kept_arr.to_numpy(zero_copy_only=False)

    n_sent = pc.count_substring_regex(kept_arr, "[.!?]") \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    # on the lowered text, like the oracle's lower(): ignore_case=True
    # folds fully, so 'lorem ipſum' (long s) would match
    has_lorem = pc.match_substring(pc.utf8_lower(arr), "lorem ipsum") \
        .to_numpy(zero_copy_only=False)
    has_brace = pc.match_substring(arr, "{").to_numpy(zero_copy_only=False)

    reason = np.full(n, "", dtype=object)
    reason[n_sent < C4_MIN_SENTENCES] = "too_few_sentences"
    reason[has_brace] = "brace"
    reason[has_lorem] = "lorem_ipsum"
    kept_chars = pc.utf8_length(kept_arr) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    return pd.DataFrame({
        "n_lines": n_lines, "n_kept_lines": n_kept,
        "drop_javascript": c_js, "drop_few_words": c_few,
        "drop_no_punct": c_np, "n_sentences": n_sent,
        "kept_chars": kept_chars, "keep": reason == "",
        "drop_reason": reason, "kept_text": kept_text,
    }, index=texts.index)


def blocklist_filter(texts: pd.Series,
                     words: "frozenset[str] | list[str]",
                     _tok=None) -> pd.DataFrame:
    """C4-style bad-words page filter: a page is dropped when any
    whitespace token — lowercased, with leading/trailing ASCII
    punctuation stripped, so "Word." and "(word" match — is in the
    blocklist (Raffel et al. 2020 §2.2 drop pages with any word on a
    blocklist). Vectorized — one Arrow split + regex-strip + is_in
    over the flattened token column, no Python loop. Returns
    n_blocked_tokens + keep per document.

    At scale the blocklist is broadcast once per actor (ray.put the
    set, pass the ObjectRef into the map_batches class __init__), not
    re-shipped per batch; callers with a constant list can pass it
    directly — Ray captures it in the task closure once.
    """
    import pyarrow as pa
    import pyarrow.compute as pc
    from cld2_ray.functions.textstats import ws_token_table

    flat, parent, _counts = _tok if _tok is not None \
        else ws_token_table(texts)
    low = pc.utf8_lower(flat)
    # edge-punctuation strip (ASCII classes — mirrors the RE2 the
    # DuckDB oracle runs): 'word.' / '(word' / '"word!"' all match
    low = pc.replace_substring_regex(
        low, r"^[^a-z0-9]+|[^a-z0-9]+$", "")
    hit = pc.is_in(low, value_set=pa.array(sorted(set(words)),
                                           type=pa.string()))
    n_blocked = np.bincount(
        parent, weights=hit.to_numpy(zero_copy_only=False),
        minlength=len(texts)).astype(np.int64)
    return pd.DataFrame({"n_blocked_tokens": n_blocked,
                         "keep": n_blocked == 0}, index=texts.index)


def dedup_lines_within_doc(texts: pd.Series) -> pd.DataFrame:
    """Within-document duplicate-line removal (the removal form of
    Gopher's duplicate-line filters, Rae et al. 2021 §A1.1): every
    repeat of an earlier NON-EMPTY line in the same document is
    dropped; first occurrences and empty lines pass through, order
    preserved. Returns the Gopher numerators alongside the cleaned
    text: ``dup_line_count`` / ``dup_line_chars`` are the repeats
    beyond each first occurrence (the "fraction of characters in
    duplicate lines" numerator; divide by the original text length).

    Vectorized: Arrow split + dictionary_encode give batch-wide line
    ids; doc-scoped first occurrences come from one np.unique over
    (doc_index << 32 | line_id); the cleaned text is re-joined in C++
    (ListArray + binary_join). Lines are compared exactly as split —
    no trimming — so the SQL mirror is a plain equality group.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    t = texts.fillna("")
    arr = pa.array(t, type=pa.string(), from_pandas=True)
    n = len(t)
    lines = pc.split_pattern(arr, "\n")
    flat = pc.list_flatten(lines)
    parent = pc.list_parent_indices(lines).to_numpy(zero_copy_only=False)
    n_lines = np.bincount(parent, minlength=n).astype(np.int64)

    ids = flat.dictionary_encode().indices \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    packed = (parent.astype(np.int64) << np.int64(32)) | ids
    _, first_idx = np.unique(packed, return_index=True)
    keep = np.zeros(len(ids), dtype=bool)
    keep[first_idx] = True
    nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    keep |= ~nonempty          # empty lines always pass through

    L = pc.utf8_length(flat).to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    drop = ~keep
    dup_count = np.bincount(parent[drop], minlength=n).astype(np.int64)
    dup_chars = np.bincount(parent[drop], weights=L[drop],
                            minlength=n).astype(np.int64)

    cleaned = _rejoin_lines(flat, keep, n_lines - dup_count) \
        .to_numpy(zero_copy_only=False)
    return pd.DataFrame({
        "n_lines": n_lines,
        "dup_line_count": dup_count,
        "dup_line_chars": dup_chars,
        "cleaned_text": cleaned,
    }, index=texts.index)
