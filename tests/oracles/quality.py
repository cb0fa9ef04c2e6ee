"""Arrow/RE2 + pandas quality rules: the oracle of ``quality.apply_rules``
(one C scan, ``native.quality_scan``, plus a numpy rule cascade).

Word statistics come from Arrow compute kernels (C++/RE2 — also what
DuckDB uses), line statistics from pandas, and the rule cascade from
pandas masks. ``fold_lut_probe`` is the oracle of the scan's stopword
fold table (``quality._scan_luts``).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from cld2_ray.functions.quality import (
    MAX_BULLET_LINE_RATIO, MAX_DUP_LINE_RATIO, MAX_ELLIPSIS_LINE_RATIO,
    MAX_MEAN_WORD_LEN, MAX_SYMBOL_WORD_RATIO, MAX_WORDS, MIN_ALPHA_WORD_RATIO,
    MIN_MEAN_WORD_LEN, MIN_SENTENCES, MIN_STOPWORDS, MIN_WORDS,
    SPACELESS_LANGS, STOPWORD_LANGS, _STOP_WORDS_ALT)

# a whitespace token that is a stopword, with optional quotes/brackets
# before and punctuation after; matched case-insensitively
_STOP_TOKEN_PATTERN = \
    r"^['\"(]*(?:" + _STOP_WORDS_ALT + r")[.,;:!?'\")]*$"


def codepoint_column(lo: int, hi: int) -> pa.Array:
    """Every code point of [lo, hi) as a one-character string, the
    surrogates (which UTF-8 cannot hold) blanked to NUL."""
    return pa.array([chr(cp) if not 0xD800 <= cp < 0xE000 else "\x00"
                     for cp in range(lo, hi)])


def fold_lut_probe() -> np.ndarray:
    """uint32[0x110000]: each code point folded onto the stopword-alphabet
    letter whose RE2 ``(?i)`` orbit holds it, identity elsewhere, from one
    anchored match per alphabet letter over every code point."""
    chars = codepoint_column(0, 0x110000)
    lut = np.arange(0x110000, dtype=np.uint32)
    for ch in sorted(set("".join(_STOP_WORDS_ALT.split("|")))):
        m = pc.match_substring_regex(chars, "^" + re.escape(ch) + "$",
                                     ignore_case=True)
        lut[m.to_numpy(zero_copy_only=False)] = ord(ch)
    return lut


def _stopword_counts_arrow(arr) -> np.ndarray:
    """Per-row stopword counts: split on whitespace, anchored-match each
    token (RE2 DFA, no Python loop)."""
    toks = pc.split_pattern_regex(arr, r"\s+")
    flat = pc.list_flatten(toks)
    is_stop = pc.match_substring_regex(
        flat, _STOP_TOKEN_PATTERN, ignore_case=True)
    hits = is_stop.to_numpy(zero_copy_only=False).astype(np.int64)
    offsets = toks.offsets.to_numpy(zero_copy_only=False)
    csum = np.concatenate([[0], np.cumsum(hits)])
    return csum[offsets[1:]] - csum[offsets[:-1]]


def word_stats_arrow(texts: pd.Series) -> pd.DataFrame:
    """Word-level statistics per document from Arrow compute kernels
    (C++/RE2 — also what DuckDB uses). The tests' reference for the
    word columns of the C scan in apply_rules."""
    stripped = texts.fillna("").str.strip()
    arr = pa.Array.from_pandas(stripped)
    n_words = pd.Series(
        pc.count_substring_regex(arr, r"\S+")
        .to_numpy(zero_copy_only=False),
        index=texts.index).astype(np.int64)
    n_chars = pd.Series(
        pc.utf8_length(arr).to_numpy(zero_copy_only=False),
        index=texts.index).astype(np.int64)
    n_ws = pd.Series(
        pc.count_substring_regex(arr, r"\s")
        .to_numpy(zero_copy_only=False),
        index=texts.index).astype(np.int64)
    alpha_words = pd.Series(
        pc.count_substring_regex(arr, r"(^|\s)\S*\pL")
        .to_numpy(zero_copy_only=False), index=texts.index)
    n_stop = pd.Series(_stopword_counts_arrow(arr), index=texts.index)
    word_chars = n_chars - n_ws
    mean_wl = (word_chars / n_words.replace(0, np.nan)).fillna(0.0)
    return pd.DataFrame({
        "n_words": n_words,
        "n_chars": n_chars,
        "mean_word_len": mean_wl.astype(np.float64),
        "alpha_ratio": (alpha_words / n_words.replace(0, np.nan)).fillna(0.0),
        "n_stopwords": n_stop,
    })


def line_stats_pandas(texts: pd.Series) -> pd.DataFrame:
    """Per-document line statistics in pandas: the semantic pin and
    the tests' reference for the line columns of the C scan."""
    lines = texts.fillna("").str.split("\n")
    lines = lines.map(lambda ls: [l.strip() for l in ls if l.strip()])
    n_lines = lines.map(len).replace(0, 1)
    bullet = lines.map(
        lambda ls: sum(1 for l in ls if l.startswith(("-", "*", "•", "·"))))
    ellipsis = lines.map(
        lambda ls: sum(1 for l in ls if l.endswith(("...", "…"))))
    dup = lines.map(lambda ls: len(ls) - len(set(ls)))
    return pd.DataFrame({
        "n_lines": n_lines.astype(np.int64),
        "bullet_ratio": (bullet / n_lines).astype(np.float64),
        "ellipsis_ratio": (ellipsis / n_lines).astype(np.float64),
        "dup_line_ratio": (dup / n_lines).astype(np.float64),
    })


def apply_rules_arrow(texts: pd.Series,
                      lang_codes: pd.Series | None = None) -> pd.DataFrame:
    """apply_rules from Arrow/RE2 kernels and pandas masks: the tests'
    reference for the C scan and the numpy rule cascade."""
    t = texts.fillna("")
    ws = word_stats_arrow(texts)
    ls = line_stats_pandas(texts)
    if lang_codes is not None:
        lc = lang_codes.reset_index(drop=True)
        lc.index = t.index
        spaceless = lc.isin(SPACELESS_LANGS)
        stopword_gated = lc.isin(STOPWORD_LANGS)
    else:
        spaceless = pd.Series(False, index=t.index)
        # language unknown -> cannot demand specific stopwords
        stopword_gated = pd.Series(False, index=t.index)
    # effective word count: chars/2.5 for spaceless scripts
    eff_words = ws.n_words.mask(spaceless,
                                (ws.n_chars / 2.5).astype(np.int64))
    arr = pa.Array.from_pandas(t)

    def _count(pattern, regex=False):
        f = pc.count_substring_regex if regex else pc.count_substring
        return pd.Series(f(arr, pattern).to_numpy(zero_copy_only=False),
                         index=t.index).astype(np.int64)

    n_sentences = _count("[.!?。！？]", regex=True)
    symbols = _count("#") + _count(r"\.\.\.", regex=True) + _count("…")
    # lowercase, then match exactly: ignore_case=True folds fully
    # ('lorem ipſum' would match), unlike lower() and the C scan
    has_lorem = pd.Series(
        pc.match_substring(pc.utf8_lower(arr), "lorem ipsum")
        .to_numpy(zero_copy_only=False), index=t.index)
    has_brace = pd.Series(
        pc.match_substring(arr, "{").to_numpy(zero_copy_only=False),
        index=t.index)

    rules = [
        ("too_few_words", eff_words < MIN_WORDS),
        ("too_many_words", eff_words > MAX_WORDS),
        ("mean_word_len", ~spaceless & ((ws.mean_word_len < MIN_MEAN_WORD_LEN)
         | (ws.mean_word_len > MAX_MEAN_WORD_LEN))),
        ("symbol_ratio", (symbols / eff_words.replace(0, 1))
         > MAX_SYMBOL_WORD_RATIO),
        ("bullet_lines", ls.bullet_ratio > MAX_BULLET_LINE_RATIO),
        ("ellipsis_lines", ls.ellipsis_ratio > MAX_ELLIPSIS_LINE_RATIO),
        ("alpha_ratio", ~spaceless & (ws.alpha_ratio < MIN_ALPHA_WORD_RATIO)),
        ("too_few_stopwords", stopword_gated
         & (ws.n_stopwords < MIN_STOPWORDS)),
        ("dup_lines", ls.dup_line_ratio > MAX_DUP_LINE_RATIO),
        ("lorem_ipsum", has_lorem),
        ("brace_source_code", has_brace),
        ("too_few_sentences", n_sentences < MIN_SENTENCES),
    ]

    reason = pd.Series([""] * len(t), index=t.index, dtype=object)
    for name, mask in rules:
        mask = mask.fillna(True)
        reason = reason.mask((reason == "") & mask, name)

    out = pd.concat([ws, ls], axis=1)
    out["n_sentences"] = n_sentences.astype(np.int64)
    out["keep"] = reason == ""
    out["drop_reason"] = reason
    return out
