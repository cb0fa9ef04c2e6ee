"""Text analysis kernels: token counting, fingerprinting, language
heuristics — the per-document statistics family (SQL-parity friendly).

Tokenization contracts are chosen so every function here has an exact
DuckDB-SQL equivalent for the driver's oracle comparison:
* whitespace tokens  == string_split_regex(trim(text), '\\s+')
* BPE-ish tokens     == regexp_extract_all(text, pattern) with the
  shared ``BPE_TOKEN_PATTERN`` (a GPT-2-style pre-tokenizer: word
  pieces, numbers, punctuation runs — RE2-safe, no lookarounds)
* fingerprint        == md5(text)
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

# GPT-2-style pre-tokenizer shape, without lookarounds (RE2/duckdb safe):
# optional leading space + (letters | digits | non-space-non-alnum run)
BPE_TOKEN_PATTERN = r" ?[A-Za-zÀ-ÿ]+| ?[0-9]+| ?[^A-Za-zÀ-ÿ0-9\s]+"
_BPE = re.compile(BPE_TOKEN_PATTERN)

# RE2's \s EXACTLY ([\t\n\f\r ]) to match the DuckDB oracle's
# string_split_regex: python's unicode \s would also split at NBSP
# etc., and even re.ASCII \s includes \v, which RE2's does not
# (review finding, round 5)
_WS = re.compile(r"[\t\n\f\r ]+")

# DuckDB trim() strips exactly the Unicode Zs space separators (probed:
# 0x20/NBSP/ogham/en..hair spaces/NNBSP/MMSP/ideographic; NOT
# tab/newline/VT/FF/CR/NEL/LS/PS) — shared by every oracle-mirrored
# tokenizer so '' edge tokens match the SQL
TRIM_CHARS = ("   "
              + "".join(chr(c) for c in range(0x2000, 0x200b))
              + "  　")


def count_tokens(texts: pd.Series) -> pd.DataFrame:
    """(n_ws_tokens, n_bpe_tokens) per document."""
    t = texts.fillna("")
    # strip SPACES only — DuckDB trim() does not strip tabs/newlines,
    # and those edges produce '' tokens the oracle counts
    stripped = t.str.strip(TRIM_CHARS)
    n_ws = stripped.str.split(_WS).map(
        lambda w: 0 if w == [""] else len(w)).astype(np.int64)
    n_bpe = t.str.findall(_BPE).map(len).astype(np.int64)
    return pd.DataFrame({"n_ws_tokens": n_ws, "n_bpe_tokens": n_bpe})


def fingerprint(texts: pd.Series) -> pd.Series:
    """Stable content fingerprint (md5 hex) per document: one
    GIL-released C pass per batch (native.md5_batch)."""
    from cld2_ray import native
    t = texts.fillna("")
    data, offs = native.utf8_cat(t.tolist())
    hx = np.asarray(native.hex_digest(native.md5_batch(data, offs)))
    return pd.Series(hx.astype("U32"), index=t.index)


def token_hashes(toks: list[str]) -> np.ndarray:
    """Per-token 64-bit blake2b hashes (LE uint64 of the 8-byte
    digest): one C pass over the whole token list."""
    from cld2_ray import native
    data, offs = native.utf8_cat(toks)
    return native.blake2b_batch(data, offs, 8).view(np.uint64).ravel()


def shingle_hashes(tok_hashes: np.ndarray, window: int) -> np.ndarray:
    """Rolling-combine per-token hashes into word-``window``-gram
    hashes (base-31 polynomial, vectorized)."""
    n = len(tok_hashes) - window + 1
    with np.errstate(over="ignore"):
        out = np.zeros(max(n, 0), dtype=np.uint64)
        for k in range(window):
            out += tok_hashes[k:k + n] \
                * np.uint64(31) ** np.uint64(window - 1 - k)
    return out


def kmv_estimate(hashes: list[str], k: int = 64) -> float:
    """Distinct-count estimate from a KMV (bottom-k) sketch
    (queries.q_kmv_distinct's `h` column, sorted ascending).

    Non-saturated sketch (fewer than k hashes): the sketch holds the
    ENTIRE distinct hash set, so the count is exactly its size — the
    KMV contract's small-cardinality case (review finding: feeding
    the last row of a short sketch into the ratio estimator silently
    reads ~2x high). Saturated: the unbiased (k-1)/R_k estimator of
    Bar-Yossef et al. 2002, with R_k the k-th smallest hash
    normalized to [0,1) from the first 16 hex digits of the md5."""
    if len(hashes) < k:
        return float(len(hashes))
    r = int(hashes[k - 1][:16], 16) / 2.0**64
    return (k - 1) / max(r, 2.0**-64)


def stopword_counts(texts: pd.Series, stopwords: list[str]) -> pd.Series:
    """Number of whitespace tokens that are stopwords (exact match,
    lowercased) — SQL: len(list_filter(tokens, t -> lower(t) IN (...)))."""
    stop = frozenset(stopwords)
    # positional index before explode: duplicate input labels would
    # otherwise be merged by the level-0 groupby and fanned back out
    t = texts.fillna("").str.strip(TRIM_CHARS).reset_index(drop=True)
    toks = t.str.split(_WS).explode()
    # an empty doc explodes to one "" token, which is never a stopword,
    # so the per-row sum is 0 there — same as the old per-row map
    out = toks.str.lower().isin(stop).groupby(level=0).sum() \
        .astype(np.int64)
    out.index = texts.index
    return out


def gopher_repetition(texts: pd.Series) -> pd.DataFrame:
    """Gopher-style n-gram repetition signals (Rae et al. 2021,
    "Scaling Language Models", §A1.1 repetition filters), in exact
    integer form so the DuckDB oracle hash-matches:

    * ``top2_count`` / ``top2_chars`` — occurrence count of the most
      frequent word bigram, and max over the tied-most-frequent
      bigrams of count x character-length (the "fraction of
      characters in the most frequent 2-gram" numerator; divide by
      ``total_chars``).
    * ``dup3_windows`` / ``dup3_cov_tokens`` — trigram windows whose
      gram occurs >= 2x within the doc, and the number of token
      positions covered by any such window (the "fraction of
      characters in duplicated 3-grams" analogue over tokens; divide
      by ``n_tokens``).

    Tokens are the shared whitespace contract
    (string_split_regex(trim(text), '\\s+')); ``total_chars`` is the
    character length of the single-space-joined tokens. All outputs
    int64 — consumers form the published fractions, the driver gate
    compares exact integers.
    """
    t = texts.fillna("").str.strip(TRIM_CHARS)
    out = np.zeros((len(t), 6), dtype=np.int64)
    # batch-vectorized tokenization: one explode + one factorize
    # assigns every token its batch-wide id (< 2^32) with no
    # per-token Python; docs are then slices of the flat arrays
    tl = [_WS.split(s) if s else [] for s in t]
    counts_per_doc = np.fromiter((len(x) for x in tl), np.int64, len(tl))
    flat = pd.Series(
        [w for ws in tl for w in ws], dtype=object)
    ids_flat, _ = pd.factorize(flat)
    ids_flat = ids_flat.astype(np.int64)
    L_flat = flat.str.len().to_numpy(np.int64) if len(flat) \
        else np.empty(0, np.int64)
    bounds = np.concatenate([[0], np.cumsum(counts_per_doc)])
    for r in range(len(t)):
        lo, hi = bounds[r], bounds[r + 1]
        n = int(hi - lo)
        L = L_flat[lo:hi]
        total_chars = int(L.sum()) + max(n - 1, 0)
        top2_count = top2_chars = dup3_w = dup3_cov = 0
        if n >= 2:
            ids = ids_flat[lo:hi]
            # exact bigram identity: two 32-bit ids packed in one
            # int64 (no hashing — the gate needs zero collisions)
            p2 = (ids[:-1] << np.int64(32)) | ids[1:]
            u2, inv2, c2 = np.unique(p2, return_inverse=True,
                                     return_counts=True)
            cw = c2[inv2]
            top2_count = int(c2.max())
            wchars = L[:-1] + L[1:] + 1
            sel = cw == top2_count
            top2_chars = int((cw[sel] * wchars[sel]).max())
            if n >= 3:
                # trigram = (bigram id of the first pair, third token
                # id) — packed exactly the same way (inv2 < n < 2^32)
                p3 = (inv2[:-1].astype(np.int64) << np.int64(32)) \
                    | ids[2:]
                u3, inv3, c3 = np.unique(p3, return_inverse=True,
                                         return_counts=True)
                m = c3[inv3] >= 2
                dup3_w = int(m.sum())
                if dup3_w:
                    # union of [i, i+3) over marked windows via a
                    # difference array — O(n), no per-window sets
                    delta = np.zeros(n + 3, np.int64)
                    starts = np.nonzero(m)[0]
                    np.add.at(delta, starts, 1)
                    np.add.at(delta, starts + 3, -1)
                    dup3_cov = int((np.cumsum(delta[:n]) > 0).sum())
        out[r] = (n, total_chars, top2_count, top2_chars,
                  dup3_w, dup3_cov)
    return pd.DataFrame(
        {"n_tokens": out[:, 0], "total_chars": out[:, 1],
         "top2_count": out[:, 2], "top2_chars": out[:, 3],
         "dup3_windows": out[:, 4], "dup3_cov_tokens": out[:, 5]},
        index=texts.index)


def ws_token_table(texts: pd.Series):
    """Shared whitespace token table under the oracle contract
    (utf8_trim + RE2 \\s+ split; fully-empty docs contribute ZERO
    tokens — split('') is [''] and that token is dropped). Returns
    (flat tokens pa.Array, parent doc-index int64[], per-doc counts
    int64[]). One Arrow pass, reused by every token-level kernel so
    pipelines composing several of them (webtext_verdict) tokenize
    once."""
    import pyarrow as pa
    import pyarrow.compute as pc
    t = texts.fillna("")
    arr = pc.utf8_trim(pa.array(t, type=pa.string(), from_pandas=True),
                       TRIM_CHARS)
    toks = pc.split_pattern_regex(arr, r"\s+")
    counts = pc.list_value_length(toks) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(toks)
    parent = pc.list_parent_indices(toks) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    empty = pc.equal(arr, "").to_numpy(zero_copy_only=False)
    if empty.any():
        keep = ~empty[parent]
        flat = flat.filter(pa.array(keep))
        parent = parent[keep]
        counts[empty] = 0
    return flat, parent, counts


def gopher_repetition_full(texts: pd.Series, _tok=None) -> pd.DataFrame:
    """Gopher repetition signals per document, batch-vectorized.

    The FULL Gopher repetition-filter signal set (Rae et al. 2021,
    "Scaling Language Models", Table A1): for n = 2, 3, 4 the mass of
    the most frequent word n-gram, and for n = 5..10 the characters
    covered by duplicated n-grams (grams occurring >= 2x in the doc),
    counting each covered token once even under overlapping windows —
    the paper's "avoid double-counting" rule. Exact-integer outputs so
    the DuckDB oracle hash-matches:

    * ``topN_count`` — occurrences of the most frequent n-gram;
      ``topN_chars`` — max over tied-most-frequent grams of
      count x gram-char-length (tokens joined by one space). The
      paper's fraction is topN_chars / total_chars.
    * ``dupN_cov_chars`` — sum of token character lengths over the
      union of all duplicated-n-gram windows (separators excluded —
      a token between two duplicated grams still counts once). The
      paper's fraction is dupN_cov_chars / total_chars.

    Tokens are the shared whitespace contract
    (string_split_regex(trim(text), '\\s+')); ``total_chars`` is the
    length of the single-space-joined tokens. n-gram identity is
    exact (iterated 32-bit-id packing, no hashing), extending the
    gopher_repetition machinery above to n = 10.

    Identical output to the per-document oracle in
    tests/oracles/textstats.py, with three scale moves:

    * tokenization runs on Arrow RE2 kernels (utf8_trim +
      split_pattern_regex + list_flatten — the same engine the DuckDB
      oracle uses), not a Python loop;
    * n-gram identity is doc-scoped — (doc_index << 32 | token_id)
      uniqued once — so ONE factorize per n-gram order serves the
      whole batch; windows straddling a doc boundary chain doc-scoped
      ids from two docs (a value no within-doc window can take) and
      are masked from every statistic;
    * levels 5..10 run SPARSE: a duplicated n-gram requires its
      (n-1)-gram prefix AND suffix to be duplicated, so each dup
      level only factorizes windows whose two sub-windows survived
      the previous level with count >= 2 — on real webtext the
      candidate set collapses after n=4 and the dup levels are
      near-free.

    Per-doc reductions are bincount / maximum.at scatter ops.
    """
    import pyarrow.compute as pc

    ndoc = len(texts)
    cols = (["n_tokens", "total_chars"]
            + [f"top{n}_{k}" for n in (2, 3, 4)
               for k in ("count", "chars")]
            + [f"dup{n}_cov_chars" for n in range(5, 11)])
    out = np.zeros((ndoc, len(cols)), dtype=np.int64)

    def frame():
        return pd.DataFrame(
            {name: out[:, i] for i, name in enumerate(cols)},
            index=texts.index)

    flat, parent, counts = _tok if _tok is not None \
        else ws_token_table(texts)
    nf = len(flat)
    out[:, 0] = counts
    if nf == 0:
        return frame()
    ids = flat.dictionary_encode().indices \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    L = pc.utf8_length(flat) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    didx = parent
    out[:, 1] = np.bincount(didx, weights=L, minlength=ndoc) \
        .astype(np.int64) + np.maximum(counts - 1, 0)
    if nf < 2:
        return frame()
    inv0 = pd.factorize((didx << np.int64(32)) | ids)[0].astype(np.int64)
    cs = np.concatenate([[0], np.cumsum(L)])
    inv = inv0
    c = None
    # full levels 2..4: the top-gram stats need every window count
    for ng in range(2, 5):
        if nf < ng:
            break
        p = (inv[:-1] << np.int64(32)) | inv0[ng - 1:]
        inv, u = pd.factorize(p)
        inv = inv.astype(np.int64)
        c = np.bincount(inv, minlength=len(u)).astype(np.int64)
        nw = nf - ng + 1
        valid = didx[:nw] == didx[ng - 1:]
        if not valid.any():
            continue
        cw = c[inv]
        wdoc = didx[:nw]
        top = np.zeros(ndoc, np.int64)
        np.maximum.at(top, wdoc[valid], cw[valid])
        wchars = cs[ng:] - cs[:-ng] + (ng - 1)
        sel = valid & (cw == top[wdoc])
        tch = np.zeros(ndoc, np.int64)
        np.maximum.at(tch, wdoc[sel], cw[sel] * wchars[sel])
        col = 2 + (ng - 2) * 2
        out[:, col] = top
        out[:, col + 1] = tch
    # sparse dup levels 5..10 over surviving candidate windows
    if nf >= 5 and c is not None:
        nw4 = nf - 3
        valid4 = didx[:nw4] == didx[3:]
        code = np.where(valid4 & (c[inv] >= 2), inv, -1)
        for ng in range(5, 11):
            if nf < ng:
                break
            nw = nf - ng + 1
            cand = np.nonzero((code[:nw] >= 0) & (code[1:nw + 1] >= 0)
                              & (didx[:nw] == didx[ng - 1:]))[0]
            if len(cand) == 0:
                code = np.full(nw, -1, np.int64)
                continue
            p = (code[cand] << np.int64(32)) | inv0[cand + ng - 1]
            sinv, su = pd.factorize(p)
            sc = np.bincount(sinv, minlength=len(su)).astype(np.int64)
            m = sc[sinv] >= 2
            if m.any():
                # union of [i, i+ng) over marked windows: difference
                # array; marked intervals never cross a doc boundary
                starts = cand[m]
                delta = np.zeros(nf + ng, np.int64)
                np.add.at(delta, starts, 1)
                np.add.at(delta, starts + ng, -1)
                covered = np.cumsum(delta[:nf]) > 0
                out[:, 8 + (ng - 5)] = np.bincount(
                    didx[covered], weights=L[covered],
                    minlength=ndoc).astype(np.int64)
            newcode = np.full(nw, -1, np.int64)
            newcode[cand[m]] = sinv[m]
            code = newcode
    return frame()
