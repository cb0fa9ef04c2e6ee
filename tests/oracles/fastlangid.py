"""The oracle of ``fastlangid.classify_batch``: the routing in Python
(the script counts of ``spans._codepoints`` / ``_scripts_of``, and
``str.strip`` for blank texts) and the scoring in numpy (the hashed
n-gram features of ``features_batch``, rows added in first-seen
order), independent of ``native.fastlangid_score``.
``cap_then_lower``, the cap then ``str.lower`` in Python, is the
oracle of ``native.lower_docs`` (``uscript.lowered``)."""

from __future__ import annotations

import numpy as np

from cld2_ray.functions import langs, uscript as us
from cld2_ray.functions.fastlangid import CAP_BYTES, _GOLD, weights
from tests.oracles.spans import _codepoints, _scripts_of


def cap_text(t: str, cap: int = CAP_BYTES) -> str:
    """The longest prefix of t of at most ``cap`` UTF-8 bytes that ends
    on a char boundary."""
    b = t.encode("utf-8")
    if len(b) <= cap:
        return t
    while cap > 0 and (b[cap] & 0xC0) == 0x80:
        cap -= 1  # back off to a UTF-8 character boundary
    return b[:cap].decode("utf-8")


def cap_then_lower(texts, cap: int = CAP_BYTES) -> list[str]:
    """Each text (None reads as empty) cut by cap_text when cap >= 0,
    then lowered: in that order, because Greek final sigma makes
    str.lower depend on what follows."""
    return [(cap_text(t, cap) if cap >= 0 else t).lower() if t else ""
            for t in texts]


def features_batch(texts: list[str]):
    """tools/fastlangid_rows._features over a batch: one concatenated
    byte buffer, windows crossing document boundaries masked out.
    Per-document feature values AND order are identical to _features
    (2-grams, then 3-, then 4-grams, each by position). Returns
    (feat_bucket int64[], doc_of int64[])."""
    framed = [(" " + t.lower() + " ").encode("utf-8") for t in texts]
    lens = np.array([len(b) for b in framed], dtype=np.int64)
    bounds = np.cumsum(lens)
    cat = b"".join(framed)
    arr = np.frombuffer(cat, dtype=np.uint8).astype(np.uint64)
    big_n = len(arr)
    if big_n == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    pos_doc = np.searchsorted(bounds, np.arange(big_n), side="right")
    feats, docs = [], []
    with np.errstate(over="ignore"):
        for n in (2, 3, 4):
            if big_n < n:
                continue
            h = np.zeros(big_n - n + 1, dtype=np.uint64)
            for k in range(n):
                h = h * np.uint64(31) + arr[k: big_n - n + 1 + k]
            h = (h * _GOLD) >> np.uint64(46)
            d = pos_doc[:big_n - n + 1]
            valid = (np.arange(big_n - n + 1) + n) <= bounds[d]
            feats.append(h[valid].astype(np.int64))
            docs.append(d[valid])
    if not feats:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(feats), np.concatenate(docs)


def _first_seen_scores(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """A doc's float32 scores from its feature rows (0 = absent): count
    * weight row added once per distinct row, in first-seen order."""
    r = rows[rows > 0]
    uniq, first, count = np.unique(r, return_index=True, return_counts=True)
    want = np.zeros(w.shape[1], dtype=np.float32)
    for i in np.argsort(first):
        want += np.float32(count[i]) * w[uniq[i]]
    return want


def classify_oracle(texts) -> tuple[list[str], list[float]]:
    """fastlangid.classify_batch(texts), routed in Python and scored in
    numpy."""
    texts = [cap_text(t) if t else "" for t in texts]
    n = len(texts)
    out_l, out_c = ["un"] * n, [0.0] * n
    # per-doc bincount().argmax() == row argmax over the (doc, script)
    # count matrix (both take the smallest tied index)
    lowered = [t.lower() for t in texts]
    bounds = np.cumsum(np.array([len(t) for t in lowered],
                                dtype=np.int64))
    cps = _codepoints("".join(lowered))
    sc = _scripts_of(cps)
    doc_of = np.searchsorted(bounds, np.arange(len(cps), dtype=np.int64),
                             side="right")
    nz = sc > 0
    n_scripts = len(langs.SCRIPT_DEFAULT_LANG)
    counts = np.bincount(doc_of[nz] * n_scripts + sc[nz],
                         minlength=n * n_scripts).reshape(n, n_scripts)
    has_letters = counts.sum(axis=1) > 0
    dominant = counts[:, 1:].argmax(axis=1) + 1
    todo: list[int] = []
    for i, t in enumerate(texts):
        if not t.strip():
            continue
        if has_letters[i]:
            d = int(dominant[i])
            if us.script_rtype(d) == us.RTYPE_ONE:
                out_l[i] = langs.lang_code(
                    int(langs.SCRIPT_DEFAULT_LANG[d]))
                out_c[i] = 0.95
                continue
        todo.append(i)
    if not todo:
        return out_l, out_c

    w, idx, col_langs = weights()
    feats, f_doc = features_batch([lowered[i] for i in todo])
    rows = idx[feats]
    scores = np.stack([_first_seen_scores(rows[f_doc == j], w)
                       for j in range(len(todo))])
    nf = np.bincount(f_doc, minlength=len(todo))
    has_row = np.array([(rows[f_doc == j] > 0).any()
                        for j in range(len(todo))])
    order = np.argsort(scores, axis=1)
    top = order[:, -1]
    s_top = np.take_along_axis(scores, top[:, None], 1)[:, 0]
    s_sec = np.take_along_axis(scores, order[:, -2][:, None], 1)[:, 0]
    margin = (s_top - s_sec).astype(np.float64) / np.maximum(nf, 1)
    conf = 1.0 - np.exp(-4.0 * np.maximum(margin, 0.0))
    for j, i in enumerate(todo):
        if nf[j] == 0 or not has_row[j]:
            continue  # no recognizable features -> un, 0.0
        out_l[i] = langs.lang_code(int(col_langs[top[j]]))
        out_c[i] = float(conf[j])
    return out_l, out_c
