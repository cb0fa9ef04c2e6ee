"""Build tests/retry_goldens.json: per-document detect() results for
documents that take the Repeats retry (see
tests/test_langid.py::TestRetryGoldens).

Each document mixes three languages in roughly equal byte shares, as
the benchmark's longform pages do: two quadgram-scored languages plus a
CJK one (ja/zh/ko) or a one-script one (Greek/Thai), or one of each.
No language reaches the "good" thresholds, so almost every document is
re-scored after repeated-word removal. Two extra documents have a
space-heavy prefix that triggers the CheapSqueeze pre-pass and a body
whose squeezed text triggers it again.

The texts are stored in the fixture, so the test does not depend on
this generator. Prints how many documents retry; pass --write to
update the file.

Usage: python scripts/make_retry_goldens.py [--write]
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from cld2_ray.data.seeds import HELDOUT, SEEDS  # noqa: E402
from cld2_ray.data.seeds_extra import EXTRA  # noqa: E402
from cld2_ray.functions import langs, score  # noqa: E402
from cld2_ray.functions.langid import Detector  # noqa: E402
from tests.oracles.repeats import (SQUEEZE_TEST_THRESH, squeeze,  # noqa: E402
                                   squeeze_trigger)

OUT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tests", "retry_goldens.json")

MANY = ["en", "de", "fr", "ru", "es", "pt", "it", "nl", "pl", "tr", "ar"]
CJK = ["ja", "zh", "ko"]
ONE = ["el", "th"]
N_MIXED = 28


def _pool(code: str) -> list[str]:
    return (SEEDS.get(code, "") + " " + EXTRA.get(code, "") + " "
            + HELDOUT.get(code, "")).split()


def _words(rng: np.random.Generator, code: str, n: int) -> str:
    pool = _pool(code)
    if len(pool) < 2 * n:
        # Greek/Thai have one held-out sentence: sample its words
        return " ".join(rng.choice(pool, size=n))
    start = int(rng.integers(0, len(pool) - n))
    return " ".join(pool[start:start + n])


def mixed_doc(rng: np.random.Generator, k: int) -> tuple[str, list[str]]:
    m = [str(c) for c in rng.choice(MANY, size=2, replace=False)]
    cjk = CJK[int(rng.integers(len(CJK)))]
    one = ONE[int(rng.integers(len(ONE)))]
    codes = [m[0], cjk, one] if k % 3 == 2 else m + [cjk if k % 2 else one]
    nbytes = int(rng.integers(1500, 4500))
    paras, size = [], [0, 0, 0]
    while min(size) < nbytes // 3:
        j = int(np.argmin(size))
        p = _words(rng, codes[j], int(rng.integers(8, 40))) + "."
        paras.append(p)
        size[j] += len(p.encode("utf-8"))
    return "\n".join(paras), codes


def _unit(src: str, pos: int) -> tuple[str, int]:
    """One 48-byte squeeze chunk: 11 spaces (just under the 25% drop
    rule) then 37 bytes of unspaced text."""
    out, nb = [], 0
    while nb < 37:
        ch = src[pos % len(src)]
        pos += 1
        b = len(ch.encode("utf-8"))
        if nb + b > 37:
            ch, b = "x", 1
        out.append(ch)
        nb += b
    return " " * 11 + "".join(out), pos


def retrigger_doc(rng: np.random.Generator,
                  codes: list[str]) -> tuple[str, list[str]]:
    """A 288-byte (6-chunk) space-heavy prefix trips the squeeze test
    and is squeezed away; the chunk-aligned body keeps every chunk, and
    its own first 256 bytes hold >=25% spaces, so the test trips again
    on the squeezed text."""
    prefix = ""
    while len(prefix) < 288:
        prefix += "".join(rng.choice(list("qwzxkvj"), size=2)) + " "
    srcs = ["".join(_pool(c)) for c in codes]
    pos = [int(rng.integers(0, len(s))) for s in srcs]
    body = []
    for k in range(150):
        j = 0 if k < 8 else (k // 8) % len(codes)
        u, pos[j] = _unit(srcs[j], pos[j])
        body.append(u)
    return prefix[:288] + "".join(body), codes


def result_dict(r: score.DetectResult) -> dict:
    return {
        "summary": r.summary_code,
        "language3": [langs.lang_code(l) for l in r.language3],
        "percent3": [int(p) for p in r.percent3],
        "normalized_score3": [float(s) for s in r.normalized_score3],
        "text_bytes": int(r.text_bytes),
        "is_reliable": bool(r.is_reliable),
    }


def squeezed(text: str) -> bool:
    """Whether detect_batch's CheapSqueeze pre-pass rewrites ``text``,
    by the numpy oracle."""
    return len(text) > SQUEEZE_TEST_THRESH and squeeze_trigger(text)


def main() -> None:
    rng = np.random.default_rng(2)
    docs = [mixed_doc(rng, k) for k in range(N_MIXED)]
    docs += [retrigger_doc(rng, ["en", "fr", "el"]),
             retrigger_doc(rng, ["de", "en", "zh"])]
    det = Detector()
    texts = [text for text, _ in docs]
    # good is the first pass's Repeats-retry test
    res = det.detect_batch(texts)
    entries = []
    for (text, codes), good in zip(docs, res.good.tolist()):
        retrigger = squeezed(text) and squeezed(squeeze(text))
        entries.append({"codes": codes, "retry": not good,
                        "retrigger": retrigger, "text": text,
                        "want": result_dict(det.detect(text))})
    n_retry = sum(e["retry"] for e in entries)
    n_re = sum(e["retrigger"] for e in entries)
    print(f"{len(entries)} docs, {n_retry} retry, {n_re} re-trigger "
          f"the squeeze")
    if "--write" in sys.argv:
        with open(OUT, "w") as f:
            json.dump(entries, f, indent=1, ensure_ascii=False)
            f.write("\n")
        print(f"wrote {OUT}")
    else:
        print("dry run — pass --write to update")


if __name__ == "__main__":
    main()
