"""Deterministic synthetic Common-Crawl-style pages table.

Schema per BASELINE.json input_hint:
  (url: string, warc_ts: timestamp[us], html: binary, text: string,
   lang: string)

Rows are generated per-index from a seeded RNG (row i depends only on
(seed, i)), so any shard of the table can be produced independently and
the table is byte-stable across runs — the property the resumable
pipeline and the oracle comparison rely on. Page mix follows
FIXTURES.md §1: per-language prose from the seed corpora wrapped in
templated HTML with script/style/comment junk, entities, lang=
attributes, English navigation boilerplate, PII strings, repetitive
junk pages, bad-UTF-8 pages, giant pages and empty pages.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from cld2_ray.data.seeds import HELDOUT, SEEDS
from cld2_ray.data.seeds_extra import EXTRA

# language mix roughly mirroring web distribution (restricted to
# languages with seed corpora + the RTypeOne heldout languages)
_LANG_WEIGHTS = [
    ("en", 30), ("ru", 6), ("de", 6), ("es", 6), ("fr", 5), ("ja", 5),
    ("pt", 4), ("it", 4), ("zh", 4), ("nl", 3), ("pl", 3), ("tr", 3),
    ("id", 2), ("vi", 2), ("ko", 2), ("cs", 2), ("sv", 2), ("ar", 2),
    ("fa", 2), ("uk", 2), ("el", 1), ("th", 1), ("he", 1), ("hi", 1),
    ("ro", 1), ("da", 1), ("fi", 1), ("hu", 1), ("bg", 1), ("ta", 1),
]

_TLD_OF = {
    "en": "com", "ru": "ru", "de": "de", "es": "es", "fr": "fr",
    "ja": "jp", "pt": "br", "it": "it", "zh": "cn", "nl": "nl",
    "pl": "pl", "tr": "tr", "id": "id", "vi": "vn", "ko": "kr",
    "cs": "cz", "sv": "se", "ar": "sa", "fa": "ir", "uk": "ua",
    "el": "gr", "th": "th", "he": "il", "hi": "in", "ro": "ro",
    "da": "dk", "fi": "fi", "hu": "hu", "bg": "bg", "ta": "in",
}

_NAV_BOILERPLATE = ("Home About Contact Privacy Terms Login Register "
                    "Search Subscribe Newsletter Copyright All rights reserved ")

_PII_SNIPPETS = [
    "Contact us at support@example-shop.com for help. ",
    "Call +1 555-234-5678 during business hours. ",
    "Server logs show 203.0.113.42 accessed the page. ",
    "Reference SSN 123-45-6789 appeared in the form. ",
]


def _word_pools() -> dict[str, list[str]]:
    pools = {}
    for code in set(SEEDS) | set(HELDOUT):
        text = SEEDS.get(code, "") + " " + EXTRA.get(code, "") + " " + \
            HELDOUT.get(code, "")
        pools[code] = text.split()
    return pools


_POOLS = _word_pools()
_CODES = [c for c, _ in _LANG_WEIGHTS]
_WEIGHTS = np.array([w for _, w in _LANG_WEIGHTS], dtype=np.float64)
_WEIGHTS /= _WEIGHTS.sum()

BASE_TS_US = 1_700_000_000_000_000  # fixed epoch base (no wall clock)


def _body_text(rng: np.random.Generator, code: str, n_paras: int,
               words_per_para: int) -> list[str]:
    pool = _POOLS[code]
    paras = []
    for _ in range(n_paras):
        start = int(rng.integers(0, max(len(pool) - words_per_para, 1)))
        words = pool[start: start + words_per_para]
        # punctuate into sentences of ~8-14 words
        sents = []
        i = 0
        while i < len(words):
            k = int(rng.integers(8, 15))
            chunk = words[i: i + k]
            if chunk:
                chunk[0] = chunk[0].capitalize()
                sents.append(" ".join(chunk) + ".")
            i += k
        paras.append(" ".join(sents))
    return paras


def make_page(i: int, seed: int = 42) -> dict:
    """Deterministic page row i."""
    rng = np.random.default_rng((seed << 32) ^ i)
    code = _CODES[int(rng.choice(len(_CODES), p=_WEIGHTS))]
    kind = rng.random()

    tld = _TLD_OF.get(code, "com")
    url = f"https://site{i % 997}.example.{tld}/page/{i}"
    ts = BASE_TS_US + i * 1_000_000

    if kind < 0.01:  # empty page
        return {"url": url, "warc_ts": ts, "html": b"", "text": "",
                "lang": code}
    if kind < 0.02:  # bad UTF-8 suffix
        body = " ".join(_body_text(rng, code, 1, 40))
        html = f"<html><body><p>{body}</p>".encode() + b"\xfe\xff\xc3"
        return {"url": url, "warc_ts": ts, "html": html, "text": "",
                "lang": code}
    if kind < 0.05:  # repetitive junk page
        junk = " ".join(f"img{int(rng.integers(0, 9))}.jpg" for _ in range(300))
        html = f"<html><body><p>{junk}</p></body></html>".encode()
        return {"url": url, "warc_ts": ts, "html": html, "text": "",
                "lang": code}

    n_paras = int(rng.integers(2, 7))
    wpp = int(rng.integers(30, 90))
    if kind > 0.995:  # giant page (skew test)
        n_paras, wpp = 60, 300
    paras = _body_text(rng, code, n_paras, wpp)

    parts = ["<html><head><title>", paras[0][:40], "</title>"]
    if rng.random() < 0.5:
        parts.append(f'<meta http-equiv="Content-Language" content="{code}">')
    parts.append("<style>body { font-size: 12px; color: #333; }</style>")
    parts.append("<script>var tracking = 'xyzzy analytics beacon';"
                 "function f(){return 42;}</script></head>")
    body_attr = f' lang="{code}"' if rng.random() < 0.4 else ""
    parts.append(f"<body{body_attr}>")
    if rng.random() < 0.3:  # English nav boilerplate
        parts.append(f"<div>{_NAV_BOILERPLATE}</div>")
    parts.append("<!-- generated page <b>do not edit</b> -->")
    for j, p in enumerate(paras):
        if rng.random() < 0.15:
            p = p.replace(" a ", " &amp; a ", 1)
        parts.append(f"<p>{p}</p>")
        if j == 0 and rng.random() < 0.1:
            parts.append(f"<div>{_PII_SNIPPETS[int(rng.integers(0, len(_PII_SNIPPETS)))]}</div>")
    if rng.random() < 0.08:  # mixed-language page: tail in another lang
        other = _CODES[int(rng.integers(0, len(_CODES)))]
        parts.append(f"<p>{' '.join(_body_text(rng, other, 1, 40))}</p>")
    parts.append("<table><tr><td>2024-01-01</td></tr></table></body></html>")
    html = "".join(parts).encode("utf-8")
    return {"url": url, "warc_ts": ts, "html": html, "text": "",
            "lang": code}


SCHEMA = pa.schema([
    ("url", pa.string()),
    ("warc_ts", pa.timestamp("us")),
    ("html", pa.binary()),
    ("text", pa.string()),
    ("lang", pa.string()),
])


def page_batch(start: int, count: int, seed: int = 42) -> pa.Table:
    rows = [make_page(i, seed) for i in range(start, start + count)]
    return pa.Table.from_pylist(rows, schema=SCHEMA)


def edge_pages() -> pa.Table:
    """Pages at the edges of the kernel's input, which make_page draws
    rarely or never: null and invalid-UTF-8 html, CRLF line ends,
    one-letter words, letters whose lowercase is longer in UTF-8
    (U+023A, U+023E) and a page whose letters pass the 160 KB langid
    budget."""
    fr = ("Bonjour tout le monde, voici une page qui parle de la ville "
          "et de ses rues. ")
    ru = "Москва является столицей России и крупнейшим городом страны. "
    htmls = [
        None,
        b"\xff",
        b"<p>The caf\xc3 is open every day of the week for lunch</p>",
        (f"<html>\r\n<head><title>Notes</title></head>\r\n<body>\r\n"
         f"<p>{fr}\r\n{fr}</p>\r\n<br>\r\n<p>{ru}\r\n</p>\r\n"
         f"</body></html>\r\n").encode(),
        ("<p>" + " ".join("abcdefghijklmnopqrstuvwxyz") * 20
         + " \u023a \u023e \u023a\u023e" * 50 + "</p>").encode(),
        ("<html><body>" + "".join(f"<p>{fr}{ru}</p>" for _ in range(1500))
         + "</body></html>").encode(),
    ]
    return pa.Table.from_pylist(
        [{"url": f"https://edge.example.org/{k}",
          "warc_ts": BASE_TS_US + k * 1_000_000, "html": h, "text": "",
          "lang": "fr"} for k, h in enumerate(htmls)], schema=SCHEMA)


def pages_dataset(n: int, seed: int = 42, shard_size: int = 2000):
    """Lazy Ray Dataset of n synthetic pages: shard indices flow through
    a flat_map-style map_batches so generation itself is distributed
    (no driver-side materialization of page bytes)."""
    import ray.data as rd

    starts = list(range(0, n, shard_size))
    ds = rd.from_items([{"start": s, "count": min(shard_size, n - s),
                         "seed": seed} for s in starts])

    def gen(batch: pa.Table) -> pa.Table:
        tables = [page_batch(int(s), int(c), int(sd))
                  for s, c, sd in zip(batch["start"].to_pylist(),
                                      batch["count"].to_pylist(),
                                      batch["seed"].to_pylist())]
        return pa.concat_tables(tables)

    return ds.map_batches(gen, batch_size=1, batch_format="pyarrow")


def write_pages_parquet(path: str, n: int, seed: int = 42) -> str:
    """Materialize a pages table to parquet (bench input cache).
    Generation is distributed over Ray when a session is active."""
    import os
    import shutil

    import ray
    import pyarrow.parquet as pq
    os.makedirs(path, exist_ok=True)
    marker = os.path.join(path, f"_DONE_{n}_{seed}")
    if os.path.exists(marker):
        return path
    for f in os.listdir(path):  # clear stale partial cache
        fp = os.path.join(path, f)
        (shutil.rmtree if os.path.isdir(fp) else os.remove)(fp)
    if ray.is_initialized():
        pages_dataset(n, seed, shard_size=5000).write_parquet(path)
    else:
        for k, start in enumerate(range(0, n, 10_000)):
            t = page_batch(start, min(10_000, n - start), seed)
            pq.write_table(t, os.path.join(path, f"part-{k:05d}.parquet"))
    open(marker, "w").close()
    return path
