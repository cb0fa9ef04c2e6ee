"""Build the langid model artifact ``cld2_ray/state/artifacts/langmodel.npz``.

    python -m tools.langmodel            # rebuild (needs the reference tree)
    python -m tools.langmodel --verify   # checksum pass over the artifact

The four reference tables (delta-octa and distinct-octa words, CJK
unigrams and bigrams) are parsed from the reference's generated
sources by ``tools/refparse.py`` (``ref_tables``). The quadgram and
seed-word tables, and the expected-score tables, train on the authored
seed corpora with the runtime walks (``train``). Given the committed
reference tables, ``train`` rebuilds the committed seed-trained arrays
exactly; ``tests/test_tools.py`` checks that.

The value layout, the table classes and the loader are in
``cld2_ray/state/model.py``; this module also holds the numpy bucket
probe (``bucket_lookup``), the oracle of the C probe.
"""

from __future__ import annotations

import math
import os

import numpy as np

from cld2_ray.functions import langs, spans, uscript as us
from cld2_ray.state.model import (ARTIFACT, BucketTable, HashTable,
                                  LangModel, _digest, _verify_arrays)
from tools import hits

MAX_QPROB = 12


def pack_langprob(entries: list[tuple[int, int]]) -> int:
    """[(lang_id, qprob), ...] top-first -> uint64 value (4 lanes)."""
    v = 0
    for i, (lid, q) in enumerate(entries[:4]):
        v |= (lid & 0xFF) << (16 * i)
        v |= (min(q, 255) & 0xFF) << (16 * i + 8)
    return v


def unpack_langprobs(vals: np.ndarray):
    """uint64[n] -> (langs int16[n,4], qprobs int32[n,4])."""
    ls = []
    qs = []
    for i in range(4):
        ls.append(((vals >> np.uint64(16 * i)) & np.uint64(0xFF))
                  .astype(np.int16))
        qs.append(((vals >> np.uint64(16 * i + 8)) & np.uint64(0xFF))
                  .astype(np.int32))
    return np.stack(ls, axis=1), np.stack(qs, axis=1)


def bucket_keyvalues(table: BucketTable, hashes: np.ndarray) -> np.ndarray:
    """Vectorized probe -> matched uint32 keyvalue (0 = miss)."""
    h = hashes.astype(np.uint64)
    bmask = np.uint64(table.buckets.shape[0] - 1)
    if table.kind == "octa40":
        sub = ((h + (h >> np.uint64(12))) & bmask).astype(np.int64)
        key = (h >> np.uint64(4)).astype(np.uint32) & table.keymask
    else:
        h32 = h.astype(np.uint32)
        sub = ((h32 + (h32 >> np.uint32(12)))
               & bmask.astype(np.uint32)).astype(np.int64)
        key = h32 & table.keymask
    entries = table.buckets[sub]              # (n, 4)
    match = ((entries ^ key[:, None]) & table.keymask) == 0
    first = np.argmax(match, axis=1)
    kv = entries[np.arange(len(h)), first]
    return np.where(match.any(axis=1), kv, np.uint32(0))


def bucket_lookup(table: BucketTable, hashes: np.ndarray,
                  latin) -> np.ndarray:
    """numpy BucketTable probe -> packed uint64 values (0 = miss), the
    oracle of the C bucket probe. ``latin``: bool or bool array per
    hash selecting the script-class decode."""
    if len(hashes) == 0:
        return np.empty(0, dtype=np.uint64)
    kv = bucket_keyvalues(table, hashes)
    ind = (kv & ~table.keymask).astype(np.int64)
    vl = table.packed_latn[ind]
    vo = table.packed_othr[ind]
    out = np.where(latin, vl, vo) if not np.isscalar(latin) else \
        (vl if latin else vo)
    return np.where(kv != 0, out, np.uint64(0))


def save(model: LangModel, path: str = ARTIFACT) -> None:
    """Write ``model`` as the npz artifact with its checksum manifest
    (the verifyDataFile analogue, reference:
    internal/cld2_dynamic_data.h:220 + cld2_dynamic_data_tool.cc
    --verify): one digest per array, so a corrupted artifact fails
    loudly at load, not as silently-wrong probe results."""
    os.makedirs(os.path.dirname(path), exist_ok=True)

    def bt(name, t: BucketTable):
        # keymask as a 1-element array: 0-d scalars change shape
        # through the mmap extraction cache
        return {f"{name}_buckets": np.ascontiguousarray(t.buckets),
                f"{name}_keymask": np.array([t.keymask], np.uint32),
                f"{name}_packed_latn": t.packed_latn,
                f"{name}_packed_othr": t.packed_othr}

    arrays = dict(
        quad_keys=model.quad.keys, quad_vals=model.quad.vals,
        socta_keys=model.socta.keys, socta_vals=model.socta.vals,
        uni_keys=model.uni.keys, uni_vals=model.uni.vals,
        expected_quad=model.expected_quad,
        expected_uni=model.expected_uni,
        lang_codes=np.array(langs.CODES),
        **bt("docta", model.docta),
        **bt("xocta", model.xocta),
        **bt("cjkbi", model.cjkbi),
    )
    arrays["manifest"] = np.array(
        [f"{k}={_digest(np.asarray(v))}"
         for k, v in sorted(arrays.items())])
    np.savez_compressed(path, **arrays)


def verify_artifact(path: str = ARTIFACT) -> None:
    """Standalone --verify: full checksum pass over the artifact."""
    z = np.load(path, allow_pickle=False)
    _verify_arrays({k: z[k] for k in z.files}, path)


# ---------------------------------------------------------------------------
# Build (offline; deterministic). Quadgrams train on the authored seed
# corpora; everything else parses from the reference's generated tables.
# ---------------------------------------------------------------------------

def _count_table(counts: dict[int, dict[int, int]],
                 totals: dict[int, int]) -> HashTable:
    """counts: key -> {lang_id: count}; totals: lang_id -> corpus hits.

    Quantization follows the reference's qprob scale (+1 step = a
    factor of 3 in likelihood, cldutil.cc:540-552): the gram's top
    language gets a frequency-scaled q, the 2nd/3rd are stepped down
    by their log-odds ratio versus the top — so a gram unique to one
    language carries a real margin, like the reference's
    decreasing-probability langprob rows."""
    # web-minority members of close sets get a one-step prior demotion
    # (the analogue of corpus-frequency priors in the reference's
    # training data; keeps pt/gl, sr/bs, bg/mk, ru/be resolvable with
    # small seed corpora)
    # (mk was demoted through round 2; with the reference word tables
    # in play Serbian evidence leaks into Macedonian text and the
    # demotion tipped mk under sr — bg/mk stay resolvable through the
    # closest-alt merge instead)
    # ms: Indonesian is the web-majority member of the {id, ms} close
    # pair; without the demotion shared grams tip the close-pair
    # refinement toward ms on Indonesian text
    demote = {langs.lang_id(c) for c in ("gl", "bs", "be", "ms")}
    ln3 = math.log(3.0)
    kv: dict[int, int] = {}
    for key, per_lang in counts.items():
        weighted = sorted(
            (((cnt / totals[lid]) / (3.0 if lid in demote else 1.0), lid)
             for lid, cnt in per_lang.items()),
            reverse=True)[:4]
        w_max = weighted[0][0]
        if w_max <= 0:
            continue
        q_max = max(1, min(MAX_QPROB,
                           2 + int(round(math.log(w_max * 1000.0) / ln3))))
        entries = []
        ln2 = math.log(2.0)
        for w, lid in weighted:
            # steep down-step (factor 2 per q unit) so per-gram margins
            # between the top and runner-up languages accumulate —
            # the margin is what ReliabilityDelta measures
            q = q_max - int(round(math.log(w_max / w) / ln2))
            if q >= 1:
                entries.append((lid, q))
        if entries:
            kv[key] = pack_langprob(entries)
    return HashTable.build(kv)


def _build_seed_tables(seed_texts: dict[str, str]):
    """-> (quad HashTable, seed-word HashTable), both trained from
    the authored seed corpora with the RUNTIME walks."""
    quad_counts: dict[int, dict[int, float]] = {}
    quad_totals: dict[int, float] = {}
    octa_counts: dict[int, dict[int, float]] = {}
    octa_totals: dict[int, float] = {}

    def bump(counts, totals, lid, keys, w: float):
        totals[lid] = totals.get(lid, 0.0) + max(len(keys), 1) * w
        for k in keys.tolist():
            counts.setdefault(k, {})
            counts[k][lid] = counts[k].get(lid, 0.0) + w

    # web-minority (lang, script) variant spans train at a demoted
    # weight — see data/seeds.SECONDARY_SCRIPTS for the rationale
    from cld2_ray.data.seeds import SECONDARY_SCRIPTS
    _script_id = {"Latn": us.LATIN, "Cyrl": us.CYRILLIC,
                  "Arab": us.ARABIC, "Deva": us.DEVANAGARI}
    for _c, _per in SECONDARY_SCRIPTS.items():
        unknown = set(_per) - set(_script_id)
        if unknown:  # silent drop would train the variant at FULL
            raise ValueError(  # weight and skew the committed artifact
                f"SECONDARY_SCRIPTS[{_c!r}] names scripts {unknown} "
                f"missing from _script_id — add them here")
    secondary = {(langs.lang_id(c), _script_id[s]): w
                 for c, per in SECONDARY_SCRIPTS.items()
                 for s, w in per.items()}

    for code, text in sorted(seed_texts.items()):
        lid = langs.lang_id(code)
        if lid == langs.UNKNOWN:
            raise ValueError(f"seed corpus for unknown language {code!r}")
        for sp in spans.script_spans(" ".join(text.split())):
            rt = us.script_rtype(sp.script)
            if rt == us.RTYPE_MANY:
                w = secondary.get((lid, sp.script), 1.0)
                # dense (every-alignment) sampling for table coverage
                sb = sp.text.encode("utf-8")
                bump(quad_counts, quad_totals, lid,
                     hits.quad_hits_dense(sb)[0], w)
                wh, _, _, _ = hits.octa_word_and_pair_hits(sb)
                bump(octa_counts, octa_totals, lid, wh, w)
    return (_count_table(quad_counts, quad_totals),
            _count_table(octa_counts, octa_totals))


def ref_tables():
    """Parse the reference's generated tables into BucketTables + the
    unigram HashTable: (docta, xocta, uni, cjkbi), the tables
    ``LangModel`` documents (needs the reference tree)."""
    from tools import refparse as rp

    def packed_for(ind: np.ndarray, latin: bool) -> np.ndarray:
        out = np.zeros(len(ind), dtype=np.uint64)
        for i, lp in enumerate(ind.tolist()):
            entries = []
            for code, q in rp.decode_langprob(int(lp), latin):
                lid = langs.lang_id(code)
                if lid != langs.UNKNOWN:
                    entries.append((lid, q))
            out[i] = pack_langprob(entries)
        return out

    def bucket(name: str, kind: str) -> BucketTable:
        t = rp.bucket_table(name)
        ind = t["ind"]
        return BucketTable(
            buckets=np.ascontiguousarray(t["buckets"]),
            keymask=np.uint32(t["keymask"]),
            packed_latn=packed_for(ind, True),
            packed_othr=packed_for(ind, False),
            kind=kind)

    docta = bucket("deltaocta", "octa40")
    xocta = bucket("distinctocta", "octa40")
    cjkbi = bucket("cjkbi", "quad32")

    # CJK unigrams: trie-enumerated codepoints -> merged compat pairs
    # (SizeOne=0: every propval p decodes Ind[2p] + Ind[2p+1]; same
    # language in both langprobs sums, as two tote adds would)
    compat = rp.compat_ind()
    packed_prop = np.zeros(len(compat) // 2, dtype=np.uint64)
    for p in range(len(packed_prop)):
        merged: dict[int, int] = {}
        order: list[int] = []
        for lp in (int(compat[2 * p]), int(compat[2 * p + 1])):
            for code, q in rp.decode_langprob(lp, False):
                lid = langs.lang_id(code)
                if lid == langs.UNKNOWN:
                    continue
                if lid not in merged:
                    order.append(lid)
                    merged[lid] = 0
                merged[lid] += q
        packed_prop[p] = pack_langprob([(lid, merged[lid])
                                        for lid in order])
    uni_kv = {cp: int(packed_prop[p])
              for cp, p in sorted(rp.cjk_uni_props().items())
              if packed_prop[p] != 0}
    uni = HashTable.build(uni_kv)
    return docta, xocta, uni, cjkbi


def _score_text_for_lang(model: "LangModel", text: str, lid: int):
    """Score text with the RUNTIME hit walk. Returns
    (many: {lscript4 -> [score, bytes]}, cjk: [score, bytes]) — the
    MANY accumulation is per LScript4 slot because the expected table
    keeps 4 per-language script slots like the reference's
    kAvgDeltaOctaScore (multi-script corpora hit at very different
    per-KB rates per script)."""
    many: dict[int, list[int]] = {}
    cjk = [0, 0]
    for sp in spans.script_spans(" ".join(text.split())):
        rt = us.script_rtype(sp.script)
        latin = sp.script == us.LATIN
        if rt == us.RTYPE_MANY:
            s4 = int(us.LSCRIPT4[sp.script])
            acc = many.setdefault(s4, [0, 0])
            sb = sp.text.encode("utf-8")
            h, _ = hits.quad_hits_dense(sb)
            l4, q4 = unpack_langprobs(model.quad.lookup(h))
            acc[0] += int(np.where(l4 == lid, q4, 0).sum())
            ho, oo, hp, po = hits.octa_word_and_pair_hits(sb)
            for tbl, keys in ((model.docta, ho), (model.xocta, ho),
                              (model.xocta, hp)):
                l4, q4 = unpack_langprobs(bucket_lookup(tbl, keys, latin))
                acc[0] += int(np.where(l4 == lid, q4, 0).sum())
            l4, q4 = unpack_langprobs(model.socta.lookup(ho))
            acc[0] += int(np.where(l4 == lid, q4, 0).sum())
            acc[1] += sp.text_bytes
        elif rt == us.RTYPE_CJK:
            uni, _, bih, _ = hits.cjk_candidates(sp.text)
            l4, q4 = unpack_langprobs(model.uni.lookup(uni))
            cjk[0] += int(np.where(l4 == lid, q4, 0).sum())
            l4, q4 = unpack_langprobs(bucket_lookup(model.cjkbi, bih,
                                                    False))
            cjk[0] += int(np.where(l4 == lid, q4, 0).sum())
            cjk[1] += sp.text_bytes
    return many, cjk


def train(ref) -> LangModel:
    """The model: the four reference tables ``ref`` = (docta, xocta,
    uni, cjkbi), as ``ref_tables()`` parses them, plus the quad and
    seed-word tables and the expected-score tables trained on the
    authored seed corpora (data/seeds.py SEEDS + seeds_extra.EXTRA)."""
    from cld2_ray.data.seeds import SEEDS
    from cld2_ray.data.seeds_extra import EXTRA
    seed_texts = {c: t + " " + EXTRA.get(c, "") for c, t in SEEDS.items()}

    docta, xocta, uni, cjkbi = ref
    quad, socta = _build_seed_tables(seed_texts)
    model = LangModel(
        quad=quad, socta=socta,
        docta=docta, xocta=xocta, uni=uni, cjkbi=cjkbi,
        expected_quad=np.zeros((langs.NUM_LANGS, 4), dtype=np.int32),
        expected_uni=np.zeros(langs.NUM_LANGS, dtype=np.int32),
    )

    # Expected score per 1KB per language (the analogue of
    # kAvgDeltaOctaScore, cld_generated_score_quad_octa_*.cc), measured
    # split-half: quad tables trained on the first half of each corpus
    # score the unseen second half (the reference word/CJK tables are
    # full either way), giving a realistic out-of-vocabulary rate.
    # Languages without seed corpora keep expected 0 = "no estimate",
    # which reliability_expected_exact treats as fully reliable.
    # halve WITHIN each script section, not across the whole corpus:
    # the script-variant corpora (data/seeds.py _VARIANTS) are built
    # as "base-script text + transliterated text", and a whole-corpus
    # positional split would train half A on one script and score
    # half B in the other, measuring a cross-script expected rate of
    # ~0 (observed: uz=17, tk=9 per KB, which then killed those
    # languages' reliability at detection). Per-section halving keeps
    # the measurement identical to the historical split for
    # single-script corpora (first/second half = real out-of-vocab
    # text, NOT vocabulary-sharing interleaved blocks) while giving
    # mixed-script corpora both scripts in both halves.
    halves_a = {}
    halves_b = {}
    for code, text in seed_texts.items():
        a_parts: list[str] = []
        b_parts: list[str] = []
        for sec in spans.script_spans(" ".join(text.split())):
            words = sec.text.split()
            a_parts.append(" ".join(words[: len(words) // 2]))
            b_parts.append(" ".join(words[len(words) // 2:]))
        halves_a[code] = " ".join(a_parts)
        halves_b[code] = " ".join(b_parts)
    hq, hs = _build_seed_tables(halves_a)
    half_model = LangModel(hq, hs, docta, xocta,
                           uni, cjkbi, model.expected_quad,
                           model.expected_uni)
    from tools.calib import CALIB_K
    for code, text_b in sorted(halves_b.items()):
        lid = langs.lang_id(code)
        many, cjk = _score_text_for_lang(half_model, text_b, lid)
        for s4, (s, b) in sorted(many.items()):
            if b > 0:
                k = CALIB_K.get((code, s4), 1.0)
                model.expected_quad[lid, s4] = int(
                    round(k * ((s << 10) // b)))
        s, b = cjk
        if b > 0:
            k = CALIB_K.get((code, "uni"), 1.0)
            model.expected_uni[lid] = int(round(k * ((s << 10) // b)))
    return model


if __name__ == "__main__":
    import sys
    if "--verify" in sys.argv:
        path = ARTIFACT
        verify_artifact(path)
        print(f"verified {path}: all checksums match")
        raise SystemExit(0)
    m = train(ref_tables())
    save(m)
    nq = int((m.quad.keys != 0).sum())
    ns = int((m.socta.keys != 0).sum())
    nu = int((m.uni.keys != 0).sum())
    print(f"saved {ARTIFACT}: quads={nq} soctas={ns} unis={nu} "
          f"docta={len(m.docta.buckets)}x4 xocta={len(m.xocta.buckets)}x4 "
          f"cjkbi={len(m.cjkbi.buckets)}x4")
