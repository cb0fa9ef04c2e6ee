"""Learn the per-(language, script-slot) expected-score calibration
scales in tools/calib.py.

Why: the expected table is measured split-half on seed corpora
(heldout-sentence per-KB rates), but the exact ReliabilityExpected
ramp (cldutil.cc:586-605) must hold simultaneously for page-chunk text
that scores ~1.5-2x higher (in-vocabulary by construction). A single
per-cell scale re-centers each cell between the two populations.

Method: uniform-k sweeps over a small grid, scoring every cell by the
eval pages of its language (sources.pages seed=43 — disjoint from the
seed-42 eval/bench corpus) + 3x its conformance sentences + 3x the
reference's own unittest strings (internal/unittest_data.h — short
real-text samples, the third text population the ramp must hold for);
compose per-cell argmax; then coordinate descent on residual losers
(also trying the DETECTED close-set language's cell, e.g. rn scores
via rw's cell). Writes tools/calib.py and prints before/after.

Usage: python scripts/calibrate_expected.py [--dry-run]
Deterministic; rerun after changing seed corpora or scoring.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from cld2_ray.functions import langs, spans, uscript as us  # noqa: E402
from cld2_ray.functions.extract import extract_text, valid_utf8_prefix  # noqa: E402
from cld2_ray.functions.langid import Detector  # noqa: E402
from cld2_ray.data.seeds import HELDOUT  # noqa: E402
from cld2_ray.sources.pages import make_page  # noqa: E402
from cld2_ray.state import model as M  # noqa: E402
from tools import calib, langmodel as build  # noqa: E402

GRID = [0.5, 0.625, 0.75, 0.875, 1.0, 1.125, 1.25, 1.375, 1.5, 1.625, 1.75, 2.0, 2.25]
N_PAGES = 3000
CAL_SEED = 43
CONF_WEIGHT = 3

CALIB_PATH = calib.__file__


def dominant_cell(code: str, text: str):
    """(seed-code, slot) cell a text's MANY spans mostly exercise; CJK
    texts map to (code, 'uni')."""
    base = code.split("-")[0]
    by_s4: dict[int, int] = defaultdict(int)
    cjk_bytes = 0
    for sp in spans.script_spans(text):
        rt = us.script_rtype(sp.script)
        if rt == us.RTYPE_MANY:
            by_s4[int(us.LSCRIPT4[sp.script])] += sp.text_bytes
        elif rt == us.RTYPE_CJK:
            cjk_bytes += sp.text_bytes
    if by_s4 and max(by_s4.values()) >= cjk_bytes:
        return base, max(by_s4, key=lambda s: by_s4[s])
    if cjk_bytes:
        return base, "uni"
    return base, 3


def scaled(base: M.LangModel, k_of_cell: dict) -> M.LangModel:
    import copy
    m = copy.copy(base)
    eq = base.expected_quad.astype(np.float64).copy()
    eu = base.expected_uni.astype(np.float64).copy()
    for (code, slot), k in k_of_cell.items():
        # lang_id returns 0 (UNKNOWN) for unregistered codes instead
        # of raising — scaling row 0 would corrupt the 'un' slot, so
        # skip them explicitly
        if code not in langs.CODE_TO_ID:
            continue
        lid = langs.lang_id(code)
        if slot == "uni":
            eu[lid] *= k
        else:
            eq[lid, slot] *= k
    m.expected_quad = np.round(eq).astype(np.int32)
    m.expected_uni = np.round(eu).astype(np.int32)
    return m


def main() -> None:
    import json
    goldens = json.load(open(os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "tests", "goldens.json")))

    print("training base model (CALIB_K ignored — raw split-half "
          "expected)...", flush=True)
    saved_calib = dict(calib.CALIB_K)
    calib.CALIB_K.clear()
    ref = M.default_model()
    base = build.train((ref.docta, ref.xocta, ref.uni, ref.cjkbi))
    calib.CALIB_K.update(saved_calib)

    print("pre-extracting calibration pages...", flush=True)
    pages: dict[str, list[str]] = defaultdict(list)
    for i in range(N_PAGES):
        p = make_page(i, seed=CAL_SEED)
        h = p["html"]
        pages[p["lang"]].append(extract_text(h[:valid_utf8_prefix(h)]))

    # cells: goldens by their heldout text; eval langs by their base
    # golden's text (the pages are generated in the native script)
    cell_of_golden = {g: dominant_cell(g, HELDOUT[g]) for g in goldens}
    cell_of_evallang = {c: cell_of_golden.get(c, (c, 3))
                        for c in pages}

    # the reference's own unittest strings (tests/test_unittest_parity
    # parses + scores them; permanent deviations excluded)
    tests_dir = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "tests")
    sys.path.insert(0, tests_dir)
    import re
    from test_unittest_parity import EXPECTED_FAILS, _load_strings
    unit: dict[str, tuple[str, str]] = {}  # name -> (accept code, text)
    for name, text in sorted(_load_strings().items()):
        m = re.match(r"kTeststr_(\w+?)_([A-Z]\w+)$", name)
        if not m or name in EXPECTED_FAILS:
            continue
        code = m.group(1).replace("_", "-")
        code = {"iw": "he", "jw": "jv", "in": "id"}.get(code, code)
        if code == "zh" and m.group(2) == "Hant":
            code = "zh-Hant"
        if code.split("-")[0] not in langs.CODE_TO_ID:
            continue
        unit[name] = (code, text)
    cell_of_unit = {n: dominant_cell(c, t) for n, (c, t) in unit.items()}

    def unit_ok(det, name):
        code, text = unit[name]
        base = code.split("-")[0]
        got = det.detect(text).summary_code
        if got in (base, code):
            return 1
        e = langs.lang_id(base)
        g = langs.lang_id(got) if got in langs.CODE_TO_ID else 0
        return 1 if (langs.CLOSE_SET[e] and g
                     and langs.CLOSE_SET[e] == langs.CLOSE_SET[g]) else 0

    def run_conf(det):
        out = {}
        for g, want in goldens.items():
            r = det.detect(HELDOUT[g])
            out[g] = 1 if (r.summary_code == want["summary"]
                           and bool(r.is_reliable)
                           == bool(want["is_reliable"])) else 0
        for name in unit:
            out[name] = unit_ok(det, name)
        return out

    def run_eval(det, only=None):
        per = {}
        for c, texts in pages.items():
            if only and c not in only:
                continue
            n = 0
            for t in texts:
                if det.detect(t).summary_code == c:
                    n += 1
            per[c] = (n, len(texts))
        return per

    def totals(conf, per):
        return (sum(conf.values()),
                sum(n for n, _ in per.values()),
                sum(t for _, t in per.values()))

    all_cells = sorted(set(cell_of_golden.values())
                       | set(cell_of_evallang.values())
                       | set(cell_of_unit.values()))

    sweeps = {}
    for k in GRID:
        det = Detector(model=scaled(base, {c: k for c in all_cells}))
        conf = run_conf(det)
        per = run_eval(det)
        sweeps[k] = (conf, per)
        tc, te, tt = totals(conf, per)
        print(f"k={k}: conf {tc}/{len(conf)} eval {te}/{tt}",
              flush=True)

    # per-cell argmax
    def cell_score(k, cell):
        conf, per = sweeps[k]
        s = 0
        for g, c in cell_of_golden.items():
            if c == cell:
                s += CONF_WEIGHT * conf[g]
        for name, c in cell_of_unit.items():
            if c == cell:
                s += CONF_WEIGHT * conf[name]
        for lng, c in cell_of_evallang.items():
            if c == cell:
                s += per[lng][0]
        return s

    # prefer k closest to 1.0 on ties (most cells' goldens pass at
    # every k — those must stay at the uncalibrated measurement, not
    # drift to the grid edge)
    k_of_cell: dict = {}
    for cell in all_cells:
        best, best_s = 1.0, -1
        for k in sorted(GRID, key=lambda x: (abs(x - 1.0), x)):
            s = cell_score(k, cell)
            if s > best_s:
                best, best_s = k, s
        k_of_cell[cell] = best

    det = Detector(model=scaled(base, k_of_cell))
    conf = run_conf(det)
    per = run_eval(det)
    print("composed:", totals(conf, per), flush=True)

    # coordinate descent on losers; goldens may also need the cell of
    # the language they are DETECTED as (close-set neighbors)
    for _ in range(4):
        improved = False
        losers = [g for g in conf if conf[g] == 0]
        losers += [c for c in pages if per[c][0] < per[c][1]]
        for who in losers:
            cells = set()
            if who in cell_of_golden:
                cells.add(cell_of_golden[who])
                r = det.detect(HELDOUT[who])
                if r.summary_code not in (who, "un"):
                    cells.add((r.summary_code,
                               cell_of_golden[who][1]))
            if who in cell_of_unit:
                cells.add(cell_of_unit[who])
                got = det.detect(unit[who][1]).summary_code
                if got not in (unit[who][0], "un"):
                    cells.add((got, cell_of_unit[who][1]))
            if who in cell_of_evallang:
                cells.add(cell_of_evallang[who])
            for cell in cells:
                cur_k = k_of_cell.get(cell, 1.0)
                cur = totals(conf, per)
                best_k, best = cur_k, cur
                for k in GRID:
                    if k == cur_k:
                        continue
                    trial = dict(k_of_cell)
                    trial[cell] = k
                    dt = Detector(model=scaled(base, trial))
                    cf = run_conf(dt)
                    pv = run_eval(dt)
                    t = totals(cf, pv)
                    if (t[0], t[1]) > (best[0], best[1]):
                        best, best_k = t, k
                if best_k != cur_k:
                    k_of_cell[cell] = best_k
                    det = Detector(model=scaled(base, k_of_cell))
                    conf = run_conf(det)
                    per = run_eval(det)
                    improved = True
                    print(f"  descent: {who} cell {cell} k "
                          f"{cur_k} -> {best_k}: {totals(conf, per)}",
                          flush=True)
        if not improved:
            break

    tc, te, tt = totals(conf, per)
    print(f"FINAL: conf {tc}/{len(conf)} "
          f"(goldens {sum(conf[g] for g in goldens)}/{len(goldens)}, "
          f"unittest {sum(conf[n] for n in unit)}/{len(unit)}) "
          f"eval {te}/{tt}")
    for g in sorted(goldens):
        if conf[g] == 0:
            r = det.detect(HELDOUT[g])
            print(f"  conf loss {g}: want {goldens[g]['summary']}/"
                  f"{goldens[g]['is_reliable']} got {r.summary_code}/"
                  f"{r.is_reliable} pct={list(r.percent3)}")
    for n in sorted(unit):
        if conf[n] == 0:
            print(f"  unittest loss {n}: want {unit[n][0]} got "
                  f"{det.detect(unit[n][1]).summary_code}")

    nontrivial = {c: k for c, k in sorted(k_of_cell.items(),
                                          key=lambda x: str(x[0]))
                  if k != 1.0}
    if "--dry-run" in sys.argv:
        print(f"dry run: {len(nontrivial)} non-identity cells")
        return
    # split at the ASSIGNMENT (start of line), not the first mention —
    # the docstring talks about CALIB_K too
    src = open(CALIB_PATH).read()
    head = src.split("\nCALIB_K")[0] + "\n"
    with open(CALIB_PATH, "w") as f:
        f.write(head)
        f.write("CALIB_K: dict[tuple[str, int | str], float] = {\n")
        for cell, k in nontrivial.items():
            f.write(f"    {cell!r}: {k},\n")
        f.write("}\n")
    print(f"wrote {len(nontrivial)} non-identity cells to {CALIB_PATH}")
    print("now rebuild the artifact (python -m tools.langmodel), "
          "then re-stamp the drift guard: "
          "python scripts/calibrate_expected.py --stamp")


def stamp() -> None:
    """Rewrite CALIB_FINGERPRINT to the current environment's value —
    run AFTER recalibrating + rebuilding the model artifact. The
    fingerprint test (tests/test_langid.py) stays red until this runs,
    which is the point: a seed/scoring edit without recalibration
    silently invalidates CALIB_K."""
    import re

    fp = calib.current_fingerprint()
    src = open(CALIB_PATH).read()
    src = re.sub(r'CALIB_FINGERPRINT = "[0-9a-f]*"',
                 f'CALIB_FINGERPRINT = "{fp}"', src)
    open(CALIB_PATH, "w").write(src)
    print(f"stamped CALIB_FINGERPRINT = {fp}")


if __name__ == "__main__":
    if "--stamp" in sys.argv:
        stamp()
    else:
        main()
