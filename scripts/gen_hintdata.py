"""Regenerate cld2_ray/data/hintdata.py from the reference's hint
tables (tools/refparse.hint_tables + latn_othr_codes). Run offline:
    python scripts/gen_hintdata.py
"""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tools import refparse as rp  # noqa: E402

OUT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "cld2_ray", "data", "hintdata.py")

t1, t2, tld = rp.hint_tables()
latn, othr = rp.latn_othr_codes()

with open(OUT, "w") as f:
    f.write('''"""AUTO-GENERATED by scripts/gen_hintdata.py — do not edit.

The reference's hint prior tables with per-entry packed strengths
(reference: internal/compact_lang_det_hint_code.cc:101-646 — the
213-entry long lang-tag table, the 257-entry short lang-tag table and
the TLD table; weights are the W-macros >> 10, qprob units, negative =
suppression), plus the per-script-class language sets
(IsLatnLanguage/IsOthrLanguage, lang_script.cc:344-353) that gate
which spans a hint may boost."""

''')
    def dump(name, d):
        f.write(f"{name} = {{\n")
        for k in sorted(d):
            f.write(f"    {k!r}: {tuple(d[k])!r},\n")
        f.write("}\n\n")
    dump("LANGTAG_LONG", t1)
    dump("LANGTAG_SHORT", t2)
    dump("TLD_PRIORS", tld)
    f.write(f"LATN_LANGS = frozenset({sorted(latn)!r})\n\n")
    f.write(f"OTHR_LANGS = frozenset({sorted(othr)!r})\n")
print(f"wrote {OUT}: {len(t1)}+{len(t2)} lang tags, {len(tld)} TLDs, "
      f"{len(latn)} latn / {len(othr)} othr langs")
