"""Regenerate cld2_ray/data/reflang.py from the reference's
generated_language tables (requires /root/reference present)."""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tools.refparse import CODE_ALIAS, language_tables  # noqa: E402


def main() -> None:
    code_of, _, _ = language_tables()
    inv = {}
    for rid, code in sorted(code_of.items()):
        c = CODE_ALIAS.get(code, code)
        if c and c not in inv:
            inv[c] = rid
    body = "\n".join(f'    "{c}": {rid},' for c, rid in sorted(inv.items()))
    src = f'''"""Reference Language enum numbers per ISO code, parsed once from
generated_language.cc:3022-3281 / generated_language.h (the debug
writer's color indices key off these exact enum values:
internal/debug.cc:148-209 uses lang & 0x0f for background and
(lang >> 4) & 0x0f for text color). Regenerate with
scripts/gen_reflang.py when the reference tables move.
"""

REF_LANG_ENUM = {{
{body}
}}
'''
    out = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "cld2_ray", "data", "reflang.py")
    with open(out, "w") as f:
        f.write(src)
    print(f"wrote {out}: {len(inv)} codes")


if __name__ == "__main__":
    main()
