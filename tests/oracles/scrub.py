"""Per-document PII scrub: the oracle of ``scrub.scrub_series``."""

from __future__ import annotations

import re

from cld2_ray.functions.scrub import PII_PATTERNS

_COMPILED = [(tok, re.compile(pat)) for tok, pat in PII_PATTERNS]


def scrub_text(text: str) -> str:
    """scrub_series on one document: each pattern substituted in turn."""
    for token, rx in _COMPILED:
        text = rx.sub(token, text)
    return text
