"""Deterministic seed derivation.

Every stage and sub-task derives its RNG seed by hashing the base seed with
a label path, so no stage's RNG consumption can perturb another stage's
stream and results are independent of execution order.
"""

from __future__ import annotations

import hashlib


def derive_seed(base: int, *parts: int | float | str) -> int:
    """Stable 63-bit seed from a base seed and a label path."""
    text = "|".join([str(int(base))] + [_canon(p) for p in parts])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _canon(part: int | float | str) -> str:
    if isinstance(part, bool):
        raise TypeError("bool seed parts are ambiguous")
    if isinstance(part, float):
        return format(part, ".17g")
    return str(part)
