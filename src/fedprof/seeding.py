"""Deterministic sub-seed derivation.

Every source of randomness in a run flows from one root seed through
``derive_seed(root, purpose, *indices)``.  Sub-seeds are computed with a
cryptographic hash over the label tuple, so they are stable across Python
processes and platforms (unlike the builtin ``hash``), and adding or
parallelising work cannot perturb the streams of unrelated components.
"""

from __future__ import annotations

import hashlib

_MASK64 = (1 << 64) - 1


def derive_seed(root: int, purpose: str, *indices: int) -> int:
    """Derive a stable 64-bit sub-seed from a root seed and a label.

    Args:
        root: the run's root seed.
        purpose: short label naming the consumer, e.g. ``"local-train"``.
        *indices: integer coordinates (round, user, ...) of the consumer.
    """
    tag = f"{root & _MASK64}/{purpose}/" + "/".join(str(i) for i in indices)
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")
