"""Named, reproducible random streams.

Every run owns one root seed; each consumer derives its own generator from
(root seed, stream name) so that ablations and sweep runs differ only in
the component under study, never in shared randomness.
"""

import hashlib

import numpy as np


def stream_rng(root_seed: int, name: str) -> np.random.Generator:
    """Generator for the named stream, stable across platforms and runs."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    words = np.frombuffer(digest[:16], dtype=np.uint32)
    return np.random.default_rng(np.random.SeedSequence(entropy=[int(w) for w in words]))
