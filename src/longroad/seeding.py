"""Counter-style RNG derivation: one generator per (purpose, indices...) key,
so results never depend on scheduling or draw order elsewhere.
"""

from __future__ import annotations

import numpy as np

_PURPOSES = {  # ids are part of every stream key: never renumber or reuse one
    "dataset": 0,
    "noise": 1,
    "density": 3,
    "dropout": 4,
    "sampler": 5,
    "init": 6,
}


def rng_for(seed: int, purpose: str, *indices: int) -> np.random.Generator:
    key = (int(seed), _PURPOSES[purpose]) + tuple(int(i) for i in indices)
    return np.random.default_rng(np.random.SeedSequence(key))
