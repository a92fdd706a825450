"""Named deterministic RNG streams.

Every source of randomness in the package draws from a stream identified by
(base seed, name parts). Streams with different names are independent, and a
consumer that never touches a stream leaves all other streams unchanged --
this is what makes e.g. a mu=0 coded run bit-identical to a plain run.
"""

import numpy as np

from .errors import ValidationError


def stream_rng(seed: int, *key) -> np.random.Generator:
    """Return a fresh Generator for the stream (seed, *key).

    Key parts may be ints or strings; strings are folded into the seed
    material byte-wise so the mapping is stable across runs and platforms.
    The seed is one 64-bit word: one outside [0, 2**64) raises
    ValidationError, where masking it would alias -3 with 2**64 - 3.
    """
    if not 0 <= seed < 2 ** 64:
        raise ValidationError(f"seed {seed} must be in [0, 2**64)")
    entropy = [int(seed)]
    for part in key:
        if isinstance(part, (int, np.integer)):
            entropy.append(int(part))
        else:
            entropy.append(int.from_bytes(str(part).encode("utf-8"), "little"))
    return np.random.default_rng(np.random.SeedSequence(entropy))
