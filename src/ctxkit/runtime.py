"""Deterministic randomness.

All randomness in the package flows through counter-based Philox
substreams so results are reproducible bit for bit no matter how work is
chunked or ordered.  The substream for (seed, lane, index, subindex)
is::

    Generator(Philox(key=(seed, lane), counter=(0, subindex, index, 0)))

Lane assignments (changing them is a breaking change):

* lane 0: state sampling (index = position in a sweep),
* lane 1: protocol estimation (index = term index, subindex = shot),
* lane 2: marginal-consistency checks (index = 64-bit digest of the
  measured context's labels, subindex = shot),
* lane 3: product-state ascent starting vectors in the calibration.

Each Philox gets its key directly, through a seed sequence whose state is
that key, so building a stream draws no OS entropy (``Philox(key=...)``
would seed a ``SeedSequence`` from the OS and then discard it).  The
adapter class is made on the first ``substream`` call, so ``numpy.random``
loads only then and a process that never draws does not import it.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

_U64_MAX = 2**64 - 1


def substream(seed: int, lane: int, index: int = 0, subindex: int = 0) -> np.random.Generator:
    """Independent random stream for one unit of work.

    Streams with distinct (seed, lane, index, subindex) never overlap, so
    units of work can run in any order without changing the numbers each
    one draws.
    """
    for name, value in (("seed", seed), ("lane", lane), ("index", index), ("subindex", subindex)):
        # Plain ints skip the type checks (one call per shot); floats and bools are refused.
        if type(value) is not int and (isinstance(value, bool) or not hasattr(value, "__index__")):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 0 <= operator.index(value) <= _U64_MAX:
            raise ValueError(f"{name} must fit in an unsigned 64-bit integer, got {value!r}")
    # Explicit uint64 arrays: a plain int list goes through float64 inside
    # numpy and mangles coordinates above 2**53.
    key = np.array([seed, lane], dtype=np.uint64)
    counter = np.array([0, subindex, index, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_key_seed(key), counter=counter))


@functools.cache
def _key_seed_class() -> type:
    # Imported here, not at module level: see the module docstring.
    from numpy.random.bit_generator import ISeedSequence

    class KeySeed(ISeedSequence):
        """A seed sequence whose whole state is a ready Philox key."""

        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.key

        def __reduce__(self):
            # Pickle cannot name a local class; rebuild through the module.
            return _key_seed, (self.key,)

    return KeySeed


def _key_seed(key: np.ndarray):
    return _key_seed_class()(key)

