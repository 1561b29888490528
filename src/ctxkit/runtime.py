"""Deterministic randomness.

All randomness in the package flows through counter-based Philox
substreams so results are reproducible bit for bit no matter how work is
chunked or ordered.  The substream for (seed, lane, index, subindex)
is::

    Generator(Philox(key=(seed, lane), counter=(0, subindex, index, 0)))

Every draw goes through ``draws``: one row per (index, subindex), the
head of that substream, standard normals or uniforms in [0, 1) as its
lane says.  Lane assignments, named below (changing them is a breaking
change):

* 0, ``STATE_LANE``: Haar states (index = position in a sweep,
  subindex 0; one row of 2d normals per state),
* 1, ``PROTOCOL_LANE``: protocol estimation (index = term, subindex =
  shot; one row of uniforms per shot, one per measurement),
* 2, ``MARGINAL_LANE``: marginal-consistency checks (index =
  ``context_index`` of the measured context, subindex = shot; uniforms
  as on lane 1),
* 3, ``ASCENT_LANE``: the calibration's product-state ascents (index =
  pentagon, subindex = start; one row of 8 normals per start).

Each Philox gets its key directly, through a seed sequence whose state is
that key, so building a stream draws no OS entropy (``Philox(key=...)``
would seed a ``SeedSequence`` from the OS and then discard it).  The
adapter class is made on the first ``substream`` call, so ``numpy.random``
loads only then and a process that never draws does not import it.

A simulation opens one substream per shot, and only the counter changes
from shot to shot.  So four plain ``int`` coordinates are checked in one
expression (other values get the per-coordinate checks), and the
read-only ``[seed, lane]`` key and its seed sequence are built once per
(seed, lane) and reused by every stream they key, from a small bounded
cache.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

STATE_LANE, PROTOCOL_LANE, MARGINAL_LANE, ASCENT_LANE = range(4)
_U64_MAX = 2**64 - 1
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)
_ZERO_COUNTER.flags.writeable = False


def substream(seed: int, lane: int, index: int = 0, subindex: int = 0) -> np.random.Generator:
    """Independent random stream for one unit of work.

    Streams with distinct (seed, lane, index, subindex) never overlap, so
    units of work can run in any order without changing the numbers each
    one draws.
    """
    # Four plain ints in [0, 2**64) pass in one test (a negative one makes
    # the OR negative); anything else gets the checks one by one.
    if not (type(seed) is type(lane) is type(index) is type(subindex) is int
            and not (seed | lane | index | subindex) >> 64):
        seed, lane, index, subindex = _checked(seed, lane, index, subindex)
    # Written into a uint64 array (a copy and two stores cost half an
    # np.array call): a plain int list goes through float64 inside numpy
    # and mangles coordinates above 2**53.
    counter = _ZERO_COUNTER.copy()
    counter[1] = subindex
    counter[2] = index
    return np.random.Generator(np.random.Philox(_lane_key(seed, lane), counter=counter))


def draws(seed: int, lane: int, indices, subindices, width: int) -> np.ndarray:
    """A (len(indices) * len(subindices), width) array: one row per
    (index, subindex), index-major, each the first ``width`` draws of
    ``substream(seed, lane, index, subindex)``, standard normals on
    ``STATE_LANE`` and ``ASCENT_LANE`` and uniforms in [0, 1) on the
    others."""
    out = np.empty((len(indices) * len(subindices), width))
    draw = "standard_normal" if lane in (STATE_LANE, ASCENT_LANE) else "random"
    rows = iter(out)
    for index in indices:
        for subindex in subindices:
            getattr(substream(seed, lane, index, subindex), draw)(out=next(rows))
    return out


def context_index(labels: tuple[str, ...]) -> int:
    """A context's index on ``MARGINAL_LANE``: the 64-bit blake2b digest
    of its labels."""
    # Imported here: only marginal checks hash, and hashlib loads OpenSSL.
    import hashlib

    digest = hashlib.blake2b("\x1f".join(labels).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _checked(*coordinates) -> list[int]:
    """The coordinates as plain ints; floats, bools, strings and values
    outside [0, 2**64) raise ValueError."""
    for name, value in zip(("seed", "lane", "index", "subindex"), coordinates):
        if not 0 <= _integer(name, value) <= _U64_MAX:
            raise ValueError(f"{name} must fit in an unsigned 64-bit integer, got {value!r}")
    return [operator.index(value) for value in coordinates]


def _integer(name: str, value) -> int:
    """``value`` as a plain int: an int or a numpy integer passes, and a
    float, bool or string raises ValueError naming ``name``."""
    if type(value) is not int and (isinstance(value, bool) or not hasattr(value, "__index__")):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


@functools.lru_cache(maxsize=64)
def _lane_key(seed: int, lane: int):
    """The seed sequence keying every stream of (seed, lane).  Its key is
    read-only because every stream of that pair shares it."""
    key = np.array([seed, lane], dtype=np.uint64)
    key.flags.writeable = False
    return _key_seed_class()(key)


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
            # Pickle cannot name a local class; rebuild through the cache.
            return _lane_key, tuple(map(int, self.key))

    return KeySeed

