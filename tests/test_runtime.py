import numpy as np
import pytest

from ctxkit.runtime import substream


def test_substream_reproducible():
    a = substream(7, 1, index=3, subindex=9).random(16)
    b = substream(7, 1, index=3, subindex=9).random(16)
    assert np.array_equal(a, b)


def test_substream_coordinates_are_distinct():
    base = substream(7, 1, index=3, subindex=9).random(16)
    for args in ((8, 1, 3, 9), (7, 2, 3, 9), (7, 1, 4, 9), (7, 1, 3, 10)):
        other = substream(*args).random(16)
        assert not np.array_equal(base, other)


def test_substream_accepts_full_u64_range():
    with np.errstate(invalid="raise"):
        substream(2**64 - 1, 3, index=2**64 - 1, subindex=2**64 - 1).random()


def test_substream_top_range_seeds_are_distinct():
    # Coordinates above 2**53 must not collapse through a float64 cast.
    a = substream(2**64 - 1, 0).random(16)
    b = substream(2**64 - 2, 0).random(16)
    assert not np.array_equal(a, b)


def test_substream_rejects_out_of_range():
    with pytest.raises(ValueError):
        substream(-1, 0)
    with pytest.raises(ValueError):
        substream(0, 2**64)
    with pytest.raises(ValueError):
        substream(0, 0, index=-5)

