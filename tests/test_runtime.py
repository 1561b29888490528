import json
import pickle
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctxkit.runtime import (
    ASCENT_LANE,
    MARGINAL_LANE,
    PROTOCOL_LANE,
    STATE_LANE,
    _lane_key,
    draws,
    substream,
)


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


@pytest.mark.parametrize("coordinates", [
    {"seed": 1.9, "lane": 1},
    {"seed": True, "lane": 1},
    {"seed": 1, "lane": 1, "index": 2.0},
    {"seed": 1, "lane": np.float64(1.0)},
    {"seed": 1, "lane": 1, "subindex": "3"},
])
def test_substream_rejects_non_integers(coordinates):
    # A float is not truncated (1.9 would be seed 1) and a bool is not 0/1.
    with pytest.raises(ValueError, match="must be an integer"):
        substream(**coordinates)


@pytest.mark.parametrize("coordinates,message", [
    ((2**64, 0), "seed must fit in an unsigned 64-bit integer, got 18446744073709551616"),
    ((0, 0, -1, 1.5), "index must fit in an unsigned 64-bit integer, got -1"),
    ((0, 0, 1.5, -1), "index must be an integer, got 1.5"),
    ((0, True, 2**64), "lane must be an integer, got True"),
    ((np.int64(-1), 0), "seed must fit in an unsigned 64-bit integer, got np.int64(-1)"),
])
def test_substream_names_the_first_bad_coordinate(coordinates, message):
    # Coordinates are checked in order, each for its type, then its range.
    with pytest.raises(ValueError) as excinfo:
        substream(*coordinates)
    assert str(excinfo.value) == message


def test_streams_of_one_seed_and_lane_share_a_read_only_key():
    a, b = substream(7, 1, 0, 0), substream(np.uint64(7), 1, 3, 9)
    assert a.bit_generator.seed_seq is b.bit_generator.seed_seq
    with pytest.raises(ValueError):
        a.bit_generator.seed_seq.key[0] = 8
    assert substream(7, 1, 3, 9).random(4).tolist() == FROZEN_DRAWS[7, 1, 3, 9]


def test_substream_accepts_numpy_integers():
    top = 2**64 - 1
    assert np.array_equal(
        substream(np.uint64(top), np.int64(1), index=np.uint8(2)).random(8),
        substream(top, 1, index=2).random(8),
    )


U64 = st.integers(0, 2**64 - 1)


def spec_stream(seed, lane, index, subindex):
    key = np.array([seed, lane], dtype=np.uint64)
    counter = np.array([0, subindex, index, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def assert_matches_spec(coords, depth):
    got, want = substream(*coords), spec_stream(*coords)
    assert repr(got.bit_generator.state) == repr(want.bit_generator.state)
    assert np.array_equal(got.random(depth), want.random(depth))
    copy = pickle.loads(pickle.dumps(substream(*coords)))
    assert np.array_equal(copy.random(depth), spec_stream(*coords).random(depth))


@given(coords=st.tuples(U64, U64, U64, U64), depth=st.integers(1, 16))
def test_substream_is_the_documented_philox_stream(coords, depth):
    assert_matches_spec(coords, depth)


@pytest.mark.parametrize("depth", range(1, 17))
def test_substream_spec_at_u64_max(depth):
    assert_matches_spec((2**64 - 1,) * 4, depth)


# Draws of substream(*coords).random(4), frozen.
FROZEN_DRAWS = {
    (0, 0, 0, 0): [
        0.011546754286331562, 0.24154919656271812, 0.11142585551493822, 0.5644146216071337,
    ],
    (7, 1, 3, 9): [
        0.9031241621608868, 0.7068834932266113, 0.1782632200564226, 0.40686228926557777,
    ],
    (2**64 - 1, 3, 2**64 - 1, 2**64 - 1): [
        0.37575006508403563, 0.25136960690112164, 0.6679247000087603, 0.07580038346410123,
    ],
}


@pytest.mark.parametrize("coords", FROZEN_DRAWS)
def test_substream_draws_are_frozen(coords):
    assert substream(*coords).random(4).tolist() == FROZEN_DRAWS[coords]


@pytest.mark.parametrize("lane, draw", [
    (STATE_LANE, "standard_normal"),
    (PROTOCOL_LANE, "random"),
    (MARGINAL_LANE, "random"),
    (ASCENT_LANE, "standard_normal"),
])
def test_draws_rows_are_the_heads_of_their_substreams(lane, draw):
    indices, subindices = (5, 0, 2**64 - 1), range(4)
    got = draws(7, lane, indices, subindices, 6)
    want = [getattr(substream(7, lane, i, s), draw)(6) for i in indices for s in subindices]
    assert got.shape == (12, 6)
    assert got.tobytes() == np.array(want).tobytes()


def test_a_pickled_stream_rebuilds_its_cached_lane_key():
    seed_seq = pickle.loads(pickle.dumps(substream(7, 2, 3, 9))).bit_generator.seed_seq
    assert seed_seq is _lane_key(7, 2)


def test_substream_draws_no_os_entropy(monkeypatch):
    substream(1, 1)  # numpy.random seeds its own legacy state once, on import

    def no_entropy(n):
        raise AssertionError("substream drew OS entropy")

    # secrets.randbits, which an unseeded SeedSequence calls, reads the OS
    # through random.SystemRandom, which reads random._urandom.
    monkeypatch.setattr(random, "_urandom", no_entropy)
    assert substream(2**64 - 1, 1, 5, 7).random(3).shape == (3,)


def test_importing_the_cli_leaves_numpy_random_unloaded():
    probe = "import sys, ctxkit.cli; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_importing_the_cli_leaves_hashlib_unloaded():
    # Only marginal checks hash; hashlib would load OpenSSL in every process.
    probe = "import sys, ctxkit.cli; print('hashlib' in sys.modules, '_hashlib' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"


# Modules every command loads: argument parsing and _resolve_inequality.
CLI_MODULES = {"ctxkit", "ctxkit.cli", "ctxkit.exceptions", "ctxkit.inequalities",
               "ctxkit.families"}
SET_MODULES = {"ctxkit.gf2", "ctxkit.observables", "ctxkit.pauli"}
EXACT_MODULES = {"ctxkit.bell", "ctxkit.solver", *SET_MODULES}
STATE_MODULES = {"ctxkit.runtime", "ctxkit.states", "ctxkit.linalg", *SET_MODULES}
QUANTUM_MODULES = {"ctxkit.quantum", *STATE_MODULES}


# argv ("": import ctxkit.cli only) -> the ctxkit modules the process
# loads beyond CLI_MODULES, whether it loads numpy, and whether it loads
# numpy.random and hashlib.  numpy is most of a short command's start and
# exit, so the commands that need no state or dense operator (bound,
# specialize, certify, colorability, and maxval on its exact routes)
# never load it; numpy.random raises a process's peak memory by several
# MB, and hashlib loads OpenSSL; only the commands that draw load them.
LOADED = {
    "": (set(), False, False),
    "bound --inequality ineq1": ({"ctxkit.gf2", "ctxkit.solver"}, False, False),
    "specialize --inequality ineq4 --subs SUBS": ({"ctxkit.gf2", "ctxkit.solver"}, False, False),
    "quantum --inequality cfrh6 --state singlet": (QUANTUM_MODULES, True, False),
    "maxval --inequality kcbs3": ({"ctxkit.linalg", *EXACT_MODULES}, True, False),
    "maxval --inequality mermin11 --n 7": (EXACT_MODULES, False, False),
    "certify --inequality ineq1": (EXACT_MODULES, False, False),
    "colorability": ({"ctxkit.parity", "ctxkit.solver", *SET_MODULES}, False, False),
    "simulate --inequality kcbs3 --state singlet --shots 5 --seed 1":
        ({"ctxkit.simulate", *STATE_MODULES}, True, True),
    "sweep --inequality ineq4 --states 3 --seed 1": (QUANTUM_MODULES, True, True),
    "calibrate --seed 0": ({"ctxkit.calibration", *QUANTUM_MODULES}, True, True),
}
# The test id of each argv: its command, or a name of its own where a
# command has two rows.
LOADED_IDS = {"": "import", "maxval --inequality mermin11 --n 7": "maxval_exact"}


@pytest.mark.parametrize("argv", list(LOADED),
                         ids=lambda argv: LOADED_IDS.get(argv) or argv.split()[0])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv):
    subs = tmp_path / "subs.json"
    subs.write_text('{"P16": -1}')
    probe = (
        "import contextlib, io, json, sys\n"
        "from ctxkit.cli import main\n"
        f"argv = {argv.replace('SUBS', str(subs))!r}\n"
        "if argv:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv.split()) == 0, argv\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == 'ctxkit'),\n"
        "                  'numpy' in sys.modules, 'numpy.random' in sys.modules,\n"
        "                  'hashlib' in sys.modules]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    modules, numpy, draws = LOADED[argv]
    assert json.loads(proc.stdout) == [sorted(CLI_MODULES | modules), numpy, draws, draws]
