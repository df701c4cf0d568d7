"""The pure-Python PCG64 stream against numpy's, value for value."""

import itertools
import random

import numpy as np
import pytest

from shorsim._pcg64 import random_stream
from shorsim.compiler import Circuit
from shorsim.errors import DomainError
from shorsim.postprocess import coin_tosses
from shorsim.simulator import run_circuit

# Seeds of one to eight 32-bit words, at the edges between them; the
# four-word ones fill SeedSequence's pool of four words exactly, with
# no zero pad, and the last three are wider than it, so their extra
# words take its second mixing pass, with hash constants past the 16
# that every narrower seed uses.
EDGE_SEEDS = [0, 1, 415, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1, 2**64,
              2**96, 2**128 - 1, 2**128 + 9, 2**200 + 1, 2**256 - 1]


def _numpy_draws(seed, count):
    return np.random.Generator(np.random.PCG64(seed)).random(count).tolist()


def _draws(seed, count):
    return list(itertools.islice(random_stream(seed), count))


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_matches_numpy_on_edge_seeds(seed):
    assert _draws(seed, 64) == _numpy_draws(seed, 64)


def test_matches_numpy_on_drawn_seeds():
    draw = random.Random(2013)
    seeds = [draw.getrandbits(63) for _ in range(300)]
    assert [_draws(seed, 64) for seed in seeds] == \
        [_numpy_draws(seed, 64) for seed in seeds]


def test_negative_seed_refused_like_numpy():
    with pytest.raises(ValueError):
        np.random.PCG64(-1)
    with pytest.raises(ValueError, match="nonnegative"):
        random_stream(-1)


@pytest.mark.parametrize("draw", [
    lambda: run_circuit(Circuit(15, 7, 3), -1),
    lambda: run_circuit(Circuit(15, 4, 1), -1),  # the one-stage shot
    lambda: coin_tosses(-2),
    lambda: random_stream(-10**5000),
], ids=["staged-shot", "one-stage-shot", "coin-toss",
        "seed-past-the-conversion-limit"])
def test_negative_seed_is_a_domain_error(draw):
    # every caller of the stream gets the package's own error
    with pytest.raises(DomainError, match="nonnegative"):
        draw()


@pytest.mark.parametrize("draw, kind", [
    (lambda: random_stream(1.5), "float"),
    (lambda: random_stream(True), "bool"),
    (lambda: random_stream("7"), "str"),
    (lambda: run_circuit(Circuit(15, 7, 3), 1.5), "float"),
    (lambda: run_circuit(Circuit(15, 4, 1), False), "bool"),
    (lambda: coin_tosses(2.0), "float"),
], ids=["float", "bool", "str", "staged-shot", "one-stage-shot",
        "coin-toss"])
def test_seed_that_is_not_an_integer_is_a_domain_error(draw, kind):
    # numpy would take a bool; the stream takes integers only
    with pytest.raises(DomainError,
                       match=f"^seed must be an integer, got {kind}$"):
        draw()
