"""The pure-Python PCG64 generator draws what numpy's ``default_rng`` draws.

Skipped where numpy does not import: it is the reference, not a dependency.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfasim import _pcg64
from wfasim._pcg64 import Generator

np = pytest.importorskip("numpy")

# 0, one 32-bit digit, or several; more than four digits in all takes
# SeedSequence's path for entropy past its pool
WORD = st.one_of(st.just(0), st.integers(0, 2**32 - 1), st.integers(2**32, 2**100))
MEAN = st.floats(-3, 5)
SIGMA = st.floats(0, 3)

DRAWS = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("uniform"), st.floats(-10, 10), st.floats(0, 10)),
    st.tuples(st.just("lognormal"), MEAN, SIGMA),
    st.tuples(st.just("integers"), st.integers(-5, 5),
              st.one_of(st.integers(1, 12), st.integers(1, 2**32 - 1))),
    st.tuples(st.just("task_draws"), st.integers(0, 6), MEAN, SIGMA, st.sampled_from((1, 2))),
)


def numpy_draw(rng, kind, *args):
    if kind == "uniform":
        lo, width = args
        return rng.uniform(lo, lo + width)
    if kind == "integers":
        low, width = args
        return int(rng.integers(low, low + width))
    if kind == "task_draws":
        count, mean, sigma, uniforms = args
        return [v for _ in range(count)
                for v in (rng.lognormal(mean, sigma), *(rng.random() for _ in range(uniforms)))]
    return getattr(rng, kind)(*args)


def our_draw(gen, kind, *args):
    if kind == "uniform":
        lo, width = args
        return gen.uniform(lo, lo + width)
    if kind == "integers":
        low, width = args
        return gen.integers(low, low + width)
    return getattr(gen, kind)(*args)


@settings(max_examples=300, deadline=None)
@given(words=st.lists(WORD, min_size=1, max_size=6),
       draws=st.lists(DRAWS, min_size=1, max_size=60))
def test_every_draw_equals_numpy(words, draws):
    ours, theirs = Generator(words), np.random.default_rng(words)
    for draw in draws:
        assert our_draw(ours, *draw) == numpy_draw(theirs, *draw), draw


def test_the_seed_state_equals_numpy():
    for words in ([0], [5], [2**32], [1, 2, 3, 4, 5], [2**64 - 1, 7]):
        state = np.random.PCG64(np.random.SeedSequence(words)).state["state"]
        assert _pcg64.seed_state(words) == (state["state"], state["inc"]), words


def test_a_long_stream_takes_both_slow_paths(monkeypatch):
    taken = []
    slow = Generator._normal_slow

    def spy(self, idx, rabs, x):
        z = slow(self, idx, rabs, x)
        taken.append("tail" if idx == 0 else "wedge" if z is not None else "redraw")
        return z

    monkeypatch.setattr(Generator, "_normal_slow", spy)
    ours, theirs = Generator([2024, 1]), np.random.default_rng([2024, 1])
    count = 20_000
    assert ours.task_draws(count, 0.5, 1.5, 2) == numpy_draw(theirs, "task_draws", count,
                                                             0.5, 1.5, 2)
    assert [ours.standard_normal() for _ in range(count)] == theirs.standard_normal(
        count).tolist()
    # the tail past the right edge, and a wedge test that accepts and one that rejects
    assert {"tail", "wedge", "redraw"} <= set(taken)
