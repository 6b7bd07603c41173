"""``randrange_block`` IS the loop of ``randrange`` calls it replaces.

The reference is the literal ``[rng.randrange(a, b) for _ in range(k)]``
on a twin generator: equal values, equal ``getstate()`` afterwards and an
equal next ``random()``, whichever path ran.  Without NumPy every case
takes the loop and the file checks the fallback; with it, the cases at
or above ``BLOCK_MIN_COUNT`` check the Mersenne Twister transplant.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.array import has_numpy
from repro.sync.protocol import column_cells
from repro.util import rng as rng_module
from repro.util.rng import BLOCK_MIN_COUNT, make_rng, randrange_block

HAS_NUMPY = has_numpy()

WORD = 1 << 32

POWERS = [1 << k for k in (1, 2, 8, 20, 31)]
WIDTHS = sorted({1, 2, 7, WORD - 1, *POWERS, *(p - 1 for p in POWERS), *(p + 1 for p in POWERS)})
COUNTS = [0, 1, BLOCK_MIN_COUNT - 1, BLOCK_MIN_COUNT, BLOCK_MIN_COUNT + 1]


def _twins(seed, warm_up=3):
    """Two generators in one mid-stream state (not on a block boundary)."""
    ours, theirs = make_rng(seed, "block"), make_rng(seed, "block")
    for generator in (ours, theirs):
        for _ in range(warm_up):
            generator.random()
        generator.gauss(0.0, 1.0)  # leaves a cached ``gauss_next`` behind
    return ours, theirs


def _assert_same_stream(start, stop, count, seed=0):
    ours, theirs = _twins(seed)
    column = randrange_block(ours, start, stop, count)
    expected = [theirs.randrange(start, stop) for _ in range(count)]
    cells = column_cells(column)
    assert cells == expected
    assert all(type(cell) is int for cell in cells)
    assert ours.getstate() == theirs.getstate()
    assert ours.random() == theirs.random()
    return column


def _took_the_loop(column) -> bool:
    return isinstance(column, list)


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("width", WIDTHS)
def test_every_width_and_count_replays_the_loop(width, count):
    column = _assert_same_stream(0, width, count, seed=width)
    blocked = HAS_NUMPY and count >= BLOCK_MIN_COUNT
    assert _took_the_loop(column) != blocked


@pytest.mark.parametrize("start", [-(1 << 63), -4097, -1, 5, 1 << 40, (1 << 63) - 7])
def test_negative_and_non_zero_start(start):
    column = _assert_same_stream(start, start + 7, BLOCK_MIN_COUNT, seed=3)
    assert _took_the_loop(column) != HAS_NUMPY
    assert min(column) >= start and max(column) < start + 7


@pytest.mark.parametrize("width", [1 << 20, 1000, WORD - 1])
def test_a_hundred_thousand_draws(width):
    _assert_same_stream(-width // 2, width - width // 2, 100_000, seed=11)


@pytest.mark.parametrize(
    "start,stop",
    [
        (0, WORD),  # 33 bits: two words per draw
        (0, WORD + 1),
        (-5, 1 << 70),
        ((1 << 63) - 3, (1 << 63) + 4),  # narrow, but past int64
        (-(1 << 63) - 1, -(1 << 63) + 6),
    ],
)
def test_wide_or_out_of_range_draws_take_the_loop(start, stop):
    assert _took_the_loop(_assert_same_stream(start, stop, BLOCK_MIN_COUNT + 1))


def test_an_empty_range_raises_like_randrange_and_draws_nothing_at_count_zero():
    generator = make_rng(0)
    assert list(randrange_block(generator, 5, 5, 0)) == []
    with pytest.raises(ValueError):
        randrange_block(generator, 5, 5, BLOCK_MIN_COUNT)


class _CountingRandom(random.Random):
    """A subclass may replace the word source; the transplant would skip it."""

    words = 0

    def getrandbits(self, k):
        self.words += 1
        return super().getrandbits(k)


def test_a_subclass_takes_the_loop():
    count = BLOCK_MIN_COUNT + 1
    ours, theirs = _CountingRandom(7), random.Random(7)
    column = randrange_block(ours, 0, 1000, count)
    assert _took_the_loop(column)
    assert ours.words >= count
    assert column == [theirs.randrange(0, 1000) for _ in range(count)]
    assert ours.getstate() == theirs.getstate()


def test_system_random_takes_the_loop():
    # no state to transplant: ``SystemRandom.getstate`` raises
    column = randrange_block(random.SystemRandom(), -3, 4, BLOCK_MIN_COUNT + 1)
    assert _took_the_loop(column) and len(column) == BLOCK_MIN_COUNT + 1
    assert all(-3 <= cell < 4 for cell in column)


def test_block_and_single_draws_interleave_on_one_stream():
    ours, theirs = _twins(5)
    got, expected = [], []
    for count in (1, BLOCK_MIN_COUNT, 2, BLOCK_MIN_COUNT + 3, 0, 1):
        got += column_cells(randrange_block(ours, -8, 1 << 20, count))
        got.append(ours.randrange(3))
        expected += [theirs.randrange(-8, 1 << 20) for _ in range(count)]
        expected.append(theirs.randrange(3))
    assert got == expected
    assert ours.getstate() == theirs.getstate()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 1 << 32),
    start=st.integers(-(1 << 40), 1 << 40),
    width=st.one_of(st.integers(1, 64), st.integers(1, WORD + 64)),
    count=st.integers(0, 40),
    threshold=st.integers(1, 24),
)
def test_any_threshold_gives_the_same_stream(seed, start, width, count, threshold):
    """The constant is a cost model, not semantics: moving it (here, down
    to counts hypothesis can afford) never changes a value or the state."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rng_module, "BLOCK_MIN_COUNT", threshold)
        _assert_same_stream(start, start + width, count, seed=seed)
