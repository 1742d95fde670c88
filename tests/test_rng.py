import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelcontrast.rng import Stream


def test_same_seed_same_draws():
    a = Stream(42).uniform(100)
    b = Stream(42).uniform(100)
    np.testing.assert_array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(Stream(1).uniform(50), Stream(2).uniform(50))


def test_counter_mode_prefix_stability():
    """Drawing more later never changes the values already drawn.

    This is the property that makes experiment extension safe: the first
    100 numbers of a stream are the same whether you ever ask for the
    101st or not.
    """
    short = Stream(7).uniform(100)
    both = Stream(7)
    long_a = both.uniform(100)
    both.uniform(900)
    np.testing.assert_array_equal(short, long_a)
    again = Stream(7)
    first = again.uniform(60)
    second = again.uniform(40)
    np.testing.assert_array_equal(np.concatenate((first, second)), short)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=6),
)
def test_batched_draws_equal_one_at_a_time(seed, sizes):
    """Any split of a draw into batches, down to single draws, gives the same
    numbers. Normals come in Box-Muller pairs, so they split into pairs."""
    total = sum(sizes)
    draws = {
        "uniform": lambda s, k: s.uniform(k, -2.0, 3.0),
        "normal": lambda s, k: s.normal(2 * k),
    }
    for name, draw in draws.items():
        whole = draw(Stream(seed), total)
        batched, single = Stream(seed), Stream(seed)
        in_batches = np.concatenate([draw(batched, k) for k in sizes])
        one_by_one = np.concatenate([draw(single, 1) for _ in range(total)])
        np.testing.assert_array_equal(in_batches, whole, name)
        np.testing.assert_array_equal(one_by_one, whole, name)


def test_uniform_range_and_mean():
    u = Stream(0).uniform(200_000)
    assert u.min() >= 0.0
    assert u.max() < 1.0
    assert abs(u.mean() - 0.5) < 5e-3


def test_uniform_bounds_scaling():
    u = Stream(3).uniform(1000, -2.0, 5.0)
    assert u.min() >= -2.0 and u.max() < 5.0


def test_normal_moments():
    z = Stream(11).normal(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    # third moment vanishes for a symmetric law
    assert abs((z**3).mean()) < 0.05


def test_normal_odd_count():
    assert Stream(5).normal(7).shape == (7,)


def test_choice_without_replacement_distinct():
    for seed in range(20):
        picked = Stream(seed).choice_without_replacement(30, 12)
        assert len(set(picked.tolist())) == 12
        assert picked.min() >= 0 and picked.max() < 30


def test_choice_full_draw_is_permutation():
    picked = Stream(4).choice_without_replacement(8, 8)
    assert sorted(picked.tolist()) == list(range(8))


def test_choice_without_replacement_is_uniform_per_position():
    """Every (position, item) count of 20,000 picks of 8 from 16 lies within
    5 binomial standard deviations of uniform. Reducing a draw already
    reduced mod 16 again mod 16 - i put pick 5 on item 8 1,860 times and on
    item 14 879 times, against 1,250."""
    n, m, seeds = 16, 8, 20_000
    counts = np.zeros((m, n), dtype=int)
    for seed in range(seeds):
        counts[np.arange(m), Stream(seed).choice_without_replacement(n, m)] += 1
    sd = np.sqrt(seeds * (1.0 / n) * (1.0 - 1.0 / n))
    assert np.abs(counts - seeds / n).max() <= 5.0 * sd


def test_choice_rejects_overdraw():
    with pytest.raises(ValueError):
        Stream(0).choice_without_replacement(5, 6)


def test_streams_with_adjacent_seeds_are_unrelated():
    a = Stream(100).uniform(2000)
    b = Stream(101).uniform(2000)
    # correlation of independent-ish streams should be noise-level
    c = np.corrcoef(a, b)[0, 1]
    assert abs(c) < 0.05
