import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from oracles import iter_partitions
from symprop.proportions import CycleType
from symprop.recognition import case_params, cond_prob, prob_A, prob_B
from symprop.sampler import (
    _BATCH,
    SampleStats,
    estimate_case_event,
    estimate_order_divides,
    estimate_predicate,
    power_order,
    random_cycle_type,
    search_cost_sim,
)


def test_power_order_examples():
    assert power_order(CycleType((6, 2)), 2) == 3
    for r in (1, 2, 5, 7):
        assert power_order(CycleType((r,)), r) == 1
    assert power_order(CycleType((2, 3, 8)), 8) == 3
    assert power_order(CycleType((2, 3, 8)), 1) == 24
    with pytest.raises(ValueError):
        power_order(CycleType((3,)), 0)


def test_power_order_against_lcm_brute():
    # |g^r| = lcm over cycles of d/gcd(d,r); cross-checked by repeated
    # exponent stepping on the lcm order
    from math import gcd, lcm

    for parts in iter_partitions(9):
        t = CycleType(parts)
        order = t.order
        for r in range(1, 12):
            expect = 1
            while (r * expect) % order:
                expect += 1
            assert power_order(t, r) == expect


def test_random_cycle_type_deterministic():
    a = random_cycle_type(12, seed=5)
    b = random_cycle_type(12, seed=5)
    assert a == b
    assert a.n == 12


def test_type_census_matches_class_sizes():
    # frequencies over S_4 within 4 sigma of each class proportion
    trials = 40_000
    counts: Counter[tuple[int, ...]] = Counter()
    import numpy as np

    rng = np.random.default_rng(99)
    for _ in range(trials):
        counts[random_cycle_type(4, rng).parts] += 1
    for parts in iter_partitions(4):
        t = CycleType(parts)
        p = t.proportion_of_sym()
        stats = SampleStats.from_counts(trials, counts[t.parts], p)
        assert stats.within_sigma(4), parts


def test_estimate_order_divides_anchor(table):
    st = estimate_order_divides(10, 10, 50_000, seed=11)
    assert st.target_exact == table.prop(10, 10)
    assert st.within_sigma(4)
    again = estimate_order_divides(10, 10, 50_000, seed=11)
    assert again.successes == st.successes


def test_estimate_order_divides_alternating():
    from symprop.proportions import prop_alternating

    st = estimate_order_divides(8, 6, 50_000, seed=2, group="A")
    assert st.target_exact == prop_alternating(8, 6)
    assert st.within_sigma(4)


def test_estimate_trivial_degrees():
    st = estimate_order_divides(1, 1, 100, seed=0)
    assert st.estimate == 1
    st = estimate_order_divides(2, 2, 20_000, seed=1)
    assert st.target_exact == 1
    st = estimate_order_divides(2, 1, 20_000, seed=1)
    assert st.within_sigma(4) and abs(st.estimate - Fraction(1, 2)) < Fraction(1, 50)


def test_estimate_case_events():
    st = estimate_case_event(1, 8, "A", 60_000, seed=3)
    assert st.target_exact == prob_A(case_params(1, 8))
    assert st.within_sigma(4)
    st = estimate_case_event(2, 9, "B", 60_000, seed=4)
    assert st.target_exact == prob_B(case_params(2, 9))
    assert st.within_sigma(4)
    # family 10 draws from the alternating group
    st = estimate_case_event(10, 13, "A", 60_000, seed=5)
    assert st.target_exact == Fraction(1, 24)
    assert st.within_sigma(4)


def test_estimate_event_dispatch():
    st = estimate_predicate(6, lambda t: t.order % 2 == 1, 20_000, seed=6)
    assert st.target_exact is None
    assert st.within_sigma(4) is None
    st2 = estimate_predicate(6, lambda t: t.order % 2 == 1, 20_000, seed=6)
    assert st2.successes == st.successes
    st3 = estimate_case_event(4, 9, "B", 20_000, seed=7)
    assert st3.target_exact == prob_B(case_params(4, 9))


def test_stats_validation():
    with pytest.raises(ValueError):
        SampleStats(10, 11, Fraction(11, 10), 0.0, None)
    with pytest.raises(ValueError):
        SampleStats(10, 5, Fraction(1, 3), 0.0, None)


def test_search_cost_sim_case1():
    st = search_cost_sim(1, 4_000, n=10, seed=13)
    assert st.target_exact == Fraction(1, 10)
    assert st.mean_within_sigma(4)
    assert st.cond_within_sigma(4)
    assert st.target_cond == cond_prob(case_params(1, 10)).p_A_given_B


def test_search_cost_sim_case4():
    st = search_cost_sim(4, 3_000, n=9, seed=17)
    assert st.target_exact == Fraction(2, 9)
    assert st.mean_within_sigma(4)
    # every draw already sits in the alternating group
    assert st.b_hits <= st.trials


def test_search_cost_sim_deterministic():
    a = search_cost_sim(2, 500, n=9, seed=23)
    b = search_cost_sim(2, 500, n=9, seed=23)
    assert (a.trials, a.successes, a.b_hits) == (b.trials, b.successes, b.b_hits)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_trials():
    # batches are streamed, so four times the trials may not cost four
    # times the memory
    small = _traced_peak(lambda: estimate_order_divides(50, 12, 2 * _BATCH, seed=1))
    large = _traced_peak(lambda: estimate_order_divides(50, 12, 8 * _BATCH, seed=1))
    assert large <= 1.25 * small, (small, large)
