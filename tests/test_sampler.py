import hashlib
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from oracles import _sym_type_census, iter_partitions, prob_A_centralizer
from symprop.recognition import admissible_degrees, case_params, cond_prob, prob_A, prob_B
from symprop import sampler
from symprop.sampler import (
    POINTS,
    SampleStats,
    SearchStats,
    _cycle_lengths,
    _sample_batches,
    estimate_case_event,
    estimate_order_divides,
    search_cost_sim,
)


def _stats_line(st) -> str:
    return (f"{st.trials} {st.successes} {st.estimate} {st.std_error:.17g} "
            f"{st.target_exact} {st.within_sigma()}")


def test_seeded_results_digest():
    # pins the seeded counts, estimates, errors, targets and verdicts of
    # every sampler entry point the CLI uses, for every family
    lines = []
    for n, m, group in ((20, 12, "S"), (60, 60, "A"), (200, 5040, "S")):
        st = estimate_order_divides(n, m, 3_000, seed=n, group=group)
        lines.append(f"order {n} {m} {group}: {_stats_line(st)}")
    for cid in range(1, 11):
        n = next(admissible_degrees(cid, 1, 60))
        for event in "AB":
            st = estimate_case_event(cid, n, event, 3_000, seed=cid)
            lines.append(f"event {cid} {n} {event}: {_stats_line(st)}")
        st = search_cost_sim(cid, 40, n=n, seed=cid)
        lines.append(f"search {cid} {n}: {st.trials} {st.successes} {st.b_hits} "
                     f"{st.mean_draws} {st.target_exact} {st.target_cond} "
                     f"{st.mean_within_sigma()} {st.cond_within_sigma()}")
    text = "\n".join(lines) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "d2355cb3b4d5b826b7b458536ae7398c4963deb8db1b9cfcb2827b611663ea06")


def test_type_census_matches_class_sizes():
    # frequencies over S_4 within 4 sigma of each class proportion; a
    # d-cycle gives d points of cycle length d in a row of lengths
    trials = 40_000
    lengths = np.sort(np.concatenate(list(_sample_batches(99, 4, trials, "S"))), axis=1)
    for parts in iter_partitions(4):
        hits = int((lengths == np.sort(np.repeat(parts, parts))).all(axis=1).sum())
        stats = SampleStats(trials, hits, prob_A_centralizer(parts, "S"))
        assert stats.within_sigma(), parts


def _type_counts(lengths: np.ndarray) -> Counter:
    # a row of per-point lengths holds each d-cycle as d entries equal to d
    counts: Counter = Counter()
    for row in lengths.tolist():
        parts = [d for d, k in Counter(row).items() for _ in range(k // d)]
        counts[tuple(sorted(parts))] += 1
    return counts


@pytest.mark.parametrize("n", range(1, 8))
def test_every_word_gives_each_type_its_class_size(n):
    # all n! words: the S_n kernel gives each cycle type its class size,
    # and the A_n kernel each even type twice its class size (A_1 = S_1)
    # and no odd type
    words = np.array(list(permutations(range(n))))
    census = _sym_type_census(n)
    assert _type_counts(_cycle_lengths(words)[0]) == census
    lengths, even = _cycle_lengths(words, "A")
    assert even.all()
    share = 2 if n > 1 else 1
    assert _type_counts(lengths) == {
        parts: share * count for parts, count in census.items() if (n - len(parts)) % 2 == 0}


def test_alternating_draws_take_one_row_per_trial():
    # A_n evens its odd rows rather than rejecting them, so for the same
    # trials it leaves the Generator where S_n does
    rngs = {group: np.random.default_rng(31) for group in "SA"}
    for group, rng in rngs.items():
        estimate_order_divides(9, 12, 5_000, seed=rng, group=group)
    assert rngs["A"].bit_generator.state == rngs["S"].bit_generator.state
    assert rngs["S"].bit_generator.state != np.random.default_rng(31).bit_generator.state


def test_estimate_order_divides_anchor(table):
    st = estimate_order_divides(10, 10, 50_000, seed=11)
    assert st.target_exact == table.prop(10, 10)
    assert st.within_sigma()
    again = estimate_order_divides(10, 10, 50_000, seed=11)
    assert again.successes == st.successes


def test_estimate_order_divides_alternating():
    from symprop.proportions import prop_alternating

    st = estimate_order_divides(8, 6, 50_000, seed=2, group="A")
    assert st.target_exact == prop_alternating(8, 6)
    assert st.within_sigma()


def test_estimate_trivial_degrees():
    st = estimate_order_divides(1, 1, 100, seed=0)
    assert st.estimate == 1
    st = estimate_order_divides(2, 2, 20_000, seed=1)
    assert st.target_exact == 1
    st = estimate_order_divides(2, 1, 20_000, seed=1)
    assert st.within_sigma() and abs(st.estimate - Fraction(1, 2)) < Fraction(1, 50)


def test_estimate_case_events():
    st = estimate_case_event(1, 8, "A", 60_000, seed=3)
    assert st.target_exact == prob_A(case_params(1, 8))
    assert st.within_sigma()
    st = estimate_case_event(2, 9, "B", 60_000, seed=4)
    assert st.target_exact == prob_B(case_params(2, 9))
    assert st.within_sigma()
    # family 10 draws from the alternating group
    st = estimate_case_event(10, 13, "A", 60_000, seed=5)
    assert st.target_exact == Fraction(1, 24)
    assert st.within_sigma()


def test_estimate_event_dispatch():
    st = estimate_case_event(4, 9, "B", 20_000, seed=7)
    assert st.target_exact == prob_B(case_params(4, 9))


def test_stats_validation():
    with pytest.raises(ValueError):
        SampleStats(10, 11, Fraction(1, 2))


def test_search_stats_validation():
    # every episode ends on a hit, and every hit passes the power test
    for counts in ((10, 0, 0), (10, 3, 2), (10, 3, 11)):
        with pytest.raises(ValueError):
            SearchStats(*counts, Fraction(1, 2), Fraction(1, 2))
    assert SearchStats(10, 3, 3, Fraction(1, 2), Fraction(1, 2)).mean_draws == Fraction(10, 3)


def test_search_cost_sim_case1():
    st = search_cost_sim(1, 4_000, n=10, seed=13)
    assert st.target_exact == Fraction(1, 10)
    assert st.mean_within_sigma()
    assert st.cond_within_sigma()
    assert st.target_cond == cond_prob(case_params(1, 10)).p_A_given_B


def test_search_cost_sim_case4():
    st = search_cost_sim(4, 3_000, n=9, seed=17)
    assert st.target_exact == Fraction(2, 9)
    assert st.mean_within_sigma()
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
    rows = POINTS // 50
    small = _traced_peak(lambda: estimate_order_divides(50, 12, 2 * rows, seed=1))
    large = _traced_peak(lambda: estimate_order_divides(50, 12, 8 * rows, seed=1))
    assert large <= 1.25 * small, (small, large)


def test_memory_does_not_grow_with_degree():
    # a batch holds about POINTS points however large n is; a batch of
    # 1,000 rows at n = 1,000 would hold a million
    peak = _traced_peak(lambda: estimate_order_divides(1000, 12, 1000, seed=1))
    assert peak < 8 * 2**20, peak


def _seeded_counts() -> list[tuple[int, ...]]:
    counts = []
    for n, m, group in ((9, 12, "S"), (10, 6, "A"), (70, 60, "S")):
        st = estimate_order_divides(n, m, 700, seed=n, group=group)
        counts.append((st.trials, st.successes))
    for cid, n in ((1, 8), (2, 9), (4, 11), (6, 10), (10, 13)):
        for event in "AB":
            st = estimate_case_event(cid, n, event, 300, seed=cid)
            counts.append((st.trials, st.successes))
        st = search_cost_sim(cid, 5, n=n, seed=cid)
        counts.append((st.trials, st.successes, st.b_hits))
    return counts


def test_counts_do_not_depend_on_batch_size(monkeypatch):
    # row i of the stream is the same permutation however the stream is
    # cut, so one row per batch gives the counts of the default budget
    default = _seeded_counts()
    monkeypatch.setattr(sampler, "POINTS", 1)
    assert _seeded_counts() == default
