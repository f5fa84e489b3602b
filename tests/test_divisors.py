import hashlib
import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import divisor_count, divisors, isprime, nextprime, prevprime

from oracles import (
    divisor_ratio_cube,
    divisors_by_trial,
    is_prime_by_trial,
    peak_exponent,
    quad_divisor_excess,
)
from symprop import divisors as divisors_module
from symprop.divisors import (
    C0_CUBED,
    COUNT_BOUNDS,
    applicable_variants,
    check_divisor_count_bound,
    check_quadratic_divisor_sum,
    divisor_count_sieve,
    divisor_list,
    divisor_rich_candidates,
    gamma_value,
    is_divisor_rich_candidate,
    is_prime,
    sweep_divisor_count_bounds,
    sweep_quadratic_divisor_sums,
)


def test_divisor_list_basics():
    assert divisor_list(1) == (1,)
    assert divisor_list(12) == (1, 2, 3, 4, 6, 12)
    assert len(divisor_list(360)) == 24


def test_divisor_list_invariants():
    for n in range(1, 200):
        ds = divisor_list(n)
        assert list(ds) == sorted(set(ds))
        assert ds[0] == 1 and ds[-1] == n
        assert all(n % d == 0 for d in ds)


def test_divisor_list_matches_trial_division():
    # divisor_list factors n first; the oracle tries every d <= sqrt(n)
    for n in range(1, 20_001):
        assert divisor_list(n) == divisors_by_trial(n), n


def test_is_prime_matches_trial_division():
    for n in range(-2, 100_001):
        assert is_prime(n) == is_prime_by_trial(n), n


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=3_317_044_064_679_887_385_961_980))
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == isprime(n)


def test_is_prime_on_strong_pseudoprimes():
    # the least strong pseudoprimes to the first k prime bases, k = 1..12,
    # each of them composite
    for n in (2047, 1_373_653, 25_326_001, 3_215_031_751, 2_152_302_898_747,
              3_474_749_660_383, 341_550_071_728_321, 3_825_123_056_546_413_051,
              318_665_857_834_031_151_167_461):
        assert not is_prime(n), n
    assert is_prime(2**31 - 1) and is_prime(2**61 - 1) and not is_prime(2**67 - 1)


def test_divisor_list_tests_each_new_cofactor():
    # a factor found past 2**16 trials leaves a new cofactor, tested afresh
    p = 2**61 - 1
    assert divisor_list(65537 * p) == (1, 65537, p, 65537 * p)
    assert divisor_list(65539**2 * p) == (1, 65539, 65539**2, p, 65539 * p, 65539**2 * p)


_PRIMES_2_20_TO_2_40 = st.integers(nextprime(2**20) + 1, 2**40).map(prevprime)


@settings(max_examples=10, deadline=None)
@given(_PRIMES_2_20_TO_2_40, _PRIMES_2_20_TO_2_40)
def test_divisor_list_splits_a_product_of_two_primes(p, q):
    # both factors lie past the trial divisors, so Pollard's rho splits them
    assert divisor_list(p * q) == tuple(divisors(p * q))


def test_rho_recovers_when_a_batch_overshoots():
    # for these m the first batch of 128 differences multiplies to 0 mod m,
    # so its gcd is m itself and rho steps again one at a time from the
    # batch start; a trace of _rho_factor shows that branch run for each
    assert divisors_module._RHO_BATCH == 128
    for m in (25, 35, 49, 55, 65, 77, 91):
        f = divisors_module._rho_factor(m)
        assert 1 < f < m and m % f == 0, m


_BOUND = 3_317_044_064_679_887_385_961_981  # Miller-Rabin on 13 prime bases is exact below


@pytest.mark.parametrize("n", [2**89 - 1, 2**107 - 1, 2**127 - 1, nextprime(_BOUND),
                               prevprime(2**100), nextprime(10**30)])
def test_is_prime_proves_primes_above_the_miller_rabin_range(n):
    assert is_prime(n) and isprime(n)


@pytest.mark.parametrize("n", [_BOUND, (2**61 - 1) * (2**89 - 1), (2**89 - 1) ** 2,
                               nextprime(_BOUND) * nextprime(2**40), 2**101 - 1])
def test_is_prime_rejects_composites_above_the_miller_rabin_range(n):
    # the bound itself is a strong pseudoprime to all 13 bases
    assert not is_prime(n) and not isprime(n)


def test_proof_on_n_minus_1_alone_decides_small_n(monkeypatch):
    # with no Miller-Rabin bases, every n goes to the proof on n - 1; the
    # Chernick numbers (6k+1)(12k+1)(18k+1), k = 1, 6, 35, 45, are Carmichael
    # numbers, which pass a**(n-1) = 1 for every a prime to n
    monkeypatch.setattr(divisors_module, "_WITNESSES", ())
    monkeypatch.setattr(divisors_module, "_WITNESSES_EXACT_BELOW", 0)
    for n in range(2, 3000):
        assert is_prime(n) == is_prime_by_trial(n), n
    for k in (1, 6, 35, 45):
        assert not is_prime((6 * k + 1) * (12 * k + 1) * (18 * k + 1)), k
    assert is_prime(2**61 - 1) and is_prime(2**89 - 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(_BOUND, 2**96))
def test_is_prime_matches_sympy_above_the_miller_rabin_range(n):
    assert is_prime(n) == isprime(n)


@pytest.mark.parametrize("root, k", [(2**61 - 1, 2), (65537, 5), (2**31 - 1, 3),
                                     ((2**31 - 1) * 65539, 2)])
def test_divisor_list_splits_a_perfect_power_exactly(root, k):
    # rho would need about sqrt(p) steps on p**k; an exact k-th root needs none
    assert divisor_list(root**k) == tuple(divisors(root**k))


def test_gamma_value_thresholds():
    assert gamma_value(361) == 2
    assert gamma_value(360) == Fraction(5, 2)
    assert gamma_value(61) == Fraction(5, 2)
    assert gamma_value(60) == Fraction(3345, 1000)
    assert gamma_value(1) == Fraction(3345, 1000)
    with pytest.raises(ValueError):
        gamma_value(0)


def test_peak_exponents():
    assert peak_exponent(2) == 3
    assert peak_exponent(3) == 2
    assert peak_exponent(5) == 1
    assert peak_exponent(7) == 1
    assert peak_exponent(17) == 0


def test_ratio_factor_identity():
    assert divisor_ratio_cube(17, 0) == 1
    assert divisor_ratio_cube(2, 3) == 8


def test_cube_constant_encloses_c0():
    # the refined constant comes from the factor product with the power
    # of two pushed to exponent 7 instead of its peak at 3
    cube = (divisor_ratio_cube(2, 7) * divisor_ratio_cube(3, 2)
            * divisor_ratio_cube(5, 1) * divisor_ratio_cube(7, 1))
    assert cube == C0_CUBED == Fraction(768, 35)


# variant -> (k, exponents of 2 allowed, exponents of 3 allowed, published C**k)
_EXPONENT_RULES = {
    "half": (2, range(40), range(40), Fraction(3)),
    "third": (3, range(40), range(40), Fraction(1536, 35)),
    "odd": (3, range(1), range(40), Fraction(192, 35)),
    "no9": (3, range(40), range(2), Fraction(4096, 105)),
    "odd-no9": (3, range(1), range(2), Fraction(512, 105)),
    "c0": (3, range(7, 40), range(40), Fraction(768, 35)),
}


@pytest.mark.parametrize("variant", list(_EXPONENT_RULES))
def test_count_bound_constant_is_the_product_of_per_prime_peaks(variant):
    # C**k = prod over p <= 13 of max_a (a+1)**k / p**a, a ranging over the
    # exponents the variant allows; every prime above 13 peaks at a = 0
    k, twos, threes, published = _EXPONENT_RULES[variant]
    allowed = {2: twos, 3: threes}
    product = Fraction(1)
    for p in (2, 3, 5, 7, 11, 13):
        product *= max(Fraction((a + 1) ** k, p**a) for a in allowed.get(p, range(40)))
    assert product == COUNT_BOUNDS[variant][1] == published


def test_count_bound_variants():
    rep = check_divisor_count_bound(15, "odd")
    assert rep.passed
    assert len(divisor_list(15)) == 4
    for variant in applicable_variants(1):
        assert check_divisor_count_bound(1, variant).passed


def test_count_bound_candidate_exception():
    # the plain bound holds at the largest candidate; membership is the claim
    n = 2**6 * 3**4 * 5**2 * 7 * 13
    assert is_divisor_rich_candidate(n)
    assert check_divisor_count_bound(n, "c0").passed
    # at 72 the bound itself fails and the report leans on the listed set
    rep = check_divisor_count_bound(72, "c0")
    assert rep.passed
    assert "candidate" in rep.witness


def test_candidate_set_shape():
    cands = divisor_rich_candidates()
    # 6 * 5 * 3 * 2 * 3 exponent boxes, all products distinct
    assert len(cands) == 540
    assert cands[0] == 2
    assert cands[-1] == 11_793_600
    assert list(cands) == sorted(set(cands))


def test_candidate_containment_below_10000():
    # every n with d(n)^3 > (768/35) n must be a listed candidate
    counts = divisor_count_sieve(10_000)
    for n in range(1, 10_001):
        if int(counts[n]) ** 3 * 35 > 768 * n:
            assert is_divisor_rich_candidate(n), n


def test_quadratic_sum_examples():
    rep = check_quadratic_divisor_sum(12, 3, 6)
    assert rep.passed
    assert rep.lhs == 2 + 6 + 20
    assert rep.rhs == 5 * 4 + 72 - 36
    for n in (7, 30):
        rep = check_quadratic_divisor_sum(n, n, n)
        assert rep.passed
        assert rep.lhs == rep.rhs == (n - 1) * (n - 2)
    assert check_quadratic_divisor_sum(60, 4, 30).passed


def test_quadratic_sweep_clean_small():
    assert sweep_quadratic_divisor_sums(300) == []


def test_quadratic_lemma_step_on_consecutive_divisors():
    # the proof's one step, d*d' <= n(d' - d) for consecutive divisors
    # d < d' of n, for every n <= 20,000, with divisors from a plain sieve
    top = 20_000
    divs: list[list[int]] = [[] for _ in range(top + 1)]
    for d in range(1, top + 1):
        for n in range(d, top + 1, d):
            divs[n].append(d)
    for n in range(1, top + 1):
        ds = divs[n]
        assert all(d * e <= n * (e - d) for d, e in zip(ds, ds[1:])), n


def test_quadratic_sums_need_only_divisor_pairs():
    # the sweep checks only a <= b both dividing n; over every range
    # 1 <= a <= b <= n the largest excess of the left side is the same
    for n in range(1, 151):
        assert quad_divisor_excess(n, divisor_ends=False) == quad_divisor_excess(
            n, divisor_ends=True), n


def test_sieve_matches_sympy():
    counts = divisor_count_sieve(2_000)
    for n in (1, 2, 17, 36, 256, 360, 1024, 1999, 2000):
        assert int(counts[n]) == divisor_count(n)
    # every n, perfect squares included, against the divisor listing
    counts = divisor_count_sieve(10_000)
    assert counts[0] == 0
    assert [int(c) for c in counts[1:]] == [len(divisor_list(n)) for n in range(1, 10_001)]


def test_count_bound_sweep_clean_small():
    assert sweep_divisor_count_bounds(20_000) == []


def test_divisor_count_sweep_memory_is_bounded():
    # only the int32 sieve grows with the range; the checks run over blocks
    tracemalloc.start()
    try:
        assert sweep_divisor_count_bounds(1_000_000, containment_limit=4_000_000) == []
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 4_000_000 < 20, f"{peak / 4_000_000:.1f} bytes per integer"


def test_count_bound_records_are_pinned():
    # every record of every variant that applies to n <= 5000; the digest
    # was taken before the bounds were gathered into one table
    records = [check_divisor_count_bound(n, v).record()
               for n in range(1, 5001) for v in applicable_variants(n)]
    assert len(records) == 24_167
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == "003f54934bc4af80583a10da915522e912f5cce5141f2ea34379b37739af5f3b"


def test_count_bound_sweep_is_pinned(capsys):
    # the return value and the progress lines, captured with the records above
    capsys.readouterr()
    failures = sweep_divisor_count_bounds(20_000, containment_limit=200_000)
    lines = capsys.readouterr().err.splitlines()
    digest = hashlib.sha256(json.dumps(
        {"failures": [r.record() for r in failures], "progress": lines},
        sort_keys=True).encode()).hexdigest()
    assert digest == "8ee7f6300fc71aa87ee3c9cc060b621c4db2110b088fd44e9e96cd9ae1c210b0"
    assert lines[-1].endswith("78 refined-bound violations all listed")
