"""Monte-Carlo cross-checks for the exact proportions.

Everything here samples uniform random permutations (by shuffling),
reduces them to cycle types, and compares empirical frequencies with
the exact rational values computed elsewhere in the package.  The
acceptance tolerance is always k standard deviations with k = 4, and
the tolerance test itself is carried out in exact arithmetic: with
target t, trials T and successes s, the check is

    (s - t*T)**2  <=  k**2 * t * (1 - t) * T,

so no floating-point comparison can blur a verdict.  Alternating-group
sampling rejects odd permutations, costing an expected factor 2.

Powering a batch of permutations uses index composition on numpy
arrays with binary powering, so order tests cost O(log m) compositions
per batch rather than O(m).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, sqrt
from typing import Callable

import numpy as np

from .proportions import CycleType, ProportionTable, default_table, prop_alternating
from .recognition import CaseSpec, case_params, cond_prob, prob_A, prob_B

__all__ = [
    "SampleStats",
    "SearchStats",
    "random_cycle_type",
    "power_order",
    "estimate_order_divides",
    "estimate_case_event",
    "estimate_predicate",
    "search_cost_sim",
]


@dataclass(frozen=True)
class SampleStats:
    """Outcome of a frequency experiment against an optional exact target."""

    trials: int
    successes: int
    estimate: Fraction
    std_error: float
    target_exact: Fraction | None

    def __post_init__(self) -> None:
        if not 0 <= self.successes <= self.trials:
            raise ValueError("successes must lie in [0, trials]")
        if self.estimate != Fraction(self.successes, self.trials):
            raise ValueError("estimate must equal successes/trials")

    @classmethod
    def from_counts(
        cls, trials: int, successes: int, target_exact: Fraction | None = None
    ) -> "SampleStats":
        est = Fraction(successes, trials)
        se = sqrt(float(est * (1 - est)) / trials)
        return cls(trials, successes, est, se, target_exact)

    def within_sigma(self, k: int = 4) -> bool | None:
        """Exact k-sigma verdict against the target; None without one."""
        if self.target_exact is None:
            return None
        t = self.target_exact
        lhs = (self.successes - t * self.trials) ** 2
        rhs = k * k * t * (1 - t) * self.trials
        return lhs <= rhs


@dataclass(frozen=True)
class SearchStats(SampleStats):
    """Draw-until-hit experiment: trials counts draws, successes episodes.

    The estimate is then episodes/draws, an empirical hit probability,
    and trials/successes is the observed mean search length.  b_hits
    counts the draws that passed the cheap power test on the way, and
    target_cond is the exact conditional probability those hits are
    compared against.
    """

    b_hits: int
    target_cond: Fraction | None

    @property
    def mean_draws(self) -> Fraction:
        return Fraction(self.trials, self.successes)

    def mean_within_sigma(self, k: int = 4) -> bool | None:
        """Exact k-sigma verdict for the mean of geometric episodes.

        For hit probability p the per-episode variance is (1-p)/p**2, so
        with E episodes and T total draws the claim |T/E - 1/p| being
        at most k standard errors is equivalent to the rational
        comparison (T*p - E)**2 <= k**2 * (1-p) * E.
        """
        if self.target_exact is None:
            return None
        p = self.target_exact
        lhs = (self.trials * p - self.successes) ** 2
        rhs = k * k * (1 - p) * self.successes
        return lhs <= rhs

    def cond_within_sigma(self, k: int = 4) -> bool | None:
        """Exact k-sigma verdict for successes among the b_hits draws."""
        if self.target_cond is None or self.b_hits == 0:
            return None
        c = self.target_cond
        lhs = (self.successes - c * self.b_hits) ** 2
        rhs = k * k * c * (1 - c) * self.b_hits
        return lhs <= rhs


def _as_rng(seed: np.random.Generator | int | None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _cycle_lengths(perm: np.ndarray) -> tuple[int, ...]:
    n = perm.shape[0]
    seen = np.zeros(n, dtype=bool)
    out: list[int] = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        out.append(length)
    return tuple(out)


def random_cycle_type(n: int, seed: np.random.Generator | int | None = None) -> CycleType:
    """Cycle type of one uniform random element of S_n."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = _as_rng(seed)
    perm = rng.permutation(n)
    return CycleType(_cycle_lengths(perm))


def power_order(t: CycleType, r: int) -> int:
    """Order of g**r for any g whose cycle type is t."""
    if r < 1:
        raise ValueError("r must be positive")
    return lcm(*(d // gcd(d, r) for d in t.parts))


def _batch_permutations(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    base = np.tile(np.arange(n), (count, 1))
    return rng.permuted(base, axis=1)


def _batch_power(perms: np.ndarray, e: int) -> np.ndarray:
    """Row-wise e-th power of permutations under index composition."""
    count, n = perms.shape
    result = np.tile(np.arange(n), (count, 1))
    base = perms
    while e:
        if e & 1:
            result = np.take_along_axis(base, result, axis=1)
        e >>= 1
        if e:
            base = np.take_along_axis(base, base, axis=1)
    return result


def _batch_is_even(perms: np.ndarray) -> np.ndarray:
    """Row-wise parity via orbit minima by pointer doubling.

    After ceil(log2(n)) doubling steps each position holds the minimum
    of its cycle; the cycle count is the number of positions equal to
    that minimum, and evenness is n - #cycles being even.
    """
    count, n = perms.shape
    mins = np.tile(np.arange(n), (count, 1))
    hop = perms
    steps = max(1, int(n - 1).bit_length())
    for _ in range(steps):
        mins = np.minimum(mins, np.take_along_axis(mins, hop, axis=1))
        hop = np.take_along_axis(hop, hop, axis=1)
    cycles = (mins == np.arange(n)).sum(axis=1)
    return (n - cycles) % 2 == 0


_BATCH = 1 << 14


def _sample_batches(
    rng: np.random.Generator, n: int, trials: int, group: str
) -> "list[np.ndarray]":
    """Yield permutation batches totalling `trials` rows, A_n by rejection."""
    batches: list[np.ndarray] = []
    need = trials
    while need > 0:
        take = min(_BATCH, need if group == "S" else 2 * need)
        perms = _batch_permutations(rng, take, n)
        if group == "A":
            perms = perms[_batch_is_even(perms)]
            perms = perms[:need]
        else:
            perms = perms[:need]
        if perms.shape[0]:
            batches.append(perms)
            need -= perms.shape[0]
    return batches


def estimate_order_divides(
    n: int,
    m: int,
    trials: int,
    *,
    seed: np.random.Generator | int | None = None,
    group: str = "S",
    table: ProportionTable | None = None,
) -> SampleStats:
    """Empirical frequency of g**m = 1 in S_n or A_n, with exact target."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if group not in ("S", "A"):
        raise ValueError("group must be 'S' or 'A'")
    rng = _as_rng(seed)
    hits = 0
    identity = np.arange(n)
    for perms in _sample_batches(rng, n, trials, group):
        powered = _batch_power(perms, m)
        hits += int((powered == identity).all(axis=1).sum())
    t = table if table is not None else default_table()
    target = prop_alternating(n, m, table=t) if group == "A" else t.prop(n, m)
    return SampleStats.from_counts(trials, hits, target)


def estimate_case_event(
    case_id: int,
    n: int,
    event: str,
    trials: int,
    *,
    seed: np.random.Generator | int | None = None,
    table: ProportionTable | None = None,
) -> SampleStats:
    """Empirical frequency of event A or B of a family, exact target attached.

    Sampling happens in the family's computation group.  Event B is the
    power condition and vectorizes (g**r must have order s); event A
    compares full cycle types row by row.
    """
    if event not in ("A", "B"):
        raise ValueError("event must be 'A' or 'B'")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    spec = case_params(case_id, n)
    rng = _as_rng(seed)
    hits = 0
    identity = np.arange(n)
    target_parts = spec.cycle_type.parts
    s = spec.power_order
    for perms in _sample_batches(rng, n, trials, spec.calc_group):
        if event == "B":
            h = _batch_power(perms, spec.r)
            hs = _batch_power(h, s) if s > 1 else h
            ok = (hs == identity).all(axis=1)
            if s > 1:
                ok &= ~(h == identity).all(axis=1)
            hits += int(ok.sum())
        else:
            for row in perms:
                if tuple(sorted(_cycle_lengths(row))) == target_parts:
                    hits += 1
    target = prob_A(spec) if event == "A" else prob_B(spec, table=table)
    return SampleStats.from_counts(trials, hits, target)


def estimate_predicate(
    n: int,
    predicate: Callable[[CycleType], bool],
    trials: int,
    *,
    seed: np.random.Generator | int | None = None,
    group: str = "S",
    target: Fraction | None = None,
) -> SampleStats:
    """Empirical frequency of an arbitrary cycle-type predicate."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if group not in ("S", "A"):
        raise ValueError("group must be 'S' or 'A'")
    rng = _as_rng(seed)
    hits = 0
    for perms in _sample_batches(rng, n, trials, group):
        for row in perms:
            if predicate(CycleType(_cycle_lengths(row))):
                hits += 1
    return SampleStats.from_counts(trials, hits, target)


def search_cost_sim(
    spec: CaseSpec | int,
    episodes: int,
    *,
    n: int | None = None,
    seed: np.random.Generator | int | None = None,
    table: ProportionTable | None = None,
) -> SearchStats:
    """Simulate drawing random elements until one has the target type.

    Each episode draws from the family's computation group until the
    exact target type appears; every draw is also put through the cheap
    power test (order of g**r equal to s) so the conditional acceptance
    ratio among those draws is observable.  Reports total draws against
    episodes, with 1/prob_A as the exact mean target and the exact
    conditional as the b_hits target.
    """
    if isinstance(spec, int):
        if n is None:
            raise ValueError("give n when passing a bare case id")
        spec = case_params(spec, n)
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    rng = _as_rng(seed)
    target_parts = spec.cycle_type.parts
    s, r = spec.power_order, spec.r
    group = spec.calc_group
    draws = 0
    b_hits = 0
    for _ in range(episodes):
        while True:
            perm = rng.permutation(spec.n)
            if group == "A" and not _batch_is_even(perm[None, :])[0]:
                continue
            draws += 1
            t = CycleType(_cycle_lengths(perm))
            if power_order(t, r) == s:
                b_hits += 1
            if t.parts == target_parts:
                break
    p_a = prob_A(spec)
    cond = cond_prob(spec, table=table).p_A_given_B
    est = Fraction(episodes, draws)
    se = sqrt(float(est * (1 - est)) / draws)
    return SearchStats(draws, episodes, est, se, p_a, b_hits, cond)
