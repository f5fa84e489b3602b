"""Monte-Carlo cross-checks for the exact proportions.

Everything here samples uniform random permutations (by shuffling),
reduces them to cycle types, and compares empirical frequencies with
the exact rational values computed elsewhere in the package.  The
acceptance tolerance is fixed at k = SIGMAS = 4 standard deviations,
and the tolerance test itself is carried out in exact arithmetic: with
target t, trials T and successes s, the check is

    (s - t*T)**2  <=  k**2 * t * (1 - t) * T,

so no floating-point comparison can blur a verdict.

A draw is a shuffled word w of 0..n-1, read as a permutation by Foata's
fundamental bijection (Stanley, Enumerative Combinatorics I, 2nd ed.,
Prop. 1.3.1): cut w before each left-to-right maximum and close each
piece into a cycle.  The bijection maps uniform words to uniform
permutations, and one pass over a row finds its cycles.  In A_n an odd
row is read again with the values n-2 and n-1 swapped.  That swap
toggles whether n-2 is a left-to-right maximum, so it changes the cycle
count by one and flips the parity, and it is an involution; each even
permutation (n >= 2) is thus reached from exactly two words, and A_n
costs one row per draw, as S_n does.

Words are drawn in batches sized by points, not rows: a batch holds
max(1, POINTS // n) rows of n points, so its arrays stay in cache and
memory is bounded by about max(POINTS, n) points whatever the trials
and the degree.  Row i of one rng.permuted call is the i-th successive
shuffle, so no count depends on where the stream is cut.

Every event is read off the length of the cycle through each point of
a batch, the gap between the two left-to-right maxima around it.  On a
d-cycle g**e has order d/gcd(d, e), so g**m = 1 and event B are each a
lookup of the lengths in a table over d <= n; event A compares a row's
sorted lengths with the target type.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, sqrt
from typing import Callable, Iterator

import numpy as np

from .proportions import prop_alternating, prop_order_dividing
from .recognition import CaseSpec, case_params, cond_prob, prob_A, prob_B

__all__ = [
    "SampleStats",
    "SearchStats",
    "estimate_order_divides",
    "estimate_case_event",
    "search_cost_sim",
]

SIGMAS = 4  # the k of every k-sigma verdict


def _within_sigma(hits: int, trials: int, p: Fraction) -> bool:
    """(hits - p*trials)**2 <= SIGMAS**2 * p * (1 - p) * trials, exactly."""
    return (hits - p * trials) ** 2 <= SIGMAS * SIGMAS * p * (1 - p) * trials


@dataclass(frozen=True)
class SampleStats:
    """Outcome of a frequency experiment against an exact target."""

    trials: int
    successes: int
    target_exact: Fraction

    def __post_init__(self) -> None:
        if not 0 <= self.successes <= self.trials:
            raise ValueError("successes must lie in [0, trials]")

    @property
    def estimate(self) -> Fraction:
        return Fraction(self.successes, self.trials)

    @property
    def std_error(self) -> float:
        est = self.estimate
        return sqrt(float(est * (1 - est)) / self.trials)

    def within_sigma(self) -> bool:
        """Exact SIGMAS-sigma verdict against the target."""
        return _within_sigma(self.successes, self.trials, self.target_exact)


@dataclass(frozen=True)
class SearchStats:
    """Draw-until-hit experiment: trials counts draws, successes episodes.

    trials/successes is the observed mean search length, against the
    exact hit probability target_exact.  b_hits counts the draws that
    passed the cheap power test on the way, and target_cond is the exact
    conditional probability those hits are compared against.  Every hit
    passes the power test (event A lies inside event B), so
    1 <= successes <= b_hits <= trials.
    """

    trials: int
    successes: int
    b_hits: int
    target_exact: Fraction
    target_cond: Fraction

    def __post_init__(self) -> None:
        if not 1 <= self.successes <= self.b_hits <= self.trials:
            raise ValueError("need 1 <= successes <= b_hits <= trials")

    @property
    def mean_draws(self) -> Fraction:
        return Fraction(self.trials, self.successes)

    def mean_within_sigma(self) -> bool:
        """Exact SIGMAS-sigma verdict for the mean of geometric episodes.

        For hit probability p the per-episode variance is (1-p)/p**2, so
        with E episodes and T total draws the claim |T/E - 1/p| being
        at most k standard errors is equivalent to the rational
        comparison (T*p - E)**2 <= k**2 * (1-p) * E.
        """
        p = self.target_exact
        lhs = (self.trials * p - self.successes) ** 2
        return lhs <= SIGMAS * SIGMAS * (1 - p) * self.successes

    def cond_within_sigma(self) -> bool:
        """Exact SIGMAS-sigma verdict for successes among the b_hits draws."""
        return _within_sigma(self.successes, self.b_hits, self.target_cond)


def _cycle_lengths(words: np.ndarray, group: str = "S") -> tuple[np.ndarray, np.ndarray]:
    """Cycle lengths and row evenness of the Foata images of a (count, n) batch.

    A cycle starts at each left-to-right maximum of a word and runs to the
    next one, so entry (i, j) is the length of the cycle through the point
    words[i, j].  Position 0 starts every row, so no cycle spans two rows.
    With group "A" each odd row is read again with n-2 and n-1 swapped.
    """
    count, n = words.shape
    starts = words == np.maximum.accumulate(words, axis=1)
    sizes = np.diff(np.flatnonzero(starts), append=count * n)
    lengths = np.repeat(sizes, sizes).reshape(count, n)
    even = (n - starts.sum(axis=1)) % 2 == 0
    if group == "A" and not even.all():
        odd = words[~even]
        lengths[~even], even[~even] = _cycle_lengths(np.where(odd >= n - 2, 2 * n - 3 - odd, odd))
    return lengths, even


POINTS = 1 << 15  # points per batch: max(1, POINTS // n) rows of n points


def _sample_batches(
    seed: np.random.Generator | int | None, n: int, trials: float, group: str
) -> Iterator[np.ndarray]:
    """Yield cycle lengths of batches totalling `trials` (may be inf) draws.

    Every draw is one row of one rng.permuted call, in S_n and A_n alike:
    row i is the word the i-th of successive rng.permutation(n) calls
    would make, and the draw is its Foata image (evened in A_n).
    """
    rng = np.random.default_rng(seed)  # a Generator is used as it is
    need = trials
    while need > 0:
        take = min(max(1, POINTS // n), need)
        need -= take
        yield _cycle_lengths(rng.permuted(np.tile(np.arange(n), (take, 1)), axis=1), group)[0]


def _event_mask(spec: CaseSpec, event: str) -> Callable[[np.ndarray], np.ndarray]:
    """The row test for exactly the target type (A) or g**r of order s (B).

    g**r has order lcm(k) for k = d/gcd(d, r) over the points; as s is
    1, 2 or 3, that is s iff every k divides s and, if s > 1, some k is s.
    Both B tests are lookups in tables over the cycle lengths d <= n.
    """
    if event == "A":
        parts = np.array(spec.parts)
        want = np.repeat(parts, parts)
        return lambda lengths: (np.sort(lengths, axis=1) == want).all(axis=1)
    s = spec.power_order
    k = [0] + [d // gcd(d, spec.r) for d in range(1, spec.n + 1)]
    ok = np.array([kd > 0 and s % kd == 0 for kd in k])
    hit = np.array([kd == s for kd in k])

    def mask(lengths: np.ndarray) -> np.ndarray:
        rows = ok[lengths].all(axis=1)
        if s > 1:
            rows &= hit[lengths].any(axis=1)
        return rows

    return mask


def estimate_order_divides(
    n: int,
    m: int,
    trials: int,
    *,
    seed: np.random.Generator | int | None = None,
    group: str = "S",
) -> SampleStats:
    """Empirical frequency of g**m = 1 in S_n or A_n, with exact target."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if group not in ("S", "A"):
        raise ValueError("group must be 'S' or 'A'")
    # divides[d] says whether d divides m; a lookup, as m may exceed int64
    divides = np.array([d > 0 and m % d == 0 for d in range(n + 1)])
    hits = sum(int(divides[lengths].all(axis=1).sum())
               for lengths in _sample_batches(seed, n, trials, group))
    target = (prop_alternating if group == "A" else prop_order_dividing)(n, m)
    return SampleStats(trials, hits, target)


def estimate_case_event(
    case_id: int,
    n: int,
    event: str,
    trials: int,
    *,
    seed: np.random.Generator | int | None = None,
) -> SampleStats:
    """Empirical frequency of event A or B of a family, exact target attached.

    Sampling happens in the family's computation group.  Event A is the
    exact target type; event B is the power condition (g**r of order s).
    """
    if event not in ("A", "B"):
        raise ValueError("event must be 'A' or 'B'")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    spec = case_params(case_id, n)
    mask = _event_mask(spec, event)
    hits = sum(int(mask(lengths).sum())
               for lengths in _sample_batches(seed, n, trials, spec.calc_group))
    target = prob_A(spec) if event == "A" else prob_B(spec)
    return SampleStats(trials, hits, target)


def search_cost_sim(
    case_id: int,
    episodes: int,
    *,
    n: int,
    seed: np.random.Generator | int | None = None,
) -> SearchStats:
    """Simulate drawing random elements of family ``case_id`` at degree n
    until one has the target type.

    Each episode draws from the family's computation group until the
    exact target type appears; every draw is also put through the cheap
    power test (order of g**r equal to s) so the conditional acceptance
    ratio among those draws is observable.  Reports total draws against
    episodes, with 1/prob_A as the exact mean target and the exact
    conditional as the b_hits target.

    Draws come a batch of max(1, POINTS // n) rows at a time, one row per
    draw in S_n and A_n alike, but are counted one by one up to the last
    hit, so a Generator passed as `seed` ends up advanced past the last
    draw counted by less than one batch: fewer than max(1, POINTS // n)
    rows.
    """
    spec = case_params(case_id, n)
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    mask_a, mask_b = _event_mask(spec, "A"), _event_mask(spec, "B")
    draws = b_hits = 0
    need = episodes
    for lengths in _sample_batches(seed, spec.n, inf, spec.calc_group):
        hit = np.flatnonzero(mask_a(lengths))
        stop = hit[need - 1] + 1 if len(hit) >= need else len(lengths)
        draws += int(stop)
        b_hits += int(mask_b(lengths[:stop]).sum())
        need -= min(need, len(hit))
        if not need:
            break
    return SearchStats(draws, episodes, b_hits, prob_A(spec), cond_prob(spec).p_A_given_B)
