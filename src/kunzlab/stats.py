"""Exact multiplicity/genus distributions and rational brackets for their limits.

Finite-Frobenius distributions come straight from the enumeration engine and
are exact: masses are integer counts, probabilities exact rationals.  The
limiting quantities are irrational constants known only through convergent
series; everything here brackets them between exact rationals — partial sums
of the series below, partial sums plus a certified geometric tail bound above
— so comparisons against the brackets are decided in rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, ceil
from typing import NamedTuple

from .enumeration import count_by_length, genus_histogram, stressed3_genus_total
from .words import CountQuery

__all__ = [
    "Distribution",
    "ExactBracket",
    "GenusStats",
    "backelin_bracket",
    "genus_stats",
    "limit_mult_mass",
    "mu_gamma_partial",
    "mult_distribution",
    "stressed3_avg_genus",
]

_DECAY = Fraction(11, 12)  # per-step factor of the certified series tails
_AVG_GENUS_GUARD = 28      # largest head length the average-genus scan accepts


@dataclass(frozen=True)
class ExactBracket:
    """A closed rational interval certified to contain a limiting constant."""

    lower: Fraction
    upper: Fraction

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError("bracket lower end exceeds upper end")

    def __contains__(self, value) -> bool:
        return self.lower <= value <= self.upper

    def contains_bracket(self, other: "ExactBracket") -> bool:
        return self.lower <= other.lower and other.upper <= self.upper

    def widened(self, slack) -> "ExactBracket":
        slack = Fraction(slack)
        return ExactBracket(self.lower - slack, self.upper + slack)

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    def decimal(self, places: int = 4) -> tuple[str, str]:
        """Directed decimal rendering: lower rounded down, upper rounded up."""
        return (_decimal_directed(self.lower, places, up=False),
                _decimal_directed(self.upper, places, up=True))


def _decimal_directed(value: Fraction, places: int, up: bool) -> str:
    scaled = value * 10 ** places
    n = ceil(scaled) if up else floor(scaled)
    sign = "-" if n < 0 else ""
    n = abs(n)
    whole, frac = divmod(n, 10 ** places)
    return f"{sign}{whole}.{frac:0{places}d}"


@dataclass(frozen=True)
class Distribution:
    """Exact integer masses over integer keys, with derived probabilities."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        keys = [k for k, _ in self.pairs]
        if keys != sorted(set(keys)):
            raise ValueError("keys must be strictly increasing")
        if any(c < 0 for _, c in self.pairs):
            raise ValueError("masses must be nonnegative")
        if self.total <= 0:
            raise ValueError("distribution must have positive total mass")

    @classmethod
    def from_counts(cls, counts: dict) -> "Distribution":
        return cls(tuple(sorted((k, c) for k, c in counts.items() if c)))

    @property
    def total(self) -> int:
        return sum(c for _, c in self.pairs)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.pairs)

    def count(self, key: int) -> int:
        return dict(self.pairs).get(key, 0)

    def probability(self, key: int) -> Fraction:
        return Fraction(self.count(key), self.total)

    def probabilities(self) -> dict[int, Fraction]:
        total = self.total
        return {k: Fraction(c, total) for k, c in self.pairs}

    def mean(self) -> Fraction:
        return Fraction(sum(k * c for k, c in self.pairs), self.total)


# ---------------------------------------------------------------------------
# the two limiting constants, bracketed from the reference table
# ---------------------------------------------------------------------------


def backelin_bracket(parity: str, j_cut: int = 56, table1=None) -> ExactBracket:
    """Bracket the limiting ratio count(f) / 2^(f/2) for one parity of f.

    For even f the bracketed constant is the limit itself; for odd f it is
    the limit divided by sqrt(2), which makes every series term a dyadic
    rational.  The lower end is the partial sum of the series through j_cut
    using only reference-table counts; the upper end adds a geometric tail
    certified by the termwise inequality st(j) <= 2^floor((3j-3)/2) * (11/12)^floor((j-1)/2).
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    if j_cut < 0:
        raise ValueError("j_cut must be nonnegative")
    if table1 is None:
        from .refdata import load_table1
        table1 = load_table1()
    start = 2 if parity == "even" else 1
    needed = range(start, j_cut + 1, 2)
    missing = [j for j in needed if j not in table1]
    if missing:
        raise ValueError(f"reference table lacks rows {missing}")
    lower = Fraction(1, 2)
    for j in needed:
        if parity == "even":
            lower += Fraction(table1[j], 2 ** (3 * j // 2 + 1))
        else:
            lower += Fraction(table1[j], 2 ** (3 * (j + 1) // 2))
    # Certified tail: each discarded term is at most (1/8) * (11/12)^(k-1)
    # for even j = 2k, and (1/8) * (11/12)^k for odd j = 2k + 1.
    if parity == "even":
        k0 = j_cut // 2 + 1
        tail = Fraction(3, 2) * _DECAY ** (k0 - 1)
    else:
        k0 = (j_cut + 1) // 2
        tail = Fraction(3, 2) * _DECAY ** k0
    return ExactBracket(lower, lower + tail)


# ---------------------------------------------------------------------------
# multiplicity distribution and its limit
# ---------------------------------------------------------------------------


def mult_distribution(f: int, threads: int = 1) -> Distribution:
    """Exact distribution of f - 2m over semigroups with Frobenius number f."""
    if f < 1:
        raise ValueError("f must be at least 1")
    by_length = count_by_length(CountQuery(frobenius=f), threads)
    return Distribution.from_counts(
        {f - 2 * (length + 1): c for length, c in by_length.items()})


def limit_mult_mass(k: int, parity: str, bracket: ExactBracket) -> ExactBracket:
    """Limiting probability interval for the multiplicity deviation index k.

    For even f the event is f - 2m = 2k; for odd f it is f - 2m = 2k + 1 and
    ``bracket`` must bracket the odd constant divided by sqrt(2).  The
    interval arises from substituting the bracket ends for the constant.
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    if bracket.lower <= 0:
        raise ValueError("bracket must be positive")
    if parity == "even":
        if k == 0:
            return ExactBracket(Fraction(0), Fraction(0))
        if k < 0:
            value = Fraction(1, 2 ** (1 - k))
        else:
            value = Fraction(_stressed_count(2 * k), 2 ** (3 * k + 1))
    else:
        if k < 0:
            value = Fraction(1, 2 ** (1 - k))
        else:
            value = Fraction(_stressed_count(2 * k + 1), 2 ** (3 * k + 3))
    return ExactBracket(value / bracket.upper, value / bracket.lower)


def _stressed_count(j: int) -> int:
    return stressed3_genus_total(j)[0]


# ---------------------------------------------------------------------------
# genus distribution
# ---------------------------------------------------------------------------


class GenusStats(NamedTuple):
    distribution: Distribution
    mean_deviation: Fraction
    central_moments: tuple[Fraction, Fraction, Fraction]
    standardized: tuple[float, float, float]


def genus_stats(f: int, threads: int = 1) -> GenusStats:
    """Exact genus distribution with mean (as deviation from 3f/4) and moments.

    ``central_moments`` carries the exact second through fourth central
    moments; ``standardized`` divides them by the matching power of the
    standard deviation, as floats for reporting.  ``threads`` is the worker
    count for the histogram, as in :func:`genus_histogram`.
    """
    if f < 1:
        raise ValueError("f must be at least 1")
    hist = genus_histogram(CountQuery(frobenius=f), threads)
    dist = Distribution.from_counts(hist)
    total = dist.total
    mean = dist.mean()
    moments = []
    for power in (2, 3, 4):
        m = sum(c * (Fraction(g) - mean) ** power for g, c in dist.pairs)
        moments.append(m / total)
    mu2, mu3, mu4 = moments
    sd = float(mu2) ** 0.5
    standardized = (1.0,
                    float(mu3) / sd ** 3 if sd else 0.0,
                    float(mu4) / sd ** 4 if sd else 0.0)
    return GenusStats(dist, mean - Fraction(3 * f, 4),
                      (mu2, mu3, mu4), standardized)


def stressed3_avg_genus(j: int) -> Fraction:
    """Average genus over the stressed depth-3 words of length j."""
    if not 1 <= j <= _AVG_GENUS_GUARD:
        raise ValueError(f"j must lie in 1..{_AVG_GENUS_GUARD}")
    count, total = stressed3_genus_total(j)
    return Fraction(total, count)


# ---------------------------------------------------------------------------
# the limiting mean multiplicity and genus deviations
# ---------------------------------------------------------------------------


def mu_gamma_partial(kind: str, k_cut: int, bracket: ExactBracket) -> ExactBracket:
    """Enclosing interval for a limiting mean deviation constant.

    ``kind`` selects the series: 'mu0'/'mu1' are the limiting averages of
    m - f/2 over even/odd f, 'gamma0'/'gamma1' those of g - 3f/4.  Terms with
    index at most k_cut enter exactly (average genus included); the infinite
    remainder is enclosed using the termwise count bound together with
    j + 2 <= G_j <= 3j, and the constant's reciprocal is applied as an
    interval, so the result is a certified enclosure of the limit.

    Pass the bracket of matching parity: the even constant for 'mu0'/'gamma0',
    the odd constant already divided by sqrt(2) for 'mu1'/'gamma1'.
    """
    if kind not in ("mu0", "mu1", "gamma0", "gamma1"):
        raise ValueError("kind must be one of mu0, mu1, gamma0, gamma1")
    if k_cut < 0:
        raise ValueError("k_cut must be nonnegative")
    if bracket.lower <= 0:
        raise ValueError("bracket must be positive")
    odd = kind.endswith("1")
    if 2 * k_cut + (1 if odd else 0) > _AVG_GENUS_GUARD:
        raise ValueError("k_cut exceeds the average-genus guard")

    eighth = Fraction(1, 8)
    if not odd:
        # exact part: the closed form over m > f/2 plus terms k = 1..k_cut
        partial = Fraction(1) if kind == "mu0" else Fraction(1, 4)
        for k in range(1, k_cut + 1):
            count, genus = stressed3_genus_total(2 * k)
            mass = Fraction(count, 2 ** (3 * k + 1))
            if kind == "mu0":
                partial += mass * (-k)
            else:
                avg = Fraction(genus, count)
                partial += mass * (4 * avg - 18 * k - 6) / 4
        m0 = k_cut + 1
        geo0 = Fraction(3, 2) * _DECAY ** (m0 - 1)            # sum of bounds
        geo1 = Fraction(3, 2) * _DECAY ** (m0 - 1) * (m0 + 11)  # k-weighted
        if kind == "mu0":
            tail_lo, tail_hi = -geo1, Fraction(0)
        else:
            # coefficient (4*G - 18k - 6)/4 lies in [(1-5k)/2, (6k-6)/4]
            tail_lo = geo0 / 2 - Fraction(5, 2) * geo1
            tail_hi = Fraction(3, 2) * (geo1 - geo0)
    else:
        partial = Fraction(3, 4) if kind == "mu1" else Fraction(1, 8)
        for k in range(0, k_cut + 1):
            count, genus = stressed3_genus_total(2 * k + 1)
            mass = Fraction(count, 2 ** (3 * k + 3))
            if kind == "mu1":
                partial += mass * Fraction(-(2 * k + 1), 2)
            else:
                avg = Fraction(genus, count)
                partial += mass * (avg - Fraction(18 * k + 15, 4))
        m0 = k_cut + 1
        geo0 = Fraction(3, 2) * _DECAY ** m0
        geo1 = Fraction(3, 2) * _DECAY ** m0 * (m0 + 11)
        if kind == "mu1":
            tail_lo, tail_hi = -(geo1 + geo0 / 2), Fraction(0)
        else:
            # coefficient G - (18k + 15)/4 lies in [(-10k-3)/4, (6k-3)/4]
            tail_lo = -(10 * geo1 + 3 * geo0) / 4
            tail_hi = (6 * geo1 - 3 * geo0) / 4

    inner_lo = partial + tail_lo
    inner_hi = partial + tail_hi
    corners = [inner_lo / bracket.lower, inner_lo / bracket.upper,
               inner_hi / bracket.lower, inner_hi / bracket.upper]
    return ExactBracket(min(corners), max(corners))
