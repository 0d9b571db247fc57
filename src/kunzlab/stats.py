"""Exact multiplicity/genus distributions and rational brackets for their limits.

Finite-Frobenius distributions come straight from the enumeration engine and
are exact: masses are integer counts, probabilities exact rationals.

The limiting constants are irrational and known only through series, one for
each parity r of f, over the stressed lengths j = 2 - r, 4 - r, ...:

    head + sum_j st(j) * w(j) * c(j),    w(j) = 2^-floor((3j+3)/2),

where st(j) counts the stressed depth-3 words of length j and c(j) is 1 for
Backelin's constants, -j/2 for the mean multiplicity deviation and
avg(j) - (9j+6)/4 for the mean genus deviation, avg(j) being the average
genus of those words.  The refined termwise bound
st(j) <= 2^floor((3j-3)/2) * (11/12)^floor((j-1)/2) gives
st(j) * w(j) <= (1/8) * (11/12)^floor((j-1)/2), so the terms from a length
``first`` on sum to at most S0 = (3/2) * (11/12)^floor((first-1)/2), and j
times them to at most S1 = (first + 22) * S0.  Each constant is bracketed
between exact rationals -- the partial sum plus the tail certified from S0
and S1 at either end -- so comparisons against the brackets are decided in
rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, ceil
from typing import NamedTuple

from .enumeration import (count_by_length, count_stressed3, genus_histogram,
                          stressed3_genus_total)
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

_DECAY = Fraction(11, 12)  # per-step factor of the refined termwise bound
_AVG_GENUS_GUARD = 28      # largest head length the average-genus scan accepts
_PARITIES = ("even", "odd")
_MU_GAMMA_HEADS = {"mu0": Fraction(1), "mu1": Fraction(3, 4),
                   "gamma0": Fraction(1, 4), "gamma1": Fraction(1, 8)}


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
# the stressed series, and the two limiting constants from the reference table
# ---------------------------------------------------------------------------


def _parity(parity: str) -> int:
    """The parity r of f: 0 for 'even', 1 for 'odd'."""
    if parity not in _PARITIES:
        raise ValueError("parity must be 'even' or 'odd'")
    return _PARITIES.index(parity)


def _weight(j: int) -> Fraction:
    """w(j) = 2^-floor((3j+3)/2), the weight of the stressed length j."""
    return Fraction(1, 2 ** ((3 * j + 3) // 2))


def _series(head: Fraction, lengths: range, st, c,
            lo, hi) -> tuple[Fraction, Fraction]:
    """Lower and upper ends of head + sum_j st(j) * w(j) * c(j) over all j.

    ``lengths`` are the lengths summed exactly; the tail from the next length
    ``first`` on is enclosed by alpha * S0 + beta * S1, with (alpha, beta)
    from ``lo`` and from ``hi``.  That is certified when alpha + beta * j
    bounds c(j) from below (``lo``) or above (``hi``) on every tail length
    and keeps the sign of the end it gives: at most 0 below, at least 0 above.
    """
    partial = head + sum(st(j) * _weight(j) * c(j) for j in lengths)
    first = lengths.start + 2 * len(lengths)
    s0 = Fraction(3, 2) * _DECAY ** ((first - 1) // 2)
    s1 = (first + 22) * s0
    return partial + lo[0] * s0 + lo[1] * s1, partial + hi[0] * s0 + hi[1] * s1


def backelin_bracket(parity: str, j_cut: int = 56, table1=None) -> ExactBracket:
    """Bracket the limiting ratio count(f) / 2^(f/2) for one parity of f.

    For even f the bracketed constant is the limit itself; for odd f it is
    the limit divided by sqrt(2), which makes every series term a dyadic
    rational.  The series has head 1/2 and c(j) = 1; the lower end sums it
    through j_cut using only reference-table counts, the upper end adds S0.
    """
    r = _parity(parity)
    if j_cut < 0:
        raise ValueError("j_cut must be nonnegative")
    if table1 is None:
        from .refdata import load_table1
        table1 = load_table1()
    lengths = range(2 - r, j_cut + 1, 2)
    missing = [j for j in lengths if j not in table1]
    if missing:
        raise ValueError(f"reference table lacks rows {missing}")
    return ExactBracket(*_series(Fraction(1, 2), lengths, table1.__getitem__,
                                 lambda j: 1, (0, 0), (1, 0)))


# ---------------------------------------------------------------------------
# multiplicity distribution and its limit
# ---------------------------------------------------------------------------


def mult_distribution(f: int) -> Distribution:
    """Exact distribution of f - 2m over semigroups with Frobenius number f."""
    if f < 1:
        raise ValueError("f must be at least 1")
    by_length = count_by_length(CountQuery(frobenius=f))
    return Distribution.from_counts(
        {f - 2 * (length + 1): c for length, c in by_length.items()})


def limit_mult_mass(k: int, parity: str, bracket: ExactBracket) -> ExactBracket:
    """Limiting probability interval for the multiplicity deviation index k.

    For even f the event is f - 2m = 2k; for odd f it is f - 2m = 2k + 1 and
    ``bracket`` must bracket the odd constant divided by sqrt(2).  The mass
    is 2^(k-1) for k < 0 and the series term st(j) * w(j) of j = 2k + r
    otherwise (zero for even f at k = 0); dividing it by the bracket ends
    gives the interval.
    """
    r = _parity(parity)
    if bracket.lower <= 0:
        raise ValueError("bracket must be positive")
    j = 2 * k + r
    if k < 0:
        value = Fraction(1, 2 ** (1 - k))
    else:
        value = count_stressed3(j) * _weight(j) if j else Fraction(0)
    return ExactBracket(value / bracket.upper, value / bracket.lower)


# ---------------------------------------------------------------------------
# genus distribution
# ---------------------------------------------------------------------------


class GenusStats(NamedTuple):
    distribution: Distribution
    mean_deviation: Fraction
    central_moments: tuple[Fraction, Fraction, Fraction]
    standardized: tuple[float, float, float]


def genus_stats(f: int) -> GenusStats:
    """Exact genus distribution with mean (as deviation from 3f/4) and moments.

    ``central_moments`` carries the exact second through fourth central
    moments; ``standardized`` divides them by the matching power of the
    standard deviation, as floats for reporting.
    """
    if f < 1:
        raise ValueError("f must be at least 1")
    hist = genus_histogram(CountQuery(frobenius=f))
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
    m - f/2 over even/odd f, 'gamma0'/'gamma1' those of g - 3f/4.  Lengths
    j = 2k + r with k at most k_cut enter exactly (average genus included).
    The tail is enclosed through c(j) in [-j/2, 0] for mu and, from
    j + 2 <= avg(j) <= 3j, in [(2-5j)/4, (3j-6)/4] for gamma; the constant's
    reciprocal is applied as an interval, so the result is a certified
    enclosure of the limit.

    Pass the bracket of matching parity: the even constant for 'mu0'/'gamma0',
    the odd constant already divided by sqrt(2) for 'mu1'/'gamma1'.
    """
    if kind not in _MU_GAMMA_HEADS:
        raise ValueError("kind must be one of mu0, mu1, gamma0, gamma1")
    if k_cut < 0:
        raise ValueError("k_cut must be nonnegative")
    if bracket.lower <= 0:
        raise ValueError("bracket must be positive")
    r = int(kind[-1])
    last = 2 * k_cut + r
    if last > _AVG_GENUS_GUARD:
        raise ValueError("k_cut exceeds the average-genus guard")
    lengths = range(2 - r, last + 1, 2)
    head = _MU_GAMMA_HEADS[kind]
    if kind.startswith("mu"):
        inner_lo, inner_hi = _series(head, lengths, count_stressed3,
                                     lambda j: Fraction(-j, 2),
                                     (0, Fraction(-1, 2)), (0, 0))
    else:
        inner_lo, inner_hi = _series(
            head, lengths, count_stressed3,
            lambda j: stressed3_avg_genus(j) - Fraction(9 * j + 6, 4),
            (Fraction(1, 2), Fraction(-5, 4)),
            (Fraction(-3, 2), Fraction(3, 4)))
    corners = [inner_lo / bracket.lower, inner_lo / bracket.upper,
               inner_hi / bracket.lower, inner_hi / bracket.upper]
    return ExactBracket(min(corners), max(corners))
