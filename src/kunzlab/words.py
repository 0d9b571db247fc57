"""Kunz words and the numerical semigroups they encode.

A numerical semigroup is a cofinite subset of the nonnegative integers that
contains 0 and is closed under addition.  Writing m for its smallest positive
element (the multiplicity), the semigroup is determined by its Kunz word
w_1 ... w_{m-1}: w_i is chosen so that m*w_i + i is the smallest element
congruent to i mod m.  A positive-integer word of length ell arises this way
exactly when it satisfies the two inequality families

    w_i + w_j     >= w_{i+j}          for i + j <= ell,
    w_i + w_j + 1 >= w_{i+j-ell-1}    for i + j >  ell + 1,

(indices 1-based; nothing is required at i + j = ell + 1).

Derived quantities, all exact integers: multiplicity m = ell + 1, genus
(number of gaps) = sum of the entries, depth q = max entry, Frobenius number
(largest gap) f = (ell+1)(q-1) + j where j is the last position carrying q,
conductor = f + 1.  The empty word encodes the semigroup of all nonnegative
integers (f = -1, depth 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

__all__ = [
    "CountQuery",
    "KunzWord",
    "SemigroupInvariants",
    "contains",
    "gaps_from_word",
    "invariants",
    "is_kunz",
    "is_med",
    "med_drop",
    "med_lift",
    "reduce_depth",
    "word_from_gaps",
]

GapSet = frozenset  # finite set of positive integers missing from the semigroup


@dataclass(frozen=True)
class SemigroupInvariants:
    """Exact numeric invariants of one numerical semigroup."""

    multiplicity: int
    genus: int
    depth: int
    frobenius: int
    conductor: int

    @property
    def gap_count(self) -> int:
        return self.genus


class KunzWord(tuple):
    """Immutable positive-integer word; index k holds w_{k+1}.

    Construction validates positivity only.  Whether the word actually
    satisfies the Kunz inequalities is a separate question (`is_kunz`), so
    invalid words can still be built and inspected by tests.
    """

    def __new__(cls, entries: Iterable[int] = ()) -> "KunzWord":
        tup = tuple(entries)
        for value in tup:
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"word entries must be positive integers, got {value!r}")
        return super().__new__(cls, tup)

    @classmethod
    def from_text(cls, text: str) -> "KunzWord":
        """Parse the canonical comma-separated form; a bare digit string is
        accepted as shorthand when every entry is a single digit."""
        text = text.strip()
        if not text:
            return cls()
        if "," in text:
            parts = [p.strip() for p in text.split(",")]
        elif text.isdigit():
            parts = list(text)
        else:
            raise ValueError(f"cannot parse word from {text!r}")
        try:
            return cls(int(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"cannot parse word from {text!r}") from exc

    def to_text(self) -> str:
        return ",".join(str(v) for v in self)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"KunzWord({self.to_text()!r})"

    @property
    def length(self) -> int:
        return len(self)

    @property
    def multiplicity(self) -> int:
        return len(self) + 1

    @property
    def genus(self) -> int:
        return sum(self)

    @property
    def depth(self) -> int:
        return max(self) if self else 0

    @property
    def frobenius(self) -> int:
        if not self:
            return -1
        q = max(self)
        j = len(self) - self[::-1].index(q)  # the last position holding q
        return (len(self) + 1) * (q - 1) + j

    @property
    def conductor(self) -> int:
        return self.frobenius + 1

    @property
    def stressed(self) -> bool:
        """True when the last entry carries the maximum (largest possible
        Frobenius number for this length and depth)."""
        return bool(self) and self[-1] == max(self)


def invariants(word: Sequence[int]) -> SemigroupInvariants:
    if not isinstance(word, KunzWord):
        word = KunzWord(word)
    frobenius = word.frobenius
    return SemigroupInvariants(
        multiplicity=word.multiplicity,
        genus=word.genus,
        depth=word.depth,
        frobenius=frobenius,
        conductor=frobenius + 1,
    )


def _holds(w: tuple[int, ...], c: int) -> bool:
    """Both inequality families with c added to the left side: every direct
    sum w_i + w_j + c above w_{i+j}, and every wrapped one w_i + w_j + c + 1
    above w_{i+j-ell-1}."""
    ell = len(w)
    for i in range(1, ell + 1):
        wi = w[i - 1] + c
        for j in range(i, ell + 1):
            s = i + j
            if s <= ell:
                if wi + w[j - 1] <= w[s - 1]:
                    return False
            elif s > ell + 1:
                if wi + w[j - 1] + 1 <= w[s - ell - 2]:
                    return False
    return True


def is_kunz(word: Sequence[int]) -> bool:
    """Check both Kunz inequality families.  Total: never raises on
    positive-entry words."""
    return _holds(tuple(word), 1)


def is_med(word: Sequence[int]) -> bool:
    """Maximal embedding dimension test: the strict versions of both Kunz
    inequality families.  Strictness implies the word is Kunz."""
    return _holds(tuple(word), 0)


def contains(word: Sequence[int], n: int) -> bool:
    """Membership of n in the semigroup encoded by the word."""
    if n < 0:
        return False
    w = tuple(word)
    m = len(w) + 1
    r = n % m
    return r == 0 or w[r - 1] <= n // m


def gaps_from_word(word: Sequence[int]) -> GapSet:
    """Gap set of the encoded semigroup: class i contributes i, m+i, ...,
    m(w_i - 1) + i.  Raises on a word failing the Kunz inequalities."""
    w = KunzWord(word)
    if not is_kunz(w):
        raise ValueError(f"not a Kunz word: {w}")
    m = w.multiplicity
    return frozenset(m * k + i for i in range(1, m) for k in range(w[i - 1]))


def word_from_gaps(gaps: Iterable[int]) -> KunzWord:
    """Inverse of `gaps_from_word`.  Raises with a diagnostic if the
    complement of the given set is not closed under addition."""
    gap_set = frozenset(gaps)
    for g in gap_set:
        if not isinstance(g, int) or isinstance(g, bool) or g < 1:
            raise ValueError(f"gaps must be positive integers, got {g!r}")
    if not gap_set:
        return KunzWord()
    top = max(gap_set)
    elements = [n for n in range(top + 1) if n not in gap_set]
    for a in elements:
        if a == 0:
            continue
        for b in elements:
            if b < a:
                continue
            if a + b <= top and (a + b) in gap_set:
                raise ValueError(
                    f"complement not closed under addition: {a} + {b} = {a + b} is a gap"
                )
    m = next(n for n in range(1, top + 2) if n not in gap_set)
    entries = []
    for i in range(1, m):
        n = i
        while n in gap_set:
            n += m
        entries.append(n // m)
    return KunzWord(entries)


def reduce_depth(word: Sequence[int]) -> KunzWord:
    """Entrywise min with depth-1: maps a valid word of depth q to a valid
    word of depth q-1 (depth-reduction map)."""
    w = KunzWord(word)
    q = w.depth
    if q < 2:
        raise ValueError("depth reduction needs a word of depth >= 2")
    if not is_kunz(w):
        raise ValueError(f"not a Kunz word: {w}")
    return KunzWord(min(q - 1, v) for v in w)


def med_lift(gaps: Iterable[int], m: int) -> GapSet:
    """Gap set of {0} union (m + S), where S is the semigroup with the given
    gaps.  Requires m in S and m >= 2 (or m = 1 with S trivial); the result
    is a maximal-embedding-dimension semigroup of multiplicity m."""
    gap_set = frozenset(gaps)
    word_from_gaps(gap_set)  # validates the gap set
    if m in gap_set or m < 1:
        raise ValueError(f"lift multiplicity {m} must belong to the semigroup")
    if m == 1 and gap_set:
        raise ValueError("multiplicity-1 lift only exists for the trivial semigroup")
    return frozenset(range(1, m)) | frozenset(m + g for g in gap_set)


def med_drop(gaps: Iterable[int]) -> tuple[GapSet, int]:
    """Inverse of `med_lift`: strip the multiplicity m off a
    maximal-embedding-dimension semigroup, returning (gaps of S, m) with
    S = (semigroup minus 0) shifted down by m."""
    gap_set = frozenset(gaps)
    word = word_from_gaps(gap_set)
    if not is_med(word):
        raise ValueError("med_drop requires a maximal-embedding-dimension semigroup")
    m = word.multiplicity
    return frozenset(g - m for g in gap_set if g > m), m


@dataclass(frozen=True)
class CountQuery:
    """Constraint bundle for enumeration and counting.

    Any combination may be given; a query is finite (enumerable) when either
    the Frobenius number is pinned or both a length and a depth bound are.
    `contains` lists elements the semigroup must include.  `stressed`
    restricts to words whose last entry equals `depth_exact` (and therefore
    requires it).  Inconsistent combinations (e.g. a Frobenius number not
    attainable at the given length/depth) simply match nothing.
    """

    frobenius: int | None = None
    length: int | None = None
    depth_exact: int | None = None
    depth_max: int | None = None
    stressed: bool = False
    med: bool = False
    contains: tuple[int, ...] = ()

    def __post_init__(self):
        if isinstance(self.contains, int):
            object.__setattr__(self, "contains", (self.contains,))
        else:
            object.__setattr__(self, "contains", tuple(self.contains))
        if self.depth_exact is not None and self.depth_max is not None:
            raise ValueError("give at most one of depth_exact / depth_max")
        if self.stressed and self.depth_exact is None:
            raise ValueError("stressed requires depth_exact")
        for name in ("frobenius", "length", "depth_exact", "depth_max"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, int):
                raise ValueError(f"{name} must be an int or None")
        if self.depth_exact is not None and self.depth_exact < 1:
            raise ValueError("depth_exact must be >= 1")
        if self.depth_max is not None and self.depth_max < 1:
            raise ValueError("depth_max must be >= 1")

    @property
    def is_finite(self) -> bool:
        if self.frobenius is not None:
            return True
        return self.length is not None and (
            self.depth_exact is not None or self.depth_max is not None
        )

    def matches(self, word: Sequence[int]) -> bool:
        """Membership test used for cross-checking the enumeration engine."""
        w = KunzWord(word)
        if not w or not is_kunz(w):
            return False  # the empty word (trivial semigroup) is never counted
        if self.length is not None and w.length != self.length:
            return False
        if self.frobenius is not None and w.frobenius != self.frobenius:
            return False
        if self.depth_exact is not None and w.depth != self.depth_exact:
            return False
        if self.depth_max is not None and w.depth > self.depth_max:
            return False
        if self.stressed and not (w and w[-1] == self.depth_exact):
            return False
        if self.med and not is_med(w):
            return False
        return all(contains(w, n) for n in self.contains)
