"""Finitely supported exact-rational functions on the integer lattice.

Scalars are `fractions.Fraction` throughout: arbitrary-precision, always in
lowest terms, with exact comparisons.  No floating point enters any norm or
sign decision.  Functions are stored as a contiguous block of values together
with the index of the first stored value; the first and last stored values
are kept nonzero, so equality of values is equality of functions.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import index, lt
from typing import Iterable, Iterator, Union

Scalar = Union[int, Fraction]

__all__ = [
    "IndexSet",
    "LatticeFunction",
    "forward_difference",
    "lp_norm",
]

_EXACT = {int, Fraction}                   # the scalar types a function accepts


# ---------------------------------------------------------------------------
# Finite sets of integers
# ---------------------------------------------------------------------------

_BITS = bytes.maketrans(b"01", b"\0\1")      # a binary digit to the bit it stands for

@dataclass(frozen=True)
class IndexSet:
    """A finite set of integers, kept as a strictly increasing tuple.

    The equivalent bitmask form (``base``, ``bits``) is exposed for the
    enumeration harness: bit ``i`` of ``bits`` is set iff ``base + i`` is an
    element.  Python integers act as the unbounded word sequence.
    """

    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        elements = self.elements
        if type(elements) is not tuple:     # a list would be unhashable and unequal
            elements = tuple(elements)
            object.__setattr__(self, "elements", elements)
        if not ({int}.issuperset(map(type, elements)) and all(map(lt, elements, elements[1:]))):
            raise ValueError("elements must be strictly increasing integers")

    @classmethod
    def from_iterable(cls, items: Iterable[int]) -> "IndexSet":
        """The set of ``items``; :func:`operator.index` rejects floats, `Fraction`s and strings."""
        return cls(tuple(sorted(set(map(index, items)))))

    @classmethod
    def from_mask(cls, bits: int, base: int = 0) -> "IndexSet":
        if bits < 0:
            raise ValueError("bitmask must be nonnegative")
        return cls(_bit_positions(bits, base))

    @property
    def base(self) -> int:
        return self.elements[0] if self.elements else 0

    @property
    def bits(self) -> int:
        b = self.base
        return sum([1 << (x - b) for x in self.elements])

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, n: object) -> bool:
        try:
            i = bisect_left(self.elements, n)
        except TypeError:               # not comparable with integers
            return False
        return i < len(self.elements) and self.elements[i] == n

    def __bool__(self) -> bool:
        return bool(self.elements)

    def min(self) -> int:
        if not self.elements:
            raise ValueError("empty set has no minimum")
        return self.elements[0]

    def max(self) -> int:
        if not self.elements:
            raise ValueError("empty set has no maximum")
        return self.elements[-1]

    def translate(self, t: int) -> "IndexSet":
        return IndexSet(tuple(x + t for x in self.elements))

    def reflect(self) -> "IndexSet":
        return IndexSet(tuple(-x for x in reversed(self.elements)))


def _bit_positions(bits: int, base: int = 0) -> tuple[int, ...]:
    """The positions base + i of the set bits i of ``bits`` >= 0, increasing:
    ``IndexSet.from_mask(bits, base).elements``, without the constructor's checks."""
    digits = bin(bits)[:1:-1].encode().translate(_BITS)    # bit i at index i
    return tuple(list(compress(range(base, base + len(digits)), digits)))


# ---------------------------------------------------------------------------
# Lattice functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeFunction:
    """f: Z -> Q with finite support, zero outside the stored block.

    ``values[i]`` is f(offset + i).  Canonical form: if any value is nonzero,
    the first and the last stored values are nonzero; the zero function is
    stored as ``offset=0, values=()``.  Construct through :meth:`make` (or
    :meth:`from_set`), which trims and turns ints into `Fraction`s; the raw
    constructor trusts its caller.  Values and scale factors must be ints or
    `Fraction`s: a float, a string, a `Decimal` or a bool raises TypeError,
    so nothing inexact or parsed enters.
    """

    offset: int
    values: tuple[Fraction, ...]

    @classmethod
    def make(cls, offset: int, values: Iterable[Scalar]) -> "LatticeFunction":
        vals = list(values)
        if not _EXACT.issuperset(map(type, vals)):
            raise TypeError("function values must be ints or Fractions")
        vals = [Fraction(v) for v in vals]
        lo = 0
        hi = len(vals)
        while lo < hi and vals[lo] == 0:
            lo += 1
        while hi > lo and vals[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            return cls(0, ())
        return cls(offset + lo, tuple(vals[lo:hi]))

    @classmethod
    def from_set(cls, a: IndexSet) -> "LatticeFunction":
        """Characteristic function of ``a`` (the zero function for empty ``a``)."""
        if not a:
            return cls(0, ())
        lo, hi = a.min(), a.max()
        vals = [0] * (hi - lo + 1)
        for x in a:
            vals[x - lo] = 1
        return cls.make(lo, vals)

    def is_zero(self) -> bool:
        return not self.values

    def value_at(self, n: int) -> Fraction:
        i = n - self.offset
        if 0 <= i < len(self.values):
            return self.values[i]
        return Fraction(0)

    def support_min(self) -> int:
        if self.is_zero():
            raise ValueError("zero function has no support")
        return self.offset

    def support_max(self) -> int:
        if self.is_zero():
            raise ValueError("zero function has no support")
        return self.offset + len(self.values) - 1

    def support(self) -> IndexSet:
        return IndexSet(tuple(self.offset + i
                              for i, v in enumerate(self.values) if v != 0))

    def __abs__(self) -> "LatticeFunction":
        return LatticeFunction(self.offset, tuple(abs(v) for v in self.values))

    def scale(self, c: Scalar) -> "LatticeFunction":
        if type(c) not in _EXACT:
            raise TypeError("a scale factor must be an int or a Fraction")
        c = Fraction(c)
        if c == 0:
            return LatticeFunction(0, ())
        return LatticeFunction(self.offset, tuple(c * v for v in self.values))


# ---------------------------------------------------------------------------
# Discrete derivatives and norms
# ---------------------------------------------------------------------------

def forward_difference(f: LatticeFunction, k: int = 1) -> LatticeFunction:
    """k-th forward difference; for k=1, g(n) = f(n+1) - f(n).

    Higher orders are the k-fold iterate, so g = sum_j C(k,j)(-1)^(k-j) f(.+j).
    k = 0 is rejected: the identity map is not a derivative.
    """
    if k < 1:
        raise ValueError("difference order k must be >= 1")
    g = f
    for _ in range(k):
        if g.is_zero():
            return g
        vals = [Fraction(0)] * (len(g.values) + 1)
        for i, v in enumerate(g.values):
            vals[i] += v        # g(n+1) term, at n = offset - 1 + i
            vals[i + 1] -= v    # -g(n) term
        g = LatticeFunction.make(g.offset - 1, vals)
    return g


def lp_norm(f: LatticeFunction, p) -> Fraction:
    """l^p norm of ``f`` for p = 1 or p = infinity, exactly (Fraction).

    Any other p raises ValueError: such norms are irrational in general,
    and nothing here may feed an inexact value into an exact comparison.
    """
    if p == math.inf:
        return max((abs(v) for v in f.values), default=Fraction(0))
    if p == 1:
        return sum((abs(v) for v in f.values), Fraction(0))
    raise ValueError("norm exponent p must be 1 or infinity")
