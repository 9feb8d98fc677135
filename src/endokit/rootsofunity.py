"""Exact scalars for eigenvalue bookkeeping: rationals and roots of unity.

A root of unity is stored by its exponent in Q/Z, so inversion is exponent
negation, multiplication by -1 adds 1/2, and a Frobenius power q acts by
multiplying the exponent by q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union


@dataclass(frozen=True, eq=False)
class RootOfUnity:
    exponent: Fraction

    def __post_init__(self) -> None:
        e = Fraction(self.exponent) % 1
        object.__setattr__(self, "exponent", e)

    # Fraction hashing runs a modular inverse; exponents are consumed by
    # dict-heavy orbit bookkeeping, so hash the reduced pair directly.
    def __hash__(self) -> int:
        return hash((self.exponent.numerator, self.exponent.denominator))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RootOfUnity):
            return NotImplemented
        return self.exponent == other.exponent

    @staticmethod
    def of(num: int, den: int) -> "RootOfUnity":
        return RootOfUnity(Fraction(num, den))

    @staticmethod
    def one() -> "RootOfUnity":
        return RootOfUnity(Fraction(0))

    @staticmethod
    def minus_one() -> "RootOfUnity":
        return RootOfUnity(Fraction(1, 2))

    @property
    def order(self) -> int:
        return self.exponent.denominator

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity(-self.exponent)

    def negate(self) -> "RootOfUnity":
        return RootOfUnity(self.exponent + Fraction(1, 2))

    @property
    def is_one(self) -> bool:
        return self.exponent == 0

    @property
    def is_minus_one(self) -> bool:
        return self.exponent == Fraction(1, 2)

    def __str__(self) -> str:
        return f"{self.exponent.numerator}/{self.exponent.denominator}"


Scalar = Union[Fraction, RootOfUnity]


def as_scalar(x) -> Scalar:
    """Coerce to an exact scalar.  Zero is legal only in additive multisets."""
    if type(x) is Fraction or isinstance(x, RootOfUnity):
        return x
    return Fraction(x)


def sc_inv(x: Scalar) -> Scalar:
    if type(x) is Fraction:
        return Fraction(x.denominator, x.numerator)
    if isinstance(x, RootOfUnity):
        return x.inverse()
    return Fraction(1) / x


def sc_neg(x: Scalar) -> Scalar:
    if isinstance(x, RootOfUnity):
        return x.negate()
    return -x


def sc_is_one(x: Scalar) -> bool:
    if isinstance(x, RootOfUnity):
        return x.is_one
    return x == 1


def sc_is_minus_one(x: Scalar) -> bool:
    if isinstance(x, RootOfUnity):
        return x.is_minus_one
    return x == -1


def sc_key(x: Scalar) -> tuple:
    if type(x) is Fraction:
        return (0, x)
    if isinstance(x, RootOfUnity):
        return (1, x.exponent)
    return (0, x)


ExactKey = tuple[int, int, int]

# exact keys of +1 and -1, rational and root-of-unity forms
ONE_KEYS = frozenset({(0, 1, 1), (1, 0, 1)})
MINUS_ONE_KEYS = frozenset({(0, -1, 1), (1, 1, 2)})


def sc_exact_key(x: Scalar) -> ExactKey:
    """Exact hashable key of a scalar: (0, num, den) for a rational and
    (1, j, N) for the root of unity with exponent j/N.  Hashing it avoids
    the modular inverse that hashing a Fraction runs."""
    if type(x) is Fraction:
        return (0, x.numerator, x.denominator)
    e = x.exponent
    return (1, e.numerator, e.denominator)


def sc_inv_exact_key(key: ExactKey) -> ExactKey:
    """Exact key of the inverse of a nonzero scalar, from its own key."""
    kind, num, den = key
    if kind == 0:
        return (0, den, num) if num > 0 else (0, -den, -num)
    return (1, -num % den, den)


def sc_str(x: Scalar) -> str:
    if isinstance(x, RootOfUnity):
        return f"zeta({x})"
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
