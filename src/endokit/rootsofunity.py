"""Exact scalars for eigenvalue bookkeeping: rationals and roots of unity.

A root of unity is stored by its exponent j/N in Q/Z as the reduced int pair
(j, N) with 0 <= j < N, so it hashes and compares without Fraction
arithmetic.  Inversion is exponent negation, multiplication by -1 adds 1/2,
and a Frobenius power q acts by multiplying the exponent by q; the descent
path does that orbit work on int residues modulo a common order
(``endokit.descent``).  Fractions appear only in the constructor, which
reduces an exponent to its pair, and in ``sc_key``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union


@dataclass(frozen=True, eq=False, slots=True, init=False)
class RootOfUnity:
    pair: tuple[int, int]  # the exponent j/N as (j mod N, N), reduced

    def __init__(self, exponent) -> None:
        e = Fraction(exponent) % 1
        object.__setattr__(self, "pair", (e.numerator, e.denominator))

    def __hash__(self) -> int:
        return hash(self.pair)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RootOfUnity):
            return NotImplemented
        return self.pair == other.pair

    @staticmethod
    def of(num: int, den: int) -> "RootOfUnity":
        return RootOfUnity(Fraction(num, den))

    @staticmethod
    def one() -> "RootOfUnity":
        return RootOfUnity(0)

    @staticmethod
    def minus_one() -> "RootOfUnity":
        return RootOfUnity.of(1, 2)

    @property
    def order(self) -> int:
        return self.pair[1]

    def inverse(self) -> "RootOfUnity":
        j, n = self.pair
        return RootOfUnity.of(-j, n)

    def negate(self) -> "RootOfUnity":
        j, n = self.pair
        return RootOfUnity.of(2 * j + n, 2 * n)

    @property
    def is_one(self) -> bool:
        return self.pair == (0, 1)

    @property
    def is_minus_one(self) -> bool:
        return self.pair == (1, 2)

    def __str__(self) -> str:
        return f"{self.pair[0]}/{self.pair[1]}"


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


def sc_key(x: Scalar) -> tuple:
    if type(x) is Fraction:
        return (0, x)
    if isinstance(x, RootOfUnity):
        return (1, Fraction(*x.pair))
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
    return (1, *x.pair)


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
