"""Exact arithmetic in the ring of integer Laurent polynomials Z[t, t^-1].

Elements are stored sparsely as {exponent: coefficient} maps with no zero
coefficients; the empty map is the zero polynomial. Coefficients are
unbounded Python integers. The ring carries the involution t -> t^-1,
and its units are exactly the monomials +-t^k. Equality up to units
("association") is decided through a canonical associate: minimum
exponent zero, positive coefficient at exponent zero.

Values are immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional


@dataclass(frozen=True)
class UnitWitness:
    """The unit sign * t^exponent, with sign in {+1, -1}."""

    sign: int
    exponent: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError(f"unit sign must be +1 or -1, got {self.sign!r}")

    def involve(self) -> UnitWitness:
        return UnitWitness(self.sign, -self.exponent)

    def as_poly(self) -> LaurentPoly:
        return LaurentPoly({self.exponent: self.sign})


class LaurentPoly:
    """A Laurent polynomial with integer coefficients.

    Supports +, -, * (with int coercion), ** for nonnegative powers, the
    involution t -> t^-1, unit recognition, canonical associates, the
    augmentation map t -> 1, and exact division.
    """

    __slots__ = ("_coeffs", "_terms", "_token")

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] | None = None):
        data: dict[int, int] = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
            for e, c in items:
                if not isinstance(e, int) or not isinstance(c, int):
                    raise TypeError("exponents and coefficients must be integers")
                if c != 0:
                    data[e] = data.get(e, 0) + c
                    if data[e] == 0:
                        del data[e]
        self._coeffs = data
        self._terms: tuple[tuple[int, int], ...] | None = None
        self._token: str | None = None

    # -- basic structure ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coeff(self, exponent: int) -> int:
        return self._coeffs.get(exponent, 0)

    def terms(self) -> tuple[tuple[int, int], ...]:
        """Sorted (exponent, coefficient) pairs."""
        if self._terms is None:
            self._terms = tuple(sorted(self._coeffs.items()))
        return self._terms

    def support(self) -> tuple[int, ...]:
        return tuple(e for e, _ in self.terms())

    def min_exponent(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no exponents")
        return self.terms()[0][0]

    def max_exponent(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no exponents")
        return self.terms()[-1][0]

    # -- ring operations ------------------------------------------------

    def __add__(self, other) -> LaurentPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._coeffs:
            return self
        if not self._coeffs:
            return other
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return _raw(out)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return _raw({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other) -> LaurentPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> LaurentPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> LaurentPoly:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._coeffs or not other._coeffs:
            return ZERO
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return _raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPoly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are supported")
        result = ONE
        for _ in range(n):
            result = result * self
        return result

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    # -- involution and augmentation -------------------------------------

    def involve(self) -> LaurentPoly:
        """The involution t -> t^-1 (a self-inverse ring automorphism)."""
        return _raw({-e: c for e, c in self._coeffs.items()})

    def augment(self) -> int:
        """Evaluation at t = 1; a ring homomorphism to Z."""
        return sum(self._coeffs.values())

    # -- units and associates ---------------------------------------------

    def is_unit(self) -> Optional[UnitWitness]:
        """Return the witness if this is +-t^k, else None."""
        if len(self._coeffs) != 1:
            return None
        (e, c), = self._coeffs.items()
        if c not in (1, -1):
            return None
        return UnitWitness(c, e)

    def normalize_associate(self) -> tuple[LaurentPoly, UnitWitness]:
        """Canonical associate and the unit u with self = u * canonical.

        The canonical representative has minimum exponent 0 and positive
        coefficient there; zero normalizes to (0, +t^0).
        """
        if self.is_zero:
            return ZERO, UnitWitness(1, 0)
        m, c = self.terms()[0]
        sign = 1 if c > 0 else -1
        canonical = _raw({e - m: sign * k for e, k in self._coeffs.items()})
        return canonical, UnitWitness(sign, m)

    def divide_exact(self, divisor: LaurentPoly) -> Optional[LaurentPoly]:
        """Return q with self = divisor * q if q exists in the ring, else None.

        The quotient is unique when it exists since the ring is a domain.
        """
        if not isinstance(divisor, LaurentPoly):
            raise TypeError("divisor must be a LaurentPoly")
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return ZERO
        # Shift both operands to ordinary polynomials with nonzero constant
        # term, long-divide over Z, and shift the quotient back.
        a = self.min_exponent()
        b = divisor.min_exponent()
        num = _dense(self, a)
        den = _dense(divisor, b)
        quot = [0] * (len(num) - len(den) + 1) if len(num) >= len(den) else None
        if quot is None:
            return None
        rem = list(num)
        lead = den[-1]
        top = len(rem) - 1
        while top >= len(den) - 1:
            while top >= 0 and rem[top] == 0:
                top -= 1
            if top < len(den) - 1:
                break
            if rem[top] % lead != 0:
                return None
            c = rem[top] // lead
            pos = top - (len(den) - 1)
            quot[pos] = c
            for k, d in enumerate(den):
                rem[pos + k] -= c * d
        if any(rem):
            return None
        return _raw({a - b + k: c for k, c in enumerate(quot) if c})

    # -- identity, ordering keys, serialization ---------------------------

    def token(self) -> str:
        """Canonical compact encoding; the empty string encodes zero.

        Zero sorting before every nonzero entry is relied on by the
        search module's frontier ordering.
        """
        if self._token is None:
            self._token = ",".join(f"{e}:{c}" for e, c in self.terms())
        return self._token

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        # The exponents and coefficients doubled: CPython hashes -1 like -2,
        # and an even int hashes to itself up to 2^61, so small polynomials
        # hash distinctly. Ints, not strings, keep the hash independent of
        # PYTHONHASHSEED.
        return hash(tuple([2 * x for term in self.terms() for x in term]))

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self.terms())!r})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for e, c in self.terms():
            mono = "1" if e == 0 else ("t" if e == 1 else f"t^{e}")
            body = mono if abs(c) == 1 and e != 0 else (
                str(abs(c)) if e == 0 else f"{abs(c)}*{mono}")
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def to_json(self) -> dict:
        return {str(e): str(c) for e, c in self.terms()}

    @classmethod
    def from_json(cls, obj) -> LaurentPoly:
        if not isinstance(obj, dict):
            raise ValueError("polynomial must be an object mapping exponents to coefficients")
        data = {}
        for e, c in obj.items():
            try:
                data[int_from_json(e, "exponent")] = int_from_json(c, "coefficient")
            except ValueError:
                raise ValueError(f"bad polynomial term {e!r}: {c!r}") from None
        return cls(data)


def int_from_json(value, name: str) -> int:
    """An integer given as a decimal string (an optional ASCII sign, then
    ASCII digits) or a JSON integer.

    A bool, a float, null or any other type raises ValueError: a bare
    int() would truncate 1.5 to 1 and read true as 1. So does any other
    string that int() reads, such as "1_000", " 7 " or non-ASCII digits.
    """
    if type(value) is int:  # not bool, whose type is a subclass of int
        return value
    # Of strings made of signs and ASCII digits only, int() reads exactly
    # an optional sign followed by digits: it refuses "", "+", "--1", "1-"
    # and more digits than it converts.
    if type(value) is str and not value.strip("+-0123456789"):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _raw(coeffs: dict[int, int]) -> LaurentPoly:
    # Internal constructor for already-pruned maps.
    p = LaurentPoly()
    p._coeffs = coeffs
    return p


def _coerce(x):
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, int):
        return LaurentPoly({0: x})
    return NotImplemented


def _dense(p: LaurentPoly, shift: int) -> list[int]:
    # Coefficient list of t^-shift * p, low to high.
    top = p.max_exponent() - shift
    out = [0] * (top + 1)
    for e, c in p._coeffs.items():
        out[e - shift] = c
    return out


def iota(n: int) -> LaurentPoly:
    """The unique ring homomorphism Z -> Z[t, t^-1] (constant polynomials)."""
    if not isinstance(n, int):
        raise TypeError("iota takes an integer")
    return LaurentPoly({0: n})


def assoc_eq(p: LaurentPoly, q: LaurentPoly) -> bool:
    """Equality up to units +-t^k, via canonical associates."""
    return p.normalize_associate()[0] == q.normalize_associate()[0]


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
T = LaurentPoly({1: 1})
T_INV = LaurentPoly({-1: 1})
ONE_MINUS_T = LaurentPoly({0: 1, 1: -1})
ONE_MINUS_T_INV = LaurentPoly({0: 1, -1: -1})
