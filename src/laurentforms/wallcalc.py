"""The Wall self-intersection calculus for immersed surfaces.

Self-intersection values live in the quotient of the additive group of
Z[t, t^-1] identifying t^r with t^-r. A surface is modeled by its list of
intersection events together with the Euler number e of its normal
bundle; an event of sign s and exponent k contributes s t^k times a
fixed polynomial of its kind, written out as (shift, coefficient) terms:

    generic_double_point    1                    (0, 1)
    torus_piercing          1-t                  (0, 1), (1, -1)
    disc_self_intersection  (1-t)(1-t^-1)        (-1, -1), (0, 2), (1, -1)

mu folds each event's terms of `CONTRIBUTIONS` onto |k + shift|. The
homological self-pairing is lambda = mu + mu~ + iota(e), computed by
lifting the quotient class symmetrically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .laurent import LaurentPoly, int_from_json, iota
from .forms import solve_hermitian_zero_aug

GENERIC_DOUBLE_POINT = "generic_double_point"
TORUS_PIERCING = "torus_piercing"
DISC_SELF_INTERSECTION = "disc_self_intersection"

# kind -> the (shift, coefficient) terms of its contribution at t^k, sign +1
CONTRIBUTIONS: Mapping[str, tuple[tuple[int, int], ...]] = {
    GENERIC_DOUBLE_POINT: ((0, 1),),
    TORUS_PIERCING: ((0, 1), (1, -1)),
    DISC_SELF_INTERSECTION: ((-1, -1), (0, 2), (1, -1)),
}


class WallClass:
    """An element of the quotient group identifying t^r with t^-r.

    Stored as a finite map from nonnegative r to a nonzero integer
    coefficient of the class [t^r].
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        data: dict[int, int] = {}
        if coeffs:
            for r, c in coeffs.items():
                if not isinstance(r, int) or r < 0:
                    raise ValueError("class indices must be nonnegative integers")
                if not isinstance(c, int):
                    raise TypeError("coefficients must be integers")
                if c != 0:
                    data[r] = c
        self._coeffs = data

    def terms(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._coeffs.items()))

    def __add__(self, other: "WallClass") -> "WallClass":
        out = dict(self._coeffs)
        for r, c in other._coeffs.items():
            s = out.get(r, 0) + c
            if s:
                out[r] = s
            else:
                del out[r]
        w = WallClass()
        w._coeffs = out
        return w

    def __eq__(self, other) -> bool:
        if isinstance(other, WallClass):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.terms())

    def __repr__(self) -> str:
        return f"WallClass({dict(self.terms())!r})"

    def to_json(self) -> dict:
        return {str(r): str(c) for r, c in self.terms()}


def project(p: LaurentPoly) -> WallClass:
    """The additive quotient map folding t^-r onto t^r."""
    out: dict[int, int] = {}
    for e, c in p.terms():
        r = abs(e)
        s = out.get(r, 0) + c
        if s:
            out[r] = s
        else:
            del out[r]
    w = WallClass()
    w._coeffs = out
    return w


def hermitize(w: WallClass) -> LaurentPoly:
    """Lift w and add the involuted lift: 2a_0 + sum a_r (t^r + t^-r).

    Independent of the choice of lift, since flipping the sign of an
    exponent permutes the two summands.
    """
    coeffs: dict[int, int] = {}
    for r, c in w.terms():
        if r == 0:
            coeffs[0] = coeffs.get(0, 0) + 2 * c
        else:
            coeffs[r] = c
            coeffs[-r] = c
    return LaurentPoly(coeffs)


@dataclass(frozen=True)
class IntersectionEvent:
    """One intersection event: a kind, a sign, and an exponent k."""

    kind: str
    sign: int
    exponent: int

    def __post_init__(self):
        if self.kind not in CONTRIBUTIONS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.sign not in (1, -1):
            raise ValueError("event sign must be +1 or -1")

    def contribution(self) -> LaurentPoly:
        """The lift of this event's contribution to the ring."""
        return LaurentPoly({self.exponent + shift: self.sign * coeff
                            for shift, coeff in CONTRIBUTIONS[self.kind]})

    def to_json(self) -> dict:
        return {"kind": self.kind, "sign": f"{self.sign:+d}", "k": str(self.exponent)}

    @classmethod
    def from_json(cls, obj) -> "IntersectionEvent":
        if not isinstance(obj, dict):
            raise ValueError("event must be an object")
        try:  # one lookup per key; the first missing key is reported
            kind, sign, k = obj["kind"], obj["sign"], obj["k"]
        except KeyError as exc:
            raise ValueError(f"event is missing {exc.args[0]!r}") from None
        try:
            sign, k = int_from_json(sign, "sign"), int_from_json(k, "k")
        except ValueError:
            raise ValueError(
                f"event sign and k must be integers, got {obj['sign']!r} and {obj['k']!r}"
            ) from None
        return cls(str(kind), sign, k)


@dataclass(frozen=True)
class SurfaceModel:
    """A labeled list of intersection events plus a normal Euler number."""

    label: str
    events: tuple[IntersectionEvent, ...]
    euler: int

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "euler": str(self.euler),
            "events": [e.to_json() for e in self.events],
        }

    @classmethod
    def from_json(cls, obj) -> "SurfaceModel":
        if not isinstance(obj, dict):
            raise ValueError("surface must be an object")
        for key in ("label", "euler", "events"):
            if key not in obj:
                raise ValueError(f"surface is missing {key!r}")
        if not isinstance(obj["label"], str):
            raise ValueError(f"surface label must be a string, got {obj['label']!r}")
        if not isinstance(obj["events"], list):
            raise ValueError("surface events must be a list")
        events = tuple(map(IntersectionEvent.from_json, obj["events"]))
        return cls(obj["label"], events, int_from_json(obj["euler"], "euler"))


def mu(surface: SurfaceModel) -> WallClass:
    """The self-intersection class: the sum of project(e.contribution())."""
    out: dict[int, int] = {}
    for event in surface.events:
        k, sign = event.exponent, event.sign
        for shift, coeff in CONTRIBUTIONS[event.kind]:
            r = abs(k + shift)
            out[r] = out.get(r, 0) + sign * coeff
    return WallClass(out)


@dataclass(frozen=True)
class WallInvariants:
    """What the Wall calculus gives a surface, all from one mu."""

    mu: WallClass
    mu_plus_conjugate: LaurentPoly
    lam: LaurentPoly
    c: Optional[LaurentPoly]  # None where the pairing shape does not apply


def wall_invariants(surface: SurfaceModel) -> WallInvariants:
    """mu, its lift mu + mu~, lambda = mu + mu~ + iota(e) and, where the
    pairing shape applies, the c with lambda = c(1-t) + c~(1-t^-1).

    Under the shape's precondition lambda always has that shape, so a None
    from the solver indicates a defect and is raised.
    """
    mu_class = mu(surface)
    mu_plus_conjugate = hermitize(mu_class)
    lam = mu_plus_conjugate + iota(surface.euler)
    c = None
    if _shape_refusal(surface) is None:
        c = solve_hermitian_zero_aug(lam)
        if c is None:
            raise RuntimeError("shape solver failed under its guaranteed precondition")
    return WallInvariants(mu_class, mu_plus_conjugate, lam, c)


def _shape_refusal(surface: SurfaceModel) -> Optional[str]:
    """Why the pairing shape does not apply to surface; None if it does."""
    if surface.euler != 0:
        return "pairing shape requires Euler number 0"
    if any(e.kind == GENERIC_DOUBLE_POINT for e in surface.events):
        return "pairing shape requires no generic double points"
    return None


def lambda_self(surface: SurfaceModel) -> LaurentPoly:
    """The homological self-pairing mu + mu~ + iota(e); involution-fixed."""
    return wall_invariants(surface).lam


def pairing_shape_check(surface: SurfaceModel) -> Optional[LaurentPoly]:
    """Return c with lambda = c(1-t) + c~(1-t^-1).

    Requires euler = 0 and no generic double points, and raises ValueError
    otherwise.
    """
    refusal = _shape_refusal(surface)
    if refusal is not None:
        raise ValueError(refusal)
    return wall_invariants(surface).c
