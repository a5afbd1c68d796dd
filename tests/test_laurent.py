import random

import pytest
from hypothesis import given, settings, strategies as st

from laurentforms import (
    LaurentPoly,
    ONE,
    ONE_MINUS_T,
    ONE_MINUS_T_INV,
    T,
    T_INV,
    UnitWitness,
    ZERO,
    assoc_eq,
    iota,
)
from laurentforms.laurent import int_from_json
from laurentforms.search import _poly_box

from conftest import rand_poly


L = LaurentPoly


def test_add_examples():
    assert ONE_MINUS_T + (T - 1) == ZERO
    assert ONE_MINUS_T + ONE_MINUS_T_INV == L({0: 2, 1: -1, -1: -1})
    p = L({2: 3, -1: -1})
    assert ZERO + p == p


def test_mul_examples():
    assert ONE_MINUS_T * ONE_MINUS_T_INV == L({0: 2, 1: -1, -1: -1})
    assert (-L({3: 1})) * ONE_MINUS_T_INV == L({2: 1, 3: -1})
    assert rand_poly(random.Random(1)) * ZERO == ZERO


def test_mul_zero_iff_factor_zero(rng):
    for _ in range(200):
        p = rand_poly(rng, allow_zero=False)
        q = rand_poly(rng, allow_zero=False)
        assert not (p * q).is_zero


def test_involve_examples():
    assert ONE_MINUS_T.involve() == ONE_MINUS_T_INV
    assert iota(5).involve() == iota(5)
    p = L({2: 3, -1: -1})
    assert p.involve().involve() == p


def test_involve_is_ring_map(rng):
    for _ in range(100):
        p = rand_poly(rng)
        q = rand_poly(rng)
        assert (p * q).involve() == p.involve() * q.involve()
        assert (p + q).involve() == p.involve() + q.involve()
        assert p.involve().augment() == p.augment()


# Exponents and coefficients wide enough that products overlap and cancel terms.
_polys = st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=5).map(L)


@settings(max_examples=100, deadline=None)
@given(_polys, _polys, _polys)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p + ZERO == p == ZERO + p
    assert p * ONE == p == ONE * p


def test_is_unit_examples():
    assert (-L({5: 1})).is_unit() == UnitWitness(-1, 5)
    assert ONE_MINUS_T.is_unit() is None
    assert (2 * T).is_unit() is None
    assert ZERO.is_unit() is None


def test_normalize_examples():
    assert (L({2: 1}) - L({3: 1})).normalize_associate() == (ONE_MINUS_T, UnitWitness(1, 2))
    assert ONE_MINUS_T_INV.normalize_associate() == (ONE_MINUS_T, UnitWitness(-1, -1))
    assert ZERO.normalize_associate() == (ZERO, UnitWitness(1, 0))


def test_normalize_round_trip(rng):
    for _ in range(300):
        p = rand_poly(rng, -4, 4, 5)
        canonical, unit = p.normalize_associate()
        assert unit.as_poly() * canonical == p
        if not p.is_zero:
            assert canonical.min_exponent() == 0
            assert canonical.coeff(0) > 0


def test_assoc_eq_examples():
    assert assoc_eq(ONE_MINUS_T, ONE_MINUS_T_INV)
    assert not assoc_eq(ONE_MINUS_T, ONE + T)
    p = L({0: 2, 1: -1, -1: -1})
    assert assoc_eq(p, -L({4: 1}) * p)


def test_assoc_eq_is_equivalence(rng):
    for _ in range(100):
        p = rand_poly(rng, allow_zero=False)
        sign = rng.choice([1, -1])
        q = L({rng.randint(-3, 3): sign}) * p
        r = L({rng.randint(-3, 3): rng.choice([1, -1])}) * q
        assert assoc_eq(p, p)
        assert assoc_eq(p, q) and assoc_eq(q, p)
        assert assoc_eq(p, q) and assoc_eq(q, r) and assoc_eq(p, r)


def test_assoc_eq_matches_mutual_division(rng):
    for _ in range(200):
        p = rand_poly(rng, allow_zero=False)
        q = rand_poly(rng, allow_zero=False)
        both = p.divide_exact(q) is not None and q.divide_exact(p) is not None
        assert assoc_eq(p, q) == both


def test_box_polynomials_hash_distinctly():
    # CPython hashes -1 like -2; the hash must not fold such polynomials
    # together, nor depend on PYTHONHASHSEED (it hashes ints only).
    box = _poly_box(2, 2)
    assert len({hash(p) for p in box}) == len(box) == 3124
    assert hash(LaurentPoly({-1: -1})) != hash(LaurentPoly({-2: -2}))


def test_augment_examples():
    assert ONE_MINUS_T.augment() == 0
    assert L({0: 2, 1: -1, -1: -1}).augment() == 0
    assert L({2: 3}).augment() == 3


def test_augment_is_ring_map(rng):
    for _ in range(100):
        p = rand_poly(rng)
        q = rand_poly(rng)
        assert (p * q).augment() == p.augment() * q.augment()
        assert (p + q).augment() == p.augment() + q.augment()


def test_iota_examples():
    assert iota(0) == ZERO
    assert iota(1) == ONE
    assert iota(-4) == L({0: -4})
    for n in (-7, 0, 3, 12345):
        assert iota(n).augment() == n


def test_divide_exact_examples():
    assert L({0: 2, 1: -1, -1: -1}).divide_exact(ONE_MINUS_T) == ONE_MINUS_T_INV
    assert ONE_MINUS_T.divide_exact(ONE + T) is None
    assert ZERO.divide_exact(ONE_MINUS_T) == ZERO
    with pytest.raises(ZeroDivisionError):
        ONE.divide_exact(ZERO)


def test_divide_exact_recovers_factor(rng):
    for _ in range(300):
        p = rand_poly(rng, -3, 3, 4)
        q = rand_poly(rng, -3, 3, 4, allow_zero=False)
        assert (p * q).divide_exact(q) == p


def test_divide_exact_rejects_non_factors():
    assert (ONE + T).divide_exact(ONE_MINUS_T) is None
    assert iota(3).divide_exact(iota(2)) is None
    assert T.divide_exact(iota(2)) is None


def _inverse_in_box(p: LaurentPoly):
    """Independent unit oracle: the inverse with support in [-6, 6] and
    coefficients in [-9, 9], if one exists.

    The coefficients of an inverse are forced one at a time by
    power-series division, so checking the forced candidate decides
    existence over the whole box.
    """
    if p.is_zero:
        return None
    lo = p.min_exponent()
    dense = [p.coeff(lo + k) for k in range(p.max_exponent() - lo + 1)]
    head = dense[0]
    if head == 0:
        return None
    q_coeffs = []
    for k in range(13):
        acc = (1 if k == 0 else 0) - sum(
            dense[i] * q_coeffs[k - i] for i in range(1, min(k, len(dense) - 1) + 1)
        )
        if acc % head != 0:
            return None
        q_coeffs.append(acc // head)
    q = LaurentPoly({-lo + k: c for k, c in enumerate(q_coeffs) if c})
    if q.is_zero or p * q != ONE:
        return None
    if any(abs(e) > 6 for e in q.support()):
        return None
    if any(abs(c) > 9 for _, c in q.terms()):
        return None
    return q


def test_unit_oracle_agreement_sampled(rng):
    for _ in range(2000):
        p = rand_poly(rng, -3, 3, 3)
        witness = p.is_unit()
        inverse = _inverse_in_box(p)
        assert (witness is not None) == (inverse is not None)
        if witness is not None:
            assert witness.as_poly() == p
            assert p * inverse == ONE


def test_pow_and_units():
    assert (ONE_MINUS_T ** 0) == ONE
    assert (ONE_MINUS_T ** 2) == L({0: 1, 1: -2, 2: 1})
    w = UnitWitness(-1, 3)
    assert w.as_poly() * w.involve().as_poly() == ONE
    assert w.involve() == UnitWitness(-1, -3)
    with pytest.raises(ValueError):
        UnitWitness(2, 0)


def test_json_round_trip(rng):
    for _ in range(50):
        p = rand_poly(rng, -5, 5, 9)
        assert LaurentPoly.from_json(p.to_json()) == p
    assert ONE_MINUS_T.to_json() == {"0": "1", "1": "-1"}
    with pytest.raises(ValueError):
        LaurentPoly.from_json(["not", "a", "map"])


def test_from_json_accepts_only_integers():
    assert LaurentPoly.from_json({"0": 3, "-2": "-4"}) == LaurentPoly({0: 3, -2: -4})
    for bad in ({"0": 1.5}, {"1": True}, {"0": 1.5, "1": True}, {"0": None},
                {"0": "1.5"}, {"0": [1]}, {"x": "1"}):
        with pytest.raises(ValueError, match="bad polynomial term"):
            LaurentPoly.from_json(bad)


# A bare int() reads the first five as 1000, 7, 7, 12 (Arabic-Indic
# digits) and 1 (a fullwidth digit); the rest are no integers at all.
NOT_DECIMAL = ["1_000", " 7 ", "7\n", "\u0661\u0662", "\uff11", "+ 5", "", "-", "0x1",
               "+-1", "--1", "1-", "1+2", pytest.param("1" * 5000, id="5000_digits")]


@pytest.mark.parametrize("bad", NOT_DECIMAL)
def test_int_from_json_accepts_only_ascii_decimal_strings(bad):
    with pytest.raises(ValueError, match="coefficient must be an integer"):
        int_from_json(bad, "coefficient")
    with pytest.raises(ValueError, match="bad polynomial term"):
        LaurentPoly.from_json({"0": bad})
    with pytest.raises(ValueError, match="bad polynomial term"):
        LaurentPoly.from_json({bad: "1"})


def test_int_from_json_keeps_signs_and_leading_zeros():
    for text, value in (("+1", 1), ("-0", 0), ("+0", 0), ("-12", -12), ("007", 7),
                        ("123456789012345678901234567890", 123456789012345678901234567890)):
        assert int_from_json(text, "n") == value
    assert LaurentPoly.from_json({"-1": "+3", "+2": "-0"}) == LaurentPoly({-1: 3})


def test_token_zero_sorts_first(rng):
    assert ZERO.token() == ""
    for _ in range(50):
        p = rand_poly(rng, allow_zero=False)
        assert ZERO.token() < p.token()
