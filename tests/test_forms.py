import pytest
from hypothesis import given, settings, strategies as st

from laurentforms import (
    HermitianForm,
    LaurentPoly,
    ONE,
    ONE_MINUS_T,
    ONE_MINUS_T_INV,
    T,
    T_INV,
    ZERO,
    assoc_eq,
    certify_reduction,
    congruence,
    det_congruence_check,
    determinant,
    h2_sum,
    prenormalize_units,
    solve_hermitian_zero_aug,
)
from laurentforms.forms import ReductionCertificate, as_matrix, identity, mat_mul

from conftest import block_form, hermitian_diagonal_entry, rand_matrix, rand_poly


L = LaurentPoly
TWO_MINUS_T_MINUS_TINV = L({0: 2, 1: -1, -1: -1})


def rank2_fixture() -> HermitianForm:
    return HermitianForm(
        [[ZERO, ONE_MINUS_T], [ONE_MINUS_T_INV, TWO_MINUS_T_MINUS_TINV]]
    )


def test_h2_sum_examples():
    h1 = h2_sum(1)
    assert h1.entries == as_matrix([[ZERO, ONE_MINUS_T], [ONE_MINUS_T_INV, ZERO]])
    assert h2_sum(0).rank == 0
    h2 = h2_sum(2)
    assert h2.rank == 4
    assert h2.entries[0][1] == ONE_MINUS_T
    assert h2.entries[2][3] == ONE_MINUS_T
    assert h2.entries[3][2] == ONE_MINUS_T_INV
    assert h2.entries[0][2].is_zero and h2.entries[1][3].is_zero


def test_congruence_block_reduction_identity():
    p = [[1, 0], [-1, 1]]
    assert congruence(p, rank2_fixture()) == h2_sum(1)


def test_congruence_identity_and_swap():
    a = rank2_fixture()
    assert congruence(identity(2), a) == a
    swapped = congruence([[0, 1], [1, 0]], h2_sum(1))
    assert swapped.entries == as_matrix([[ZERO, ONE_MINUS_T_INV], [ONE_MINUS_T, ZERO]])


def test_congruence_rank_mismatch():
    with pytest.raises(ValueError):
        congruence(identity(3), h2_sum(1))


def test_non_hermitian_rejected():
    with pytest.raises(ValueError):
        HermitianForm([[ZERO, ONE_MINUS_T], [ONE_MINUS_T, ZERO]])
    with pytest.raises(ValueError):
        HermitianForm([[T, ZERO], [ZERO, ZERO]])


def test_congruence_hermitian_closure(rng):
    for _ in range(50):
        n = rng.choice([1, 2, 3])
        a = congruence(rand_matrix(rng, n), _random_hermitian(rng, n))
        for i in range(n):
            for j in range(n):
                assert a.entries[i][j] == a.entries[j][i].involve()


def _random_hermitian(rng, n) -> HermitianForm:
    m = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        c = rand_poly(rng)
        m[i][i] = c + c.involve()
        for j in range(i + 1, n):
            p = rand_poly(rng)
            m[i][j] = p
            m[j][i] = p.involve()
    return HermitianForm(m)


def _triple_loop_product(a, b):
    """Every a[i][k] * b[k][j], zero or not: the plain oracle for mat_mul."""
    cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO) for j in range(cols))
        for i in range(len(a))
    )


def _rand_rect(rng, rows, cols, density):
    return tuple(
        tuple(rand_poly(rng, -2, 2, 2, allow_zero=False) if rng.random() < density else ZERO
              for _ in range(cols))
        for _ in range(rows)
    )


def test_mat_mul_matches_triple_loop(rng):
    shapes = [(n, n, n) for n in (1, 3, 6, 10)] + [(2, 3, 1), (3, 5, 2), (1, 4, 4), (4, 1, 3)]
    for rows, inner, cols in shapes:
        for density in (0.0, 0.15, 0.5, 1.0):
            a = _rand_rect(rng, rows, inner, density)
            b = _rand_rect(rng, inner, cols, 1.0 - density / 2)
            assert mat_mul(a, b) == _triple_loop_product(a, b)
    p = [[ONE if i == j else ZERO for j in range(32)] for i in range(32)]
    p[5][4], p[17][30] = ONE_MINUS_T, L({-1: 3})
    form = block_form([rand_poly(rng) for _ in range(16)]).entries
    assert mat_mul(as_matrix(p), form) == _triple_loop_product(as_matrix(p), form)
    assert mat_mul((), ()) == ()
    assert mat_mul((), _rand_rect(rng, 2, 2, 1.0)) == ()
    assert mat_mul(((), ()), ()) == ((), ())
    with pytest.raises(ValueError, match="shape mismatch"):
        mat_mul(_rand_rect(rng, 2, 3, 1.0), _rand_rect(rng, 2, 2, 1.0))


def test_determinant_examples(rng):
    assert determinant(h2_sum(1)) == -TWO_MINUS_T_MINUS_TINV
    for _ in range(20):
        c = rand_poly(rng)
        d = c + c.involve()
        block = HermitianForm([[ZERO, ONE_MINUS_T], [ONE_MINUS_T_INV, d]])
        assert determinant(block) == -TWO_MINUS_T_MINUS_TINV
    assert determinant(h2_sum(2)) == TWO_MINUS_T_MINUS_TINV ** 2
    assert determinant(()) == ONE


def test_determinant_against_cofactor(rng):
    def cofactor(m):
        n = len(m)
        if n == 0:
            return ONE
        total = ZERO
        for j in range(n):
            minor = tuple(row[:j] + row[j + 1:] for row in m[1:])
            term = m[0][j] * cofactor(minor)
            total = total + term if j % 2 == 0 else total - term
        return total

    for _ in range(30):
        n = rng.choice([1, 2, 3, 4])
        m = rand_matrix(rng, n, -1, 1, 2)
        assert determinant(m) == cofactor(m)


def test_solve_hermitian_zero_aug_examples():
    assert solve_hermitian_zero_aug(TWO_MINUS_T_MINUS_TINV) == ONE
    assert solve_hermitian_zero_aug(ZERO) == ZERO
    assert solve_hermitian_zero_aug(L({0: 2, 1: 1, -1: 1})) is None
    with pytest.raises(ValueError):
        solve_hermitian_zero_aug(T)


def test_solve_hermitian_zero_aug_round_trip(rng):
    for _ in range(300):
        c = rand_poly(rng, -3, 3, 5)
        d = hermitian_diagonal_entry(c)
        solved = solve_hermitian_zero_aug(d)
        assert solved is not None
        assert hermitian_diagonal_entry(solved) == d


def _dense_telescope(d: LaurentPoly):
    # The solver's partial sums M_r taken at every exponent from 0 to deg d.
    if d.augment() != 0:
        return None
    if d.is_zero:
        return ZERO
    running = d.coeff(0) // 2
    coeffs = {0: running}
    for r in range(1, d.max_exponent() + 1):
        running += d.coeff(r)
        coeffs[r] = running
    return L(coeffs)


@settings(max_examples=300, deadline=None)
@given(st.integers(-4, 4), st.dictionaries(st.integers(1, 9), st.integers(-3, 3), max_size=5),
       st.booleans())
def test_solve_hermitian_zero_aug_matches_the_dense_telescoping(d0, half, zero_aug):
    if zero_aug:  # move the augmentation onto the constant term
        d0 = -2 * sum(half.values())
    d = L({0: d0, **half, **{-r: m for r, m in half.items()}})
    assert solve_hermitian_zero_aug(d) == _dense_telescope(d)


def test_solve_hermitian_zero_aug_is_bounded_by_the_support():
    # Exponents far apart: the solution is the single term t^k, found
    # without a step per exponent below k.
    k = 10**9
    d = L({k: 1, -k: 1, k + 1: -1, -k - 1: -1})
    assert solve_hermitian_zero_aug(d) == L({k: 1})
    d = d * 5 + hermitian_diagonal_entry(L({-2 * k: 2}))
    assert hermitian_diagonal_entry(solve_hermitian_zero_aug(d)) == d


def test_recognize_examples():
    assert certify_reduction(rank2_fixture()).certificate.c_list == (ONE,)
    for g in (0, 1, 2, 3):
        assert certify_reduction(h2_sum(g)).certificate.c_list == (ZERO,) * g
    bad = HermitianForm([[ZERO, ONE + T], [ONE + T_INV, ZERO]])
    assert not certify_reduction(bad).accepted
    odd = HermitianForm([[ZERO]])
    assert not certify_reduction(odd).accepted
    cross = HermitianForm(
        [
            [ZERO, ONE_MINUS_T, ONE, ZERO],
            [ONE_MINUS_T_INV, ZERO, ZERO, ZERO],
            [ONE, ZERO, ZERO, ONE_MINUS_T],
            [ZERO, ZERO, ONE_MINUS_T_INV, ZERO],
        ]
    )
    assert not certify_reduction(cross).accepted


def test_reduce_to_standard_examples():
    cert = certify_reduction(rank2_fixture()).certificate
    assert cert is not None
    assert cert.genus == 1
    assert cert.reduction.matrix == as_matrix([[1, 0], [-1, 1]])
    assert congruence(cert.reduction.matrix, rank2_fixture()) == h2_sum(1)

    cert2 = certify_reduction(h2_sum(2)).certificate
    assert cert2.reduction.matrix == identity(4)

    c = ONE + T
    form = block_form([c])
    cert3 = certify_reduction(form).certificate
    assert cert3.c_list == (c,)
    assert congruence(cert3.reduction.matrix, form) == h2_sum(1)

    assert certify_reduction(HermitianForm([[ONE, ZERO], [ZERO, ONE]])).certificate is None


def test_certificate_soundness(rng):
    for _ in range(30):
        g = rng.choice([1, 2])
        cs = [rand_poly(rng) for _ in range(g)]
        form = block_form(cs)
        cert = certify_reduction(form).certificate
        assert cert is not None
        cert.check()
        assert congruence(cert.reduction.matrix, form) == h2_sum(g)
        assert determinant(cert.reduction.matrix).is_unit() is not None


def test_block_form_determinant_association(rng):
    for _ in range(50):
        g = rng.choice([1, 2])
        form = block_form([rand_poly(rng) for _ in range(g)])
        assert certify_reduction(form).accepted
        assert assoc_eq(determinant(form), (ONE_MINUS_T * ONE_MINUS_T_INV) ** g)


def test_det_congruence_check_examples(rng):
    assert det_congruence_check([[T, ZERO], [ONE, -ONE]], h2_sum(1))
    assert det_congruence_check(identity(2), rank2_fixture())
    for _ in range(30):
        b = rand_matrix(rng, 4, -2, 2, 2)
        assert det_congruence_check(b, h2_sum(2))
    with pytest.raises(ValueError):
        det_congruence_check(identity(3), h2_sum(1))


def test_certify_reduction_verdicts():
    accept = certify_reduction(rank2_fixture())
    assert accept.accepted and accept.genus == 1
    assert "unknotted" in accept.label

    instantiated = block_form([ONE + T])
    assert certify_reduction(instantiated).accepted

    reject = certify_reduction(HermitianForm([[ONE, ZERO], [ZERO, ONE]]))
    assert not reject.accepted
    assert "recognition failed" in reject.reason


def test_augmentation_of_standard_form_is_zero():
    for g in (0, 1, 2, 3):
        assert all(e.augment() == 0 for row in h2_sum(g).entries for e in row)


def test_prenormalize_units(rng):
    for _ in range(30):
        g = rng.choice([1, 2])
        cs = [rand_poly(rng) for _ in range(g)]
        form = block_form(cs)
        units = [
            L({rng.randint(-2, 2): rng.choice([1, -1])}) for _ in range(2 * g)
        ]
        d = tuple(
            tuple(units[i] if i == j else ZERO for j in range(2 * g))
            for i in range(2 * g)
        )
        twisted = congruence(d, form)
        if not certify_reduction(twisted).accepted:
            cert = certify_reduction(twisted, prenormalize=True).certificate
            assert cert is not None
            cert.check()
            assert congruence(cert.reduction.matrix, twisted) == h2_sum(g)


def test_prenormalize_handles_flipped_orientation():
    flipped = HermitianForm([[ZERO, ONE_MINUS_T_INV], [ONE_MINUS_T, ZERO]])
    assert not certify_reduction(flipped).accepted
    _, fixed = prenormalize_units(flipped)
    assert certify_reduction(fixed).certificate.c_list == (ZERO,)
    assert certify_reduction(flipped, prenormalize=True).accepted


def test_prenormalize_cannot_fix_non_associates():
    bad = HermitianForm([[ZERO, ONE + T], [ONE + T_INV, ZERO]])
    assert not certify_reduction(bad, prenormalize=True).accepted


def test_certificate_json_round_trip():
    form = rank2_fixture()
    cert = certify_reduction(form).certificate
    loaded = ReductionCertificate.from_json(cert.to_json(), form)
    loaded.check()
    assert loaded.genus == cert.genus
    assert loaded.c_list == cert.c_list
    assert loaded.reduction.matrix == cert.reduction.matrix


def test_form_json_round_trip(rng):
    for _ in range(20):
        form = _random_hermitian(rng, rng.choice([1, 2, 3]))
        assert HermitianForm.from_json(form.to_json()) == form
    with pytest.raises(ValueError):
        HermitianForm.from_json({"rank": "2", "entries": [{}]})
