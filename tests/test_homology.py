import pytest

from laurentforms import (
    ChainComplex,
    ONE,
    ONE_MINUS_T,
    ONE_MINUS_T_INV,
    ZERO,
    assoc_eq,
    determinant,
    h2_sum,
    iota,
    rank_qt,
    torsion_order,
)
from laurentforms.forms import as_matrix, mat_mul

from conftest import rand_matrix, rand_poly


def handle_complex() -> ChainComplex:
    return ChainComplex([1, 1, 1], [[[ONE_MINUS_T]], [[ZERO]]])


def test_rank_qt_examples():
    assert rank_qt(h2_sum(1)) == 2
    assert rank_qt([[ONE_MINUS_T]]) == 1
    assert rank_qt([[ZERO, ZERO, ZERO], [ZERO, ZERO, ZERO]]) == 0
    assert rank_qt([[iota(2)]]) == 1


def test_rank_qt_rank_one_outer_product(rng):
    for _ in range(30):
        u = [rand_poly(rng, allow_zero=False) for _ in range(3)]
        v = [rand_poly(rng, allow_zero=False) for _ in range(3)]
        m = [[u[i] * v[j] for j in range(3)] for i in range(3)]
        assert rank_qt(m) == 1


def test_rank_qt_unimodular(rng):
    for _ in range(20):
        n = rng.choice([2, 3])
        m = _random_unimodular(rng, n)
        assert rank_qt(m) == n


def _random_unimodular(rng, n):
    rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        p = rand_poly(rng, -1, 1, 1)
        for c in range(n):
            rows[i][c] = rows[i][c] + p * rows[j][c]
    return as_matrix(rows)


def test_betti_qt_handle_complex():
    assert handle_complex().betti_qt() == [0, 0, 1]


def test_betti_qt_zero_maps():
    c = ChainComplex([1, 1], [[[ZERO]]])
    assert c.betti_qt() == [1, 1]


def test_betti_qt_multiplication_by_two():
    c = ChainComplex([1, 1], [[[iota(2)]]])
    assert c.betti_qt() == [0, 0]


def test_euler_check_examples(rng):
    assert handle_complex().euler_check()
    zero = ChainComplex([2, 3], [[[ZERO, ZERO, ZERO], [ZERO, ZERO, ZERO]]])
    assert zero.euler_check()
    for _ in range(20):
        c = _random_valid_complex(rng)
        assert c.euler_check()
        assert all(b >= 0 for b in c.betti_qt())


def _random_valid_complex(rng):
    """d_1 = [M | 0] and d_2 = [[0], [N]] compose to zero by block layout."""
    a, b, c, d = (rng.randint(1, 2) for _ in range(4))
    m = [[rand_poly(rng, -1, 1, 2) for _ in range(a)] for _ in range(c)]
    n = [[rand_poly(rng, -1, 1, 2) for _ in range(d)] for _ in range(b)]
    d1 = [m[i] + [ZERO] * b for i in range(c)]
    d2 = [[ZERO] * d for _ in range(a)] + n
    return ChainComplex([c, a + b, d], [d1, d2])


def test_complex_validation():
    with pytest.raises(ValueError):
        ChainComplex([1, 1], [[[ONE_MINUS_T]], [[ONE]]])
    with pytest.raises(ValueError):
        ChainComplex([2, 1], [[[ONE]]])
    with pytest.raises(ValueError):
        ChainComplex([1, 1, 1], [[[ONE]], [[ONE]]])


@pytest.mark.parametrize("ranks", [[" 1 ", 1, 1], [1, 1.9, 1], [1, 1, True], [1, None, 1]])
def test_complex_ranks_must_be_ints(ranks):
    # A rank that is not an int (a string, float, bool or None) is refused,
    # not converted to one.
    with pytest.raises(ValueError, match="module rank must be an int"):
        ChainComplex(ranks, [[[ZERO]], [[ZERO]]])


def test_torsion_order_examples():
    diag = [[ONE_MINUS_T, ZERO], [ZERO, ONE_MINUS_T]]
    order = torsion_order(diag)
    assert order == ONE_MINUS_T ** 2
    assert assoc_eq(order, ONE_MINUS_T * ONE_MINUS_T_INV)

    assert torsion_order([[ONE, ZERO], [ZERO, ONE]]) == ONE
    assert torsion_order([[ONE_MINUS_T, ZERO], [ZERO, iota(2)]]) == (
        (iota(2) * ONE_MINUS_T).normalize_associate()[0]
    )


def test_torsion_order_errors():
    with pytest.raises(ValueError):
        torsion_order([[ZERO, ZERO], [ZERO, ZERO]])
    with pytest.raises(ValueError):
        torsion_order([[ONE, ZERO]])


def test_torsion_order_multiplicative_on_blocks(rng):
    for _ in range(20):
        m1 = _full_rank_matrix(rng, 2)
        m2 = _full_rank_matrix(rng, 2)
        block = [
            list(m1[0]) + [ZERO, ZERO],
            list(m1[1]) + [ZERO, ZERO],
            [ZERO, ZERO] + list(m2[0]),
            [ZERO, ZERO] + list(m2[1]),
        ]
        assert assoc_eq(torsion_order(block), torsion_order(m1) * torsion_order(m2))


def _full_rank_matrix(rng, n):
    while True:
        m = rand_matrix(rng, n, -1, 1, 2)
        if not determinant(m).is_zero:
            return m


def test_integer_unimodular_lifts_to_ring_unit(rng):
    # An integer matrix invertible over Z stays invertible over the ring.
    for _ in range(30):
        n = rng.choice([2, 3])
        rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(8):
            i, j = rng.sample(range(n), 2)
            q = rng.randint(-3, 3)
            for c in range(n):
                rows[i][c] += q * rows[j][c]
        lifted = as_matrix(rows)
        witness = determinant(lifted).is_unit()
        assert witness is not None and witness.exponent == 0


def test_handle_complex_augmented_differential_vanishes():
    # The degree-one differential in the handle complex augments to zero,
    # matching the infinite cyclic degree-zero homology with Z coefficients.
    assert ONE_MINUS_T.augment() == 0


def test_complex_json_round_trip():
    c = handle_complex()
    loaded = ChainComplex.from_json(c.to_json())
    assert loaded.ranks == c.ranks
    assert loaded.differentials == c.differentials
    with pytest.raises(ValueError):
        ChainComplex.from_json({"ranks": ["1"]})


def test_dd_zero_enforced(rng):
    for _ in range(10):
        c = _random_valid_complex(rng)
        for k in range(len(c.differentials) - 1):
            product = mat_mul(c.differentials[k], c.differentials[k + 1])
            assert all(e.is_zero for row in product for e in row)
