"""Reference arithmetic that checks the program's outputs.

Nothing here imports laurentforms. A Laurent polynomial is a dict
{exponent: coefficient} without zero coefficients, a matrix is a list of
rows of such dicts. Ranks over Q(t) come from exact Fraction elimination
at several integer values of t; determinants for torsion orders and
obstructions come from sympy on the matrices shifted into Z[t]. sympy is
imported lazily, after the timed loop, so that it adds nothing to the
measured peak RSS.
"""

from __future__ import annotations

from fractions import Fraction

ONE = {0: 1}
ONE_MINUS_T = {0: 1, 1: -1}
ONE_MINUS_T_INV = {0: 1, -1: -1}

# Integer points for the Q(t) rank: the rank over Q(t) is the largest
# rank the matrix takes at any value of t, and a nonzero minor vanishes at
# only finitely many points.
RANK_POINTS = (2, 3, 5, -2, 7)


# -- polynomials -------------------------------------------------------------


def padd(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def pneg(p: dict) -> dict:
    return {e: -c for e, c in p.items()}


def pmul(p: dict, q: dict) -> dict:
    out: dict[int, int] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def pbar(p: dict) -> dict:
    """The involution t -> t^-1."""
    return {-e: c for e, c in p.items()}


def canonical(p: dict) -> dict:
    """The associate with lowest exponent 0 and a positive coefficient there."""
    if not p:
        return {}
    low = min(p)
    sign = 1 if p[low] > 0 else -1
    return {e - low: sign * c for e, c in p.items()}


def peval(p: dict, t: int) -> Fraction:
    return sum((c * Fraction(t) ** e for e, c in p.items()), Fraction(0))


def poly_to_json(p: dict) -> dict:
    return {str(e): str(c) for e, c in sorted(p.items())}


def poly_from_json(obj: dict) -> dict:
    return {int(e): int(c) for e, c in obj.items() if int(c)}


def hermitian_entry(c: dict) -> dict:
    """c(1-t) + involve(c)(1-t^-1)."""
    return padd(pmul(c, ONE_MINUS_T), pmul(pbar(c), ONE_MINUS_T_INV))


# -- matrices ----------------------------------------------------------------


def mmul(a: list, b: list) -> list:
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        new = []
        for j in range(cols):
            acc: dict = {}
            for k, x in enumerate(row):
                if x and b[k][j]:
                    acc = padd(acc, pmul(x, b[k][j]))
            new.append(acc)
        out.append(new)
    return out


def mstar(a: list) -> list:
    """The involve-transpose."""
    return [[pbar(a[i][j]) for i in range(len(a))] for j in range(len(a[0]))]


def congruent(p: list, a: list) -> list:
    return mmul(mmul(p, a), mstar(p))


def identity(n: int) -> list:
    return [[dict(ONE) if i == j else {} for j in range(n)] for i in range(n)]


def block_diag(blocks: list) -> list:
    n = sum(len(b) for b in blocks)
    out = []
    offset = 0
    for b in blocks:
        for row in b:
            out.append([{}] * offset + [dict(x) for x in row] + [{}] * (n - offset - len(row)))
        offset += len(b)
    return out


def h2(g: int) -> list:
    return block_diag([[[{}, ONE_MINUS_T], [ONE_MINUS_T_INV, {}]]] * g)


def matrix_to_json(m: list) -> dict:
    return {"rank": str(len(m)), "entries": [poly_to_json(x) for row in m for x in row]}


def matrix_from_json(obj: dict) -> list:
    n = int(obj["rank"])
    flat = [poly_from_json(x) for x in obj["entries"]]
    return [flat[i * n:(i + 1) * n] for i in range(n)]


def rows_to_json(m: list) -> list:
    return [[poly_to_json(x) for x in row] for row in m]


# -- the Wall calculus -------------------------------------------------------


def event_lift(kind: str, sign: int, k: int) -> dict:
    base = {k: sign}
    if kind == "torus_piercing":
        return pmul(base, ONE_MINUS_T)
    if kind == "disc_self_intersection":
        return pmul(base, {-1: -1, 0: 2, 1: -1})
    return base


def wall_values(events: list, euler: int) -> tuple[dict, dict]:
    """mu (as {r >= 0: coefficient}) and lambda for a list of (kind, sign, k)."""
    mu: dict[int, int] = {}
    for kind, sign, k in events:
        for e, c in event_lift(kind, sign, k).items():
            mu[abs(e)] = mu.get(abs(e), 0) + c
    mu = {r: c for r, c in mu.items() if c}
    lam: dict[int, int] = {}
    for r, c in mu.items():
        if r == 0:
            lam[0] = lam.get(0, 0) + 2 * c
        else:
            lam[r] = lam.get(r, 0) + c
            lam[-r] = lam.get(-r, 0) + c
    lam = padd(lam, {0: euler} if euler else {})
    return mu, lam


# -- congruence moves --------------------------------------------------------


def move_matrix(move: dict, n: int) -> list:
    m = identity(n)
    kind = move["kind"]
    i = int(move["i"])
    if kind == "transvection":
        m[i][int(move["j"])] = poly_from_json(move["p"])
    elif kind == "unit_scale":
        m[i][i] = {int(move["k"]): int(move["sign"])}
    elif kind == "swap":
        j = int(move["j"])
        m[i][i], m[j][j], m[i][j], m[j][i] = {}, {}, dict(ONE), dict(ONE)
    else:
        raise ValueError(f"unknown move kind {kind!r}")
    return m


def replay_moves(form: list, target: list, outcome: dict, depth: int) -> str | None:
    """Check a found search outcome: each move replayed, and its P."""
    n = len(form)
    moves = outcome.get("moves", [])
    if len(moves) > depth:
        return f"{len(moves)} moves exceed depth {depth}"
    p = identity(n)
    a = form
    for move in moves:
        e = move_matrix(move, n)
        a = congruent(e, a)
        p = mmul(e, p)
    if a != target:
        return "replayed moves do not reach the target"
    if matrix_from_json(outcome["P"]) != p:
        return "reported P is not the product of the moves"
    return None


# -- ranks and determinants --------------------------------------------------


def rank_at(m: list, t: int) -> int:
    rows = [[peval(x, t) for x in row] for row in m]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def rank_qt(m: list) -> int:
    if not m or not m[0]:
        return 0
    return max(rank_at(m, t) for t in RANK_POINTS)


def det_exact(m: list) -> dict:
    """det(m), by sympy over Z[t] on m shifted by t^-low, shifted back."""
    from sympy import ZZ, Poly, symbols
    from sympy.polys.matrices import DomainMatrix

    n = len(m)
    if n == 0:
        return dict(ONE)
    t = symbols("t")
    ring = ZZ[t]
    low = min((e for row in m for x in row for e in x), default=0)
    rows = [
        [ring.from_sympy(sum(c * t ** (e - low) for e, c in x.items())) if x else ring.zero
         for x in row]
        for row in m
    ]
    det = ring.to_sympy(DomainMatrix(rows, (n, n), ring).det())
    if det == 0:
        return {}
    coeffs = Poly(det, t).as_dict()
    return {k[0] + n * low: int(c) for k, c in coeffs.items()}


def det_canonical(m: list) -> dict:
    """The canonical associate of det(m)."""
    return canonical(det_exact(m))


def det_target_canonical(g: int) -> dict:
    """Canonical associate of ((1-t)(1-t^-1))^g."""
    acc = dict(ONE)
    for _ in range(g):
        acc = pmul(acc, {-1: -1, 0: 2, 1: -1})
    return canonical(acc)
