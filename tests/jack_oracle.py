"""The x-level Jack column operators: the oracle the coefficient engine is checked against.

Each operator is applied to an x-polynomial term by term, the staircase
times the image is antisymmetrized over all n! permutations, and one
exact division by the Vandermonde follows.  Nothing here goes through
the bialternant engine of :mod:`macops.operators`.
"""

from itertools import combinations

from macops.errors import OutOfRange
from macops.rings import Poly, Ring, poly_exact_div, xring
from oracles import antisymmetrize, delta_by_pairs


def axring(n: int) -> Ring:
    return xring(n, ("a",))


def deriv(f: Poly, i: int) -> Poly:
    """Partial derivative with respect to x_i (1-based)."""
    v = f.ring.pos(f"x{i}")
    out: dict = {}
    for e, c in f.terms.items():
        exp = e[v]
        if not exp:
            continue
        out[e[:v] + (exp - 1,) + e[v + 1 :]] = c * exp
    return Poly(f.ring, out)


def _one_var_op(f: Poly, i: int, const: int, kind: str) -> Poly:
    """Apply one first-order factor in the variable x_i.

    raising: x_i (a x_i d_i + const); lowering: (1/x_i)(a x_i d_i + const).
    """
    ring = f.ring
    a = ring.var("a")
    xi = ring.var(f"x{i}")
    core = a * xi * deriv(f, i) + const * f
    if kind == "raise":
        return xi * core
    e = [0] * len(ring.names)
    e[ring.pos(f"x{i}")] = -1
    return core * ring.monomial(tuple(e))


def _apply_elementary(f: Poly, idxs, consts, kind: str, m: int) -> Poly:
    """e_m of the commuting one-variable factors, applied to f."""
    acc = f.ring.zero
    for S in combinations(range(len(idxs)), m):
        g = f
        for pos in S:
            g = _one_var_op(g, idxs[pos], consts[pos], kind)
        acc = acc + g
    return acc


def apply_jack(kind: str, m: int, n: int, f: Poly) -> Poly:
    """Column adder (kind "raise") or remover (kind "lower") of height m.

    Defined for symmetric f: the elementary operator is applied once, the
    staircase x^delta times its image is antisymmetrized over all n!
    permutations, and one exact division by the Vandermonde follows.
    """
    if kind not in ("raise", "lower"):
        raise OutOfRange(f"unknown kind {kind!r}")
    if not 0 <= m <= n:
        raise OutOfRange(f"column height {m} out of range for n={n}")
    ring = f.ring
    consts = [
        (m - i + 1) if kind == "raise" else (n - i) for i in range(1, n + 1)
    ]
    g = _apply_elementary(f, range(1, n + 1), consts, kind, m)
    stair = ring.monomial(
        tuple(n - i for i in range(1, n + 1)) + (0,) * (len(ring.names) - n)
    )
    return poly_exact_div(antisymmetrize(stair * g, n), delta_by_pairs(n, ring))
