"""One-parameter differential limits of the column adders and removers.

Setting q to an integer power of t and letting t tend to 1 turns the
q-shift operators into first-order differential operators.  This module
implements those limits directly (exact coefficients in Z[a], with a the
limit parameter), builds the one-parameter polynomials by the same
column recursion as the two-parameter family, and cross-checks them
against the substitution limit of the two-parameter integral forms.
"""

from __future__ import annotations

from itertools import combinations

from .bases import SymPoly, antisymmetrize, sym_to_xpoly, to_monomial_basis, vandermonde
from .errors import (
    LengthExceedsVars,
    NonExactDivision,
    NotDivisible,
    OutOfRange,
    VerificationFailed,
)
from .macdonald import conjugate_columns, macdonald_J_raising
from .partitions import Partition, c_alpha
from .rings import ALPHA, QT, Poly, Ring, deriv, eval_var, fold_var, poly_exact_div, xring


def axring(n: int) -> Ring:
    return xring(n, ("a",))


def jack_lowering_coeff(lam: Partition, m: int, n: int) -> Poly:
    """Scalar from removing a column of height m, in Z[a].

    The i = m factor vanishes when the shape is shorter than m, so the
    formula covers the zero clause on its own.
    """
    if not lam.length <= m <= n:
        raise OutOfRange("need length of shape <= m <= n")
    a = ALPHA.var("a")
    res = ALPHA.one
    for i in range(1, m + 1):
        li = lam.part(i)
        res = res * (a * li + m - i) * (a * (li - 1) + n - i + 1)
    return res


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
    return poly_exact_div(antisymmetrize(stair * g, n), vandermonde(n, ring))


def jack_J(lam: Partition, n: int) -> SymPoly:
    """The one-parameter polynomial by the column recursion, in Z[a]."""
    if lam.length > n:
        raise LengthExceedsVars(f"{lam.render()} needs more than {n} variables")
    ring = axring(n)
    f = ring.one
    for m in conjugate_columns(lam):
        f = apply_jack("raise", m, n, f)
    return to_monomial_basis(f, n)


def jack_limit_oracle(lam: Partition, n: int, alpha: int) -> SymPoly:
    """Substitution limit of the two-parameter integral form.

    Sets q to t**alpha coefficientwise, divides by (1-t)^weight exactly,
    then evaluates at t = 1.  Integer alpha only; the result has plain
    integer coefficients.  Raises NotDivisible when (1-t)^weight does not
    divide a folded coefficient.
    """
    if alpha < 1:
        raise OutOfRange("need a positive integer parameter")
    J = macdonald_J_raising(lam, n).J
    d = lam.weight
    out = {}
    for mu, c in J.coeffs.items():
        folded = fold_var(c, "q", "t", alpha)
        try:
            g = poly_exact_div(folded, (QT.one - QT.var("t")) ** d)
        except NonExactDivision as exc:
            raise NotDivisible(f"(1-t)^{d} does not divide") from exc
        out[mu] = eval_var(g, "t", 1).const_value()
    return SymPoly(n, out)


def jack_check_limits(lam: Partition, n: int, alphas=(1, 2, 3)) -> dict:
    """Differential recursion versus substitution limit at integer values."""
    sym = jack_J(lam, n)
    for alpha in alphas:
        got = {mu: eval_var(c, "a", alpha).const_value() for mu, c in sym.coeffs.items()}
        want = dict(jack_limit_oracle(lam, n, alpha).coeffs)
        if got != want:
            raise VerificationFailed(
                f"limit mismatch for {lam.render()} (n={n}) at parameter {alpha}"
            )
    lead = sym.coeffs.get(lam)
    if lead != c_alpha(lam):
        raise VerificationFailed(
            f"leading coefficient of {lam.render()} is not the hook product"
        )
    return {
        "check": "jack_limit",
        "shape": lam.render(),
        "nvars": n,
        "alphas": tuple(alphas),
        "status": "pass",
    }


def jack_lowering_verify(lam: Partition, m: int, n: int) -> dict:
    """Column-removal law for the differential remover."""
    ring = axring(n)
    f = sym_to_xpoly(jack_J(lam, n), ring)
    got = apply_jack("lower", m, n, f)
    scale = jack_lowering_coeff(lam, m, n)
    if lam.length == m:
        want = scale.cast(ring) * sym_to_xpoly(jack_J(lam.minus_ones(m), n), ring)
    else:
        want = ring.zero
        if not scale.is_zero:
            raise VerificationFailed("short-shape scalar failed to vanish")
    if got != want:
        raise VerificationFailed(
            f"lowering m={m} on {lam.render()} (n={n}) mismatch"
        )
    return {
        "check": "jack_lowering",
        "shape": lam.render(),
        "m": m,
        "nvars": n,
        "scale": scale.render(),
        "status": "pass",
    }
