"""One-parameter differential limits of the column adders and removers.

Setting q to an integer power of t and letting t tend to 1 turns the
q-shift operators into first-order differential operators, the jack
kinds of the coefficient engine in ``operators`` (exact coefficients in
Z[a], with a the limit parameter).  This module builds the one-parameter
polynomials by the same column recursion as the two-parameter family and
cross-checks them against the substitution limit of the two-parameter
integral forms.
"""

from __future__ import annotations

from .bases import SymPoly, assert_agree
from .errors import (
    LengthExceedsVars,
    NonExactDivision,
    NotDivisible,
    OutOfRange,
    VerificationFailed,
)
from .macdonald import conjugate_columns, macdonald_J_raising
from .operators import apply_symmetric
from .partitions import Partition, c_alpha
from .rings import ALPHA, QT, Poly, poly_exact_div

LIMIT_ALPHAS = (1, 2, 3)


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


def jack_J(lam: Partition, n: int) -> SymPoly:
    """The one-parameter polynomial by the column recursion, in Z[a]."""
    if lam.length > n:
        raise LengthExceedsVars(f"{lam.render()} needs more than {n} variables")
    f = SymPoly(n, {Partition(()): ALPHA.one})
    for m in conjugate_columns(lam):
        f = apply_symmetric("jack_raise", m, f)
    return f


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
        folded = c.subs({"q": QT.var("t", alpha)})
        try:
            g = poly_exact_div(folded, (QT.one - QT.var("t")) ** d)
        except NonExactDivision as exc:
            raise NotDivisible(f"(1-t)^{d} does not divide") from exc
        out[mu] = g.subs({"t": QT.one}).const_value()
    return SymPoly(n, out)


def jack_check_limits(lam: Partition, n: int) -> dict:
    """Differential recursion versus substitution limit at the integer values LIMIT_ALPHAS."""
    sym = jack_J(lam, n)
    for alpha in LIMIT_ALPHAS:
        got = {mu: c.subs({"a": ALPHA.const(alpha)}).const_value() for mu, c in sym.coeffs.items()}
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
        "alphas": LIMIT_ALPHAS,
        "status": "pass",
    }


def jack_lowering_verify(lam: Partition, m: int, n: int) -> dict:
    """Column-removal law for the differential remover."""
    got = apply_symmetric("jack_lower", m, jack_J(lam, n))
    scale = jack_lowering_coeff(lam, m, n)
    if lam.length == m:
        want = jack_J(lam.minus_ones(m), n).map_coeffs(lambda c: scale * c)
    else:
        want = SymPoly(n, {})
        if not scale.is_zero:
            raise VerificationFailed("short-shape scalar failed to vanish")
    assert_agree(f"lowering m={m} on {lam.render()} (n={n})", got=got, want=want)
    return {
        "check": "jack_lowering",
        "shape": lam.render(),
        "m": m,
        "nvars": n,
        "scale": scale.render(),
        "status": "pass",
    }
