"""One-parameter differential limits of the column adders and removers.

Setting q to an integer power of t and letting t tend to 1 turns the
q-shift operators into first-order differential operators, the jack
kinds of the coefficient engine in ``operators`` (exact coefficients in
Z[a], with a the limit parameter).  This module builds the Schur
coefficients of the one-parameter polynomials by the column recursion
(:func:`macdonald.column_recursion` with the jack_raise adder), checks
the jack_lower remover by the same column-removal law
(:func:`macdonald.column_removal_law`), and cross-checks them against
the substitution limit of the two-parameter integral forms.
"""

from __future__ import annotations

from .bases import SymPoly
from .errors import NonExactDivision, NotDivisible, OutOfRange, VerificationFailed
from .macdonald import column_recursion, column_removal_law, macdonald_J_raising
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
    """The one-parameter polynomial's Schur coefficients by the column recursion, in Z[a]."""
    return column_recursion("jack_raise", lam, n)


def jack_limit_oracle(J: SymPoly, alpha: int) -> SymPoly:
    """Substitution limit of a two-parameter integral form, given and returned in Schur coefficients.

    Sets q to t**alpha coefficientwise, divides by (1-t)^weight exactly,
    then evaluates at t = 1.  Integer alpha only; the result has plain
    integer coefficients.  Raises NotDivisible when (1-t)^weight does not
    divide a folded coefficient.
    """
    if alpha < 1:
        raise OutOfRange("need a positive integer parameter")
    out = {}
    for mu, c in J.coeffs.items():
        folded = c.subs({"q": QT.var("t", alpha)})
        try:
            g = poly_exact_div(folded, (QT.one - QT.var("t")) ** mu.weight)
        except NonExactDivision as exc:
            raise NotDivisible(f"(1-t)^{mu.weight} does not divide") from exc
        out[mu] = g.subs({"t": QT.one}).const_value()
    return SymPoly(J.nvars, out)


def jack_check_limits(lam: Partition, n: int) -> None:
    """Differential recursion versus substitution limit at the integer values LIMIT_ALPHAS.

    A mismatch, or a leading coefficient other than the hook product,
    raises VerificationFailed.
    """
    sym = jack_J(lam, n)
    J = macdonald_J_raising(lam, n).schur
    for alpha in LIMIT_ALPHAS:
        # SymPoly drops the zeros: at a = 1 only s_lam's coefficient is left
        got = sym.map_coeffs(lambda c: c.subs({"a": ALPHA.const(alpha)}).const_value())
        if got != jack_limit_oracle(J, alpha):
            raise VerificationFailed(
                f"limit mismatch for {lam.render()} (n={n}) at parameter {alpha}"
            )
    lead = sym.coeffs.get(lam)
    if lead != c_alpha(lam):
        raise VerificationFailed(
            f"leading coefficient of {lam.render()} is not the hook product"
        )


def jack_lowering_verify(lam: Partition, m: int, n: int) -> Poly:
    """The column-removal law (:func:`macdonald.column_removal_law`) for the differential remover.

    Returns its scalar in Z[a].
    """
    return column_removal_law("lowering", "jack_lower", lambda mu: jack_J(mu, n), jack_lowering_coeff, lam, m, n)
