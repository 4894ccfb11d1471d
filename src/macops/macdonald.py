"""Macdonald polynomial construction, Kostka matrices, and verification.

Two independent construction routes feed each other's checks.  The eigen
oracle solves the triangular linear system cut out by the first difference
operator on a single weight space; the raising recursion builds the
integral form column by column (:func:`column_recursion`, which also
builds the Jack limit from its own adder).  Exact agreement of the two
(and of the plus and minus column adders with each other) is the core
correctness gate of the whole package.  J is built and checked in Schur
coefficients through one engine (:func:`operators.apply_symmetric`);
monomials are made only for output (``MacdonaldResult.J``), and the
x-level forms check the engine from the tests (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .bases import SymPoly, assert_agree, change_basis, schur_to_monomial
from .errors import (LengthExceedsVars, NegativeExponent, NonExactDivision, NonIntegralEntry,
                     OutOfRange, SingularSystem, VerificationFailed)
from .operators import _FORMS, _binom2, _columns, _targets, apply_symmetric
from .partitions import (Partition, c_integral, c_integral_factors, eigenvalue, lowering_coeff,
                         partitions_of)
from .rings import QT, Frac, Poly, frac_by_factors, poly_exact_div


def default_nvars(lam: Partition) -> int:
    """Working variable count: the length of the shape, but at least two."""
    return max(lam.length, 2)


@dataclass(frozen=True, eq=False)
class MacdonaldResult:
    shape: Partition
    nvars: int
    schur: SymPoly  # J's Schur coefficients, in ZZ[q,t]
    provenance: str

    @property
    def J(self) -> SymPoly:
        """The integral form in the monomial basis."""
        return schur_to_monomial(self.schur.coeffs, self.nvars)

    @property
    def P(self) -> SymPoly:
        """The monic form J / c_integral(shape), each coefficient in lowest terms.

        Each cell's 1 - q^a t^b is minus a product of its cyclotomic
        factors, so c_integral_factors multiply to (-1)^|shape| c_integral
        and P's coefficient of m_mu is (-1)^|shape| J_mu over that product.
        """
        sign = -1 if self.shape.weight % 2 else 1
        factors = c_integral_factors(self.shape)
        return self.J.map_coeffs(lambda p: frac_by_factors(sign * p, factors))


@lru_cache(maxsize=None)
def _d1_action(d: int, n: int):
    """Matrix of the first difference operator on the weight-d Schur basis.

    Returns (shapes, entries) with entries[(nu, mu)] the coefficient of
    s_nu in the image of s_mu; only nonzero entries are stored.  The
    columns are those :func:`operators.apply_symmetric` reads for
    ("macdonald_r", 1, n), cached for the life of the process: whichever
    caller comes first runs the engine's pass for the columns still missing.
    """
    shapes = tuple(partitions_of(d, max_len=n))
    targets = _targets(0, 1, n, d)
    entries = {}
    for mu, col in zip(shapes, _columns("macdonald_r", 1, n, d, shapes)):
        entries.update(((nu, mu), col[v]) for nu, v in targets if v in col)
    return shapes, entries


def macdonald_P_eigen(lam: Partition, n: int) -> MacdonaldResult:
    """The integral form through the triangular eigenvector, fraction-free.

    D_1 is triangular on the s_nu, with its diagonal on the m_nu.  From the
    top Schur coefficient c_integral(lam) the eigenproblem is solved
    downwards, each coefficient an exact division in Z[q,t], so a remainder
    is a NonIntegralEntry naming the s_nu.  :func:`full_eigencheck` checks J.
    """
    if lam.length > n:
        raise LengthExceedsVars(f"{lam.render()} needs more than {n} variables")
    if n == 0:
        return MacdonaldResult(lam, 0, SymPoly(0, {lam: QT.one}), "eigen_oracle")
    shapes, entries = _d1_action(lam.weight, n)
    top = eigenvalue(lam, n, 1)
    coeffs: dict[Partition, Poly] = {lam: c_integral(lam)}
    below = False
    for nu in shapes:
        if nu == lam:
            below = True
            continue
        if not below:
            continue
        rhs = QT.zero
        for mu, u in coeffs.items():
            a = entries.get((nu, mu))
            if a is not None:
                rhs = rhs + u * a
        if rhs.is_zero:
            continue
        gap = top - eigenvalue(nu, n, 1)
        if gap.is_zero:
            raise SingularSystem(
                f"repeated eigenvalue between {lam.render()} and {nu.render()}"
            )
        try:
            coeffs[nu] = poly_exact_div(rhs, gap)
        except NonExactDivision:
            raise NonIntegralEntry(
                f"coefficient of s_{nu.render()} in the integral form: "
                f"{Frac(rhs, gap).render()}"
            ) from None
    return MacdonaldResult(lam, n, SymPoly(n, coeffs), "eigen_oracle")


def full_eigencheck(lam: Partition, n: int, J: SymPoly) -> bool:
    """Assert D_r J = e_r(q^lam_i t^(n-i)) J for every order r = 0..n, J in Schur coefficients.

    The eigenvalue is :func:`partitions.eigenvalue`; a failure names the
    order and the first s_mu that differs.
    """
    for r in range(n + 1):
        ev = eigenvalue(lam, n, r)
        assert_agree(
            f"eigencheck failed for {lam.render()} in {n} variables: D_{r}",
            got=apply_symmetric("macdonald_r", r, J),
            want=J.map_coeffs(lambda c: c * ev),
        )
    return True


def conjugate_columns(lam: Partition) -> tuple[int, ...]:
    """Column heights of the shape, shortest first."""
    return tuple(reversed(lam.conjugate().parts))


def column_recursion(adder: str, lam: Partition, n: int) -> SymPoly:
    """The adder applied to 1 once per column of lam, shortest column first.

    Each step is legal: the shape built so far has at most as many rows
    as the next column is high.  Returns Schur coefficients; one with a
    negative exponent, present exactly when a monomial coefficient has one
    (Kostka is unitriangular over Z), raises NegativeExponent.
    """
    if lam.length > n:
        raise LengthExceedsVars(f"{lam.render()} needs more than {n} variables")
    f = SymPoly(n, {Partition(()): _FORMS[adder][2].one})
    for m in conjugate_columns(lam):
        f = apply_symmetric(adder, m, f)
        for mu, c in f.coeffs.items():
            if min(map(min, c.terms)) < 0:
                raise NegativeExponent(
                    f"column {m} of {lam.render()} left s_{mu.render()} = {c.render()}"
                )
    return f


def macdonald_J_raising(lam: Partition, n: int, kind: str = "kplus") -> MacdonaldResult:
    """The integral form by the column recursion of the plus or minus adder."""
    if kind not in ("kplus", "kminus"):
        raise OutOfRange(f"unknown raising kind {kind!r}")
    adder = "raise_minus" if kind == "kminus" else "raise_plus"
    return MacdonaldResult(lam, n, column_recursion(adder, lam, n), f"raising_{kind}")


def macdonald_J(lam: Partition, n: int, via: str = "kplus") -> MacdonaldResult:
    """Dispatch on the construction route."""
    if via == "eigen":
        return macdonald_P_eigen(lam, n)
    return macdonald_J_raising(lam, n, kind=via)


def triple_agreement(lam: Partition, n: int) -> MacdonaldResult:
    """Both raising routes and the eigen oracle must coincide exactly.

    A disagreement names the first differing s_mu with all three values.
    """
    plus = macdonald_J_raising(lam, n, "kplus")
    assert_agree(
        f"construction routes disagree for {lam.render()} in {n} variables",
        kplus=plus.schur,
        kminus=macdonald_J_raising(lam, n, "kminus").schur,
        eigen=macdonald_P_eigen(lam, n).schur,
    )
    return plus


# -- Kostka matrices -----------------------------------------------------


@dataclass(frozen=True, eq=False)
class KostkaMatrix:
    degree: int
    nvars: int
    shapes: tuple[Partition, ...]
    entries: dict  # (row shape, column shape) -> Poly over q,t

    def entry(self, lam: Partition, mu: Partition) -> Poly:
        return self.entries.get((lam, mu), QT.zero)

    def verify_duality(self) -> bool:
        """Entry at (lam, mu) equals the conjugate entry with q and t swapped."""
        for lam in self.shapes:
            for mu in self.shapes:
                mirror = self.entry(lam.conjugate(), mu.conjugate()).subs(
                    {"q": QT.var("t"), "t": QT.var("q")}
                )
                if self.entry(lam, mu) != mirror:
                    raise VerificationFailed(
                        f"duality fails at ({lam.render()}; {mu.render()}): "
                        f"{self.entry(lam, mu).render()} vs {mirror.render()}"
                    )
        return True


def kostka_matrix(d: int, nvars: int | None = None, check_duality: bool = False) -> KostkaMatrix:
    """Transition coefficients from the integral forms to the t-Schur basis.

    Columns are the integral forms J_mu; the entry at lam is K_lam,mu(q,t)
    = <J_mu, s_lam>_t, the Hall-Littlewood scalar product with a Schur
    function (SFHP III.4, VI.8), by ``change_basis`` on J's Schur
    coefficients as one exact division by d! (t;t)_d, which certifies every
    entry to be a polynomial in q and t with integer coefficients.
    """
    if d < 0:
        raise OutOfRange("negative degree")
    n = nvars if nvars is not None else max(d, 1)
    if n < d:
        raise OutOfRange("need at least as many variables as the degree")
    shapes = tuple(partitions_of(d))
    entries: dict = {}
    for mu in shapes:
        try:
            column = change_basis(macdonald_J_raising(mu, n).schur)
        except NonIntegralEntry as exc:
            raise NonIntegralEntry(f"column J[{mu.render()}]: {exc}") from None
        entries.update(((lam, mu), c) for lam, c in column.items())
    mat = KostkaMatrix(d, n, shapes, entries)
    if check_duality:
        mat.verify_duality()
    return mat


# -- lowering verification ----------------------------------------------


def column_removal_law(what: str, remover: str, build, coeff, lam: Partition, m: int, n: int) -> Poly:
    """The column-removal law of one family's remover on its J = build(shape); return the scalar.

    build gives Schur coefficients, the scalar is coeff(lam, m, n).  For a
    shape of length exactly m the image of J(lam) is the scalar times J of
    the shape with its first column removed; for a shorter shape both the
    scalar and the image must vanish.  A VerificationFailed names what.
    """
    got = apply_symmetric(remover, m, build(lam))
    scale = coeff(lam, m, n)
    if lam.length == m:
        want = build(lam.minus_ones(m)).map_coeffs(lambda c: scale * c)
    elif scale.is_zero:
        want = SymPoly(n, {})
    else:
        raise VerificationFailed("short-shape scalar failed to vanish")
    assert_agree(f"{what} m={m} on {lam.render()} (n={n})", got=got, want=want)
    return scale


def lowering_verify(lam: Partition, m: int, n: int, kind: str = "mplus") -> Poly:
    """Check the column-removal law (:func:`column_removal_law`) on the integral form; return its scalar."""
    if kind not in ("mplus", "mminus"):
        raise OutOfRange(f"unknown lowering kind {kind!r}")
    if not lam.length <= m <= n:
        raise OutOfRange("need length of shape <= m <= n")
    remover = "lower_plus" if kind == "mplus" else "lower_minus"
    return column_removal_law(
        f"lowering {kind}", remover, lambda mu: macdonald_J_raising(mu, n).schur, lowering_coeff, lam, m, n
    )


def duality_verify(lam: Partition, m: int, n: int) -> None:
    """The minus adder against the bar-dual of the plus adder, on s_lam.

    The bar involution inverts q and t.  The minus adder is the plus adder
    conjugated by it, composed with the global q-shift and scaled by
    (-1)^m t^(m + m(m-1)/2).  The global shift multiplies s_lam by q^|lam|,
    and s_lam has no q or t, so the law on s_lam reads

        raise_minus(s_lam) = (-1)^m t^(m + m(m-1)/2) q^|lam| bar(raise_plus(s_lam)),

    compared on Schur coefficients (per weight, the s_lam with at most n
    parts span what the m_lam span); a failure raises VerificationFailed
    naming the first s_mu that differs, with both values.
    """
    f = SymPoly(n, {lam: QT.one})
    scale = QT.monomial((lam.weight, m + _binom2(m)), -1 if m % 2 else 1)
    bar = {"q": QT.var("q", -1), "t": QT.var("t", -1)}
    assert_agree(
        f"duality m={m} on s[{lam.render()}] (n={n})",
        minus=apply_symmetric("raise_minus", m, f),
        dual_plus=apply_symmetric("raise_plus", m, f).map_coeffs(lambda c: scale * c.subs(bar)),
    )


def commute_verify(lam: Partition, n: int):
    """The operators of every order r < s commute on s_lam; yields each pair (r, s) that passed.

    D_r D_s s_lam and D_s D_r s_lam are compared on Schur coefficients;
    the first pair that differs raises VerificationFailed.
    """
    f = SymPoly(n, {lam: QT.one})
    images = [apply_symmetric("macdonald_r", r, f) for r in range(n + 1)]
    for r, s in combinations(range(n + 1), 2):
        assert_agree(
            f"commutator [{r},{s}] on s[{lam.render()}] (n={n})",
            rs=apply_symmetric("macdonald_r", r, images[s]),
            sr=apply_symmetric("macdonald_r", s, images[r]),
        )
        yield r, s
