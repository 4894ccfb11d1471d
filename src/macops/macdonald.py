"""Macdonald polynomial construction, Kostka matrices, and verification.

Two independent construction routes feed each other's checks.  The eigen
oracle solves the triangular linear system cut out by the first difference
operator on a single weight space; the raising recursion builds the
integral form column by column.  Exact agreement of the two (and of the
plus and minus column adders with each other) is the core correctness
gate of the whole package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .bases import SymPoly, assert_agree, change_basis, expand_monomial, schur_to_monomial
from .errors import (
    LengthExceedsVars,
    NegativeExponent,
    NonExactDivision,
    NonIntegralEntry,
    OutOfRange,
    SingularSystem,
    VerificationFailed,
)
from .operators import OperatorSpec, _binom2, _schur_rows, apply_operator, apply_symmetric, operator_ring
from .partitions import (
    Partition,
    c_integral,
    c_integral_factors,
    eigen_poly,
    eigenvalue_first,
    lowering_coeff,
    partitions_of,
)
from .rings import (
    QT,
    Frac,
    Poly,
    coeff_of_power,
    frac_by_factors,
    poly_exact_div,
)

PROVENANCE_TAGS = ("eigen_oracle", "raising_kplus", "raising_kminus")


def default_nvars(lam: Partition) -> int:
    """Working variable count: the length of the shape, but at least two."""
    return max(lam.length, 2)


@dataclass(frozen=True, eq=False)
class MacdonaldResult:
    shape: Partition
    nvars: int
    J: SymPoly  # monomial basis, coefficients in ZZ[q,t]
    provenance: str

    @property
    def P(self) -> SymPoly:
        """The monic form J / c_integral(shape), fraction coefficients.

        Reduced by trial division with c_integral's irreducible factors;
        each reduced denominator is computed once per shape.
        """
        c, factors, dens = _p_denominators(self.shape)
        return self.J.map_coeffs(lambda p: frac_by_factors(p, c, factors, dens))


@lru_cache(maxsize=None)
def _p_denominators(lam: Partition):
    """c_integral(lam), its factors, and a memo for frac_by_factors.

    The memo maps how often each factor was removed to the reduced
    denominator, a function of lam and those counts only, so it is
    filled on demand and shared by every P of the shape.
    """
    return c_integral(lam), c_integral_factors(lam), {}


@lru_cache(maxsize=None)
def _d1_action(d: int, n: int):
    """Matrix of the first difference operator on the weight-d monomial basis.

    Returns (shapes, entries) with entries[(nu, mu)] the coefficient of
    m_nu in the image of m_mu; only nonzero entries are stored.  One pass
    of the engine over the targets gives every column's Schur coefficients.
    """
    shapes = tuple(partitions_of(d, max_len=n))
    rows = _schur_rows("macdonald_r", 1, n, d, {mu.parts + (0,) * (n - mu.length): mu for mu in shapes})
    entries = {}
    for mu in shapes:
        image = schur_to_monomial({lam: row[mu] for lam, _, row in rows if mu in row}, n)
        entries.update(((nu, mu), c) for nu, c in image.coeffs.items())
    return shapes, entries


def macdonald_P_eigen(lam: Partition, n: int) -> MacdonaldResult:
    """The integral form through the triangular eigenvector, fraction-free.

    Starts from the top coefficient c_integral(lam) and solves the
    one-operator eigenproblem downwards; each coefficient is an exact
    division in Z[q,t], so a remainder is a NonIntegralEntry naming the
    monomial.  :func:`full_eigencheck` certifies the result separately.
    """
    if lam.length > n:
        raise LengthExceedsVars(f"{lam.render()} needs more than {n} variables")
    if n == 0:
        return MacdonaldResult(lam, 0, SymPoly(0, {lam: QT.one}), "eigen_oracle")
    shapes, entries = _d1_action(lam.weight, n)
    top = eigenvalue_first(lam, n)
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
        gap = top - eigenvalue_first(nu, n)
        if gap.is_zero:
            raise SingularSystem(
                f"repeated eigenvalue between {lam.render()} and {nu.render()}"
            )
        try:
            coeffs[nu] = poly_exact_div(rhs, gap)
        except NonExactDivision:
            raise NonIntegralEntry(
                f"coefficient of m_{nu.render()} in the integral form: "
                f"{Frac(rhs, gap).render()}"
            ) from None
    return MacdonaldResult(lam, n, SymPoly(n, coeffs), "eigen_oracle")


def full_eigencheck(lam: Partition, n: int, J: SymPoly) -> bool:
    """Assert the generating eigen-equation, symbolic in u, on coefficients.

    Its u^r part is D_r J = e_r(q^lam_i t^(n-i)) J, checked for every
    order r = 0..n with the operators run on monomial coefficients; a
    failure names the order and the first m_mu that differs.
    """
    series = eigen_poly(lam, n)
    for r in range(n + 1):
        ev = coeff_of_power(series, "u", r).subs({}, QT) * (-1) ** r
        assert_agree(
            f"eigencheck failed for {lam.render()} in {n} variables: D_{r}",
            got=apply_symmetric("macdonald_r", r, J),
            want=J.map_coeffs(lambda c: c * ev),
        )
    return True


def conjugate_columns(lam: Partition) -> tuple[int, ...]:
    """Column heights of the shape, shortest first."""
    return tuple(reversed(lam.conjugate().parts))


def macdonald_J_raising(lam: Partition, n: int, kind: str = "kplus") -> MacdonaldResult:
    """The integral form by repeated column adders, shortest column first.

    Each step is legal: the shape built so far has at most as many rows
    as the next column is high.
    """
    if kind not in ("kplus", "kminus"):
        raise OutOfRange(f"unknown raising kind {kind!r}")
    if lam.length > n:
        raise LengthExceedsVars(f"{lam.render()} needs more than {n} variables")
    adder = "raise_minus" if kind == "kminus" else "raise_plus"
    f = SymPoly(n, {Partition(()): QT.one})
    for m in conjugate_columns(lam):
        f = apply_symmetric(adder, m, f)
        for mu, c in f.coeffs.items():
            if c.var_min("q") < 0 or c.var_min("t") < 0:
                raise NegativeExponent(
                    f"column {m} of {lam.render()} left m_{mu.render()} = {c.render()}"
                )
    return MacdonaldResult(lam, n, f, f"raising_{kind}")


def macdonald_J(lam: Partition, n: int, via: str = "kplus") -> MacdonaldResult:
    """Dispatch on the construction route."""
    if via == "eigen":
        return macdonald_P_eigen(lam, n)
    return macdonald_J_raising(lam, n, kind=via)


def triple_agreement(lam: Partition, n: int) -> MacdonaldResult:
    """Both raising routes and the eigen oracle must coincide exactly.

    A disagreement names the first differing m_mu with all three values.
    """
    plus = macdonald_J_raising(lam, n, "kplus")
    assert_agree(
        f"construction routes disagree for {lam.render()} in {n} variables",
        kplus=plus.J,
        kminus=macdonald_J_raising(lam, n, "kminus").J,
        eigen=macdonald_P_eigen(lam, n).J,
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
    function (SFHP III.4, VI.8), computed by ``change_basis`` as one exact
    division by (t;t)_d.  That division certifies every entry to be a
    polynomial in q and t with integer coefficients.
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
            column = change_basis(macdonald_J_raising(mu, n).J)
        except NonIntegralEntry as exc:
            raise NonIntegralEntry(f"column J[{mu.render()}]: {exc}") from None
        entries.update(((lam, mu), c) for lam, c in column.items())
    mat = KostkaMatrix(d, n, shapes, entries)
    if check_duality:
        mat.verify_duality()
    return mat


# -- lowering verification ----------------------------------------------


def lowering_verify(lam: Partition, m: int, n: int, kind: str = "mplus") -> dict:
    """Check the column-removal law on the integral form.

    For a shape of length exactly m the image is the predicted scalar
    times the shape with its first column removed; for shorter shapes the
    image must vanish identically.
    """
    if kind not in ("mplus", "mminus"):
        raise OutOfRange(f"unknown lowering kind {kind!r}")
    if not lam.length <= m <= n:
        raise OutOfRange("need length of shape <= m <= n")
    opkind = "lower_plus" if kind == "mplus" else "lower_minus"
    got = apply_symmetric(opkind, m, macdonald_J_raising(lam, n).J)
    if lam.length == m:
        scale = lowering_coeff(lam, m, n)
        want = macdonald_J_raising(lam.minus_ones(m), n).J.map_coeffs(lambda c: scale * c)
        scale_str = scale.render()
    else:
        want = SymPoly(n, {})
        scale_str = "0"
    assert_agree(f"lowering {kind} m={m} on {lam.render()} (n={n})", got=got, want=want)
    return {
        "check": "lowering",
        "kind": kind,
        "shape": lam.render(),
        "m": m,
        "nvars": n,
        "scale": scale_str,
        "status": "pass",
    }


def duality_verify(lam: Partition, m: int, n: int) -> dict:
    """The minus adder against the bar-dual of the plus adder, on m_lam.

    The bar involution inverts q and t.  The minus adder is the plus adder
    conjugated by it, composed with the global q-shift and scaled by
    (-1)^m t^(m + m(m-1)/2).  The global shift multiplies m_lam by q^|lam|,
    and m_lam has no q or t, so the law on m_lam reads

        raise_minus(m_lam) = (-1)^m t^(m + m(m-1)/2) q^|lam| bar(raise_plus(m_lam)),

    compared cross-multiplied.
    """
    ring = operator_ring(n, "raise_plus")
    f = expand_monomial(lam, n, ring=ring)
    ln, ld = apply_operator(OperatorSpec("raise_minus", m), f, n, raw=True)
    pn, pd = apply_operator(OperatorSpec("raise_plus", m), f, n, raw=True)
    scale = ring.var("q", lam.weight) * ring.var("t", m + _binom2(m), -1 if m % 2 else 1)
    bar = {"q": ring.var("q", -1), "t": ring.var("t", -1)}
    if ln * pd.subs(bar) != scale * pn.subs(bar) * ld:
        raise VerificationFailed(f"duality m={m} on m[{lam.render()}] (n={n})")
    return {
        "check": "duality",
        "shape": lam.render(),
        "m": m,
        "nvars": n,
        "status": "pass",
    }


def commute_verify(lam: Partition, n: int):
    """The operators of every order r < s commute on m_lam; one record per pair."""
    ring = operator_ring(n, "macdonald_r")
    f = expand_monomial(lam, n, ring=ring)
    images = {}
    for r in range(0, n + 1):
        images[r] = apply_operator(OperatorSpec("macdonald_r", r), f, n)
    for r in range(0, n + 1):
        for s in range(r + 1, n + 1):
            rs = apply_operator(OperatorSpec("macdonald_r", r), images[s], n)
            sr = apply_operator(OperatorSpec("macdonald_r", s), images[r], n)
            if rs != sr:
                raise VerificationFailed(
                    f"commutator [{r},{s}] on m[{lam.render()}] (n={n})"
                )
            yield {
                "check": "commute",
                "shape": lam.render(),
                "r": r,
                "s": s,
                "nvars": n,
                "status": "pass",
            }
