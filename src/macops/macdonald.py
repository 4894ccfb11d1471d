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

from .bases import SymPoly, change_basis, expand_monomial, label_key, schur_to_monomial, signed_arrangements, sym_to_xpoly
from .errors import (
    LengthExceedsVars,
    NegativeExponent,
    NonExactDivision,
    NonIntegralEntry,
    OutOfRange,
    SingularSystem,
    VerificationFailed,
)
from .operators import OperatorSpec, _binom2, apply_column_adder, apply_operator, build, dualize, operator_ring
from .partitions import (
    Partition,
    c_integral,
    c_integral_factors,
    eigen_poly,
    eigenvalue_first,
    lowering_coeff,
    partitions_of,
)
from .rings import QT, Frac, Poly, frac_by_factors, poly_exact_div, swap_vars, xring

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

        Reduced by trial division with c_integral's irreducible factors.
        """
        c = c_integral(self.shape)
        factors = c_integral_factors(self.shape)
        return self.J.map_coeffs(lambda p: frac_by_factors(p, c, factors))


@lru_cache(maxsize=None)
def _d1_action(d: int, n: int):
    """Matrix of the first difference operator on the weight-d monomial basis.

    Returns (shapes, entries) with entries[(nu, mu)] the coefficient of
    m_nu in the image of m_mu; only nonzero entries are stored.  The
    operator is Delta^-1 sum over w of sgn(w) x^(w delta) sum over i of
    t^((w delta)_i) T_i, so the Schur coefficient of its image of m_mu at
    lam is the coefficient of x^(lam+delta): a signed sum over the
    rearrangements e of delta with e <= v = lam + delta and v - e a
    rearrangement of mu.  Kostka numbers turn it back into monomials.
    """
    shapes = tuple(partitions_of(d, max_len=n))
    delta = tuple(range(n - 1, -1, -1))
    schur: dict = {mu: {} for mu in shapes}
    for lam in shapes:
        v = tuple(p + s for p, s in zip(lam.parts + (0,) * (n - lam.length), delta))
        terms: dict = {}
        for e, sign in signed_arrangements(delta, lambda i, x: x <= v[i]):
            b = tuple(x - y for x, y in zip(v, e))
            acc = terms.setdefault(Partition(sorted(b, reverse=True)), {})
            for te, qe in zip(e, b):
                acc[(qe, te)] = acc.get((qe, te), 0) + sign
        for mu, acc in terms.items():
            acc = {k: c for k, c in acc.items() if c}
            if acc:
                schur[mu][lam] = Poly(QT, acc)
    entries: dict = {}
    for mu in shapes:
        for nu, c in schur_to_monomial(schur[mu], n).coeffs.items():
            entries[(nu, mu)] = c
    return shapes, entries


def macdonald_P_eigen(lam: Partition, n: int, validate: bool = True) -> MacdonaldResult:
    """The integral form through the triangular eigenvector, fraction-free.

    Starts from the top coefficient c_integral(lam) and solves the
    one-operator eigenproblem downwards; each coefficient is an exact
    division in Z[q,t], so a remainder is a NonIntegralEntry naming the
    monomial.  The full u-generating eigencheck then certifies J unless
    validate is switched off by a caller doing its own cross-checks.
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
    J = SymPoly(n, coeffs)
    if validate:
        full_eigencheck(lam, n, J)
    return MacdonaldResult(lam, n, J, "eigen_oracle")


def full_eigencheck(lam: Partition, n: int, J: SymPoly) -> bool:
    """Assert the generating eigen-equation symbolically in u."""
    ring = xring(n, ("q", "t", "u"))
    fx = sym_to_xpoly(J, ring)
    got = apply_operator(OperatorSpec("macdonald_u"), fx, n)
    want = eigen_poly(lam, n).cast(ring) * fx
    if got != want:
        raise VerificationFailed(
            f"eigencheck failed for {lam.render()} in {n} variables"
        )
    return True


def conjugate_columns(lam: Partition) -> tuple[int, ...]:
    """Column heights of the shape, shortest first."""
    return tuple(reversed(lam.conjugate().parts))


def row_step_columns(lam: Partition, n: int) -> tuple[int, ...]:
    """The same heights read off the row differences of the shape."""
    if lam.length > n:
        raise LengthExceedsVars(f"{lam.render()} needs more than {n} variables")
    out = []
    for i in range(1, n + 1):
        out.extend([i] * (lam.part(i) - lam.part(i + 1)))
    return tuple(out)


def macdonald_J_raising(
    lam: Partition,
    n: int,
    kind: str = "kplus",
    columns: tuple[int, ...] | None = None,
) -> MacdonaldResult:
    """The integral form by repeated column adders, shortest column first.

    An explicit columns sequence may be supplied; it must build the shape
    with every step legal (current length at most the next height).
    """
    if kind not in ("kplus", "kminus"):
        raise OutOfRange(f"unknown raising kind {kind!r}")
    if lam.length > n:
        raise LengthExceedsVars(f"{lam.render()} needs more than {n} variables")
    cols = tuple(columns) if columns is not None else conjugate_columns(lam)
    shape = Partition(())
    for m in cols:
        if not 0 <= m <= n:
            raise OutOfRange(f"column height {m} out of range for n={n}")
        if shape.length > m:
            raise OutOfRange(
                f"columns {cols} out of order: height {m} after length {shape.length}"
            )
        shape = shape.plus_ones(m)
    if shape != lam:
        raise OutOfRange(
            f"columns {cols} build {shape.render()}, not {lam.render()}"
        )
    f = SymPoly(n, {Partition(()): QT.one})
    for m in cols:
        f = apply_column_adder(m, f, minus=kind == "kminus")
        for mu, c in f.coeffs.items():
            if c.var_min("q") < 0 or c.var_min("t") < 0:
                raise NegativeExponent(
                    f"column {m} of {lam.render()} left m_{mu.render()} = {c.render()}"
                )
    return MacdonaldResult(lam, n, f, f"raising_{kind}")


def macdonald_J(
    lam: Partition, n: int, via: str = "kplus", validate: bool = False
) -> MacdonaldResult:
    """Dispatch on the construction route; optional eigencheck at the end."""
    if via == "eigen":
        return macdonald_P_eigen(lam, n, validate=validate)
    res = macdonald_J_raising(lam, n, kind=via)
    if validate:
        full_eigencheck(lam, n, res.J)
    return res


def triple_agreement(lam: Partition, n: int) -> MacdonaldResult:
    """Both raising routes and the eigen oracle must coincide exactly.

    A disagreement names the first differing m_mu with all three values.
    """
    plus = macdonald_J_raising(lam, n, "kplus")
    routes = (plus.J, macdonald_J_raising(lam, n, "kminus").J,
              macdonald_P_eigen(lam, n, validate=False).J)
    for mu in sorted({mu for J in routes for mu in J.coeffs}, key=label_key):
        kp, km, ei = (J.coeffs.get(mu, QT.zero) for J in routes)
        if kp != km or kp != ei:
            raise VerificationFailed(
                f"construction routes disagree for {lam.render()} in {n} variables "
                f"at m[{mu.render()}]: kplus {kp.render()}, kminus {km.render()}, "
                f"eigen {ei.render()}"
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
                mirror = swap_vars(
                    self.entry(lam.conjugate(), mu.conjugate()), "q", "t"
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
    ring = xring(n)
    J = sym_to_xpoly(macdonald_J_raising(lam, n).J, ring)
    got = apply_operator(OperatorSpec(opkind, m), J, n)
    if lam.length == m:
        scale = lowering_coeff(lam, m, n).cast(ring)
        lower = sym_to_xpoly(macdonald_J_raising(lam.minus_ones(m), n).J, ring)
        want = scale * lower
        scale_str = lowering_coeff(lam, m, n).render()
    else:
        want = ring.zero
        scale_str = "0"
    if got != want:
        raise VerificationFailed(
            f"lowering {kind} m={m} on {lam.render()} (n={n}): "
            f"got {got.render()}, want {want.render()}"
        )
    return {
        "check": "lowering",
        "kind": kind,
        "shape": lam.render(),
        "m": m,
        "nvars": n,
        "scale": scale_str,
        "status": "pass",
    }


@lru_cache(maxsize=None)
def _dual_plus(m: int, n: int):
    """The bar-dual of the literal plus adder, q-shifted and scaled.

    The dual is composed with the global q-shift and scaled by
    (-1)^m t^(m + m(m-1)/2); it depends on (m, n) only, so it is built
    once per pair.
    """
    sc = operator_ring(n, "raise_plus").var("t", m + _binom2(m))
    dual = dualize(build(OperatorSpec("raise_plus", m), n)).with_global_qshift()
    return dual.scaled(-sc if m % 2 else sc)


def duality_verify(lam: Partition, m: int, n: int) -> dict:
    """The minus adder against the bar-dual of the plus adder, on m_lam.

    Both sides are compared cross-multiplied.
    """
    f = expand_monomial(lam, n, ring=operator_ring(n, "raise_plus"))
    ln, ld = apply_operator(OperatorSpec("raise_minus", m), f, n, raw=True)
    rn, rd = _dual_plus(m, n).apply(f, raw=True)
    if ln * rd != rn * ld:
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
