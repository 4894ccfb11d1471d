"""Symmetric polynomials: expansions, the Schur and monomial bases, big-Schur solves.

Expansion targets are honest polynomials in x1..xn over whatever scalar
variables the chosen ring carries.  The package computes in Schur
coefficients; ``schur_to_monomial`` makes monomial ones for output by the
integer Kostka numbers (SFHP I.3), and so expands a Schur polynomial for
any integer vector, once straightened to a partition; nothing is
antisymmetrized over the n! permutations.  The change to the t-deformed
Schur basis S_lam(x;t) needs no x-polynomials: S_lam is the basis dual
to the s_lam under the Hall-Littlewood scalar product <,>_t (Macdonald,
SFHP III.4 and VI.8), so each coefficient is <f, s_lam>_t, read off from
the Schur coefficients of f through the character table.  The x-level
determinant ``expand_big_schur`` stays as the independent oracle the
tests rebuild S_lam with.  The x-level building blocks of the operators
live here too: ``unit_vector``, ``elementary`` and one builder,
``cross_named`` (cached by index as ``cross_cleared``), of the Vandermonde
Delta times a crossing product; the t-shifted T_I(Delta) is t^C(|I|,2)
times the product with I chosen, and ``vandermonde`` is the one with
nothing chosen.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from math import factorial

from .errors import (
    LengthExceedsVars,
    NonExactDivision,
    NonIntegralEntry,
    NotSymmetric,
    OutOfRange,
    VerificationFailed,
)
from .partitions import Partition, column_unit_scale, partitions_of, revlex_key
from .rings import (
    QT,
    Frac,
    Poly,
    Ring,
    poly_exact_div,
    split_x,
    xring,
)


def label_key(lam: Partition):
    """Listing order of partition labels: by weight, then largest first."""
    return (lam.weight, revlex_key(lam))


class SymPoly:
    """A finite dict of coefficients indexed by partitions, in n variables; the caller knows the basis."""

    __slots__ = ("nvars", "coeffs")

    def __init__(self, nvars: int, coeffs: dict):
        self.nvars = nvars
        self.coeffs = {lam: c for lam, c in coeffs.items() if c}

    def items(self):
        return sorted(self.coeffs.items(), key=lambda kv: label_key(kv[0]))

    def __eq__(self, other):
        return (
            isinstance(other, SymPoly)
            and self.nvars == other.nvars
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def map_coeffs(self, fn) -> "SymPoly":
        return SymPoly(self.nvars, {k: fn(v) for k, v in self.coeffs.items()})

    def __repr__(self):
        inner = ", ".join(f"({k.render()}): {render_coeff(v)}" for k, v in self.items())
        return f"<SymPoly[{self.nvars}] {{{inner}}}>"


def assert_agree(what: str, **syms: SymPoly) -> None:
    """Raise VerificationFailed naming the first s_mu (listing order) where syms differ, with every value."""
    ring = next((c.ring for s in syms.values() for c in s.coeffs.values()), QT)
    for mu in sorted({mu for s in syms.values() for mu in s.coeffs}, key=label_key):
        vals = {name: s.coeffs.get(mu, ring.zero) for name, s in syms.items()}
        first = next(iter(vals.values()))
        if any(v != first for v in vals.values()):
            shown = ", ".join(f"{name} {v.render()}" for name, v in vals.items())
            raise VerificationFailed(f"{what} at s[{mu.render()}]: {shown}")


def render_coeff(c) -> str:
    if isinstance(c, (Poly, Frac)):
        return c.render()
    return str(c)


# -- expansions ----------------------------------------------------------


def expand_monomial(lam: Partition, n: int, ring: Ring | None = None) -> Poly:
    """The monomial symmetric polynomial m_lam in x1..xn."""
    if lam.length > n:
        raise LengthExceedsVars(f"{lam!r} needs more than {n} variables")
    ring = ring or xring(n)
    pad = tuple(lam.parts) + (0,) * (n - lam.length)
    width = len(ring.names)
    terms = {}
    for e in set(permutations(pad)):
        terms[e + (0,) * (width - n)] = 1
    return Poly(ring, terms)


def unit_vector(idxs, width: int) -> tuple[int, ...]:
    """The 0/1 exponent vector of the given width, 1 at each (1-based) index in idxs."""
    s = set(idxs)
    return tuple(int(i in s) for i in range(1, width + 1))


def elementary(k: int, n: int, ring: Ring | None = None, skip: frozenset = frozenset()) -> Poly:
    """e_k in the variables x1..xn minus the skipped (1-based) indices."""
    ring = ring or xring(n)
    avail = [i for i in range(1, n + 1) if i not in skip]
    if k < 0 or k > len(avail):
        return ring.zero
    return Poly(ring, {unit_vector(c, len(ring.names)): 1 for c in combinations(avail, k)})


def cross_named(ring: Ring, vnames, chosen) -> Poly:
    """The Vandermonde of vnames times the crossing product of the chosen names.

    The variables are named in vnames, in Vandermonde order.  The crossing
    product is prod (t x_i - x_j)/(x_i - x_j) over i in chosen, j outside;
    the result is an exact polynomial with all orientation signs folded
    in, T_chosen(Delta) / t^C(|chosen|,2) with T the t-shift of the chosen
    variables.  With nothing chosen it is Delta, and needs no t.
    """
    res = ring.one
    t = ring.var("t") if chosen else None
    for ia, a in enumerate(vnames):
        xa = ring.var(a)
        for b in vnames[ia + 1 :]:
            xb = ring.var(b)
            a_in = a in chosen
            if a_in == (b in chosen):
                res = res * (xa - xb)
            else:
                res = res * ((t * xa - xb) if a_in else (xa - t * xb))
    return res


@lru_cache(maxsize=None)
def cross_cleared(n: int, I: tuple[int, ...], names: tuple[str, ...]) -> Poly:
    """:func:`cross_named` over x1..xn with the (1-based) indices I chosen."""
    xs = tuple(f"x{i}" for i in range(1, n + 1))
    return cross_named(Ring(names), xs, frozenset(f"x{i}" for i in I))


def vandermonde(n: int, ring: Ring | None = None) -> Poly:
    """Delta = prod_{i<j} (x_i - x_j): the crossing product with nothing chosen."""
    return cross_cleared(n, (), (ring or xring(n)).names)


def signed_arrangements(vals: tuple[int, ...], fits):
    """Arrangements u of the strictly decreasing vals with fits(i, u[i]) everywhere.

    Yields (u, sign), the sign of the permutation that arranges vals into
    u.  Positions are filled left to right and a value that does not fit
    prunes the branch, so the n! orders are never listed.
    """
    n = len(vals)
    used = [False] * n
    u = [0] * n

    def rec(i, odd):
        if i == n:
            yield tuple(u), -1 if odd else 1
            return
        # every unused index left of j holds a larger value that lands later
        skipped = 0
        for j in range(n):
            if used[j]:
                continue
            if fits(i, vals[j]):
                used[j] = True
                u[i] = vals[j]
                yield from rec(i + 1, odd ^ (skipped & 1))
                used[j] = False
            skipped += 1

    yield from rec(0, 0)


def _strip_removals(shape: tuple[int, ...], k: int):
    """Shapes inner such that shape / inner is a horizontal strip of k cells."""
    out = []

    def rec(i, left, acc):
        if i == len(shape):
            if not left:
                out.append(tuple(x for x in acc if x))
            return
        low = shape[i + 1] if i + 1 < len(shape) else 0
        for x in range(max(low, shape[i] - left), shape[i] + 1):
            rec(i + 1, left - (shape[i] - x), acc + [x])

    rec(0, k, [])
    return out


@lru_cache(maxsize=None)
def kostka_numbers(d: int, n: int) -> dict:
    """Integer Kostka numbers K[mu, nu] for the partitions of d with at most n parts.

    K[mu, nu] counts the semistandard tableaux of shape mu and content
    nu: the cells holding the largest entry form a horizontal strip, so
    the count recurses on removing one.  Returns {mu: ((nu, K), ...)}
    with the zeros left out; s_mu = sum of K[mu, nu] m_nu.
    """
    memo: dict = {}

    def count(shape, content):
        if not content:
            return 0 if shape else 1
        if len(shape) > len(content):
            return 0
        key = (shape, content)
        if key not in memo:
            memo[key] = sum(
                count(inner, content[:-1]) for inner in _strip_removals(shape, content[-1])
            )
        return memo[key]

    shapes = partitions_of(d, max_len=n)
    out = {}
    for mu in shapes:
        row = ((nu, count(mu.parts, nu.parts)) for nu in shapes)
        out[mu] = tuple((nu, k) for nu, k in row if k)
    return out


def _int_combination(pairs):
    """The sum of k * c over pairs (k, c), accumulated in one dict.

    The k are ints; the c are all ints or all polynomials over one ring.
    An int counts as a constant over the ring with no variables.
    """
    acc: dict = {}
    ring = None
    for k, c in pairs:
        if isinstance(c, Poly):
            ring, terms = c.ring, c.terms
        else:
            terms = {(): c}
        if k:
            for e, x in terms.items():
                acc[e] = acc.get(e, 0) + k * x
    return acc.get((), 0) if ring is None else ring.from_terms(acc)


def schur_to_monomial(coeffs: dict, n: int) -> SymPoly:
    """The monomial-basis form of sum over mu of coeffs[mu] * s_mu in n variables."""
    rows: dict = {}
    for mu, c in coeffs.items():
        for nu, k in kostka_numbers(mu.weight, n)[mu]:
            rows.setdefault(nu, []).append((k, c))
    return SymPoly(n, {nu: _int_combination(row) for nu, row in rows.items()})


def expand_schur(vec, n: int, ring: Ring | None = None) -> Poly:
    """Schur polynomial for any integer vector, straightening included.

    s_v is the bialternant det(x_j^(v_i + n - i)) / Delta (SFHP I.3): a
    repeated exponent in v + delta gives zero, and sorting v + delta into
    mu + delta, mu a partition, only changes the sign.  Then s_mu =
    (x1...xn)^mu_n s_(mu - mu_n), expanded by the Kostka numbers.  Entries
    may be negative; the result is then a Laurent polynomial (used only
    inside identity checks, never published).
    """
    ring = ring or xring(n)
    vec = tuple(vec)
    if len(vec) > n:
        if any(vec[n:]):
            raise LengthExceedsVars("vector longer than the variable count")
        vec = vec[:n]
    exps = [v + n - 1 - i for i, v in enumerate(vec + (0,) * (n - len(vec)))]
    if len(set(exps)) < n:
        return ring.zero
    odd = sum(1 for i in range(n) for j in range(i + 1, n) if exps[i] < exps[j]) & 1
    exps.sort(reverse=True)
    low = exps[-1] if exps else 0
    mu = Partition(tuple(e - low - (n - 1 - i) for i, e in enumerate(exps)))
    f = sym_to_xpoly(schur_to_monomial({mu: -1 if odd else 1}, n), ring)
    return f * ring.monomial((low,) * n + (0,) * (len(ring.names) - n)) if low else f


@lru_cache(maxsize=None)
def _hl_row_polys(n: int, rmax: int) -> tuple[Poly, ...]:
    """One-row deformed Schur generators q_0..q_rmax in x1..xn over (q,t).

    Built from the per-variable series recursion for
    prod_i (1 - t x_i y)/(1 - x_i y) truncated at y^rmax.
    """
    ring = xring(n)
    t = ring.var("t")
    c = [ring.one] + [ring.zero] * rmax
    for j in range(1, n + 1):
        xj = ring.var(f"x{j}")
        d = [ring.zero] * (rmax + 1)
        for k in range(rmax + 1):
            d[k] = c[k] + (xj * d[k - 1] if k else ring.zero)
        for k in range(rmax, 0, -1):
            d[k] = d[k] - t * xj * d[k - 1]
        c = d
    return tuple(c)


def hl_one_row(r: int, n: int) -> Poly:
    """The one-row t-deformed Schur generator q_r; zero for negative r."""
    if r < 0:
        return xring(n).zero
    return _hl_row_polys(n, r)[r]


def _poly_det(rows: list[list[Poly]], ring: Ring) -> Poly:
    """Laplace expansion along the top row, each lower minor computed once."""
    k = len(rows)

    @lru_cache(maxsize=None)
    def minor(cols: tuple[int, ...]) -> Poly:
        # rows[k - len(cols):] restricted to cols
        if not cols:
            return ring.one
        row = rows[k - len(cols)]
        total = ring.zero
        for pos, j in enumerate(cols):
            if row[j]:
                term = row[j] * minor(cols[:pos] + cols[pos + 1 :])
                total = total - term if pos & 1 else total + term
        return total

    return minor(tuple(range(k)))


def expand_big_schur(lam: Partition, n: int) -> Poly:
    """The t-deformed Schur polynomial: det(q_(lam_i - i + j)) over (q,t)."""
    ring = xring(n)
    k = lam.length
    if k == 0:
        return ring.one
    rows = [
        [hl_one_row(lam.parts[i] - (i + 1) + (j + 1), n) for j in range(k)]
        for i in range(k)
    ]
    return _poly_det(rows, ring)


# -- collapse to the monomial basis -------------------------------------


def to_monomial_basis(f: Poly, n: int) -> SymPoly:
    """Collapse a symmetric polynomial to monomial-basis coefficients.

    Raises NotSymmetric unless every orbit is complete with equal
    coefficients.  Coefficients are returned in the scalar subring
    (plain ints when there are no scalar variables).
    """
    groups = split_x(f, n)
    reps: dict[Partition, Poly] = {}
    seen: dict[Partition, int] = {}
    for xe, coeff in groups.items():
        if any(e < 0 for e in xe):
            raise NotSymmetric("negative x exponent")
        key = tuple(sorted(xe, reverse=True))
        lam = Partition(key)
        if lam in reps:
            if reps[lam] != coeff:
                raise NotSymmetric(f"orbit of {lam!r} has unequal coefficients")
            seen[lam] += 1
        else:
            reps[lam] = coeff
            seen[lam] = 1
    out = {}
    for lam, coeff in reps.items():
        pad = tuple(lam.parts) + (0,) * (n - lam.length)
        counts: dict[int, int] = {}
        for e in pad:
            counts[e] = counts.get(e, 0) + 1
        orbit = factorial(n)
        for c in counts.values():
            orbit //= factorial(c)
        if seen[lam] != orbit:
            raise NotSymmetric(f"orbit of {lam!r} incomplete")
        if len(coeff.ring.names) == 0:
            out[lam] = coeff.const_value()
        else:
            out[lam] = coeff
    return SymPoly(n, out)


def sym_to_xpoly(sym: SymPoly, ring: Ring | None = None) -> Poly:
    """Expand a SymPoly with integer or polynomial coefficients."""
    n = sym.nvars
    ring = ring or xring(n)
    total = ring.zero
    for lam, c in sym.coeffs.items():
        base = expand_monomial(lam, n, ring)
        base = base * (c.subs({}, ring) if isinstance(c, Poly) else c)
        total = total + base
    return total


# -- monomial to big-Schur, by the Hall-Littlewood scalar product -------


@lru_cache(maxsize=None)
def _characters(d: int) -> dict:
    """Irreducible characters chi[lam, rho] of the symmetric group on d letters.

    Murnaghan-Nakayama on beta-sets (SFHP I.7): removing a rim hook of
    length r moves one bead b of beta(lam) = {lam_i + d - i} to the free
    position b - r, with the sign of the beads jumped over.
    """
    @lru_cache(maxsize=None)
    def chi(beta: frozenset, rho: tuple) -> int:
        if not rho:
            return 1
        r, total = rho[0], 0
        for b in beta:
            if b >= r and b - r not in beta:
                jumped = sum(1 for c in beta if b - r < c < b)
                total += (-1) ** jumped * chi(beta - {b} | {b - r}, rho[1:])
        return total

    shapes = partitions_of(d)
    out = {}
    for lam in shapes:
        parts = tuple(lam.parts) + (0,) * (d - lam.length)
        beta = frozenset(p + d - 1 - i for i, p in enumerate(parts))
        for rho in shapes:
            out[lam, rho] = chi(beta, tuple(rho.parts))
    return out


@lru_cache(maxsize=None)
def _class_weights(d: int):
    """The class weights of <,>_t in degree d, scaled into Z[t].

    <s_lam, s_nu>_t = sum over rho of chi^lam_rho chi^nu_rho / (z_rho
    prod_i (1 - t^rho_i)) (SFHP III.4).  Returns (labels, {rho: w_rho},
    d! (t;t)_d) with w_rho = (d!/z_rho) (t;t)_d / prod_i (1 - t^rho_i), so
    that d! (t;t)_d <s_lam, s_nu>_t = sum over rho of chi^lam_rho
    chi^nu_rho w_rho.
    """
    labels = tuple(partitions_of(d))
    t = QT.var("t")
    tt = column_unit_scale(d)
    weights = {}
    for rho in labels:
        z, den = 1, QT.one
        for part in set(rho.parts):
            m = rho.parts.count(part)
            z *= part**m * factorial(m)
        for part in rho.parts:
            den = den * (1 - t**part)
        weights[rho] = poly_exact_div(tt, den) * (factorial(d) // z)
    return labels, weights, tt * factorial(d)


def change_basis(sym: SymPoly) -> dict[Partition, Poly]:
    """Big-Schur coefficients of a weight-homogeneous SymPoly of Schur coefficients.

    S_lam(x;t) is the basis dual to s_lam under the Hall-Littlewood scalar
    product (SFHP III.4, VI.8), so the coefficient of S_lam is <f, s_lam>_t.
    Through the character table, <f, s_lam>_t = sum over rho of
    chi^lam_rho P_rho / (d! (t;t)_d) with P_rho = w_rho sum over nu of
    chi^nu_rho [s_nu]f (:func:`_class_weights`): one product per class.
    Each coefficient is one exact division by d! (t;t)_d; a remainder
    raises NonIntegralEntry with the unreduced fraction.
    """
    weights = {lam.weight for lam in sym.coeffs}
    if len(weights) > 1:
        raise OutOfRange(f"mixed weights {sorted(weights)} in one basis change")
    if not weights:
        return {}
    d = weights.pop()
    if sym.nvars < d:
        raise OutOfRange("need at least as many variables as the degree")
    labels, class_weights, norm = _class_weights(d)
    chars = _characters(d)
    power = {}
    for rho, w in class_weights.items():
        p = _int_combination((chars[nu, rho], c) for nu, c in sym.coeffs.items())
        if p:
            power[rho] = w * p
    out = {}
    for lam in labels:
        num = _int_combination((chars[lam, rho], p) for rho, p in power.items())
        if not num:
            continue
        try:
            out[lam] = poly_exact_div(num, norm)
        except NonExactDivision:
            raise NonIntegralEntry(
                f"coefficient of S[{lam.render()}] = {Frac(num, norm).render()}"
            ) from None
    return out
