"""Symmetric polynomial bases and exact conversions between them.

Expansion targets are honest polynomials in x1..xn over whatever scalar
variables the chosen ring carries.  Basis changes solve an exact linear
system over the fraction field; no triangularity is assumed, because the
t-deformed Schur family genuinely is not triangular against monomials.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from math import factorial

from .errors import (
    LengthExceedsVars,
    NotSymmetric,
    OutOfRange,
    SingularTransition,
)
from .partitions import Partition, partitions_of, revlex_key
from .rings import (
    QT,
    Frac,
    Poly,
    Ring,
    poly_exact_div,
    split_x,
    xring,
)

BASES = ("monomial", "elementary", "schur", "bigschur")


class SymPoly:
    """A finite coefficient dict over one named basis in n variables."""

    __slots__ = ("basis", "nvars", "coeffs")

    def __init__(self, basis: str, nvars: int, coeffs: dict):
        if basis not in BASES:
            raise OutOfRange(f"unknown basis {basis!r}")
        self.basis = basis
        self.nvars = nvars
        self.coeffs = {lam: c for lam, c in coeffs.items() if c}

    def items(self):
        return sorted(self.coeffs.items(), key=lambda kv: (kv[0].weight, revlex_key(kv[0])))

    def __eq__(self, other):
        return (
            isinstance(other, SymPoly)
            and self.basis == other.basis
            and self.nvars == other.nvars
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def scale(self, c) -> "SymPoly":
        return SymPoly(self.basis, self.nvars, {k: v * c for k, v in self.coeffs.items()})

    def map_coeffs(self, fn) -> "SymPoly":
        return SymPoly(self.basis, self.nvars, {k: fn(v) for k, v in self.coeffs.items()})

    def __add__(self, other):
        if not isinstance(other, SymPoly):
            return NotImplemented
        if other.basis != self.basis or other.nvars != self.nvars:
            raise OutOfRange("mixed bases or variable counts")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return SymPoly(self.basis, self.nvars, out)

    def __repr__(self):
        inner = ", ".join(f"({k.render()}): {_render_coeff(v)}" for k, v in self.items())
        return f"<SymPoly {self.basis}[{self.nvars}] {{{inner}}}>"


def _render_coeff(c) -> str:
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


def elementary(k: int, n: int, ring: Ring | None = None, skip: frozenset = frozenset()) -> Poly:
    """e_k in the variables x1..xn minus the skipped (1-based) indices."""
    ring = ring or xring(n)
    avail = [i for i in range(1, n + 1) if i not in skip]
    if k < 0 or k > len(avail):
        return ring.zero
    width = len(ring.names)
    out = {}
    for combo in combinations(avail, k):
        e = [0] * width
        for i in combo:
            e[i - 1] = 1
        out[tuple(e)] = 1
    return Poly(ring, out)


def expand_elementary(lam: Partition, n: int, ring: Ring | None = None) -> Poly:
    """Product of e_(lam_i); zero when some part exceeds n."""
    ring = ring or xring(n)
    res = ring.one
    for p in lam.parts:
        res = res * elementary(p, n, ring)
        if res.is_zero:
            break
    return res


@lru_cache(maxsize=None)
def _delta(n: int, names_key: tuple[str, ...]) -> Poly:
    ring = Ring(names_key)
    res = ring.one
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            res = res * (ring.var(f"x{i}") - ring.var(f"x{j}"))
    return res


def vandermonde(n: int, ring: Ring | None = None) -> Poly:
    ring = ring or xring(n)
    return _delta(n, ring.names)


@lru_cache(maxsize=None)
def signed_permutations(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every permutation of 1..n, in lexicographic order, with its sign."""
    out = []
    for perm in permutations(range(1, n + 1)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        out.append((perm, -1 if inv & 1 else 1))
    return tuple(out)


def _antisym_monomial(exps: tuple[int, ...], n: int, ring: Ring) -> Poly:
    """Sum over the symmetric group of sign * permuted monomial."""
    width = len(ring.names)
    terms: dict = {}
    for perm, sign in signed_permutations(n):
        e = [0] * width
        for i, p in enumerate(perm):
            e[p - 1] = exps[i]
        key = tuple(e)
        s = terms.get(key, 0) + sign
        if s:
            terms[key] = s
        elif key in terms:
            del terms[key]
    return Poly(ring, terms)


def expand_schur(vec, n: int, ring: Ring | None = None) -> Poly:
    """Schur polynomial for any integer vector, straightening included.

    Computed as the bialternant det(x_j^(v_i + n - i)) / Delta.  Entries
    may be negative; the result is then a Laurent polynomial (used only
    inside identity checks, never published).
    """
    ring = ring or xring(n)
    vec = tuple(vec)
    if len(vec) > n:
        if any(vec[n:]):
            raise LengthExceedsVars("vector longer than the variable count")
        vec = vec[:n]
    vec = vec + (0,) * (n - len(vec))
    exps = tuple(v + (n - 1 - i) for i, v in enumerate(vec))
    if len(set(exps)) < n:
        return ring.zero
    shift = min(exps)
    if shift > 0:
        shift = 0
    num = _antisym_monomial(tuple(e - shift for e in exps), n, ring)
    quo = poly_exact_div(num, vandermonde(n, ring))
    if shift:
        # undo the uniform column shift: divide by (x1...xn)^(-shift)
        out = {}
        for e, c in quo.terms.items():
            out[tuple(x + shift if i < n else x for i, x in enumerate(e))] = c
        quo = Poly(ring, out)
    return quo


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
    k = len(rows)
    det = ring.zero
    for perm, sign in signed_permutations(k):
        prod = ring.one
        for i in range(k):
            prod = prod * rows[i][perm[i] - 1]
            if prod.is_zero:
                break
        det = det + (prod if sign > 0 else -prod)
    return det


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
    return SymPoly("monomial", n, out)


def sym_to_xpoly(sym: SymPoly, ring: Ring | None = None) -> Poly:
    """Expand a SymPoly with integer or polynomial coefficients."""
    n = sym.nvars
    ring = ring or xring(n)
    total = ring.zero
    for lam, c in sym.coeffs.items():
        if sym.basis == "monomial":
            base = expand_monomial(lam, n, ring)
        elif sym.basis == "elementary":
            base = expand_elementary(lam, n, ring)
        elif sym.basis == "schur":
            base = expand_schur(lam.parts, n, ring)
        else:
            base = expand_big_schur(lam, n).cast(ring)
        if isinstance(c, Poly):
            base = base * c.cast(ring)
        elif isinstance(c, Frac):
            raise OutOfRange("cannot expand fractional coefficients exactly")
        else:
            base = base * c
        total = total + base
    return total


# -- basis change by exact linear solve ---------------------------------


def _target_expansion(basis: str, lam: Partition, n: int) -> SymPoly:
    if basis == "elementary":
        f = expand_elementary(lam, n)
    elif basis == "schur":
        f = expand_schur(lam.parts, n)
    elif basis == "bigschur":
        f = expand_big_schur(lam, n)
    else:
        raise OutOfRange(f"no expansion for target {basis!r}")
    return to_monomial_basis(f, n)


def _as_qt(c) -> Poly:
    if isinstance(c, Poly):
        return c if c.ring is QT else c.cast(QT)
    return QT.const(c)


@lru_cache(maxsize=None)
def _transition_inverse(basis: str, d: int, n: int):
    """Inverse of the (target basis -> monomial) matrix in weight d.

    Needs n >= d so every partition of d labels both sides.  Entries are
    fractions over the scalar ring; rational linear algebra, no pivots
    assumed anywhere.
    """
    if n < d:
        raise OutOfRange("need at least as many variables as the degree")
    labels = partitions_of(d)
    k = len(labels)
    cols = {lam: _target_expansion(basis, lam, n) for lam in labels}
    mat = [
        [Frac(_as_qt(cols[mu].coeffs.get(nu, 0))) for mu in labels]
        for nu in labels
    ]
    inv = [[Frac(QT.one) if i == j else Frac(QT.zero) for j in range(k)] for i in range(k)]
    for col in range(k):
        piv = next((r for r in range(col, k) if mat[r][col]), None)
        if piv is None:
            raise SingularTransition(f"{basis} transition singular in weight {d}")
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            inv[col], inv[piv] = inv[piv], inv[col]
        scale = mat[col][col]
        for j in range(k):
            mat[col][j] = mat[col][j] / scale
            inv[col][j] = inv[col][j] / scale
        for r in range(k):
            if r != col and mat[r][col]:
                factor = mat[r][col]
                for j in range(k):
                    mat[r][j] = mat[r][j] - factor * mat[col][j]
                    inv[r][j] = inv[r][j] - factor * inv[col][j]
    return labels, inv


def change_basis(sym: SymPoly, target: str) -> SymPoly:
    """Convert between the monomial basis and a named target basis."""
    if target not in BASES:
        raise OutOfRange(f"unknown basis {target!r}")
    if target == sym.basis:
        return sym
    n = sym.nvars
    if sym.basis != "monomial":
        if target != "monomial":
            return change_basis(change_basis(sym, "monomial"), target)
        # expansion direction: plain accumulation
        out: dict = {}
        for lam, c in sym.coeffs.items():
            # expansion coefficients live in QT
            if isinstance(c, Poly):
                c = c.cast(QT)
            for nu, b in _target_expansion(sym.basis, lam, n).coeffs.items():
                s = out[nu] + b * c if nu in out else b * c
                if s:
                    out[nu] = s
                elif nu in out:
                    del out[nu]
        return SymPoly("monomial", n, out)
    # monomial -> target: exact solve, done weight by weight
    by_weight: dict[int, dict[Partition, Poly]] = {}
    for lam, c in sym.coeffs.items():
        by_weight.setdefault(lam.weight, {})[lam] = _as_qt(c)
    out = {}
    for d, block in by_weight.items():
        labels, inv = _transition_inverse(target, d, n)
        index = {lam: i for i, lam in enumerate(labels)}
        # decompose the right-hand side by powers of q: the transition is
        # q-free, so each slice solves over the univariate field in t
        slices: dict[int, list[Poly]] = {}
        for lam, c in block.items():
            if lam not in index:
                raise OutOfRange(f"label {lam!r} outside weight-{d} block")
            i = index[lam]
            for e, coeff in c.terms.items():
                vec = slices.setdefault(e[0], [QT.zero] * len(labels))
                vec[i] = vec[i] + QT.monomial((0, e[1]), coeff)
        for qpow, vec in slices.items():
            qmono = QT.var("q", qpow) if qpow else QT.one
            for i, lam in enumerate(labels):
                acc = Frac(QT.zero)
                for j in range(len(labels)):
                    if vec[j]:
                        acc = acc + inv[i][j] * vec[j]
                if acc:
                    prev = out.get(lam, Frac(QT.zero))
                    out[lam] = prev + acc * qmono
    final = {}
    for lam, v in out.items():
        if not v:
            continue
        final[lam] = v.to_poly() if v.is_polynomial() else v
    return SymPoly(target, n, final)
