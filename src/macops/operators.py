"""The q-difference operator family: builds, applications, alternative forms.

Fourteen operator kinds are supported.  The index m is a column height
(or the order r for the basic Macdonald family); "plus" variants shift
the chosen subset, "minus" variants shift its complement:

    macdonald_r      order-r Macdonald operator
    macdonald_u      its generating combination, linear in u per order
    raise_plus/minus        column adders, specialized parameter
    raise_u_plus/_minus     the same with the parameter u left symbolic
    raise_gen_plus/_minus   generating form, one v per added column
    lower_plus/minus        column removers, specialized parameter
    lower_u_plus/_minus     symbolic-u column removers
    lower_gen_plus/_minus   generating form of the removers

Two routes to every named operator exist.  ``build`` assembles the printed
double sum over subsets J and I literally, clearing each divided-difference
product into an exact polynomial; it is the reference implementation used
by tests.  ``apply_operator`` applies any kind to an x-polynomial: the
outer J sum is collapsed into an elementary-polynomial factor, the
Vandermonde stays as a single t-shifted coefficient, and one exact
division happens at the end.

The two specialized column adders, which build the integral forms, also
run on monomial coefficients: ``apply_column_adder`` reads the Schur
coefficients of the image off the bialternant formula and converts them
with Kostka numbers, with no x-expansion and no division by the
Vandermonde.  ``apply_operator`` is its reference in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .bases import SymPoly, elementary, schur_to_monomial, signed_arrangements, signed_permutations, vandermonde
from .errors import IndexOutOfRange, OutOfRange, SpecializationRequired
from .partitions import partitions_of
from .rings import (
    QT,
    Poly,
    Ring,
    negate_var_exponents,
    poly_exact_div,
    scalar_shift,
    vector_shift,
    xring,
)

RAISE_KINDS = ("raise_plus", "raise_minus", "raise_u_plus", "raise_u_minus")
LOWER_KINDS = ("lower_plus", "lower_minus", "lower_u_plus", "lower_u_minus")
GEN_KINDS = (
    "raise_gen_plus",
    "raise_gen_minus",
    "lower_gen_plus",
    "lower_gen_minus",
)
MACDONALD_KINDS = ("macdonald_r", "macdonald_u")
ALL_KINDS = MACDONALD_KINDS + RAISE_KINDS + LOWER_KINDS + GEN_KINDS

_NEEDS_INDEX = frozenset(ALL_KINDS) - frozenset(GEN_KINDS) - {"macdonald_u"}
_NEEDS_U = frozenset(k for k in ALL_KINDS if "_u_" in k or k == "macdonald_u")
_NEEDS_V = frozenset(GEN_KINDS)


@dataclass(frozen=True)
class OperatorSpec:
    kind: str
    index: int | None = None

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise OutOfRange(f"unknown operator kind {self.kind!r}")
        if self.kind in _NEEDS_INDEX and self.index is None:
            raise IndexOutOfRange(f"{self.kind} needs an index")
        if self.kind not in _NEEDS_INDEX and self.index is not None:
            raise IndexOutOfRange(f"{self.kind} takes no index")


def operator_ring(n: int, kind: str) -> Ring:
    extra = ["q", "t"]
    if kind in _NEEDS_U or kind in _NEEDS_V:
        extra.append("u")
    if kind in _NEEDS_V:
        extra.append("v")
    return xring(n, tuple(extra))


def _check_index(m: int, n: int):
    if not 0 <= m <= n:
        raise IndexOutOfRange(f"index {m} outside [0, {n}]")


def _binom2(k: int) -> int:
    return k * (k - 1) // 2


def _subsets(n: int, size: int | None = None):
    items = tuple(range(1, n + 1))
    if size is not None:
        yield from combinations(items, size)
        return
    for k in range(n + 1):
        yield from combinations(items, k)


def _comp(I, n: int) -> tuple[int, ...]:
    s = set(I)
    return tuple(i for i in range(1, n + 1) if i not in s)


def _xmono(ring: Ring, idxs) -> Poly:
    e = [0] * len(ring.names)
    for i in idxs:
        e[i - 1] = 1
    return ring.monomial(tuple(e))


@lru_cache(maxsize=None)
def _tshift_delta(n: int, S: tuple[int, ...], names: tuple[str, ...]) -> Poly:
    ring = Ring(names)
    return scalar_shift(vandermonde(n, ring), S, "t")


def cross_named(ring: Ring, vnames, chosen, pattern: str) -> Poly:
    """Vandermonde times the divided-difference product over crossing pairs.

    The variables are named in vnames, in Vandermonde order.  pattern
    "plus" clears prod (t x_i - x_j)/(x_i - x_j), "minus" clears
    prod (x_i - t x_j)/(x_i - x_j), both over i in chosen, j outside; the
    result is an exact polynomial with all orientation signs folded in.
    """
    res = ring.one
    t = ring.var("t")
    for ia, a in enumerate(vnames):
        xa = ring.var(a)
        for b in vnames[ia + 1 :]:
            xb = ring.var(b)
            a_in, b_in = a in chosen, b in chosen
            if a_in == b_in:
                res = res * (xa - xb)
            elif pattern == "plus":
                res = res * ((t * xa - xb) if a_in else (xa - t * xb))
            elif pattern == "minus":
                res = res * ((xa - t * xb) if a_in else (t * xa - xb))
            else:
                raise OutOfRange(f"unknown pattern {pattern!r}")
    return res


@lru_cache(maxsize=None)
def cross_cleared(n: int, I: tuple[int, ...], pattern: str, names: tuple[str, ...]) -> Poly:
    """:func:`cross_named` over x1..xn with the indices I chosen."""
    xs = tuple(f"x{i}" for i in range(1, n + 1))
    return cross_named(Ring(names), xs, frozenset(f"x{i}" for i in I), pattern)


# -- explicit normal form ------------------------------------------------


class QDiffOp:
    """Sum of polynomial coefficients times q-shifts, over a common denominator.

    terms maps a shift vector (one integer per x variable; negative values
    appear only inside dualized operators) to its numerator coefficient.
    """

    __slots__ = ("ring", "nvars", "terms", "den")

    def __init__(self, ring: Ring, nvars: int, terms: dict, den: Poly):
        self.ring = ring
        self.nvars = nvars
        self.terms = {s: p for s, p in terms.items() if p}
        self.den = den

    def apply(self, f: Poly, raw: bool = False):
        """Apply to f; with raw=True return (numerator, denominator) instead.

        The raw form exists because the symbolic-parameter lowering kinds
        do not map every symmetric polynomial to a polynomial; equality
        checks then cross-multiply rather than divide.
        """
        if f.ring is not self.ring:
            f = f.cast(self.ring)
        acc = self.ring.zero
        for shift, num in self.terms.items():
            acc = acc + num * vector_shift(f, shift, "q")
        if raw:
            return acc, self.den
        return poly_exact_div(acc, self.den)

    def scaled(self, c) -> "QDiffOp":
        return QDiffOp(
            self.ring, self.nvars, {s: p * c for s, p in self.terms.items()}, self.den
        )

    def with_global_qshift(self) -> "QDiffOp":
        """Compose on the right with the shift of every x variable."""
        return QDiffOp(
            self.ring,
            self.nvars,
            {tuple(x + 1 for x in s): p for s, p in self.terms.items()},
            self.den,
        )

    def normalized(self) -> "QDiffOp":
        """Clear negative q,t exponents by scaling numerators and denominator."""
        polys = list(self.terms.values()) + [self.den]
        scale = self.ring.one
        for nm in ("q", "t"):
            low = min(p.var_min(nm) for p in polys)
            if low < 0:
                scale = scale * self.ring.var(nm, -low)
        if scale == self.ring.one:
            return self
        return QDiffOp(
            self.ring,
            self.nvars,
            {s: p * scale for s, p in self.terms.items()},
            self.den * scale,
        )

    def equals(self, other: "QDiffOp") -> bool:
        if self.ring is not other.ring or self.nvars != other.nvars:
            return False
        for s in set(self.terms) | set(other.terms):
            a = self.terms.get(s, self.ring.zero)
            b = other.terms.get(s, other.ring.zero)
            if a * other.den != b * self.den:
                return False
        return True

    def __repr__(self):
        return f"<QDiffOp n={self.nvars} shifts={sorted(self.terms)}>"


def dualize(op: QDiffOp) -> QDiffOp:
    """The bar involution: invert q and t and invert every shift.

    Inverting shifts is part of the involution; inverting only the scalars
    does not reproduce the minus-family and fails the duality law.
    """
    terms = {
        tuple(-x for x in s): negate_var_exponents(p, ("q", "t"))
        for s, p in op.terms.items()
    }
    den = negate_var_exponents(op.den, ("q", "t"))
    return QDiffOp(op.ring, op.nvars, terms, den).normalized()


# -- reference builds of the printed double sums -------------------------


def build(spec: OperatorSpec, n: int) -> QDiffOp:
    """Assemble the printed subset sum for the operator, literally.

    Quadratic in the number of subset pairs, so for checking at small n
    only; production applications go through :func:`apply_operator`.
    """
    kind = spec.kind
    ring = operator_ring(n, kind)
    names = ring.names
    delta = vandermonde(n, ring)
    xall = _xmono(ring, range(1, n + 1))
    terms: dict = {}

    def add(shift_idxs, coeff):
        key = tuple(1 if i + 1 in set(shift_idxs) else 0 for i in range(n))
        terms[key] = terms.get(key, ring.zero) + coeff

    def tpow(e):
        return ring.var("t", e)

    def upow(e):
        return ring.var("u", e)

    if kind == "macdonald_r":
        r = spec.index
        _check_index(r, n)
        for I in _subsets(n, r):
            add(I, tpow(_binom2(r)) * cross_cleared(n, I, "plus", names))
        return QDiffOp(ring, n, terms, delta)

    if kind == "macdonald_u":
        for I in _subsets(n):
            k = len(I)
            c = tpow(_binom2(k)) * cross_cleared(n, I, "plus", names) * upow(k)
            add(I, c if k % 2 == 0 else -c)
        return QDiffOp(ring, n, terms, delta)

    if kind in RAISE_KINDS or kind in LOWER_KINDS:
        m = spec.index
        _check_index(m, n)
        lower = kind in LOWER_KINDS
        minus = kind.endswith("minus")
        symbolic = "_u_" in kind
        for J in _subsets(n, m):
            xfac = _xmono(ring, _comp(J, n)) if lower else _xmono(ring, J)
            for ksz in range(m + 1):
                for I in combinations(J, ksz):
                    k = len(I)
                    if not minus:
                        cross = cross_cleared(n, I, "plus", names)
                        if symbolic:
                            c = upow(k) * tpow(_binom2(k)) * cross
                        elif lower:
                            c = tpow(_binom2(k)) * cross
                        else:
                            # parameter specialized to a power of t, which may
                            # be negative: normalized() clears it afterwards
                            c = tpow((m - n + 1) * k + _binom2(k)) * cross
                        if k % 2:
                            c = -c
                        add(I, xfac * c)
                    else:
                        cross = cross_cleared(n, I, "minus", names)
                        a = m - k
                        if symbolic:
                            c = upow(a) * tpow(_binom2(n - k)) * cross
                        elif lower:
                            c = tpow((n - m) * a + _binom2(a)) * cross
                        else:
                            c = tpow(a + _binom2(a)) * cross
                        if a % 2:
                            c = -c
                        add(_comp(I, n), xfac * c)
        den = xall * delta if lower else delta
        return QDiffOp(ring, n, terms, den).normalized()

    # generating kinds: every subset size, one power of v per element of J
    lower = kind.startswith("lower")
    minus = kind.endswith("minus")
    for J in _subsets(n):
        xfac = _xmono(ring, _comp(J, n)) if lower else _xmono(ring, J)
        vfac = ring.var("v", len(J)) if J else ring.one
        for ksz in range(len(J) + 1):
            for I in combinations(J, ksz):
                k = len(I)
                if not minus:
                    c = ring.var("u", k) * tpow(_binom2(k)) * cross_cleared(
                        n, I, "plus", names
                    )
                    if k % 2:
                        c = -c
                    add(I, xfac * vfac * c)
                else:
                    a = len(J) - k
                    c = ring.var("u", a) * tpow(_binom2(n - k)) * cross_cleared(
                        n, I, "minus", names
                    )
                    if a % 2:
                        c = -c
                    add(_comp(I, n), xfac * vfac * c)
    den = xall * delta if lower else delta
    return QDiffOp(ring, n, terms, den)


# -- production applications --------------------------------------------


@lru_cache(maxsize=None)
def _plan(kind: str, m: int | None, n: int, names: tuple[str, ...]):
    """Collapsed form: list of (q-shift subset, coefficient), denominator.

    The outer sum over J is already folded into an elementary factor, and
    any negative powers of the specialized parameter are cleared into the
    denominator, so coefficients are honest polynomials.
    """
    ring = Ring(names)
    delta = vandermonde(n, ring)
    xall = _xmono(ring, range(1, n + 1))

    def tsd(S):
        return _tshift_delta(n, tuple(S), names)

    def esk(k, skip):
        return elementary(k, n, ring, skip=frozenset(skip))

    out: list[tuple[tuple[int, ...], Poly]] = []
    den = delta

    if kind == "macdonald_r":
        for I in _subsets(n, m):
            out.append((I, tsd(I)))
    elif kind == "macdonald_u":
        for I in _subsets(n):
            c = tsd(I) * ring.var("u", len(I))
            out.append((I, c if len(I) % 2 == 0 else -c))
    elif kind in RAISE_KINDS:
        # plus shifts I, minus its complement; a is the sign count.  The
        # specialized kinds scale by a power of t (negative powers cleared
        # into the denominator by t^base), the symbolic kinds by u^a.
        minus = kind.endswith("minus")
        symbolic = "_u_" in kind
        base = max(0, (n - 1 - m) * m)
        for ksz in range(m + 1):
            for I in _subsets(n, ksz):
                a = m - ksz if minus else ksz
                S = _comp(I, n) if minus else I
                if symbolic:
                    c = ring.var("u", a)
                else:
                    c = ring.var("t", (m - n + 1) * a + base)
                c = c * tsd(S) * _xmono(ring, I) * esk(m - ksz, I)
                out.append((S, c if a % 2 == 0 else -c))
        if not symbolic:
            den = delta * ring.var("t", base + (_binom2(n - m) if minus else 0))
    elif kind in LOWER_KINDS:
        minus = kind.endswith("minus")
        for ksz in range(m + 1):
            for I in _subsets(n, ksz):
                a = m - ksz if minus else ksz
                S = _comp(I, n) if minus else I
                c = tsd(S) * esk(n - m, I)
                if "_u_" in kind:
                    c = c * ring.var("u", a)
                out.append((S, c if a % 2 == 0 else -c))
        den = delta * xall
        if minus:
            den = den * ring.var("t", _binom2(n - m) if kind == "lower_minus" else 0)
    elif kind in GEN_KINDS:
        uv = ring.var("u") * ring.var("v")
        for I in _subsets(n):
            k = len(I)
            comp = _comp(I, n)
            if kind == "raise_gen_plus":
                c = uv**k * tsd(I) * _xmono(ring, I)
                for j in comp:
                    c = c * (1 + ring.var("v") * ring.var(f"x{j}"))
                out.append((I, c if k % 2 == 0 else -c))
            elif kind == "raise_gen_minus":
                c = ring.var("v", k) * tsd(comp) * _xmono(ring, I)
                for j in comp:
                    c = c * (1 - uv * ring.var(f"x{j}"))
                out.append((comp, c))
            elif kind == "lower_gen_plus":
                c = uv**k * tsd(I)
                for j in comp:
                    c = c * (ring.var(f"x{j}") + ring.var("v"))
                out.append((I, c if k % 2 == 0 else -c))
            else:
                c = ring.var("v", k) * tsd(comp)
                for j in comp:
                    c = c * (ring.var(f"x{j}") - uv)
                out.append((comp, c))
        if kind.startswith("lower"):
            den = delta * xall
    else:
        raise OutOfRange(f"unknown operator kind {kind!r}")
    return tuple(out), den


def apply_operator(spec: OperatorSpec, f: Poly, n: int, raw: bool = False):
    """Apply a named operator to an x-polynomial, exactly.

    raw=True skips the final division and returns (numerator, denominator);
    needed when a symbolic-parameter lowering kind lands outside the
    polynomial ring and only cross-multiplied comparisons make sense.
    """
    kind = spec.kind
    if kind in _NEEDS_INDEX:
        _check_index(spec.index, n)
    for nm in ("q", "t"):
        f.ring.pos(nm)
    if kind in _NEEDS_U or kind in _NEEDS_V:
        if "u" not in f.ring.names:
            raise SpecializationRequired(f"{kind} needs a ring with u")
    if kind in _NEEDS_V and "v" not in f.ring.names:
        raise SpecializationRequired(f"{kind} needs a ring with v")
    plan, den = _plan(kind, spec.index, n, f.ring.names)
    acc = f.ring.zero
    for subset, coeff in plan:
        acc = acc + coeff * scalar_shift(f, subset, "q")
    if raw:
        return acc, den
    return poly_exact_div(acc, den)


# -- determinant route ---------------------------------------------------

_DET_KINDS = (
    "macdonald_u",
    "raise_gen_plus",
    "raise_gen_minus",
    "lower_gen_plus",
    "lower_gen_minus",
)


def apply_determinantal(kind: str, n: int, f: Poly, raw: bool = False):
    """Apply via the operator-entry determinant expansion.

    Entries in one Leibniz product act on distinct variables and commute;
    each permutation term is an n-fold composition applied to f.  The
    lower kinds use entries pre-cleared by one power of x_j so everything
    stays polynomial until the final division.
    """
    if kind not in _DET_KINDS:
        raise OutOfRange(f"no determinant form for {kind!r}")
    ring = f.ring
    u = ring.var("u")
    v = ring.var("v") if "v" in ring.names else None

    def entry(i, j, g):
        # row i, column j, both 1-based; delta = n - i
        d = n - i
        xj = ring.var(f"x{j}")
        td = ring.var("t", d)
        shifted = scalar_shift(g, (j,), "q")
        if kind == "macdonald_u":
            return xj**d * (g - u * td * shifted)
        if kind == "raise_gen_plus":
            return xj**d * (g + v * xj * g - u * v * xj * td * shifted)
        if kind == "raise_gen_minus":
            return xj**d * (td * shifted + v * xj * g - u * v * xj * td * shifted)
        if kind == "lower_gen_plus":
            return xj**d * (xj * g + v * g - u * v * td * shifted)
        return xj**d * (td * xj * shifted + v * g - u * v * td * shifted)

    acc = ring.zero
    for perm, sign in signed_permutations(n):
        g = f
        for j in range(1, n + 1):
            g = entry(perm[j - 1], j, g)
        acc = acc + (g if sign > 0 else -g)
    den = vandermonde(n, ring)
    if kind.startswith("lower"):
        den = den * _xmono(ring, range(1, n + 1))
    if raw:
        return acc, den
    return poly_exact_div(acc, den)


# -- factorized route at q = t ------------------------------------------


def apply_factorized_qt(kind: str, n: int, f: Poly, raw: bool = False):
    """Apply the q = t specialization through its commuting product form.

    The ring of f must use t for the shift variable (no q present); each
    factor is a single-variable two-term operator acting on Delta * f.
    """
    if kind not in _DET_KINDS:
        raise OutOfRange(f"no factorized form for {kind!r}")
    ring = f.ring
    if "q" in ring.names:
        raise OutOfRange("factorized route works in the q-specialized ring")
    u = ring.var("u")
    v = ring.var("v") if "v" in ring.names else None
    g = f * vandermonde(n, ring)
    for j in range(1, n + 1):
        xj = ring.var(f"x{j}")
        sh = scalar_shift(g, (j,), "t")
        if kind == "macdonald_u":
            g = g - u * sh
        elif kind == "raise_gen_plus":
            g = g + v * xj * g - u * v * xj * sh
        elif kind == "raise_gen_minus":
            g = sh + v * xj * (g - u * sh)
        elif kind == "lower_gen_plus":
            g = (xj + v) * g - u * v * sh
        else:
            g = xj * sh + v * (g - u * sh)
    den = vandermonde(n, ring)
    if kind.startswith("lower"):
        den = den * _xmono(ring, range(1, n + 1))
    if raw:
        return g, den
    return poly_exact_div(g, den)


# -- column adders on monomial coefficients ------------------------------


def _adder_factor(S, bp, m: int, n: int, minus: bool) -> dict:
    """Product over the variables x_i, i in S, of the adder's factor at x^bp.

    Plus: (1 - t^(m-i+1) q^(bp_i)); minus: q^|bp| times the product of
    (t^(-(n-i)) q^(-bp_i) - t^(m-n+1)).  Here i is 1-based while S and bp
    are indexed from 0.  Returned as {(q exponent, t exponent): integer};
    exponents may be negative.
    """
    terms = {(sum(bp), 0) if minus else (0, 0): 1}
    for i in S:
        if minus:
            pair = ((-bp[i], i + 1 - n, 1), (0, m - n + 1, -1))
        else:
            pair = ((0, 0, 1), (bp[i], m - i, -1))
        out: dict = {}
        for (qe, te), c in terms.items():
            for dq, dt, s in pair:
                key = (qe + dq, te + dt)
                out[key] = out.get(key, 0) + s * c
        terms = out
    return terms


def apply_column_adder(m: int, F: SymPoly, minus: bool = False) -> SymPoly:
    """raise_plus (raise_minus when minus) on a symmetric polynomial, exactly.

    Works on the monomial coefficients of F and never builds an
    x-polynomial.  The adder is Delta^-1 A(x^delta g), with A the
    antisymmetrizer, delta = (n-1, ..., 0) and g the sum over |S| = m of
    x^S prod over i in S of (1 - t^(m-i+1) T_i) F (plus), or of
    x^S prod (t^-(n-i) T_i^-1 - t^(m-n+1)) applied to the global q-shift
    of F, times t^(C(n,2) - C(n-m,2)) (minus).  By the bialternant
    formula the coefficient of x^(mu+delta) in A(x^delta g) is the Schur
    coefficient of the image at mu, so only those are summed, one
    rearrangement of mu + delta at a time, grouped by the m_nu of F they
    read, and converted with Kostka numbers.  Like the operator, it maps
    some m_lam to negative powers of t; on the integral forms it stays
    in Z[q,t].  :func:`apply_operator` on the x-expansion is the reference.
    """
    n = F.nvars
    _check_index(m, n)
    fd = {lam.parts + (0,) * (n - lam.length): c for lam, c in F.coeffs.items()}
    delta = tuple(range(n - 1, -1, -1))
    schur = {}
    for d in sorted({lam.weight for lam in F.coeffs}):
        for mu in partitions_of(d + m, max_len=n):
            v = tuple(p + s for p, s in zip(mu.parts + (0,) * (n - mu.length), delta))
            groups: dict = {}
            for u, sign in signed_arrangements(v, lambda i, x: x >= delta[i]):
                b = [x - s for x, s in zip(u, delta)]
                for S in combinations([i for i in range(n) if b[i]], m):
                    bp = list(b)
                    for i in S:
                        bp[i] -= 1
                    nu = tuple(sorted(bp, reverse=True))
                    if nu not in fd:
                        continue
                    acc = groups.setdefault(nu, {})
                    for e, c in _adder_factor(S, bp, m, n, minus).items():
                        acc[e] = acc.get(e, 0) + sign * c
            c_mu = QT.zero
            for nu, terms in groups.items():
                terms = {e: c for e, c in terms.items() if c}
                if terms:
                    c_mu = c_mu + fd[nu] * Poly(QT, terms)
            if c_mu:
                schur[mu] = c_mu
    if minus:
        scale = QT.var("t", _binom2(n) - _binom2(n - m))
        schur = {mu: c * scale for mu, c in schur.items()}
    return schur_to_monomial(schur, n)
