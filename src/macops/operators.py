"""The q-difference operator family: collapsed plans, applications, alternative forms.

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

Every named operator has one form, a :class:`QDiffOp` (polynomial
coefficients times 0/1 q-shifts over one denominator) that ``_plan``
builds collapsed.  Three formulas are built directly, with T_I, Q_I the
t- and q-shift of the x_i, i in I, and e_k^I = e_k without those x_i:

    D_r          = Delta^-1 sum_{|I|=r} T_I(Delta) Q_I
    raise_u_+[m] = Delta^-1 sum_{|I|<=m} (-u)^|I| T_I(Delta) x_I e_{m-|I|}^I Q_I
    lower_u_+[m] = (Delta x1...xn)^-1 sum_{|I|<=m} (-u)^|I| T_I(Delta) e_{n-m}^I Q_I

The minus kinds take the complement of I in T and Q, and the sign (-u)^(m-|I|).
The other eleven kinds follow by the laws, b = max(0, (n-1-m) m):

    macdonald_u     = sum_r (-u)^r D_r
    raise/lower_gen = sum_m v^m raise/lower_u[m]
    raise_+-[m]     = t^b raise_u_+-[m] at u = t^(m-n+1), over t^(b + [minus] C(n-m,2))
    lower_+-[m]     = lower_u_+-[m] at u = 1, over t^([minus] C(n-m,2))

The printed double sum over subsets J and I, assembled literally, is the
test oracle ``build`` in ``tests/oracles.py``.

Every operator the package applies to symmetric polynomials has the form
Delta^-1 A(x^delta e_m(psi_1, ..., psi_n) F), with A the antisymmetrizer
and psi_i: x^b -> x^(b + s e_i) phi_i(b_i) acting on x_i alone (i 1-based,
b_i the exponent of x_i in F).  ``apply_symmetric`` reads the Schur
coefficients of the image off the bialternant formula (SFHP I.3) on the
monomial coefficients of F, with no x-expansion and no division by the
Vandermonde:

    kind          s    phi_i(b)                   ring     extra factor
    macdonald_r   0    t^(n-i) q^b                Z[q,t]   -
    raise_plus    +1   1 - t^(m-i+1) q^b          Z[q,t]   -
    raise_minus   +1   t^-(n-i) q^-b - t^(m-n+1)  Z[q,t]   q^|F| t^(C(n,2)-C(n-m,2))
    lower_plus    -1   1 - t^(n-i) q^b            Z[q,t]   -
    lower_minus   -1   t^-(n-i) q^-b - 1          Z[q,t]   q^|F| t^(C(n,2)-C(n-m,2))
    jack_raise    +1   a b + m - i + 1            Z[a]     -
    jack_lower    -1   a b + n - i                Z[a]     -

They build J (the adders), check the column-removal law (the removers)
and the eigen-equations (D_r = macdonald_r), and run the Jack limit.
``apply_operator`` and the x-level Jack operators in the tests are their
references.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .bases import SymPoly, elementary, schur_to_monomial, signed_arrangements, vandermonde
from .errors import IndexOutOfRange, NonExactDivision, OutOfRange, SpecializationRequired
from .partitions import partitions_of
from .rings import (
    ALPHA,
    QT,
    Poly,
    Ring,
    poly_exact_div,
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
    """x1..xn, q, t, then u for the symbolic and generating kinds, v for the generating ones."""
    extra = ("u", "v") if kind in GEN_KINDS else ("u",) if "_u" in kind else ()
    return xring(n, ("q", "t") + extra)


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


def _unit_shift(idxs, n: int) -> tuple[int, ...]:
    """The 0/1 shift vector of the (1-based) indices idxs among x1..xn."""
    s = set(idxs)
    return tuple(1 if i in s else 0 for i in range(1, n + 1))


def _xmono(ring: Ring, idxs) -> Poly:
    e = [0] * len(ring.names)
    for i in idxs:
        e[i - 1] = 1
    return ring.monomial(tuple(e))


@lru_cache(maxsize=None)
def _tshift_delta(n: int, S: tuple[int, ...], names: tuple[str, ...]) -> Poly:
    ring = Ring(names)
    return vector_shift(vandermonde(n, ring), _unit_shift(S, n), "t")


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

    terms maps a shift vector (one integer per x variable) to its numerator
    coefficient.
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
            f = f.subs({}, self.ring)
        acc = self.ring.zero
        for shift, num in self.terms.items():
            acc = acc + num * vector_shift(f, shift, "q")
        if raw:
            return acc, self.den
        return poly_exact_div(acc, self.den)

    def __repr__(self):
        return f"<QDiffOp n={self.nvars} shifts={sorted(self.terms)}>"


# -- production applications --------------------------------------------


@lru_cache(maxsize=None)
def _plan(kind: str, m: int | None, n: int, names: tuple[str, ...]) -> QDiffOp:
    """The operator in collapsed form, over the ring with these names.

    Only D_r and the u column kinds have a formula; the other kinds apply
    their law (module docstring) to cached plans, a specialized kind to
    its u kind built in this ring with u added.
    """
    ring = Ring(names)
    terms: dict = {}

    def add(shift, c):
        terms[shift] = terms.get(shift, ring.zero) + c

    if kind == "macdonald_r":
        for I in _subsets(n, m):
            add(_unit_shift(I, n), _tshift_delta(n, I, names))
        return QDiffOp(ring, n, terms, vandermonde(n, ring))
    if kind in RAISE_KINDS + LOWER_KINDS and "_u_" in kind:
        # plus shifts I, minus its complement; a is the sign count
        minus, lower = kind.endswith("minus"), kind.startswith("lower")
        for ksz in range(m + 1):
            for I in _subsets(n, ksz):
                a = m - ksz if minus else ksz
                S = _comp(I, n) if minus else I
                e = elementary(n - m if lower else m - ksz, n, ring, frozenset(I))
                c = ring.var("u", a) * _tshift_delta(n, S, names) * (e if lower else _xmono(ring, I) * e)
                add(_unit_shift(S, n), c if a % 2 == 0 else -c)
        den = vandermonde(n, ring)
        return QDiffOp(ring, n, terms, den * _xmono(ring, range(1, n + 1)) if lower else den)
    if kind == "macdonald_u" or kind in GEN_KINDS:
        # sum_r (-u)^r D_r, or sum_m v^m times the u kind at height m
        src = "macdonald_r" if kind == "macdonald_u" else kind.replace("gen", "u")
        w = -ring.var("u") if kind == "macdonald_u" else ring.var("v")
        for r in range(n + 1):
            part = _plan(src, r, n, names)
            for shift, c in part.terms.items():
                add(shift, w**r * c)
        return QDiffOp(ring, n, terms, part.den)
    if kind not in RAISE_KINDS + LOWER_KINDS:
        raise OutOfRange(f"unknown operator kind {kind!r}")
    # the adders at u = t^(m-n+1), scaled by t^base, the removers at u = 1
    lower = kind.startswith("lower")
    src = _plan(kind.replace("_", "_u_", 1), m, n, names if "u" in names else names + ("u",))
    base = 0 if lower else max(0, (n - 1 - m) * m)
    u = {"u": ring.var("t", 0 if lower else m - n + 1)}
    scale = ring.var("t", base)
    for shift, c in src.terms.items():
        add(shift, c.subs(u, ring) * scale)
    t_exp = base + (_binom2(n - m) if kind.endswith("minus") else 0)
    return QDiffOp(ring, n, terms, src.den.subs({}, ring) * ring.var("t", t_exp))


def apply_operator(spec: OperatorSpec, f: Poly, n: int, raw: bool = False):
    """Apply a named operator to an x-polynomial, exactly.

    raw=True skips the final division and returns (numerator, denominator);
    needed when a symbolic-parameter lowering kind lands outside the
    polynomial ring and only cross-multiplied comparisons make sense.
    """
    kind = spec.kind
    if kind in _NEEDS_INDEX:
        _check_index(spec.index, n)
    for nm in operator_ring(0, kind).names:
        if nm in ("q", "t"):
            f.ring.pos(nm)
        elif nm not in f.ring.names:
            raise SpecializationRequired(f"{kind} needs a ring with {nm}")
    return _plan(kind, spec.index, n, f.ring.names).apply(f, raw)


# -- factorized route at q = t ------------------------------------------

# the kinds with an operator-entry determinant form, hence a product at q = t
_DET_KINDS = (
    "macdonald_u",
    "raise_gen_plus",
    "raise_gen_minus",
    "lower_gen_plus",
    "lower_gen_minus",
)


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
        sh = vector_shift(g, _unit_shift((j,), n), "t")
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


# -- symmetric operators on monomial coefficients -------------------------

# kind -> (s, phi(m, n, i, b), ring), the table in the module docstring; the
# jack kinds are x_i^s (a x_i d/dx_i + c), the limits q = t^a, t -> 1.
_FORMS = {
    "macdonald_r": (0, lambda m, n, i, b: QT.monomial((b, n - i)), QT),
    "raise_plus": (1, lambda m, n, i, b: QT.one - QT.monomial((b, m - i + 1)), QT),
    "raise_minus": (1, lambda m, n, i, b: QT.monomial((-b, i - n)) - QT.monomial((0, m - n + 1)), QT),
    "lower_plus": (-1, lambda m, n, i, b: QT.one - QT.monomial((b, n - i)), QT),
    "lower_minus": (-1, lambda m, n, i, b: QT.monomial((-b, i - n)) - QT.one, QT),
    "jack_raise": (1, lambda m, n, i, b: ALPHA.monomial((1,), b) + (m - i + 1), ALPHA),
    "jack_lower": (-1, lambda m, n, i, b: ALPHA.monomial((1,), b) + (n - i), ALPHA),
}


def _pack(e) -> int:
    """Exponents e_j, maybe negative, as sum e_j 2^(32 j): monomials multiply by adding."""
    return sum(x << (32 * j) for j, x in enumerate(e))


@lru_cache(maxsize=None)
def _unpacker(k: int):
    bias = _pack((1 << 31,) * k)
    return lru_cache(maxsize=1 << 16)(
        lambda v: tuple((((v + bias) >> (32 * j)) & 0xFFFFFFFF) - (1 << 31) for j in range(k))
    )


@lru_cache(maxsize=None)
def _packed_factor(kind: str, m: int, n: int):
    phi = _FORMS[kind][1]
    return lru_cache(maxsize=None)(
        lambda i, b: tuple((_pack(e), c) for e, c in phi(m, n, i + 1, b).terms.items())
    )


def _schur_rows(kind: str, m: int, n: int, d: int, inputs: dict) -> list:
    """Schur coefficients of the kind's images of the m_nu in inputs, all of weight d.

    inputs maps nu's exponent tuple, padded to n parts, to nu.  Returns a
    list of (mu, v, {nu: the coefficient of s_mu in the image of m_nu}),
    v = mu + delta, with the extra factor of the minus kinds left out; for
    s = -1 it also holds (None, v, ...) for each v with v_n = -1, the
    poles.  By the bialternant formula the coefficient at mu is that of
    x^(mu+delta) in A(x^delta e_m(psi) m_nu): each rearrangement u of
    mu + delta is read once, and every m-subset S of the variables, with
    exponent c = u - delta - s 1_S, adds sign(u) prod_S phi_i(c_i) to the
    input nu that c rearranges.
    """
    shift, _, ring = _FORMS[kind]
    table, unpack = _packed_factor(kind, m, n), _unpacker(len(ring.names))
    delta = tuple(range(n - 1, -1, -1))
    low, high = min(shift, 0), max(shift, 0)
    # (mu, v = mu + delta); for shift -1 also (None, v) with v_n = -1
    w = d + shift * m
    targets = [(mu, mu, 0) for mu in partitions_of(w, max_len=n)] if w >= 0 else []
    if shift < 0 and n:
        targets += [(None, kap, 1) for kap in partitions_of(d - m + n, max_len=n - 1)]
    rows, products = [], {}  # products: ((i, c_i) for i in S) -> prod_S phi_i(c_i)
    for mu, lam, off in targets:
        v = tuple(p + s - off for p, s in zip(lam.parts + (0,) * (n - lam.length), delta))
        acc: dict = {}
        for u, sign in signed_arrangements(v, lambda i, x: x - delta[i] >= low):
            b = [x - s for x, s in zip(u, delta)]
            must = [i for i in range(n) if b[i] < 0]
            if len(must) > m:
                continue
            for T in combinations([i for i in range(n) if b[i] >= high], m - len(must)):
                S = must + list(T) if must else T
                c = b[:]
                for i in S:
                    c[i] -= shift
                nu = inputs.get(tuple(sorted(c, reverse=True)))
                if nu is None:
                    continue
                key = tuple((i, c[i]) for i in S)
                terms = products.get(key)
                if terms is None:
                    terms = {0: 1}
                    for i, b_i in key:
                        new: dict = {}
                        for de, y in table(i, b_i):
                            for e, x in terms.items():
                                new[e + de] = new.get(e + de, 0) + x * y
                        terms = new
                    terms = products[key] = tuple(terms.items())
                total = acc.setdefault(nu, {})
                for e, x in terms:
                    total[e] = total.get(e, 0) + sign * x
        row = {nu: Poly(ring, {unpack(e): x for e, x in total.items() if x}) for nu, total in acc.items()}
        rows.append((mu, v, {nu: c for nu, c in row.items() if c}))
    return rows


def apply_symmetric(kind: str, m: int, F: SymPoly) -> SymPoly:
    """The kind's e_m(psi) operator (module docstring) on F, exactly.

    The Schur coefficient of the image at mu is the sum over the inputs nu
    of F_nu times that of m_nu's image (:func:`_schur_rows`), one product
    per (mu, nu).  For s = -1 a nonzero coefficient at a v with v_n = -1
    is a pole at x_i = 0 and raises NonExactDivision.
    """
    if kind not in _FORMS:
        raise OutOfRange(f"{kind} has no coefficient-level form")
    n = F.nvars
    _check_index(m, n)
    shift, _, ring = _FORMS[kind]
    if any(c.ring is not ring for c in F.coeffs.values()):
        raise OutOfRange(f"{kind} needs coefficients in {ring!r}")
    schur = {}
    for d in sorted({lam.weight for lam in F.coeffs}):
        inputs = {lam.parts + (0,) * (n - lam.length): lam for lam in F.coeffs if lam.weight == d}
        for mu, v, row in _schur_rows(kind, m, n, d, inputs):
            acc: dict = {}
            for nu, c in row.items():
                for e, x in (F.coeffs[nu] * c).terms.items():
                    acc[e] = acc.get(e, 0) + x
            c_mu = ring.from_terms(acc)
            if c_mu and mu is None:
                raise NonExactDivision(f"image has a pole: x^{v} in the numerator has {c_mu.render()}")
            if c_mu:
                schur[mu] = c_mu
    if kind.endswith("minus"):
        # |F| = |mu| - shift m on the part of F that reaches s_mu
        t_exp = _binom2(n) - _binom2(n - m)
        schur = {mu: c * QT.monomial((mu.weight - shift * m, t_exp)) for mu, c in schur.items()}
    return schur_to_monomial(schur, n)

