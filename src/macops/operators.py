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
coefficients times 0/1 q-shifts over one denominator +-Delta x^low, kept
factored) that ``_plan`` builds collapsed.  Three formulas are built
directly, with T_I, Q_I the t- and q-shift of the x_i, i in I,
e_k^I = e_k without those x_i, and T_I(Delta) = t^C(|I|,2) times the
crossing product ``bases.cross_cleared`` with I chosen:

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
b_i the exponent of x_i in F).  ``apply_symmetric`` takes the Schur
coefficients of F and returns those of the image, read off the
bialternant formula (SFHP I.3) with no x-expansion and no division by
the Vandermonde:

    kind          s    phi_i(b)                   ring     extra factor
    macdonald_r   0    t^(n-i) q^b                Z[q,t]   -
    raise_plus    +1   1 - t^(m-i+1) q^b          Z[q,t]   -
    raise_minus   +1   t^-(n-i) q^-b - t^(m-n+1)  Z[q,t]   q^|F| t^(C(n,2)-C(n-m,2))
    lower_plus    -1   1 - t^(n-i) q^b            Z[q,t]   -
    lower_minus   -1   t^-(n-i) q^-b - 1          Z[q,t]   q^|F| t^(C(n,2)-C(n-m,2))
    jack_raise    +1   a b + m - i + 1            Z[a]     -
    jack_lower    -1   a b + n - i                Z[a]     -

They build J and check duality (the adders), the column-removal law (the
removers), the eigen-equations and commutation (D_r), and run the Jack limit.
``apply_operator`` and the x-level Jack operators in the tests are their
references.  What the pass reads depends on (kind, m, n) and the input
s_lam only, never on F's coefficients, so ``_packed_factor`` keeps one
entry per (kind, m, n) for the life of the process: the phi table and
the Schur column of each s_lam met so far.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .bases import (SymPoly, _int_combination, cross_cleared, elementary, kostka_numbers, signed_arrangements,
                    unit_vector, vandermonde)
from .errors import IndexOutOfRange, NonExactDivision, OutOfRange, SpecializationRequired
from .partitions import partitions_of
from .rings import (
    ALPHA,
    QT,
    Poly,
    Ring,
    SignedDelta,
    _add_into,
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


def _xmono(ring: Ring, idxs) -> Poly:
    return ring.monomial(unit_vector(idxs, len(ring.names)))


# -- explicit normal form ------------------------------------------------


class QDiffOp:
    """Sum of polynomial coefficients times q-shifts, over a common denominator.

    terms maps a shift vector (one integer per x variable) to its numerator
    coefficient.  The denominator +-Delta x^low, Delta the Vandermonde in
    x1..xn, is kept only factored, as the :class:`rings.SignedDelta` divisor.
    """

    __slots__ = ("ring", "nvars", "terms", "divisor")

    def __init__(self, ring: Ring, nvars: int, terms: dict, divisor: SignedDelta):
        self.ring = ring
        self.nvars = nvars
        self.terms = {s: p for s, p in terms.items() if p}
        self.divisor = divisor

    def apply(self, f: Poly) -> Poly:
        """Apply to f: the numerator sum_s c_s f(q-shifted by s), divided.

        The numerator is divided by the monomial and then by the C(n,2)
        linear factors x_i - x_j of Delta (:func:`rings.poly_exact_div`),
        each step linear in the number of terms.
        """
        acc: dict = {}
        for shift, num in self.terms.items():
            acc = _add_into(acc, (num * vector_shift(f, shift, "q")).terms)
        return poly_exact_div(Poly(self.ring, acc), self.divisor)

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
            add(unit_vector(I, n), ring.var("t", _binom2(m)) * cross_cleared(n, I, names))
        return QDiffOp(ring, n, terms, SignedDelta(n, 1, (0,) * len(ring)))
    if kind in RAISE_KINDS + LOWER_KINDS and "_u_" in kind:
        # plus shifts I, minus its complement; a is the sign count
        minus, lower = kind.endswith("minus"), kind.startswith("lower")
        for ksz in range(m + 1):
            for I in _subsets(n, ksz):
                a = m - ksz if minus else ksz
                S = _comp(I, n) if minus else I
                e = elementary(n - m if lower else m - ksz, n, ring, frozenset(I))
                tshift = ring.var("t", _binom2(len(S))) * cross_cleared(n, S, names)  # T_S(Delta)
                c = ring.var("u", a) * tshift * (e if lower else _xmono(ring, I) * e)
                add(unit_vector(S, n), c if a % 2 == 0 else -c)
        low = unit_vector(range(1, n + 1) if lower else (), len(ring))
        return QDiffOp(ring, n, terms, SignedDelta(n, 1, low))
    if kind == "macdonald_u" or kind in GEN_KINDS:
        # sum_r (-u)^r D_r, or sum_m v^m times the u kind at height m
        src = "macdonald_r" if kind == "macdonald_u" else kind.replace("gen", "u")
        w = -ring.var("u") if kind == "macdonald_u" else ring.var("v")
        for r in range(n + 1):
            part = _plan(src, r, n, names)
            for shift, c in part.terms.items():
                add(shift, w**r * c)
        return QDiffOp(ring, n, terms, part.divisor)
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
    # u is the last name of src's ring, if not of this one: low drops its entry
    low = list(src.divisor.low[: len(ring)])
    low[ring.pos("t")] += base + (_binom2(n - m) if kind.endswith("minus") else 0)
    return QDiffOp(ring, n, terms, src.divisor._replace(low=tuple(low)))


def apply_operator(spec: OperatorSpec, f: Poly, n: int) -> Poly:
    """Apply a named operator to an x-polynomial, exactly, through its plan.

    The numerator is divided by the plan's +-Delta x^low.  A remover's low
    holds x1...xn and a specialized kind's a power of t, so the image can
    be a Laurent polynomial.
    """
    kind = spec.kind
    if kind in _NEEDS_INDEX:
        _check_index(spec.index, n)
    for nm in operator_ring(0, kind).names:
        if nm in ("q", "t"):
            f.ring.pos(nm)
        elif nm not in f.ring.names:
            raise SpecializationRequired(f"{kind} needs a ring with {nm}")
    return _plan(kind, spec.index, n, f.ring.names).apply(f)


# -- factorized route at q = t ------------------------------------------

# the kinds with an operator-entry determinant form, hence a product at q = t
_DET_KINDS = (
    "macdonald_u",
    "raise_gen_plus",
    "raise_gen_minus",
    "lower_gen_plus",
    "lower_gen_minus",
)


def apply_factorized_qt(kind: str, n: int, f: Poly) -> Poly:
    """Apply the q = t specialization through its commuting product form.

    The ring of f must use t for the shift variable (no q present); each
    factor is a single-variable two-term operator acting on Delta * f, and
    the product is divided as :func:`apply_operator` divides.
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
        sh = vector_shift(g, unit_vector((j,), n), "t")
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
    low = unit_vector(range(1, n + 1) if kind.startswith("lower") else (), len(ring))
    return poly_exact_div(g, SignedDelta(n, 1, low))


# -- symmetric operators on Schur coefficients ----------------------------

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
    """(kind, m, n)'s cache entry: the phi table and {lam: Schur column of s_lam}."""
    phi = _FORMS[kind][1]
    table = lru_cache(maxsize=None)(
        lambda i, b: tuple((_pack(e), c) for e, c in phi(m, n, i + 1, b).terms.items())
    )
    return table, {}


@lru_cache(maxsize=None)
def _targets(shift: int, m: int, n: int, d: int) -> tuple:
    """(mu, v = mu + delta) for each mu of weight d + shift m; for shift -1 also (None, v) with v_n = -1."""
    delta = tuple(range(n - 1, -1, -1))
    w = d + shift * m
    targets = [(mu, mu, 0) for mu in partitions_of(w, max_len=n)] if w >= 0 else []
    if shift < 0 and n:
        targets += [(None, kap, 1) for kap in partitions_of(d - m + n, max_len=n - 1)]
    return tuple((mu, tuple(p + s - off for p, s in zip(lam.parts + (0,) * (n - lam.length), delta)))
                 for mu, lam, off in targets)


def _schur_rows(kind: str, m: int, n: int, d: int, inputs: dict) -> dict:
    """Schur columns of the kind's images of the m_nu in inputs, all of weight d.

    inputs maps nu's exponent tuple, padded to n parts, to nu.  Returns
    {nu: {v: the coefficient of s_mu in the image of m_nu}} over the
    targets (mu, v) of :func:`_targets`, with the extra factor of the minus
    kinds left out; a nonzero entry at a pole (mu None) is a pole of the
    image.  By the bialternant formula the coefficient at mu is that of
    x^(mu+delta) in A(x^delta e_m(psi) m_nu): each rearrangement u of
    mu + delta is read once, and every m-subset S of the variables, with
    exponent c = u - delta - s 1_S, adds sign(u) prod_S phi_i(c_i) to the
    input nu that c rearranges.
    """
    shift, _, ring = _FORMS[kind]
    table, unpack = _packed_factor(kind, m, n)[0], _unpacker(len(ring.names))
    delta = tuple(range(n - 1, -1, -1))
    low, high = min(shift, 0), max(shift, 0)
    cols: dict = {nu: {} for nu in inputs.values()}
    products: dict = {}  # ((i, c_i) for i in S) -> prod_S phi_i(c_i)
    for _, v in _targets(shift, m, n, d):
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
        for nu, total in acc.items():
            if c := Poly(ring, {unpack(e): x for e, x in total.items() if x}):
                cols[nu][v] = c
    return cols


def _columns(kind: str, m: int, n: int, d: int, lams) -> list:
    """The cached Schur column of each s_lam in lams, all of weight d.

    A missing one is sum_nu K_lam,nu col(m_nu), from one pass of
    :func:`_schur_rows` over the m_nu in the missing s_lam's Kostka rows;
    the m_nu columns are not kept.
    """
    cols = _packed_factor(kind, m, n)[1]
    missing = {lam: kostka_numbers(d, n).get(lam, ()) for lam in lams if lam not in cols}
    if missing:
        nus = {nu.parts + (0,) * (n - nu.length): nu for row in missing.values() for nu, _ in row}
        mono = _schur_rows(kind, m, n, d, nus)
        for lam, row in missing.items():
            col: dict = {}
            for nu, k in row:
                for v, c in mono[nu].items():
                    col.setdefault(v, []).append((k, c))
            cols[lam] = {v: c for v, pairs in col.items() if (c := _int_combination(pairs))}
    return [cols[lam] for lam in lams]


def apply_symmetric(kind: str, m: int, F: SymPoly) -> SymPoly:
    """The kind's e_m(psi) operator (module docstring) on F, in Schur coefficients both ways.

    The coefficient of the image at s_mu is the sum over the s_lam of F of
    F_lam times that of s_lam's image, one product per (mu, lam).  The
    columns come from the (kind, m, n) cache entry; per weight, one pass
    of :func:`_schur_rows` serves the s_lam of F not yet cached.  For
    s = -1 a nonzero coefficient at a v with v_n = -1 is a pole at
    x_i = 0 and raises NonExactDivision.
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
        coeffs = [(lam, c) for lam, c in F.coeffs.items() if lam.weight == d]
        cols = _columns(kind, m, n, d, [lam for lam, _ in coeffs])
        for mu, v in _targets(shift, m, n, d):
            acc: dict = {}
            for (_, f), col in zip(coeffs, cols):
                c = col.get(v)
                if c is not None:
                    for e, x in (f * c).terms.items():
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
    return SymPoly(n, schur)

