"""Independent routes the tests check the package against.

Nothing in the package calls these: the antisymmetrizer over all n!
permutations (the bialternant numerator, which the package reads off
Kostka numbers instead), the operator-entry determinant route of the
generating operators, the printed subset sums of the named operators
assembled literally (``build``) with the operator algebra that compares
them (``dualize``, ``equals`` and friends), adding a column to a
partition, and the dominance order on partitions.
"""

from functools import lru_cache
from itertools import combinations, permutations

from macops.bases import vandermonde
from macops.errors import LengthExceedsVars, OutOfRange
from macops.operators import (
    _DET_KINDS,
    LOWER_KINDS,
    RAISE_KINDS,
    OperatorSpec,
    QDiffOp,
    _binom2,
    _check_index,
    _comp,
    _subsets,
    _unit_shift,
    _xmono,
    cross_cleared,
    operator_ring,
)
from macops.partitions import Partition
from macops.rings import Poly, poly_exact_div, vector_shift


@lru_cache(maxsize=None)
def signed_permutations(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every permutation of 1..n, in lexicographic order, with its sign."""
    out = []
    for perm in permutations(range(1, n + 1)):
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        out.append((perm, -1 if inv & 1 else 1))
    return tuple(out)


def permute_x(f: Poly, n: int, perm) -> Poly:
    """Apply the variable permutation x_i -> x_{perm[i-1]} (perm 1-based values)."""
    out: dict = {}
    width = len(f.ring.names)
    for e, c in f.terms.items():
        ne = [0] * width
        ne[n:] = e[n:]
        for i in range(n):
            ne[perm[i] - 1] = e[i]
        out[tuple(ne)] = c
    return Poly(f.ring, out)


def antisymmetrize(f: Poly, n: int) -> Poly:
    """Sum of sign * permuted f over the symmetric group on x1..xn."""
    terms: dict = {}
    for perm, sign in signed_permutations(n):
        for e, c in permute_x(f, n, perm).terms.items():
            s = terms.get(e, 0) + (c if sign > 0 else -c)
            if s:
                terms[e] = s
            else:
                del terms[e]
    return Poly(f.ring, terms)


def bialternant(vec, n: int, ring) -> Poly:
    """The Schur polynomial of an integer vector as det(x_j^(v_i + n - i)) / Delta.

    A uniform shift makes every exponent nonnegative before the
    antisymmetrization and is divided out afterwards, so negative entries
    give Laurent polynomials.
    """
    vec = tuple(vec) + (0,) * (n - len(vec))
    exps = tuple(v + n - 1 - i for i, v in enumerate(vec))
    shift = min(min(exps), 0)
    pad = (0,) * (len(ring.names) - n)
    num = antisymmetrize(ring.monomial(tuple(e - shift for e in exps) + pad), n)
    quo = poly_exact_div(num, vandermonde(n, ring))
    return Poly(ring, {tuple(x + shift if i < n else x for i, x in enumerate(e)): c for e, c in quo.terms.items()})


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
        shifted = vector_shift(g, _unit_shift((j,), n), "q")
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


def plus_ones(lam: Partition, m: int) -> Partition:
    """Add a column of height m; the length may not exceed m."""
    if len(lam.parts) > m:
        raise LengthExceedsVars("partition longer than the column being added")
    padded = list(lam.parts) + [0] * (m - len(lam.parts))
    return Partition(p + 1 for p in padded)


def dominance_leq(mu: Partition, lam: Partition) -> bool:
    """Dominance order on partitions of equal weight; False across weights."""
    if mu.weight != lam.weight:
        return False
    acc_m = acc_l = 0
    for i in range(1, max(len(mu), len(lam)) + 1):
        acc_m += mu.part(i)
        acc_l += lam.part(i)
        if acc_m > acc_l:
            return False
    return True


# -- the operators as printed, and their algebra ---------------------------


def scaled(op: QDiffOp, c) -> QDiffOp:
    return QDiffOp(op.ring, op.nvars, {s: p * c for s, p in op.terms.items()}, op.den)


def with_global_qshift(op: QDiffOp) -> QDiffOp:
    """Compose on the right with the shift of every x variable."""
    return QDiffOp(op.ring, op.nvars, {tuple(x + 1 for x in s): p for s, p in op.terms.items()}, op.den)


def normalized(op: QDiffOp) -> QDiffOp:
    """Clear negative q,t exponents by scaling numerators and denominator."""
    polys = list(op.terms.values()) + [op.den]
    scale = op.ring.one
    for nm in ("q", "t"):
        low = min(p.var_min(nm) for p in polys)
        if low < 0:
            scale = scale * op.ring.var(nm, -low)
    if scale == op.ring.one:
        return op
    return QDiffOp(op.ring, op.nvars, {s: p * scale for s, p in op.terms.items()}, op.den * scale)


def equals(a: QDiffOp, b: QDiffOp) -> bool:
    """The same operator: equal shift by shift, cross-multiplied by the denominators."""
    if a.ring is not b.ring or a.nvars != b.nvars:
        return False
    for s in set(a.terms) | set(b.terms):
        if a.terms.get(s, a.ring.zero) * b.den != b.terms.get(s, b.ring.zero) * a.den:
            return False
    return True


def dualize(op: QDiffOp) -> QDiffOp:
    """The bar involution: invert q and t and invert every shift.

    Inverting shifts is part of the involution; inverting only the scalars
    does not reproduce the minus-family and fails the duality law.
    """
    bar = {"q": op.ring.var("q", -1), "t": op.ring.var("t", -1)}
    terms = {tuple(-x for x in s): p.subs(bar) for s, p in op.terms.items()}
    den = op.den.subs(bar)
    return normalized(QDiffOp(op.ring, op.nvars, terms, den))


def build(spec: OperatorSpec, n: int) -> QDiffOp:
    """Assemble the printed subset sum for the operator, literally.

    Quadratic in the number of subset pairs, so for checking at small n
    only; the package applies the collapsed form ``operators._plan``.
    """
    kind = spec.kind
    ring = operator_ring(n, kind)
    names = ring.names
    delta = vandermonde(n, ring)
    xall = _xmono(ring, range(1, n + 1))
    terms: dict = {}

    def add(shift_idxs, coeff):
        key = _unit_shift(shift_idxs, n)
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
        return normalized(QDiffOp(ring, n, terms, den))

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
