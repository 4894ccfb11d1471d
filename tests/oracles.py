"""Independent routes the tests check the package against.

Nothing in the package calls these: the antisymmetrizer over all n!
permutations (the bialternant numerator, which the package reads off
Kostka numbers instead), the operator-entry determinant route of the
generating operators, the printed subset sums of the named operators
assembled literally (``build``) on a Vandermonde multiplied out here and
its t-shifts (``delta_by_pairs``, ``tshift_delta``; the package builds
both as crossing products), with the operator algebra that compares
them (``dualize``, ``equals`` and friends), the expansion and factoring
of a divisor +-Delta x^low (``expand``, ``_delta_factor``), an operator's
image before that division (``numerator``, ``raw_image``), the comparison
of two raw images over it (``same_image``), the duality and commutation
laws checked by applying the x-level operators (``duality_by_application``,
``commute_by_application``), adding a column to a partition, the
dominance order on partitions, a fraction in lowest terms by the
multivariate gcd (``lowest_terms``), which the package gets by trial
division with known factors instead, and the Schur coefficients of
monomial ones by back-substitution with Kostka numbers counted by
brute-force fillings (``schur_coefficients``), which the package never
needs: it computes in the Schur basis and makes monomials only for output.
"""

from functools import lru_cache
from itertools import combinations, permutations
from operator import sub

from macops.bases import SymPoly, expand_monomial, unit_vector
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
    _plan,
    _xmono,
    apply_operator,
    operator_ring,
)
from macops import rings
from macops.partitions import Partition, partitions_of
from macops.rings import (Frac, Poly, SignedDelta, _add_into, _grlex, _mono_div, poly_exact_div,
                          vector_shift)


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
    quo = poly_exact_div(num, delta_by_pairs(n, ring))
    return Poly(ring, {tuple(x + shift if i < n else x for i, x in enumerate(e)): c for e, c in quo.terms.items()})


def apply_determinantal(kind: str, n: int, f: Poly):
    """Apply via the operator-entry determinant expansion, undivided.

    Entries in one Leibniz product act on distinct variables and commute;
    each permutation term is an n-fold composition applied to f.  The
    lower kinds use entries pre-cleared by one power of x_j so everything
    stays polynomial.  Returns (numerator, divisor), as :func:`raw_image`
    does.
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
        shifted = vector_shift(g, unit_vector((j,), n), "q")
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
    return acc, SignedDelta(n, 1, unit_vector(range(1, n + 1) if kind.startswith("lower") else (), len(ring)))


def lowest_terms(num: Poly, den: Poly) -> Frac:
    """num/den divided through by their gcd, the denominator's trailing coefficient positive.

    The gcd is looked up on ``rings`` at call time, so a test that counts
    ``rings.poly_gcd`` calls sees this one.
    """
    if den.is_zero:
        raise ZeroDivisionError("zero denominator")
    if num.is_zero:
        return Frac(num, den.ring.one)
    g = rings.poly_gcd(num, den)
    num, den = poly_exact_div(num, g), poly_exact_div(den, g)
    if den.terms[min(den.terms, key=_grlex)] < 0:
        num, den = -num, -den
    return Frac(num, den)


@lru_cache(maxsize=None)
def ssyt_count(shape: tuple, content: tuple) -> int:
    """The number of semistandard tableaux of the shape and content, filled cell by cell."""
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    left, fill = list(content), {}

    def rec(k):
        if k == len(cells):
            return 1
        i, j = cells[k]
        total = 0
        for v in range(len(content)):
            if left[v] and not (j and fill[i, j - 1] > v) and not (i and fill[i - 1, j] >= v):
                left[v] -= 1
                fill[i, j] = v
                total += rec(k + 1)
                left[v] += 1
        return total

    return rec(0)


def schur_coefficients(sym: SymPoly) -> SymPoly:
    """The Schur coefficients of a SymPoly of monomial ones, by back-substitution.

    s_mu = m_mu + sum over nu below mu in dominance of K_mu,nu m_nu, so the
    lexicographically largest m_mu left carries the coefficient of s_mu.
    """
    rest, out = dict(sym.coeffs), {}
    while rest:
        mu = max(rest, key=lambda lam: lam.parts)
        c = out[mu] = rest.pop(mu)
        for nu in partitions_of(mu.weight, max_len=sym.nvars):
            k = ssyt_count(mu.parts, nu.parts) if nu != mu else 0
            if k:
                rest[nu] = rest[nu] - k * c if nu in rest else -k * c
                if not rest[nu]:
                    del rest[nu]
    return SymPoly(sym.nvars, out)


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


@lru_cache(maxsize=None)
def delta_by_pairs(n: int, ring) -> Poly:
    """The Vandermonde prod_{i<j} (x_i - x_j) in x1..xn, multiplied out pair by pair."""
    out = ring.one
    for i, j in combinations(range(1, n + 1), 2):
        out = out * (ring.var(f"x{i}") - ring.var(f"x{j}"))
    return out


def tshift_delta(n: int, I, ring) -> Poly:
    """T_I(Delta) / t^C(|I|,2), T_I the t-shift of the x_i, i in I, on :func:`delta_by_pairs`.

    Every pair inside I gives T_I(Delta) one factor t, so the quotient is
    a polynomial; ``bases.cross_cleared(n, I, names)`` must equal it.
    """
    shifted = vector_shift(delta_by_pairs(n, ring), unit_vector(I, n), "t")
    return shifted * ring.var("t", -_binom2(len(I)))


def expand(d: SignedDelta, ring) -> Poly:
    """The divisor sign * Delta * x^low as a polynomial of the ring."""
    return delta_by_pairs(d.n, ring) * ring.monomial(d.low) * d.sign


def _delta_factor(den: Poly, n: int) -> SignedDelta:
    """den as sign * Delta * x^low, Delta the Vandermonde in x1..xn."""
    if den:
        # Delta has a term free of each x_i, so x^low is den's lowest monomial
        low = tuple(min(col) for col in zip(*den.terms))
        rest = Poly(den.ring, _mono_div(den.terms, low))
        delta = delta_by_pairs(n, den.ring)
        if rest == delta:
            return SignedDelta(n, 1, low)
        if rest == -delta:
            return SignedDelta(n, -1, low)
    raise OutOfRange(f"denominator {den.render()} is not +-Delta times a monomial")


def divisor_subs(d: SignedDelta, ring, images: dict, target) -> SignedDelta:
    """d under a monomial substitution that fixes x1..xn: only c x^low moves.

    images and target are those of ``Poly.subs``; this carries q = t, the
    bar involution and the move into another ring by variable name.
    """
    [(low, c)] = ring.monomial(d.low).subs(images, target).terms.items()
    return SignedDelta(d.n, d.sign * c, low)


def scaled(op: QDiffOp, c) -> QDiffOp:
    return QDiffOp(op.ring, op.nvars, {s: p * c for s, p in op.terms.items()}, op.divisor)


def with_global_qshift(op: QDiffOp) -> QDiffOp:
    """Compose on the right with the shift of every x variable."""
    return QDiffOp(op.ring, op.nvars, {tuple(x + 1 for x in s): p for s, p in op.terms.items()}, op.divisor)


def normalized(op: QDiffOp) -> QDiffOp:
    """Clear negative q,t exponents by scaling numerators and denominator."""
    ring, (n, sign, low) = op.ring, op.divisor
    scale = [0] * len(ring)
    for nm in ("q", "t"):
        v = ring.pos(nm)
        scale[v] = -min([p.var_min(nm) for p in op.terms.values()] + [low[v], 0])
    if not any(scale):
        return op
    mono = ring.monomial(scale)
    terms = {s: p * mono for s, p in op.terms.items()}
    return QDiffOp(ring, n, terms, SignedDelta(n, sign, tuple(a + b for a, b in zip(low, scale))))


def numerator(op: QDiffOp, f: Poly) -> Poly:
    """op applied to f before its division: sum_s c_s times f q-shifted by s."""
    acc: dict = {}
    for shift, c in op.terms.items():
        acc = _add_into(acc, (c * vector_shift(f, shift, "q")).terms)
    return Poly(f.ring, acc)


def raw_image(kind: str, m, n: int, f: Poly) -> tuple[Poly, SignedDelta]:
    """(numerator, divisor) of the plan ``apply_operator`` divides, for f's ring."""
    op = _plan(kind, m, n, f.ring.names)
    return numerator(op, f), op.divisor


def same_image(a: Poly, da: SignedDelta, b: Poly, db: SignedDelta) -> bool:
    """Whether a / da equals b / db, two raw images over one Delta.

    a/(s_a Delta x^alpha) = b/(s_b Delta x^beta) iff s_a s_b x^(beta - alpha) a
    = b: one monomial shift, no polynomial product.
    """
    if a.ring is not b.ring or da.n != db.n:
        raise OutOfRange(f"images over Delta in {da.n} and {db.n} variables, or mixed rings")
    sign = da.sign * db.sign
    return {e: c * sign for e, c in _mono_div(a.terms, tuple(map(sub, da.low, db.low))).items()} == b.terms


def equals(a: QDiffOp, b: QDiffOp) -> bool:
    """The same operator: equal shift by shift, over each one's divisor."""
    if a.ring is not b.ring or a.nvars != b.nvars:
        return False
    zero = a.ring.zero
    return all(
        same_image(a.terms.get(s, zero), a.divisor, b.terms.get(s, zero), b.divisor)
        for s in set(a.terms) | set(b.terms)
    )


def dualize(op: QDiffOp) -> QDiffOp:
    """The bar involution: invert q and t and invert every shift.

    Inverting shifts is part of the involution; inverting only the scalars
    does not reproduce the minus-family and fails the duality law.
    """
    bar = {"q": op.ring.var("q", -1), "t": op.ring.var("t", -1)}
    terms = {tuple(-x for x in s): p.subs(bar) for s, p in op.terms.items()}
    return normalized(QDiffOp(op.ring, op.nvars, terms, divisor_subs(op.divisor, op.ring, bar, op.ring)))


def build(spec: OperatorSpec, n: int) -> QDiffOp:
    """Assemble the printed subset sum for the operator, literally.

    Quadratic in the number of subset pairs, so for checking at small n
    only; the package applies the collapsed form ``operators._plan``.
    """
    kind = spec.kind
    ring = operator_ring(n, kind)
    delta = delta_by_pairs(n, ring)
    xall = _xmono(ring, range(1, n + 1))
    terms: dict = {}

    def add(shift_idxs, coeff):
        key = unit_vector(shift_idxs, n)
        terms[key] = terms.get(key, ring.zero) + coeff

    def tpow(e):
        return ring.var("t", e)

    def upow(e):
        return ring.var("u", e)

    if kind == "macdonald_r":
        r = spec.index
        _check_index(r, n)
        for I in _subsets(n, r):
            add(I, tpow(_binom2(r)) * tshift_delta(n, I, ring))
        return QDiffOp(ring, n, terms, _delta_factor(delta, n))

    if kind == "macdonald_u":
        for I in _subsets(n):
            k = len(I)
            c = tpow(_binom2(k)) * tshift_delta(n, I, ring) * upow(k)
            add(I, c if k % 2 == 0 else -c)
        return QDiffOp(ring, n, terms, _delta_factor(delta, n))

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
                        cross = tshift_delta(n, I, ring)
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
                        cross = tshift_delta(n, _comp(I, n), ring)
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
        return normalized(QDiffOp(ring, n, terms, _delta_factor(den, n)))

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
                    c = ring.var("u", k) * tpow(_binom2(k)) * tshift_delta(n, I, ring)
                    if k % 2:
                        c = -c
                    add(I, xfac * vfac * c)
                else:
                    a = len(J) - k
                    c = ring.var("u", a) * tpow(_binom2(n - k)) * tshift_delta(n, _comp(I, n), ring)
                    if a % 2:
                        c = -c
                    add(_comp(I, n), xfac * vfac * c)
    den = xall * delta if lower else delta
    return QDiffOp(ring, n, terms, _delta_factor(den, n))


# -- the operator laws by application to x-polynomials ----------------------


def duality_by_application(lam: Partition, m: int, n: int) -> bool:
    """``macdonald.duality_verify``'s law on the expanded m_lam, through ``apply_operator``.

    Compared undivided by :func:`same_image`: the bar involution fixes
    Delta, so the right side's divisor is bar(sign x^low) / scale.
    """
    ring = operator_ring(n, "raise_plus")
    f = expand_monomial(lam, n, ring=ring)
    ln, ld = raw_image("raise_minus", m, n, f)
    pn, pd = raw_image("raise_plus", m, n, f)
    inv_scale = ring.var("q", -lam.weight) * ring.var("t", -m - _binom2(m), -1 if m % 2 else 1)
    bar = {"q": ring.var("q", -1), "t": ring.var("t", -1)}
    [(low, sign)] = (ring.monomial(pd.low, pd.sign).subs(bar) * inv_scale).terms.items()
    return same_image(ln, ld, pn.subs(bar), SignedDelta(n, sign, low))


def commute_by_application(lam: Partition, n: int) -> dict:
    """{(r, s): whether D_r D_s = D_s D_r on the expanded m_lam}, every r < s."""
    ring = operator_ring(n, "macdonald_r")
    f = expand_monomial(lam, n, ring=ring)
    images = [apply_operator(OperatorSpec("macdonald_r", r), f, n) for r in range(n + 1)]
    return {
        (r, s): apply_operator(OperatorSpec("macdonald_r", r), images[s], n)
        == apply_operator(OperatorSpec("macdonald_r", s), images[r], n)
        for r, s in combinations(range(n + 1), 2)
    }
