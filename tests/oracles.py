"""Independent routes the tests check the package against.

Nothing in the package calls these: the antisymmetrizer over all n!
permutations (the bialternant numerator, which the package reads off
Kostka numbers instead), the operator-entry determinant route of the
generating operators, and the dominance order on partitions.
"""

from functools import lru_cache
from itertools import permutations

from macops.bases import vandermonde
from macops.errors import OutOfRange
from macops.operators import _DET_KINDS, _unit_shift, _xmono
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
