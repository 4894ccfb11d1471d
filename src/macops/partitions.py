"""Integer partitions, hook statistics and the scalar factors built from them.

Partitions are immutable tuples of weakly decreasing positive parts.  Cells
are 1-based (i, j) = (row, column).  The reverse-lexicographic listing used
for matrix rows and JSON output puts (d) first and (1^d) last.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import gcd

from .errors import LengthExceedsVars, OutOfRange
from .rings import ALPHA, QT, Poly, Ring, pochhammer_t, poly_exact_div

X = Ring(("x",))


class Partition:
    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(int(p) for p in parts if p)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise OutOfRange("parts must be weakly decreasing")
        if parts and parts[-1] < 0:
            raise OutOfRange("parts must be nonnegative")
        self.parts = parts

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def part(self, i: int) -> int:
        """The i-th part, 1-based, zero beyond the length."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        cols = [sum(1 for p in self.parts if p >= j) for j in range(1, self.parts[0] + 1)]
        return Partition(cols)

    def cells(self):
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield (i, j)

    def render(self) -> str:
        return ",".join(str(p) for p in self.parts) if self.parts else "0"

    def __repr__(self):
        return f"Partition({self.render()})"

    def minus_ones(self, m: int) -> "Partition":
        """Remove a column of height m; needs at least m positive parts."""
        if len(self.parts) < m:
            raise OutOfRange("fewer than m rows to shorten")
        return Partition(
            [p - 1 for p in self.parts[:m]] + list(self.parts[m:])
        )


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if text in ("", "0"):
        return Partition()
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise OutOfRange(f"bad partition string {text!r}") from exc
    return Partition(parts)


def partitions_of(d: int, max_len: int | None = None):
    """All partitions of d, reverse-lexicographically: (d) first, (1^d) last."""
    if d < 0:
        raise OutOfRange("negative weight")
    out: list[Partition] = []

    def rec(remaining, cap, prefix):
        if not remaining:
            out.append(Partition(prefix))
            return
        if max_len is not None and len(prefix) == max_len:
            return
        for p in range(min(cap, remaining), 0, -1):
            rec(remaining - p, p, prefix + [p])

    rec(d, d, [])
    return out


def partitions_up_to(maxw: int, max_len: int | None = None, min_weight: int = 0):
    """The partitions of min_weight..maxw with at most max_len parts, by weight, each revlex."""
    return [lam for d in range(min_weight, maxw + 1) for lam in partitions_of(d, max_len)]


def revlex_key(lam: Partition):
    """Sort key: ascending gives the reverse-lexicographic listing."""
    return tuple(-p for p in lam.parts)


# -- scalar factors ------------------------------------------------------


def _arms_legs(lam: Partition):
    """(arm, leg) of every cell, row by row; the shape is conjugated once."""
    conj = lam.conjugate()
    for i, j in lam.cells():
        yield lam.parts[i - 1] - j, conj.parts[j - 1] - i


def c_integral(lam: Partition) -> Poly:
    """Product over cells of (1 - t^(leg+1) * q^arm); the J = c*P scale."""
    res = QT.one
    for arm, leg in _arms_legs(lam):
        res = res * (1 - QT.var("t", leg + 1) * QT.var("q", arm))
    return res


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> Poly:
    """The d-th cyclotomic polynomial in x: x^d - 1 divided by Phi_e for each e | d, e < d."""
    if d < 1:
        raise OutOfRange("cyclotomic index must be positive")
    res = X.var("x", d) - 1
    for e in range(1, d):
        if d % e == 0:
            res = poly_exact_div(res, cyclotomic(e))
    return res


@lru_cache(maxsize=None)
def c_integral_factors(lam: Partition) -> tuple[tuple[Poly, int], ...]:
    """Irreducible factors of c_integral(lam) in Z[q,t], with multiplicities.

    A cell's 1 - q^a t^b (b = leg + 1) is, with g = gcd(a, b), minus the
    product over d | g of Phi_d(q^(a/g) t^(b/g)); each Phi_d(q^a' t^b') with
    coprime a', b' is irreducible, since a unimodular change of exponents
    takes it to Phi_d(u).  Each cell contributes a factor -1, so the
    factors multiply back to (-1)^|lam| c_integral(lam).
    """
    mult: dict[tuple[int, int, int], int] = {}
    for arm, leg in _arms_legs(lam):
        g = gcd(arm, leg + 1)
        for d in range(1, g + 1):
            if g % d == 0:
                key = (d, arm // g, (leg + 1) // g)
                mult[key] = mult.get(key, 0) + 1
    return tuple(
        (cyclotomic(d).subs({"x": QT.monomial((a, b))}, QT), m)
        for (d, a, b), m in mult.items()
    )


def eigenvalue(lam: Partition, n: int, r: int) -> Poly:
    """The eigenvalue of D_r on J_lam in n variables: e_r of the q^(lam_i) t^(n-i), i <= n."""
    if lam.length > n:
        raise LengthExceedsVars("partition longer than the variable count")
    terms: dict = {}
    for S in combinations(range(1, n + 1), r):
        e = (sum(lam.part(i) for i in S), sum(n - i for i in S))
        terms[e] = terms.get(e, 0) + 1
    return Poly(QT, terms)


def lowering_coeff(lam: Partition, m: int, n: int) -> Poly:
    """Scalar produced when a full column of height m is removed.

    Product over i<=m of (1 - t^(m-i) q^(lam_i)) (1 - t^(n-i+1) q^(lam_i - 1)).
    The i = m factor 1 - t^0 q^0 vanishes when the shape is shorter than
    m, so the formula covers the zero clause on its own.
    """
    if m < 0 or m > n:
        raise OutOfRange("column height outside [0, nvars]")
    if lam.length > n:
        raise LengthExceedsVars("partition longer than the variable count")
    res = QT.one
    for i in range(1, m + 1):
        res = res * (1 - QT.var("t", m - i) * QT.var("q", lam.part(i)))
        res = res * (1 - QT.var("t", n - i + 1) * QT.var("q", lam.part(i) - 1))
    return res


def c_alpha(lam: Partition) -> Poly:
    """Jack normalization: product over cells of (alpha*arm + leg + 1)."""
    res = ALPHA.one
    for arm, leg in _arms_legs(lam):
        res = res * (ALPHA.var("a") * arm + (leg + 1))
    return res


@lru_cache(maxsize=None)
def column_unit_scale(m: int) -> Poly:
    """The scale picked up by a single column of height m: (t;t)_m."""
    if m < 0:
        raise OutOfRange("negative column height")
    return pochhammer_t(QT.var("t"), m)
