"""Exact sparse polynomial and rational-function arithmetic.

Everything in this package computes over exact coefficient domains: Python
ints (arbitrary precision) or ``fractions.Fraction``.  A :class:`Ring` is an
interned tuple of variable names and a :class:`Poly` is a sparse map from
exponent tuples to nonzero coefficients.  Negative exponents are tolerated
in intermediate values (inverse shifts and ``1/x_j`` clearing produce them
transiently); every published value is an honest polynomial.

Canonical term order, used for iteration, rendering and golden files:
ascending total degree, ties broken by descending exponent tuple.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import lru_cache
from math import gcd as _int_gcd

from .errors import NonExactDivision, OutOfRange

Coeff = int | Fraction
Expt = tuple[int, ...]


class Ring:
    """An interned tuple of variable names.

    Two rings with the same names are the same object, so rings can key
    caches and polynomial operands can be checked with ``is``.
    """

    _interned: dict[tuple[str, ...], "Ring"] = {}
    __slots__ = ("names", "_pos", "zero", "one")

    def __new__(cls, names):
        names = tuple(names)
        ring = cls._interned.get(names)
        if ring is None:
            ring = super().__new__(cls)
            ring.names = names
            ring._pos = {nm: i for i, nm in enumerate(names)}
            ring.zero = Poly(ring, {})
            ring.one = Poly(ring, {(0,) * len(names): 1})
            cls._interned[names] = ring
        return ring

    def __repr__(self):
        return f"Ring({','.join(self.names)})"

    def __len__(self):
        return len(self.names)

    def pos(self, name: str) -> int:
        if name not in self._pos:
            raise OutOfRange(f"no variable {name!r} in {self!r}")
        return self._pos[name]

    def const(self, c: Coeff) -> "Poly":
        if not c:
            return self.zero
        return Poly(self, {(0,) * len(self.names): c})

    def var(self, name: str, exp: int = 1, coeff: Coeff = 1) -> "Poly":
        e = [0] * len(self.names)
        e[self.pos(name)] = exp
        return Poly(self, {tuple(e): coeff}) if coeff else self.zero

    def monomial(self, exps: Expt, coeff: Coeff = 1) -> "Poly":
        exps = tuple(exps)
        if len(exps) != len(self.names):
            raise OutOfRange("exponent tuple has wrong length")
        return Poly(self, {exps: coeff}) if coeff else self.zero

    def from_terms(self, terms: dict) -> "Poly":
        """Build a polynomial from a possibly dirty dict (zeros dropped)."""
        return Poly(self, {e: c for e, c in terms.items() if c})


def _order_key(exps: Expt):
    # ascending total degree, then descending exponent tuple
    return (sum(exps), tuple(-e for e in exps))


def _grlex(exps: Expt):
    # max() under this key picks the canonical leading term
    return (sum(exps), exps)


class Poly:
    """Immutable-by-convention sparse polynomial over a :class:`Ring`."""

    __slots__ = ("ring", "terms")
    __hash__ = None

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_const(self) -> bool:
        return all(not any(e) for e in self.terms)

    def const_value(self) -> Coeff:
        if not self.terms:
            return 0
        [(e, c)] = self.terms.items()
        if any(e):
            raise OutOfRange("not a constant polynomial")
        return c

    # -- ring arithmetic -------------------------------------------------

    def _lift(self, other):
        if isinstance(other, Poly):
            if other.ring is not self.ring:
                raise OutOfRange("mixed rings; cast() one operand first")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return None

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        big, small = self.terms, other.terms
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        for e, c in small.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return Poly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return self.ring.zero
            return Poly(self.ring, {e: c * other for e, c in self.terms.items()})
        other = self._lift(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out: dict = {}
        for eb, cb in b.items():
            for ea, ca in a.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(e, 0) + ca * cb
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return Poly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise OutOfRange("negative polynomial power")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- inspection ------------------------------------------------------

    def var_max(self, name: str) -> int:
        v = self.ring.pos(name)
        return max((e[v] for e in self.terms), default=0)

    def var_min(self, name: str) -> int:
        v = self.ring.pos(name)
        return min((e[v] for e in self.terms), default=0)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _order_key(kv[0]))

    def leading(self) -> tuple[Expt, Coeff]:
        e = max(self.terms, key=_grlex)
        return e, self.terms[e]

    def map_coeffs(self, fn) -> "Poly":
        return self.ring.from_terms({e: fn(c) for e, c in self.terms.items()})

    def cast(self, ring: Ring) -> "Poly":
        """Reinterpret in another ring, matching variables by name."""
        if ring is self.ring:
            return self
        src = self.ring.names
        slot = []
        for i, nm in enumerate(src):
            if nm in ring._pos:
                slot.append(ring._pos[nm])
            else:
                slot.append(-1)
        width = len(ring.names)
        out: dict = {}
        for e, c in self.terms.items():
            ne = [0] * width
            for i, exp in enumerate(e):
                if not exp:
                    continue
                if slot[i] < 0:
                    raise OutOfRange(f"variable {src[i]!r} absent from target ring")
                ne[slot[i]] = exp
            k = tuple(ne)
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return Poly(ring, out)

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        if not self.terms:
            return "0"
        names = self.ring.names
        chunks = []
        for exps, c in self.sorted_terms():
            factors = []
            for nm, e in zip(names, exps):
                if e == 1:
                    factors.append(nm)
                elif e:
                    factors.append(f"{nm}^{e}")
            mono = "*".join(factors)
            neg = c < 0
            mag = -c if neg else c
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            chunks.append(("-" if neg else "+", body))
        sign, body = chunks[0]
        text = body if sign == "+" else "-" + body
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"<Poly {self.render()}>"


# -- exact division ------------------------------------------------------


def _coeff_div(a: Coeff, b: Coeff) -> Coeff:
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r:
            raise NonExactDivision("coefficient not divisible")
        return q
    return Fraction(a) / Fraction(b)


def poly_exact_div(f: Poly, g: Poly) -> Poly:
    """Divide ``f`` by ``g`` exactly, raising :class:`NonExactDivision`.

    Leading-term reduction in graded lex order.  When both operands have
    nonnegative exponents the classical divisibility test makes failures
    fast; with Laurent terms in the dividend the quotient support is
    bounded by a degree box instead so the loop still terminates.
    """
    if g.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero:
        return f.ring.zero
    if f.ring is not g.ring:
        raise OutOfRange("mixed rings in division")
    glead = max(g.terms, key=_grlex)
    gc = g.terms[glead]
    plain = all(x >= 0 for e in f.terms for x in e) and all(
        x >= 0 for e in g.terms for x in e
    )

    def box_budget():
        budget = 1
        for v in range(len(f.ring.names)):
            fs = [e[v] for e in f.terms]
            gs = [e[v] for e in g.terms]
            budget *= (max(fs) - min(fs)) + (max(gs) - min(gs)) + 1
        return budget + 8

    budget = None if plain else box_budget()
    rem = dict(f.terms)
    # heap pops in descending graded-lex order
    heap = [((-sum(e), tuple(-x for x in e)), e) for e in rem]
    heapq.heapify(heap)
    quot: dict = {}
    gother = [(e, c) for e, c in g.terms.items() if e != glead]
    while rem:
        while heap:
            _, m = heapq.heappop(heap)
            if m in rem:
                break
        else:
            break
        mc = rem.pop(m)
        qe = tuple(a - b for a, b in zip(m, glead))
        if plain and any(x < 0 for x in qe):
            # quotient leaves the plain ring; retry the step with the
            # Laurent bound instead of giving up
            plain = False
            budget = box_budget() - len(quot)
        if budget is not None:
            budget -= 1
            if budget < 0:
                raise NonExactDivision("no Laurent-bounded quotient")
        qc = _coeff_div(mc, gc)
        quot[qe] = quot.get(qe, 0) + qc
        for ge, gcf in gother:
            e = tuple(a + b for a, b in zip(ge, qe))
            s = rem.get(e, 0) - qc * gcf
            if s:
                if e not in rem:
                    heapq.heappush(heap, ((-sum(e), tuple(-x for x in e)), e))
                rem[e] = s
            elif e in rem:
                del rem[e]
    if rem:
        raise NonExactDivision("nonzero remainder")
    return f.ring.from_terms(quot)


# -- gcd over Z[vars] ----------------------------------------------------


def _var_slices(f: Poly, v: int) -> dict[int, Poly]:
    """Coefficients of powers of variable ``v``, as polys with that slot zeroed."""
    out: dict[int, dict] = {}
    for e, c in f.terms.items():
        key = e[:v] + (0,) + e[v + 1 :]
        out.setdefault(e[v], {})[key] = c
    return {d: Poly(f.ring, t) for d, t in out.items()}

def _var_deg(f: Poly, v: int) -> int:
    return max(e[v] for e in f.terms)


def _lead_slice(f: Poly, v: int) -> Poly:
    d = _var_deg(f, v)
    return Poly(
        f.ring,
        {e[:v] + (0,) + e[v + 1 :]: c for e, c in f.terms.items() if e[v] == d},
    )


def _shift_in(f: Poly, v: int, d: int) -> Poly:
    """Multiply by var_v ** d."""
    return Poly(f.ring, {e[:v] + (e[v] + d,) + e[v + 1 :]: c for e, c in f.terms.items()})


def _prem(f: Poly, g: Poly, v: int) -> Poly:
    """Pseudo-remainder of f by g in variable v over the remaining ring."""
    dg = _var_deg(g, v)
    lcg = _lead_slice(g, v)
    delta = _var_deg(f, v) - dg
    r = f * (lcg ** (delta + 1))
    while r and _var_deg(r, v) >= dg:
        d = _var_deg(r, v) - dg
        q = poly_exact_div(_lead_slice(r, v), lcg)
        r = r - _shift_in(q * g, v, d)
    return r


def _positive_trail(f: Poly) -> Poly:
    """Normalize sign so the graded-lex *trailing* coefficient is positive.

    Products like (1 - q*t)(1 - t) have constant term +1, so this keeps
    gcds and denominators in their natural printed form.
    """
    if f and f.terms[min(f.terms, key=_grlex)] < 0:
        return -f
    return f


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Gcd over the integers in every ring variable (subresultant PRS).

    Sign-normalized via :func:`_positive_trail`.  Coefficients must be
    ints; rational coefficients have no canonical gcd and are rejected.
    """
    if a.ring is not b.ring:
        raise OutOfRange("mixed rings in gcd")
    for p in (a, b):
        for c in p.terms.values():
            if not isinstance(c, int):
                raise OutOfRange("gcd requires integer coefficients")
    return _positive_trail(_gcd_rec(a, b, len(a.ring.names) - 1))

def _gcd_rec(a: Poly, b: Poly, v: int) -> Poly:
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    if v < 0:
        g = _int_gcd(*(list(a.terms.values()) + list(b.terms.values())))
        return a.ring.const(g)
    da, db = _var_deg(a, v), _var_deg(b, v)
    if da == 0 and db == 0:
        return _gcd_rec(a, b, v - 1)
    ca = _content(a, v)
    cb = _content(b, v)
    cont = _gcd_rec(ca, cb, v - 1)
    f = poly_exact_div(a, ca)
    g = poly_exact_div(b, cb)
    if da < db:
        f, g = g, f
    gs = a.ring.one
    hs = a.ring.one
    while True:
        delta = _var_deg(f, v) - _var_deg(g, v)
        r = _prem(f, g, v)
        if r.is_zero:
            break
        if _var_deg(r, v) == 0 and _var_deg(g, v) > 0:
            # primitive parts share no factor involving var v
            g = a.ring.one
            break
        f, g = g, poly_exact_div(r, gs * hs**delta)
        gs = _lead_slice(f, v)
        if delta == 1:
            hs = gs
        elif delta > 1:
            hs = poly_exact_div(gs**delta, hs ** (delta - 1))
    prim = poly_exact_div(g, _content(g, v)) if _var_deg(g, v) > 0 else a.ring.one
    return cont * prim


def _content(f: Poly, v: int) -> Poly:
    slices = _var_slices(f, v)
    it = iter(slices.values())
    acc = next(it)
    for s in it:
        acc = _gcd_rec(acc, s, v - 1)
        if acc.is_const() and abs(acc.const_value()) == 1:
            break
    return _positive_trail(acc)


# -- rational functions --------------------------------------------------


class Frac:
    """Reduced fraction of integer-coefficient polynomials.

    Construction reduces eagerly by :func:`poly_gcd` and normalizes the
    denominator sign, so equal fractions have identical num/den pairs.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None, _canonical=False):
        if den is None:
            den = num.ring.one
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if not _canonical:
            if num.is_zero:
                den = num.ring.one
            else:
                g = poly_gcd(num, den)
                if not (g.is_const() and g.const_value() == 1):
                    num = poly_exact_div(num, g)
                    den = poly_exact_div(den, g)
                if den.terms[min(den.terms, key=_grlex)] < 0:
                    num, den = -num, -den
        self.num = num
        self.den = den

    @property
    def ring(self) -> Ring:
        return self.num.ring

    def _lift(self, other) -> "Frac | None":
        if isinstance(other, Frac):
            return other
        if isinstance(other, Poly):
            return Frac(other, None, _canonical=True)
        if isinstance(other, int):
            return Frac(self.ring.const(other), None, _canonical=True)
        return None

    def __eq__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    __hash__ = None

    def __add__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return Frac(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return Frac(-self.num, self.den, _canonical=True)

    def __sub__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return Frac(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is None:
            return NotImplemented
        return Frac(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._lift(other)
        return other / self

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self):
        return bool(self.num)

    def is_polynomial(self) -> bool:
        return self.den.is_const() and self.den.const_value() == 1

    def to_poly(self) -> Poly:
        if not self.is_polynomial():
            raise NonExactDivision("fraction has a nontrivial denominator")
        return self.num

    def render(self) -> str:
        if self.is_polynomial():
            return self.num.render()
        return f"({self.num.render()})/({self.den.render()})"

    def __repr__(self):
        return f"<Frac {self.render()}>"


def frac_by_factors(num: Poly, den: Poly, factors) -> Frac:
    """num/den in lowest terms when den's irreducible factors are known.

    ``factors`` lists pairs (f, k) with den = +-prod f^k and each f
    irreducible, so every common factor of num and den is one of them.
    Dividing both by each f while it divides num, at most k times, gives
    the same num/den pair as ``Frac(num, den)`` without computing a gcd.
    """
    for f, k in factors:
        for _ in range(k):
            try:
                num = poly_exact_div(num, f)
            except NonExactDivision:
                break
            den = poly_exact_div(den, f)
    if _positive_trail(den) is not den:
        num, den = -num, -den
    return Frac(num, den, _canonical=True)


# -- standard rings ------------------------------------------------------

QT = Ring(("q", "t"))
ALPHA = Ring(("a",))


def xring(n: int, extra: tuple[str, ...] = ("q", "t")) -> Ring:
    if n < 0:
        raise OutOfRange("negative variable count")
    return Ring(tuple(f"x{i}" for i in range(1, n + 1)) + tuple(extra))


# -- classical t-products ------------------------------------------------


def pochhammer_t(a, k: int):
    """Finite t-shifted product (1-a)(1-a*t)...(1-a*t^(k-1)).

    ``a`` may be a Poly or a Frac over a ring containing ``t``; the result
    lives in the same domain.
    """
    if k < 0:
        raise OutOfRange("negative product length")
    ring = a.ring
    t = ring.var("t")
    res = ring.one if isinstance(a, Poly) else Frac(ring.one, None, _canonical=True)
    cur = a
    for _ in range(k):
        res = res * (1 - cur)
        cur = cur * t
    return res


@lru_cache(maxsize=None)
def gauss_binomial(m: int, r: int) -> Poly:
    """The t-binomial coefficient, a polynomial in t inside the (q,t) ring."""
    if m < 0:
        raise OutOfRange("negative row in t-binomial")
    if r < 0 or r > m:
        return QT.zero
    if r == 0 or r == m:
        return QT.one
    return gauss_binomial(m - 1, r - 1) + QT.var("t", r) * gauss_binomial(m - 1, r)


# -- substitutions and shifts -------------------------------------------


def fold_var(f: Poly, src: str, dst: str, power: int = 1) -> Poly:
    """Substitute src := dst**power, merging exponents."""
    vs, vd = f.ring.pos(src), f.ring.pos(dst)
    out: dict = {}
    for e, c in f.terms.items():
        le = list(e)
        le[vd] += power * le[vs]
        le[vs] = 0
        k = tuple(le)
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        elif k in out:
            del out[k]
    return Poly(f.ring, out)


def eval_var(f: Poly, name: str, value: Coeff) -> Poly:
    """Substitute a numeric value for one variable (exact)."""
    v = f.ring.pos(name)
    out: dict = {}
    for e, c in f.terms.items():
        exp = e[v]
        if exp:
            if value == 0:
                if exp < 0:
                    raise ZeroDivisionError("zero to a negative power")
                continue
            c = c * (Fraction(value) ** exp if exp < 0 or isinstance(value, Fraction) else value**exp)
            if isinstance(c, Fraction) and c.denominator == 1:
                c = int(c)
        k = e[:v] + (0,) + e[v + 1 :]
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        elif k in out:
            del out[k]
    return Poly(f.ring, out)


def swap_vars(f: Poly, n1: str, n2: str) -> Poly:
    a, b = f.ring.pos(n1), f.ring.pos(n2)
    out: dict = {}
    for e, c in f.terms.items():
        le = list(e)
        le[a], le[b] = le[b], le[a]
        out[tuple(le)] = c
    return Poly(f.ring, out)


def negate_var_exponents(f: Poly, names: tuple[str, ...]) -> Poly:
    """Invert the listed variables (Laurent); used by operator dualization."""
    idx = [f.ring.pos(nm) for nm in names]
    out: dict = {}
    for e, c in f.terms.items():
        le = list(e)
        for v in idx:
            le[v] = -le[v]
        out[tuple(le)] = c
    return Poly(f.ring, out)


def scalar_shift(f: Poly, idxs, var: str, mult: int = 1) -> Poly:
    """Substitute x_i -> var**mult * x_i for the (1-based) indices given.

    This is the q- or t-shift operator on the chosen subset of x variables.
    """
    v = f.ring.pos(var)
    cols = [f.ring.pos(f"x{i}") for i in idxs]
    if not cols:
        return f
    out: dict = {}
    for e, c in f.terms.items():
        tot = 0
        for p in cols:
            tot += e[p]
        if tot:
            e = e[:v] + (e[v] + mult * tot,) + e[v + 1 :]
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        elif e in out:
            del out[e]
    return Poly(f.ring, out)


def vector_shift(f: Poly, svec, var: str) -> Poly:
    """Substitute x_i -> var**svec[i-1] * x_i; entries may be negative."""
    v = f.ring.pos(var)
    out: dict = {}
    for e, c in f.terms.items():
        tot = 0
        for s, x in zip(svec, e):
            if s:
                tot += s * x
        if tot:
            e = e[:v] + (e[v] + tot,) + e[v + 1 :]
        s2 = out.get(e, 0) + c
        if s2:
            out[e] = s2
        elif e in out:
            del out[e]
    return Poly(f.ring, out)


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


def split_x(f: Poly, n: int) -> dict[Expt, Poly]:
    """Group terms by their exponents in x1..xn; values in the scalar subring."""
    sub = Ring(f.ring.names[n:])
    buckets: dict[Expt, dict] = {}
    for e, c in f.terms.items():
        buckets.setdefault(e[:n], {})[e[n:]] = c
    return {xe: Poly(sub, t) for xe, t in buckets.items()}


def coeff_of_power(f: Poly, name: str, k: int) -> Poly:
    """Coefficient of var**k, kept in the same ring with that slot zeroed."""
    v = f.ring.pos(name)
    out = {}
    for e, c in f.terms.items():
        if e[v] == k:
            out[e[:v] + (0,) + e[v + 1 :]] = c
    return Poly(f.ring, out)
