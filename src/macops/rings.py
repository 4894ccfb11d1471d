"""Exact sparse polynomials over the integers.

Every coefficient is a Python int (arbitrary precision).  A :class:`Ring`
is an interned tuple of variable names and a :class:`Poly` is a sparse map
from exponent tuples to nonzero int coefficients.  Negative exponents are
tolerated in intermediate values (inverse shifts and ``1/x_j`` clearing
produce them transiently); every published value is an honest polynomial.

Canonical term order, used for iteration, rendering and golden files:
ascending total degree, ties broken by descending exponent tuple.

Dense operands are multiplied and divided as single big integers
(Kronecker substitution, ``_packed_mul``/``_packed_div``): products of at
least PACK_MIN_PAIRS term pairs whose box holds at most DENSE digits per
pair, and divisions of at least PACK_MIN_DIV_PAIRS term pairs with at
most DENSE digits per term in the dividend's box.  Everything else runs
the dict loop and the heap loop, which the tests keep as the oracles.
The division by +-Delta times a monomial that ends every x-level
operator, Delta the Vandermonde, is asked for with a :class:`SignedDelta`
divisor and runs through the C(n,2) linear factors x_i - x_j of Delta
(:func:`_linear_div`), each a synthetic division linear in the number of
terms; the heap loop is its oracle in the tests.

Every change of variables is one monomial substitution,
:meth:`Poly.subs`, a ring map that sends each variable to c times a
monomial.  It carries the paper's maps: the q-shift x_i -> q x_i
(:func:`vector_shift`), the specialized column kinds' u = t^(m-n+1) and
u = 1, the bar involution q -> 1/q, t -> 1/t, the Kostka mirror q <-> t,
the Jack limit's q = t^alpha and t = 1, the factors Phi_d(q^a t^b) of
c_lambda, and the move of a polynomial into another ring by variable name.

A :class:`Frac` is a fraction num/den of polynomials, a plain value with
no arithmetic: the monic P coefficients, which :func:`frac_by_factors`
puts in lowest terms by trial division with c_lambda's known irreducible
factors, and the failed division that a NonIntegralEntry message shows.
:func:`poly_gcd`, the gcd over Z[vars], runs in no production path; the
tests keep it as the oracle of those lowest terms.
"""

from __future__ import annotations

import heapq
import sys
from array import array
from functools import lru_cache
from itertools import product
from math import gcd as _int_gcd, prod
from operator import add, mul, sub
from typing import NamedTuple

from .errors import NonExactDivision, OutOfRange

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

    def const(self, c: int) -> "Poly":
        if not c:
            return self.zero
        return Poly(self, {(0,) * len(self.names): c})

    def var(self, name: str, exp: int = 1, coeff: int = 1) -> "Poly":
        e = [0] * len(self.names)
        e[self.pos(name)] = exp
        return Poly(self, {tuple(e): coeff}) if coeff else self.zero

    def monomial(self, exps: Expt, coeff: int = 1) -> "Poly":
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

    def const_value(self) -> int:
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
                raise OutOfRange("mixed rings; subs() one operand into the other's ring first")
            return other
        if isinstance(other, int):
            return self.ring.const(other)
        return None

    def __eq__(self, other):
        if isinstance(other, int):
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
        return Poly(self.ring, _add_into(dict(big), small))

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
        if isinstance(other, int):
            if not other:
                return self.ring.zero
            return Poly(self.ring, {e: c * other for e, c in self.terms.items()})
        other = self._lift(other)
        if other is None:
            return NotImplemented
        a, b = self.terms, other.terms
        out = _packed_mul(a, b) if len(a) * len(b) >= PACK_MIN_PAIRS else None
        return Poly(self.ring, _dict_mul(a, b) if out is None else out)

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

    def subs(self, images: dict, ring: Ring | None = None) -> "Poly":
        """The image under the ring map that sends each named variable to c y^b.

        images maps variable names to one-term polynomials c y^b (c may be
        0) over the target ring, by default this one; every other variable
        goes to the variable of the same name, which the target ring must
        have where it occurs.  A variable with exponent -k < 0 needs c^(-k)
        in Z: c = 0 raises ZeroDivisionError, |c| > 1 NonExactDivision.
        """
        src = self.ring
        if ring is None:
            ring = src
        same = ring is src
        if same and not images:
            return self
        # (slot, c, moves): x at slot goes to c times the monomial that
        # adds the moves (target slot, exponent) to the term's exponents
        maps = []
        for name, img in images.items():
            i = src.pos(name)
            if img.ring is not ring or len(img.terms) > 1:
                raise OutOfRange(f"image of {name!r} is not one term over {ring!r}")
            [(b, c)] = img.terms.items() or [((0,) * len(ring), 0)]
            b = list(b)
            if same:
                # the copied exponents still hold x's own
                b[i] -= 1
            maps.append((i, c, [(j, x) for j, x in enumerate(b) if x]))
        # (slot, target slot): every other variable goes to its namesake,
        # which the target ring must have where the variable occurs
        keep = []
        for i, nm in enumerate(() if same else src.names):
            if nm in ring._pos and nm not in images:
                keep.append((i, ring._pos[nm]))
            elif nm not in images and any(e[i] for e in self.terms):
                raise OutOfRange(f"variable {nm!r} absent from target ring")
        out: dict = {}
        for e, c in self.terms.items():
            le = list(e) if same else [0] * len(ring)
            for i, j in keep:
                le[j] = e[i]
            for i, ci, moves in maps:
                k = e[i]
                if not k:
                    continue
                for j, x in moves:
                    le[j] += k * x
                if ci != 1:
                    if k < 0 and not ci:
                        raise ZeroDivisionError("zero to a negative power")
                    if k < 0 and ci != -1:
                        raise NonExactDivision(f"{ci}^{k} is not an integer")
                    c *= ci ** abs(k)
            key = tuple(le)
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            elif key in out:
                del out[key]
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


# -- products and Kronecker packing ----------------------------------------

# Inside a box lo_v <= e_v < lo_v + r_v an exponent vector e is the
# mixed-radix position p = sum (e_v - lo_v) * stride_v, and a polynomial
# packs into the integer sum c * 2^(W p), its coefficients signed digits
# of W = 8 * nb bits.  Below these term-pair counts the dict and heap
# loops are faster.  Past DENSE digits per term (pair) the box is mostly
# empty.
PACK_MIN_PAIRS = 64
PACK_MIN_DIV_PAIRS = 32
DENSE = 4
# array typecodes by item size, for digits of 1, 2, 4 and 8 bytes
_CODES = {array(code).itemsize: code for code in "QLIHB"}


def _add_into(acc: dict, terms: dict) -> dict:
    """acc + terms, summed in place into acc, or into a copy of terms if that is larger."""
    if len(terms) > len(acc):
        acc, terms = dict(terms), acc
    for e, c in terms.items():
        s = acc.get(e, 0) + c
        if s:
            acc[e] = s
        else:
            del acc[e]
    return acc


def _dict_mul(a: dict, b: dict) -> dict:
    """Terms of the product by the schoolbook loop over term pairs."""
    if len(a) < len(b):
        a, b = b, a
    out: dict = {}
    for eb, cb in b.items():
        for ea, ca in a.items():
            e = tuple(map(add, ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def _box(terms: dict) -> tuple[list[int], list[int]]:
    """Per-variable exponent minima and maxima."""
    cols = list(zip(*terms))
    return [min(c) for c in cols], [max(c) for c in cols]


def _digit_bytes(bound: int) -> int:
    """Bytes per digit, so that every |c| <= bound is below 2^(W-1), W = 8 * bytes."""
    nb = (bound.bit_length() + 8) // 8
    return next(w for w in (1, 2, 4, 8) if w >= nb) if nb <= 8 else nb


def _strides(radix) -> list[int]:
    """Mixed-radix place values, the last variable fastest (the order of itertools.product)."""
    out, s = [], 1
    for r in reversed(radix):
        out.append(s)
        s *= r
    return out[::-1]


def _bias(nb: int, size: int) -> int:
    """The packing of size digits 2^(W-1): added, it makes balanced digits unsigned."""
    return int.from_bytes((bytes(nb - 1) + b"\x80") * size, "little")


def _join(digits: list, nb: int) -> int:
    """The integer with these unsigned base-2^(8 nb) digits, least significant first."""
    code = _CODES.get(nb)
    if code is None:
        return int.from_bytes(b"".join(d.to_bytes(nb, "little") for d in digits), "little")
    arr = array(code, digits)
    if sys.byteorder == "big":
        arr.byteswap()
    return int.from_bytes(arr.tobytes(), "little")


def _split(x: int, nb: int, size: int):
    """The size unsigned base-2^(8 nb) digits of x, least significant first."""
    raw = x.to_bytes(nb * size, "little")
    code = _CODES.get(nb)
    if code is None:
        return [int.from_bytes(raw[i : i + nb], "little") for i in range(0, len(raw), nb)]
    arr = array(code, raw)
    if sys.byteorder == "big":
        arr.byteswap()
    return arr


def _pack(terms: dict, lo, strides, nb: int) -> int:
    """Sum of c * 2^(8 nb p), p the mixed-radix position of e - lo."""
    off = sum(map(mul, lo, strides))
    pos = [sum(map(mul, e, strides)) - off for e in terms]
    half, size = 1 << (8 * nb - 1), max(pos) + 1
    digits = [half] * size
    for p, c in zip(pos, terms.values()):
        digits[p] = half + c
    return _join(digits, nb) - _bias(nb, size)


def _unpack(packed: int, lo, radix, nb: int) -> dict | None:
    """The terms whose packing is packed, or None when it needs more positions than the box.

    The digits are balanced, in [-2^(W-1), 2^(W-1)), and position p stands
    for the exponent lo + (p's mixed-radix digits).
    """
    npos, half = prod(radix), 1 << (8 * nb - 1)
    biased = packed + _bias(nb, npos)
    if biased < 0 or biased.bit_length() > 8 * nb * npos:
        return None
    exps = product(*(range(low, low + r) for low, r in zip(lo, radix)))
    return {e: v - half for e, v in zip(exps, _split(biased, nb, npos)) if v != half}


def _packed_mul(a: dict, b: dict) -> dict | None:
    """Terms of the product by one big-integer product, or None when sparse.

    The product's box is the sum of the operands' boxes, and its
    coefficients are at most min(|a|_1 |b|_inf, |a|_inf |b|_1), which
    sets the digit width, so decoding is exact.
    """
    boxa, boxb = _box(a), _box(b)
    lo = [x + y for x, y in zip(boxa[0], boxb[0])]
    radix = [ha - la + hb - lb + 1 for la, ha, lb, hb in zip(*boxa, *boxb)]
    if prod(radix) > DENSE * len(a) * len(b):
        return None
    abs_a, abs_b = [abs(c) for c in a.values()], [abs(c) for c in b.values()]
    nb = _digit_bytes(min(sum(abs_a) * max(abs_b), max(abs_a) * sum(abs_b)))
    strides = _strides(radix)
    return _unpack(_pack(a, boxa[0], strides, nb) * _pack(b, boxb[0], strides, nb), lo, radix, nb)


def _packed_div(f: dict, g: dict) -> dict | None:
    """Terms of f / g by one big-integer divmod, or None when the packing cannot decide.

    Packing is evaluation at powers of 2, a ring homomorphism, so a
    nonzero remainder proves that no quotient exists.  A decoded quotient
    h is accepted only when |g|_1 |h|_inf < 2^(W-1) and h lies in the box
    of f less the box of g: then pack(g h) = pack(f) holds between
    polynomials whose packing is injective, so g h = f.
    """
    boxf, boxg = _box(f), _box(g)
    radix = [h - l + 1 for l, h in zip(*boxf)]
    if prod(radix) > DENSE * len(f):
        return None
    span = [r - 1 - (h - l) for r, l, h in zip(radix, *boxg)]
    if min(span) < 0:
        raise NonExactDivision("divisor is wider than the dividend")
    gnorm = sum(abs(c) for c in g.values())
    nb = _digit_bytes(sum(abs(c) for c in f.values()) * gnorm)
    strides = _strides(radix)
    h, rem = divmod(_pack(f, boxf[0], strides, nb), _pack(g, boxg[0], strides, nb))
    if rem:
        raise NonExactDivision("nonzero remainder")
    lo = [x - y for x, y in zip(boxf[0], boxg[0])]
    out = _unpack(h, lo, radix, nb)
    if out is None or any(max(col) - low > s for col, low, s in zip(zip(*out), lo, span)):
        return None
    if gnorm * max(map(abs, out.values())) >= 1 << (8 * nb - 1):
        return None
    return out


# -- exact division ------------------------------------------------------


class SignedDelta(NamedTuple):
    """The divisor sign * Delta * x^low, kept factored.

    Delta = prod_{i<j} (x_i - x_j) over the ring's first n variables, sign
    is +-1 and low an exponent vector over the whole ring.
    """

    n: int
    sign: int
    low: Expt


def poly_exact_div(f: Poly, g: Poly | SignedDelta) -> Poly:
    """Divide ``f`` by ``g`` exactly, raising :class:`NonExactDivision`.

    Dense operands are divided packed (:func:`_packed_div`), which packs
    each operand relative to its own box.  The rest, and whatever the
    packing leaves undecided, go to the heap loop of :func:`_heap_div`
    divided by their lowest monomials, the per-variable minimum exponents.
    The units of Z[x^(+-1)] are the signed monomials, so this loses
    nothing: then no variable divides g and f has nonnegative exponents,
    so a Laurent quotient is a polynomial.

    A :class:`SignedDelta` divisor is divided through the linear factors
    of Delta instead (:func:`_linear_div`), never by the heap loop.
    """
    if isinstance(g, SignedDelta):
        return _delta_div(f, g)
    if g.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero:
        return f.ring.zero
    if f.ring is not g.ring:
        raise OutOfRange("mixed rings in division")
    quot = _packed_div(f.terms, g.terms) if len(f.terms) * len(g.terms) >= PACK_MIN_DIV_PAIRS else None
    if quot is None:
        flo, glo = _box(f.terms)[0], _box(g.terms)[0]
        quot = _heap_div(_mono_div(f.terms, flo), _mono_div(g.terms, glo))
        quot = _mono_div(quot, tuple(map(sub, glo, flo)))
    return Poly(f.ring, quot)


def _mono_div(terms: dict, low) -> dict:
    """The terms divided by the monomial with exponents low."""
    if not any(low):
        return terms
    return {tuple(map(sub, e, low)): c for e, c in terms.items()}


def _heap_div(f: dict, g: dict) -> dict:
    """Terms of f / g by leading-term reduction in graded lex order.

    Both operands have nonnegative exponents.  While g divides what
    remains of f, lead(g) divides its leading term, so the first leading
    term that lead(g) does not divide proves that no quotient exists.
    """
    glead = max(g, key=_grlex)
    gc = g[glead]
    rem = dict(f)
    # heap pops in descending graded-lex order
    heap = [((-sum(e), tuple(-x for x in e)), e) for e in rem]
    heapq.heapify(heap)
    quot: dict = {}
    gother = [(e, c) for e, c in g.items() if e != glead]
    while rem:
        while heap:
            _, m = heapq.heappop(heap)
            if m in rem:
                break
        else:
            break
        mc = rem.pop(m)
        qe = tuple(a - b for a, b in zip(m, glead))
        if any(x < 0 for x in qe):
            raise NonExactDivision("leading term not divisible")
        qc, r = divmod(mc, gc)
        if r:
            raise NonExactDivision("coefficient not divisible")
        quot[qe] = qc
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
    return quot


def _delta_div(f: Poly, g: SignedDelta) -> Poly:
    """f / g: the monomial shift, then one synthetic division per factor x_i - x_j."""
    n, sign, low = g
    if n > len(f.ring) or len(low) != len(f.ring):
        raise OutOfRange(f"Delta in {n} variables times x^{low} over {f.ring!r}")
    terms = {tuple(map(sub, e, low)): c * sign for e, c in f.terms.items()}
    for i in range(n - 1):
        for j in range(i + 1, n):
            terms = _linear_div(terms, i, j)
    return Poly(f.ring, terms)


def _linear_div(terms: dict, i: int, j: int) -> dict:
    """Terms of f / (x_i - x_j), in time linear in the terms of f and of the quotient.

    With x_i = u x_j, a monomial x_i^a x_j^b is u^a x_j^(a+b) and x_i - x_j
    is x_j (u - 1).  Grouped by a, f = sum F_a u^a with the F_a free of u,
    and its quotient by u - 1 is sum Q_(a-1) u^(a-1) with Q_(a-1) = F_a + Q_a
    from the top a down; at the lowest a, F_a + Q_a is the remainder and
    must vanish.  Laurent exponents need nothing more: a runs down to its
    lowest value, whatever its sign.
    """
    levels: dict = {}
    for e, c in terms.items():
        k = list(e)
        a = k[i]
        k[i], k[j] = 0, k[j] + a
        levels.setdefault(a, {})[tuple(k)] = c
    quot: dict = {}
    acc: dict = {}
    lowest = min(levels, default=0)
    for a in range(max(levels, default=0), lowest - 1, -1):
        for k, c in levels.get(a, {}).items():
            s = acc.get(k, 0) + c
            if s:
                acc[k] = s
            else:
                del acc[k]
        if a == lowest:
            break
        # acc is Q_(a-1); u^(a-1) x_j^(a+b) / x_j is x_i^(a-1) x_j^b
        for k, c in acc.items():
            e = list(k)
            e[i], e[j] = a - 1, e[j] - a
            quot[tuple(e)] = c
    if acc:
        raise NonExactDivision(f"nonzero remainder by x{i + 1} - x{j + 1}")
    return quot


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

    Sign-normalized via :func:`_positive_trail`.  No production path calls
    it: the tests reduce fractions with it as the oracle of
    :func:`frac_by_factors`.
    """
    if a.ring is not b.ring:
        raise OutOfRange("mixed rings in gcd")
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


class Frac(NamedTuple):
    """A fraction num/den of polynomials, a value without arithmetic or reduction.

    Lowest terms come from :func:`frac_by_factors`; a fraction built
    directly is shown as given.
    """

    num: Poly
    den: Poly

    def render(self) -> str:
        if self.den == 1:
            return self.num.render()
        return f"({self.num.render()})/({self.den.render()})"


def frac_by_factors(num: Poly, factors) -> Frac:
    """num / prod f^k in lowest terms, for the pairs (f, k) of ``factors``, each f irreducible.

    Every common factor of num and the product is one of the f, so num is
    divided by each f while f divides it, at most k times, and the
    denominator is prod f^(k - r), r the number of those divisions.  The
    sign makes the denominator's trailing coefficient positive
    (:func:`_positive_trail`), so equal values give identical pairs.
    """
    den = num.ring.one
    for f, k in factors:
        r = 0
        while r < k:
            try:
                num = poly_exact_div(num, f)
            except NonExactDivision:
                break
            r += 1
        den = den * f ** (k - r)
    if _positive_trail(den) is not den:
        num, den = -num, -den
    return Frac(num, den)


# -- standard rings ------------------------------------------------------

QT = Ring(("q", "t"))
ALPHA = Ring(("a",))


def xring(n: int, extra: tuple[str, ...] = ("q", "t")) -> Ring:
    if n < 0:
        raise OutOfRange("negative variable count")
    return Ring(tuple(f"x{i}" for i in range(1, n + 1)) + tuple(extra))


# -- classical t-products ------------------------------------------------


def pochhammer_t(a: Poly, k: int) -> Poly:
    """Finite t-shifted product (1-a)(1-a*t)...(1-a*t^(k-1)), a over a ring containing ``t``."""
    if k < 0:
        raise OutOfRange("negative product length")
    t = a.ring.var("t")
    res = a.ring.one
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


def vector_shift(f: Poly, svec, var: str) -> Poly:
    """Substitute x_i -> var**svec[i-1] * x_i; entries may be negative.

    x_i is the ring's i-th variable.  A 0/1 vector gives the q- or t-shift
    operator on a subset of the x variables.  Each term's exponent of var
    grows by sum svec_i e_i, which leaves distinct terms distinct.
    """
    if not any(svec):
        return f
    v = f.ring.pos(var)
    return Poly(f.ring, {e[:v] + (e[v] + sum(map(mul, svec, e)),) + e[v + 1 :]: c for e, c in f.terms.items()})


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
