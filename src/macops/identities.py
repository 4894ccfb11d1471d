"""Standalone operator identities, verified exactly over cleared denominators.

Every suite assembles both sides from scratch (no shared code path with
the production engine where that would make the check circular), clears
the divided-difference and kernel denominators, and compares polynomials
term by term.  Two-alphabet suites work in a combined ring with the x
and y alphabets side by side.
"""

from __future__ import annotations

from itertools import combinations

from .bases import elementary, expand_schur, vandermonde
from .errors import IdentityFailed, OutOfRange
from .operators import (
    OperatorSpec,
    _binom2,
    _subsets,
    _xmono,
    apply_factorized_qt,
    apply_operator,
    cross_cleared,
    cross_named,
)
from .partitions import column_unit_scale, partitions_up_to
from .rings import Ring, coeff_of_power, gauss_binomial, pochhammer_t, xring


def xyring(n: int, m: int, extra: tuple[str, ...] = ("t", "u")) -> Ring:
    names = tuple(f"x{i}" for i in range(1, n + 1))
    names += tuple(f"y{k}" for k in range(1, m + 1))
    return Ring(names + extra)


def _kernel_sum(ring: Ring, first, second, weight):
    """Signed sum over subsets S of the first alphabet of the kernel terms.

    Each term is weight(|S|) times the crossing product of S, times
    (1 - a b) for a in S and (1 - t a b) for a outside S, over every a in
    first and b in second.
    """
    t = ring.var("t")
    acc = ring.zero
    for k in range(len(first) + 1):
        for S in combinations(first, k):
            chosen = frozenset(S)
            term = weight(k) * cross_named(ring, first, chosen, "plus")
            for a in first:
                fa = ring.var(a)
                for b in second:
                    fb = ring.var(b)
                    term = term * ((1 - fa * fb) if a in chosen else (1 - t * fa * fb))
            acc = acc + (-term if k % 2 else term)
    return acc


def kernel_F(n: int, m: int, swapped: bool = False, u_tpow: int = 0):
    """The subset-sum kernel ratio as one cleared (numerator, denominator).

    With swapped=True the roles of the alphabets are exchanged (the sum
    runs over the y variables); u_tpow shifts the u slot by a power of t,
    which is how the swap identity rescales its argument.
    """
    if not (1 <= m and 1 <= n):
        raise OutOfRange("both alphabets must be nonempty")
    ring = xyring(n, m)
    xs = [f"x{i}" for i in range(1, n + 1)]
    ys = [f"y{k}" for k in range(1, m + 1)]
    first, second = (ys, xs) if swapped else (xs, ys)
    t = ring.var("t")
    den = cross_named(ring, first, frozenset(), "plus")
    for a in first:
        for b in second:
            den = den * (1 - t * ring.var(a) * ring.var(b))
    num = _kernel_sum(
        ring, first, second,
        lambda k: ring.var("u", k) * ring.var("t", u_tpow * k + _binom2(k)),
    )
    return num, den


# -- suites ---------------------------------------------------------------


def _fail(name: str, detail: str):
    raise IdentityFailed(f"{name}: {detail}")


def suite_elementary_product(n: int, m: int | None = None) -> dict:
    """Both column adders applied to 1 give the scaled elementary polynomial."""
    ring = xring(n)
    ms = range(0, n + 1) if m is None else [m]
    for mm in ms:
        want = elementary(mm, n, ring=ring) * column_unit_scale(mm).subs({}, ring)
        for kind in ("raise_plus", "raise_minus"):
            got = apply_operator(OperatorSpec(kind, mm), ring.one, n)
            if got != want:
                _fail("elementary_product", f"kind={kind} m={mm} n={n}")
    return {"suite": "elementary_product", "nvars": n, "status": "pass"}


def suite_elementary_u_product(n: int, m: int | None = None) -> dict:
    """The u-parameter column adders applied to 1.

    The minus case is checked in two printed variants: the one with the
    complement-sized t-binomial exponent, and the one matching the minus
    adder's own coefficient pattern; both hold, differing by the
    substitution u -> u t^(n-m) and an overall power of t.
    """
    ring = xring(n, ("q", "t", "u"))
    u = ring.var("u")
    delta = vandermonde(n, ring)
    ms = range(0, n + 1) if m is None else [m]
    for mm in ms:
        e_m = elementary(mm, n, ring=ring)
        shifted = pochhammer_t(u * ring.var("t", n - mm), mm)
        got = apply_operator(OperatorSpec("raise_u_plus", mm), ring.one, n)
        if got != e_m * shifted:
            _fail("elementary_u_product", f"plus m={mm} n={n}")
        got = apply_operator(OperatorSpec("raise_u_minus", mm), ring.one, n)
        if got != e_m * shifted * ring.var("t", _binom2(n - mm)):
            _fail("elementary_u_product", f"minus printed m={mm} n={n}")
        # definition-consistent variant, assembled literally
        acc = ring.zero
        for J in _subsets(n, mm):
            xj = _xmono(ring, J)
            for k in range(mm + 1):
                for I in combinations(J, k):
                    a = mm - k
                    c = (
                        ring.var("u", a)
                        * ring.var("t", _binom2(a))
                        * cross_cleared(n, I, "minus", ring.names)
                    )
                    acc = acc + (-xj * c if a % 2 else xj * c)
        if acc != e_m * pochhammer_t(u, mm) * delta:
            _fail("elementary_u_product", f"minus variant m={mm} n={n}")
    return {"suite": "elementary_u_product", "nvars": n, "status": "pass"}


def suite_elementary_u_slice(n: int, m: int | None = None) -> dict:
    """Fixed-subset-size slices of the u-product identities."""
    ring = xring(n)
    delta = vandermonde(n, ring)
    ms = range(0, n + 1) if m is None else [m]
    for mm in ms:
        e_m = elementary(mm, n, ring=ring)
        for r in range(0, mm + 1):
            gauss = gauss_binomial(mm, r).subs({"q": ring.var("t")}, ring)
            for pattern, tpow in (("plus", (n - mm) * r), ("minus", 0)):
                acc = ring.zero
                for J in _subsets(n, mm):
                    xj = _xmono(ring, J)
                    for I in combinations(J, r):
                        acc = acc + xj * cross_cleared(n, I, pattern, ring.names)
                if acc != ring.var("t", tpow) * gauss * e_m * delta:
                    _fail(
                        "elementary_u_slice",
                        f"pattern={pattern} m={mm} r={r} n={n}",
                    )
    return {"suite": "elementary_u_slice", "nvars": n, "status": "pass"}


def suite_kernel_swap(n: int, m: int | None = None) -> dict:
    """Alphabet exchange for the kernel ratio, with the scaled u argument."""
    ms = range(1, n + 1) if m is None else [m]
    for mm in ms:
        lnum, lden = kernel_F(n, mm)
        rnum, rden = kernel_F(n, mm, swapped=True, u_tpow=n - mm)
        ring = lnum.ring
        poch = pochhammer_t(ring.var("u"), n - mm)
        if lnum * rden != poch * rnum * lden:
            _fail("kernel_swap", f"n={n} m={mm}")
    return {"suite": "kernel_swap", "nvars": n, "status": "pass"}


def _kernel_reduction(name: str, n: int, m: int | None, minus: bool) -> dict:
    """The m-column adder acting on the kernel equals a pure y-side sum.

    The plus adder shifts the chosen x variables and the minus adder their
    complement, so the kernel factor that carries t swaps sides.
    """
    ms = range(1, n + 1) if m is None else [m]
    pattern = "minus" if minus else "plus"
    for mm in ms:
        ring = xyring(n, mm, extra=("t",))
        t = ring.var("t")
        xs = [f"x{i}" for i in range(1, n + 1)]
        ys = [f"y{k}" for k in range(1, mm + 1)]
        lhs = ring.zero
        for J in _subsets(n, mm):
            xj = _xmono(ring, J)
            for k in range(mm + 1):
                for I in combinations(J, k):
                    chosen = frozenset(f"x{i}" for i in I)
                    if minus:
                        sgn = mm - k
                        tpow = sgn + _binom2(sgn)
                    else:
                        sgn = k
                        tpow = (mm - n + 1) * k + _binom2(k)
                    term = ring.var("t", tpow) * cross_named(ring, xs, chosen, pattern)
                    for a in xs:
                        fa = ring.var(a)
                        for b in ys:
                            fb = ring.var(b)
                            term = term * (
                                (1 - t * fa * fb) if (a in chosen) == minus else (1 - fa * fb)
                            )
                    lhs = lhs + (-xj * term if sgn % 2 else xj * term)
        rhs = _kernel_sum(ring, ys, xs, lambda k: ring.var("t", _binom2(k)))
        yall = ring.one
        for b in ys:
            yall = yall * ring.var(b)
        dy = cross_named(ring, ys, frozenset(), "plus")
        dx = cross_named(ring, xs, frozenset(), "plus")
        if lhs * yall * dy != rhs * dx:
            _fail(name, f"n={n} m={mm}")
    return {"suite": name, "nvars": n, "status": "pass"}


def suite_kernel_reduction_plus(n: int, m: int | None = None) -> dict:
    """The plus adder on the kernel.

    Neither side involves q; this is the pivot that lets every raising
    statement be checked at q = t only.
    """
    return _kernel_reduction("kernel_reduction_plus", n, m, minus=False)


def suite_kernel_reduction_minus(n: int, m: int | None = None) -> dict:
    """Minus-adder version; the kernel factors ride on the complement."""
    return _kernel_reduction("kernel_reduction_minus", n, m, minus=True)


def _schur_action(name: str, n: int, kinds) -> dict:
    """(u,v) generators on Schur polynomials at q = t.

    Raising kinds add a box to each selected row and lowering kinds remove
    one.  A removed box can push an exponent to -1, where the bialternant
    lives in the Laurent ring, so lowering compares against the cleared
    denominator.  The minus kinds give each unselected row a staircase
    power of t; each selected row still carries v.
    """
    ring = xring(n, ("t", "u", "v"))
    u, v = ring.var("u"), ring.var("v")
    for kind in kinds:
        lower = kind.startswith("lower")
        step = -1 if lower else 1
        comp = kind.endswith("minus")
        for lam in partitions_up_to(3, n):
            f = expand_schur(lam.parts, n, ring)
            if lower:
                num, den = apply_factorized_qt(kind, n, f, raw=True)
            else:
                got = apply_factorized_qt(kind, n, f)
            want = ring.zero
            for K in _subsets(n):
                vec = tuple(
                    lam.part(i) + (step if i in K else 0) for i in range(1, n + 1)
                )
                term = v ** len(K) * expand_schur(vec, n, ring)
                for k in K:
                    term = term * (1 - u * ring.var("t", lam.part(k) + n - k))
                if comp:
                    for l in range(1, n + 1):
                        if l not in K:
                            term = term * ring.var("t", lam.part(l) + n - l)
                want = want + term
            if (num != want * den) if lower else (got != want):
                where = f"kind={kind} " if len(kinds) > 1 else ""
                _fail(name, f"{where}shape={lam.render()} n={n}")
    return {"suite": name, "nvars": n, "status": "pass"}


def suite_schur_action_raise(n: int, m: int | None = None) -> dict:
    """Action of the (u,v) adder on Schur polynomials at q = t."""
    return _schur_action("schur_action_raise", n, ("raise_gen_plus",))


def suite_schur_action_raise_comp(n: int, m: int | None = None) -> dict:
    """Same for the complement-shift adder."""
    return _schur_action("schur_action_raise_comp", n, ("raise_gen_minus",))


def suite_schur_action_lower(n: int, m: int | None = None) -> dict:
    """Both lowering generators on Schur polynomials at q = t."""
    return _schur_action("schur_action_lower", n, ("lower_gen_plus", "lower_gen_minus"))


def suite_generator_on_one(n: int, m: int | None = None) -> dict:
    """The (u,v) adders on 1: the generating series of the u-products, or its v^m slice."""
    ring = xring(n, ("q", "t", "u", "v"))
    u, v = ring.var("u"), ring.var("v")
    want_plus = ring.zero
    want_minus = ring.zero
    for mm in range(0, n + 1):
        base = (
            v**mm
            * elementary(mm, n, ring=ring)
            * pochhammer_t(u * ring.var("t", n - mm), mm)
        )
        want_plus = want_plus + base
        want_minus = want_minus + base * ring.var("t", _binom2(n - mm))
    for sign, want in (("plus", want_plus), ("minus", want_minus)):
        got = apply_operator(OperatorSpec(f"raise_gen_{sign}"), ring.one, n)
        if m is not None:
            # only the height-m adders: the v^m slices
            got, want = coeff_of_power(got, "v", m), coeff_of_power(want, "v", m)
        if got != want:
            _fail("generator_on_one", f"{sign} n={n}" if m is None else f"{sign} m={m} n={n}")
    return {"suite": "generator_on_one", "nvars": n, "status": "pass"}


SUITES = {
    "elementary_product": suite_elementary_product,
    "elementary_u_product": suite_elementary_u_product,
    "elementary_u_slice": suite_elementary_u_slice,
    "kernel_swap": suite_kernel_swap,
    "kernel_reduction_plus": suite_kernel_reduction_plus,
    "kernel_reduction_minus": suite_kernel_reduction_minus,
    "schur_action_raise": suite_schur_action_raise,
    "schur_action_raise_comp": suite_schur_action_raise_comp,
    "schur_action_lower": suite_schur_action_lower,
    "generator_on_one": suite_generator_on_one,
}


def run_suite(name: str, n: int, m: int | None = None) -> dict:
    """Run one suite; every suite needs at least one variable to check anything."""
    if name not in SUITES:
        raise OutOfRange(f"unknown suite {name!r}")
    if n < 1:
        raise OutOfRange(f"need at least one variable, got n={n}")
    return SUITES[name](n, m)
