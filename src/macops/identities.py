"""Standalone operator identities, verified exactly over cleared denominators.

Every suite assembles both sides from scratch (no shared code path with
the production engine where that would make the check circular), clears
the divided-difference and kernel denominators, and compares polynomials
term by term.  Every crossing product and Vandermonde comes from
``bases.cross_named``; a minus adder's term is that of the complement of
its subset.  Two-alphabet suites work in a combined ring with the x and
y alphabets side by side, and build every kernel term, on either side,
through one helper (``_kernel_term``).  ``SUITES`` maps each suite name
to a function of (n, m), binding the shared kernel-reduction and
Schur-action bodies with ``functools.partial``.  A suite raises
IdentityFailed at its first failing case and returns nothing, and so
does :func:`run_suite`; the verify command writes the records.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations

from .bases import cross_cleared, cross_named, elementary, expand_schur, vandermonde
from .errors import IdentityFailed, OutOfRange
from .operators import OperatorSpec, _binom2, _comp, _subsets, _xmono, apply_factorized_qt, apply_operator
from .partitions import column_unit_scale, partitions_up_to
from .rings import Ring, coeff_of_power, gauss_binomial, pochhammer_t, xring


def xyring(n: int, m: int, extra: tuple[str, ...] = ("t", "u")) -> Ring:
    names = tuple(f"x{i}" for i in range(1, n + 1))
    names += tuple(f"y{k}" for k in range(1, m + 1))
    return Ring(names + extra)


def _kernel_term(ring: Ring, scale, first, second, shifted):
    """scale times the crossing product of shifted, a subset of first, times the kernel factors.

    The factors are (1 - a b) for a in shifted and (1 - t a b) for a
    outside it, over every a in first and b in second.
    """
    t = ring.var("t")
    term = scale * cross_named(ring, first, shifted)
    for a in first:
        fa = ring.var(a)
        for b in second:
            fb = ring.var(b)
            term = term * ((1 - fa * fb) if a in shifted else (1 - t * fa * fb))
    return term


def _kernel_sum(ring: Ring, first, second, weight):
    """Signed sum over subsets S of the first alphabet of weight(|S|) times S's kernel term."""
    acc = ring.zero
    for k in range(len(first) + 1):
        for S in combinations(first, k):
            term = _kernel_term(ring, weight(k), first, second, frozenset(S))
            acc = acc + (-term if k % 2 else term)
    return acc


def kernel_F(n: int, m: int, swapped: bool = False, u_tpow: int = 0):
    """The subset-sum kernel ratio times K, as one cleared (numerator, denominator).

    K = prod (1 - t x_i y_k), symmetric in the two alphabets, is shared by both
    sides of the swap identity; den is the Vandermonde of the summed alphabet alone.
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
    den = cross_named(ring, first, frozenset())
    num = _kernel_sum(
        ring, first, second,
        lambda k: ring.var("u", k) * ring.var("t", u_tpow * k + _binom2(k)),
    )
    return num, den


# -- suites ---------------------------------------------------------------


def _fail(name: str, detail: str):
    raise IdentityFailed(f"{name}: {detail}")


def suite_elementary_product(n: int, m: int | None = None) -> None:
    """Both column adders applied to 1 give the scaled elementary polynomial."""
    ring = xring(n)
    ms = range(0, n + 1) if m is None else [m]
    for mm in ms:
        want = elementary(mm, n, ring=ring) * column_unit_scale(mm).subs({}, ring)
        for kind in ("raise_plus", "raise_minus"):
            got = apply_operator(OperatorSpec(kind, mm), ring.one, n)
            if got != want:
                _fail("elementary_product", f"kind={kind} m={mm} n={n}")


def suite_elementary_u_product(n: int, m: int | None = None) -> None:
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
            for k in range(mm + 1):
                for I in combinations(J, k):
                    a = mm - k
                    c = (-u) ** a * ring.var("t", _binom2(a)) * cross_cleared(n, _comp(I, n), ring.names)
                    acc = acc + _xmono(ring, J) * c
        if acc != e_m * pochhammer_t(u, mm) * delta:
            _fail("elementary_u_product", f"minus variant m={mm} n={n}")


def suite_elementary_u_slice(n: int, m: int | None = None) -> None:
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
                    for I in combinations(J, r):
                        S = _comp(I, n) if pattern == "minus" else I
                        acc = acc + _xmono(ring, J) * cross_cleared(n, S, ring.names)
                if acc != ring.var("t", tpow) * gauss * e_m * delta:
                    _fail(
                        "elementary_u_slice",
                        f"pattern={pattern} m={mm} r={r} n={n}",
                    )


def suite_kernel_swap(n: int, m: int | None = None) -> None:
    """Alphabet exchange for the kernel ratio, with the scaled u argument."""
    ms = range(1, n + 1) if m is None else [m]
    for mm in ms:
        lnum, lden = kernel_F(n, mm)
        rnum, rden = kernel_F(n, mm, swapped=True, u_tpow=n - mm)
        ring = lnum.ring
        poch = pochhammer_t(ring.var("u"), n - mm)
        if lnum * rden != poch * rnum * lden:
            _fail("kernel_swap", f"n={n} m={mm}")


def _kernel_reduction(name: str, n: int, m: int | None, minus: bool) -> None:
    """The m-column adder acting on the kernel equals a pure y-side sum.

    The plus adder shifts the chosen x variables and the minus adder their
    complement; each term's kernel factors follow the shifted set.  Neither side
    involves q; this is the pivot that lets every raising statement be
    checked at q = t only.
    """
    ms = range(1, n + 1) if m is None else [m]
    for mm in ms:
        ring = xyring(n, mm, extra=("t",))
        xs = [f"x{i}" for i in range(1, n + 1)]
        ys = [f"y{k}" for k in range(1, mm + 1)]
        lhs = ring.zero
        for J in _subsets(n, mm):
            for k in range(mm + 1):
                for I in combinations(J, k):
                    a, S = (mm - k, _comp(I, n)) if minus else (k, I)
                    tpow = a + _binom2(a) if minus else (mm - n + 1) * a + _binom2(a)
                    scale = ring.var("t", tpow, -1 if a % 2 else 1)
                    term = _kernel_term(ring, scale, xs, ys, frozenset(f"x{i}" for i in S))
                    lhs = lhs + _xmono(ring, J) * term
        rhs = _kernel_sum(ring, ys, xs, lambda k: ring.var("t", _binom2(k)))
        yall = _xmono(ring, range(n + 1, n + mm + 1))
        if lhs * yall * cross_named(ring, ys, frozenset()) != rhs * cross_named(ring, xs, frozenset()):
            _fail(name, f"n={n} m={mm}")


def _schur_action(name: str, kinds, n: int, m: int | None) -> None:
    """(u,v) generators on Schur polynomials at q = t.

    Raising kinds add a box to each selected row and lowering kinds remove
    one.  A removed box can push an exponent to -1, where the bialternant
    lives in the Laurent ring, and so does the quotient by Delta x1...xn.
    The minus kinds give each unselected row a staircase power of t; each
    selected row still carries v.  m is not used.
    """
    ring = xring(n, ("t", "u", "v"))
    u, v = ring.var("u"), ring.var("v")
    for kind in kinds:
        step = -1 if kind.startswith("lower") else 1
        comp = kind.endswith("minus")
        for lam in partitions_up_to(3, n):
            got = apply_factorized_qt(kind, n, expand_schur(lam.parts, n, ring))
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
            if got != want:
                where = f"kind={kind} " if len(kinds) > 1 else ""
                _fail(name, f"{where}shape={lam.render()} n={n}")


def suite_generator_on_one(n: int, m: int | None = None) -> None:
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


SUITES = {
    "elementary_product": suite_elementary_product,
    "elementary_u_product": suite_elementary_u_product,
    "elementary_u_slice": suite_elementary_u_slice,
    "kernel_swap": suite_kernel_swap,
    "kernel_reduction_plus": partial(_kernel_reduction, "kernel_reduction_plus", minus=False),
    "kernel_reduction_minus": partial(_kernel_reduction, "kernel_reduction_minus", minus=True),
    "schur_action_raise": partial(_schur_action, "schur_action_raise", ("raise_gen_plus",)),
    "schur_action_raise_comp": partial(_schur_action, "schur_action_raise_comp", ("raise_gen_minus",)),
    "schur_action_lower": partial(_schur_action, "schur_action_lower", ("lower_gen_plus", "lower_gen_minus")),
    "generator_on_one": suite_generator_on_one,
}


def run_suite(name: str, n: int, m: int | None = None) -> None:
    """Run one suite, which raises IdentityFailed at its first failing case.

    Every suite needs at least one variable.
    """
    if name not in SUITES:
        raise OutOfRange(f"unknown suite {name!r}")
    if n < 1:
        raise OutOfRange(f"need at least one variable, got n={n}")
    SUITES[name](n, m)
