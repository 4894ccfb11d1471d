import pytest
from hypothesis import given, settings, strategies as st

from macops.bases import SymPoly, cross_cleared, elementary, expand_monomial, to_monomial_basis, vandermonde
from macops.errors import (
    IndexOutOfRange,
    NonExactDivision,
    NotSymmetric,
    OutOfRange,
    SpecializationRequired,
)
from macops.operators import (
    ALL_KINDS,
    GEN_KINDS,
    _DET_KINDS,
    _NEEDS_INDEX,
    OperatorSpec,
    apply_factorized_qt,
    apply_operator,
    apply_symmetric,
    operator_ring,
)
from macops.operators import QDiffOp, _binom2, _plan, _subsets
from macops.partitions import Partition, column_unit_scale, partitions_of
from macops.rings import (
    QT,
    Poly,
    Ring,
    SignedDelta,
    _positive_trail,
    poly_exact_div,
    poly_gcd,
    vector_shift,
    xring,
)
from oracles import (
    _delta_factor,
    bialternant,
    build,
    delta_by_pairs,
    divisor_subs,
    dualize,
    equals,
    expand,
    normalized,
    numerator,
    permute_x,
    raw_image,
    scaled,
    schur_coefficients,
    ssyt_count,
    tshift_delta,
    with_global_qshift,
)

QTU = Ring(("q", "t", "u"))


def P(*parts):
    return Partition(parts)


def shapes_for(n):
    out = [P(), P(1)]
    if n >= 2:
        out.append(P(2, 1))
    else:
        out.append(P(2))
    return out


def op_index_range(kind, n):
    if kind in _NEEDS_INDEX:
        return range(0, n + 1)
    return [None]


def test_spec_validation():
    with pytest.raises(IndexOutOfRange):
        OperatorSpec("raise_plus")
    with pytest.raises(OutOfRange):
        OperatorSpec("macdonald_u", 1)
    with pytest.raises(OutOfRange):
        OperatorSpec("unheard_of", 1)
    with pytest.raises(OutOfRange):
        apply_operator(OperatorSpec("raise_plus", 3), xring(2).one.subs({}, operator_ring(2, "raise_plus")), 2)


def test_needs_parameter_vars():
    f = expand_monomial(P(1), 2, ring=xring(2, ("q", "t")))
    with pytest.raises(SpecializationRequired):
        apply_operator(OperatorSpec("macdonald_u"), f, 2)
    with pytest.raises(SpecializationRequired):
        apply_operator(OperatorSpec("raise_gen_plus"), f, 2)


def test_build_one_variable():
    op = build(OperatorSpec("raise_plus", 1), 1)
    R = op.ring
    x1, t = R.var("x1"), R.var("t")
    assert op.divisor == SignedDelta(1, 1, (0,) * len(R))
    assert op.terms == {(0,): x1, (1,): -t * x1}
    assert op.apply(R.one) == x1 - t * x1


def test_first_operator_on_small_monomials():
    # frozen by hand from the triangular action on monomials at n = 2
    R = operator_ring(2, "macdonald_r")
    q, t = R.var("q"), R.var("t")
    d1 = OperatorSpec("macdonald_r", 1)
    m1 = expand_monomial(P(1), 2, ring=R)
    m2 = expand_monomial(P(2), 2, ring=R)
    m11 = expand_monomial(P(1, 1), 2, ring=R)
    assert apply_operator(d1, m1, 2) == (1 + q * t) * m1
    assert apply_operator(d1, m2, 2) == (1 + t * q**2) * m2 + (1 - t) * (1 - q**2) * m11
    assert apply_operator(d1, m11, 2) == q * (1 + t) * m11


def test_cross_cleared_bridge():
    # the production crossing product is the oracle's t-shifted Vandermonde
    # over t^C(|I|,2); with nothing chosen it is Delta, in a ring without t
    for n in (1, 2, 3, 4):
        ring = xring(n, ("q", "t"))
        for I in _subsets(n):
            assert cross_cleared(n, I, ring.names) == tshift_delta(n, I, ring)
        bare = xring(n, ())
        assert vandermonde(n, bare) == delta_by_pairs(n, bare)


def test_production_matches_built_form():
    # the collapsed plans must act exactly like the literal double sums
    for n in (1, 2, 3):
        for kind in ALL_KINDS:
            ring = operator_ring(n, kind)
            for m in op_index_range(kind, n):
                spec = OperatorSpec(kind, m)
                op = build(spec, n)
                for lam in shapes_for(n):
                    if lam.length > n:
                        continue
                    f = expand_monomial(lam, n, ring=ring)
                    want = poly_exact_div(numerator(op, f), op.divisor)
                    assert apply_operator(spec, f, n) == want, (kind, m, n, lam.render())


def test_plan_equals_the_literal_build():
    # the collapsed form apply_operator runs is the printed subset sum
    for n in range(0, 5):
        for kind in ALL_KINDS:
            names = operator_ring(n, kind).names
            for m in op_index_range(kind, n):
                assert equals(_plan(kind, m, n, names), build(OperatorSpec(kind, m), n)), (kind, m, n)


def test_generating_kinds_sum_their_slices():
    # D(u) = sum_r (-u)^r D_r, and each (u, v) kind is sum_m v^m times its u kind at m
    for n in range(0, 4):
        for kind in ("macdonald_u",) + GEN_KINDS:
            whole = build(OperatorSpec(kind), n)
            ring = whole.ring
            if kind == "macdonald_u":
                src, w = "macdonald_r", -ring.var("u")
            else:
                src, w = kind.replace("gen", "u"), ring.var("v")
            first = build(OperatorSpec(src, 0), n)
            den = divisor_subs(first.divisor, first.ring, {}, ring)
            terms = {}
            for r in range(n + 1):
                part = build(OperatorSpec(src, r), n)
                assert divisor_subs(part.divisor, part.ring, {}, ring) == den, (kind, r, n)
                for s, c in part.terms.items():
                    terms[s] = terms.get(s, ring.zero) + w**r * c.subs({}, ring)
            assert equals(QDiffOp(ring, n, terms, den), whole), (kind, n)


def test_raise_zero_and_full_index():
    for n in (1, 2, 3):
        ring = operator_ring(n, "raise_plus")
        uring = operator_ring(n, "macdonald_u")
        lam = P(2, 1) if n >= 2 else P(2)
        f = expand_monomial(lam, n, ring=ring)
        assert apply_operator(OperatorSpec("raise_plus", 0), f, n) == f
        shifted = vector_shift(f, (1,) * n, "q")
        assert apply_operator(OperatorSpec("raise_minus", 0), f, n) == shifted
        # column adders of full height multiply by x1..xn after the
        # u = t specialization of the generating operator
        du = apply_operator(OperatorSpec("macdonald_u"), f.subs({}, uring), n)
        want = du.subs({"u": ring.var("t")}, ring)
        for j in range(1, n + 1):
            want = want * ring.var(f"x{j}")
        assert apply_operator(OperatorSpec("raise_plus", n), f, n) == want
        assert apply_operator(OperatorSpec("raise_minus", n), f, n) == want


def test_lower_zero_index():
    for n in (1, 2):
        ring = operator_ring(n, "lower_plus")
        lam = P(2, 1) if n >= 2 else P(2)
        f = expand_monomial(lam, n, ring=ring)
        assert apply_operator(OperatorSpec("lower_plus", 0), f, n) == f
        shifted = vector_shift(f, (1,) * n, "q")
        assert apply_operator(OperatorSpec("lower_minus", 0), f, n) == shifted


def test_raise_on_one_gives_elementary():
    for n in (1, 2, 3, 4):
        ring = operator_ring(n, "raise_plus")
        for m in range(0, n + 1):
            want = elementary(m, n, ring=ring) * column_unit_scale(m).subs({}, ring)
            for kind in ("raise_plus", "raise_minus"):
                assert apply_operator(OperatorSpec(kind, m), ring.one, n) == want


def test_dualize_involution():
    op = build(OperatorSpec("raise_plus", 2), 3)
    assert equals(dualize(dualize(op)), op)


def test_duality_between_column_adders():
    # minus = (-t)^m t^(m choose 2) (plus dualized), then the global shift
    for n in (1, 2, 3):
        ring = operator_ring(n, "raise_plus")
        for m in range(0, n + 1):
            plus = build(OperatorSpec("raise_plus", m), n)
            minus = build(OperatorSpec("raise_minus", m), n)
            sc = ring.var("t", m + _binom2(m))
            if m % 2:
                sc = -sc
            rhs = scaled(with_global_qshift(dualize(plus)), sc)
            assert equals(minus, rhs), (m, n)


def test_factorized_route_refuses_other_kinds_and_rings():
    # its agreement with apply_operator at q = t is checked by criterion 06
    with pytest.raises(OutOfRange):
        apply_factorized_qt(
            "macdonald_u", 2, xring(2, ("q", "t", "u")).one
        )
    with pytest.raises(OutOfRange):
        apply_factorized_qt("raise_plus", 2, xring(2, ("t", "u")).one)


ADDERS = ("raise_plus", "raise_minus")


def adder_reference(kind, m, lam, n):
    """The column adder on s_lam through the full x-expansion, in Schur coefficients."""
    f = bialternant(lam.parts, n, operator_ring(n, kind))
    return schur_coefficients(to_monomial_basis(apply_operator(OperatorSpec(kind, m), f, n), n))


def test_antisymmetrized_route_agrees():
    for n in (1, 2, 3):
        for m in range(0, n + 1):
            for lam in shapes_for(n):
                if lam.length > n:
                    continue
                f = SymPoly(n, {lam: QT.one})
                for kind in ADDERS:
                    want = adder_reference(kind, m, lam, n)
                    assert apply_symmetric(kind, m, f) == want, (m, n, lam.render(), kind)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_column_adder_matches_operator_on_every_monomial(n):
    for d in range(0, 5):
        for lam in partitions_of(d, max_len=n):
            for m in range(0, n + 1):
                for kind in ADDERS:
                    got = apply_symmetric(kind, m, SymPoly(n, {lam: QT.one}))
                    assert got == adder_reference(kind, m, lam, n), (m, lam.render(), kind)


def operator_reference(kind, m, lam, n):
    """The Schur coefficients of s_lam's image through the x-expansion, or None where it is not a polynomial."""
    f = bialternant(lam.parts, n, operator_ring(n, kind))
    try:
        return schur_coefficients(to_monomial_basis(apply_operator(OperatorSpec(kind, m), f, n), n))
    except (NonExactDivision, NotSymmetric):
        return None


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_removers_and_difference_operators_match_operator_on_every_monomial(n):
    # every order r of macdonald_r and every height of both removers; the
    # specialized removers keep every s_lam polynomial here
    for d in range(0, 5):
        for lam in partitions_of(d, max_len=n):
            for kind in ("macdonald_r", "lower_plus", "lower_minus"):
                for m in range(0, n + 1):
                    want = operator_reference(kind, m, lam, n)
                    assert want is not None, (kind, m, lam.render())
                    got = apply_symmetric(kind, m, SymPoly(n, {lam: QT.one}))
                    assert got == want, (kind, m, lam.render())


def test_engine_refuses_exactly_where_the_operator_leaves_polynomials(monkeypatch):
    # lower_u_plus is the plus remover with u on every shifted variable:
    # psi_i = x_i^-1 (1 - u t^(n-i) T_i) over Z[q,t,u], which has poles
    import macops.operators as ops

    form = (-1, lambda m, n, i, b: QTU.one - QTU.monomial((b, n - i, 1)), QTU)
    monkeypatch.setitem(ops._FORMS, "lower_u_plus", form)
    ops._packed_factor.cache_clear()
    refused = 0
    for n in range(1, 4):
        for d in range(0, 4):
            for lam in partitions_of(d, max_len=n):
                for m in range(0, n + 1):
                    want = operator_reference("lower_u_plus", m, lam, n)
                    f = SymPoly(n, {lam: QTU.one})
                    if want is None:
                        refused += 1
                        with pytest.raises(NonExactDivision, match="pole"):
                            apply_symmetric("lower_u_plus", m, f)
                    else:
                        assert apply_symmetric("lower_u_plus", m, f) == want, (m, lam.render())
    ops._packed_factor.cache_clear()
    assert refused > 0


# every engine kind, plus the u remover planted as in the test above, whose
# images of m_lam can have poles
_POLE_FORM = (-1, lambda m, n, i, b: QTU.one - QTU.monomial((b, n - i, 1)), QTU)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_engine_results_do_not_depend_on_cache_history(data):
    import macops.operators as ops

    kind = data.draw(st.sampled_from(sorted(ops._FORMS) + ["lower_u_plus"]))
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(0, n))
    ring = _POLE_FORM[2] if kind == "lower_u_plus" else ops._FORMS[kind][2]
    shapes = [lam for d in range(5) for lam in partitions_of(d, max_len=n)]

    coeffs = st.builds(ring.monomial, st.tuples(*[st.integers(0, 2)] * len(ring.names)), st.integers(-3, 3).filter(bool))

    def draw_f():
        chosen = data.draw(st.lists(st.sampled_from(shapes), min_size=1, max_size=4, unique=True))
        return SymPoly(n, {lam: data.draw(coeffs) for lam in chosen})

    def outcome(f, clear=True):
        if clear:
            ops._packed_factor.cache_clear()
        try:
            return apply_symmetric(kind, m, f)
        except NonExactDivision as err:
            return str(err)

    f, warm = draw_f(), draw_f()
    with pytest.MonkeyPatch.context() as mp:
        if kind == "lower_u_plus":
            mp.setitem(ops._FORMS, kind, _POLE_FORM)
        try:
            cold = outcome(f)
            assert outcome(f, clear=False) == cold  # its own columns cached
            outcome(warm)
            assert outcome(f, clear=False) == cold  # another F's columns cached
            images = {lam: outcome(SymPoly(n, {lam: ring.one})) for lam in f.coeffs}
        finally:
            ops._packed_factor.cache_clear()
    if all(isinstance(image, SymPoly) for image in images.values()):
        want = {}
        for lam, c in f.coeffs.items():
            for nu, a in images[lam].coeffs.items():
                want[nu] = want.get(nu, ring.zero) + c * a
        assert cold == SymPoly(n, want)


def test_engine_reads_each_column_once_and_only_for_inputs_present(capsys, monkeypatch):
    # a pass reads exactly the m_nu in the Kostka rows of the s_lam of F
    # whose columns are not cached yet
    import macops.cli as cli
    import macops.macdonald as mac
    import macops.operators as ops

    passes, missing = [], []
    real_rows, real_apply = ops._schur_rows, ops.apply_symmetric

    def rows(kind, m, n, d, inputs):
        passes.append(set(inputs.values()))
        want = {nu for lam in missing[-1] if lam.weight == d
                for nu in partitions_of(d, max_len=n) if ssyt_count(lam.parts, nu.parts)}
        assert set(inputs.values()) == want, (kind, m, n, d)
        return real_rows(kind, m, n, d, inputs)

    def apply(kind, m, f):
        missing.append(set(f.coeffs) - set(ops._packed_factor(kind, m, f.nvars)[1]))
        return real_apply(kind, m, f)

    monkeypatch.setattr(ops, "_schur_rows", rows)
    monkeypatch.setattr(mac, "apply_symmetric", apply)
    ops._packed_factor.cache_clear()
    first = mac.macdonald_J_raising(P(2, 2), 4)
    assert passes and not any({P(4), P(3, 1)} & nu for nu in passes)
    passes.clear()
    assert mac.macdonald_J_raising(P(2, 2), 4).schur == first.schur
    assert passes == []
    for via in ("kplus", "kminus"):
        ops._packed_factor.cache_clear()
        args = ("--lambda", "3,2,1", "--nvars", "5", "--via", via)
        assert cli.main(["jpoly", *args]) == 0
        assert passes, via
        passes.clear()
        assert cli.main(["ppoly", *args]) == 0
        assert passes == [], via
    capsys.readouterr()


def test_engine_rejects_unknown_kinds_and_bad_heights():
    with pytest.raises(OutOfRange, match="no coefficient-level form"):
        apply_symmetric("macdonald_u", 0, SymPoly(2, {P(): QT.one}))
    with pytest.raises(IndexOutOfRange):
        apply_symmetric("lower_plus", 3, SymPoly(2, {P(): QT.one}))


def test_column_adder_is_linear_over_mixed_weights():
    n = 3
    f = SymPoly(n, {P(): QT.var("q"), P(2, 1): QT.var("t", 2), P(1, 1, 1): QT.one})
    for kind in ADDERS:
        want = {}
        for lam, c in f.coeffs.items():
            for nu, a in apply_symmetric(kind, 2, SymPoly(n, {lam: QT.one})).coeffs.items():
                want[nu] = want.get(nu, QT.zero) + c * a
        assert apply_symmetric(kind, 2, f) == SymPoly(n, want)


def test_column_adder_in_zero_variables_and_bad_index():
    one = SymPoly(0, {P(): QT.one})
    for kind in ADDERS:
        assert apply_symmetric(kind, 0, one) == one
        with pytest.raises(IndexOutOfRange):
            apply_symmetric(kind, 3, SymPoly(2, {P(): QT.one}))


def reduced(op: QDiffOp) -> tuple[dict, Poly]:
    """The terms and denominator with their common polynomial content cancelled.

    A pair, not a QDiffOp: the reduced denominator is no longer the
    Vandermonde times a monomial.
    """
    g = den = expand(op.divisor, op.ring)
    for p in op.terms.values():
        g = poly_gcd(g, p)
        if g.is_const() and abs(g.const_value()) == 1:
            return op.terms, den
    den = poly_exact_div(den, g)
    if _positive_trail(den) is not den:
        g = -g
        den = -den
    return {s: poly_exact_div(p, g) for s, p in op.terms.items()}, den


def test_dx_build_edges():
    # r = 0 is the identity, r = n the pure global shift
    one = operator_ring(3, "macdonald_r").one
    assert reduced(build(OperatorSpec("macdonald_r", 0), 3)) == ({(0, 0, 0): one}, one)
    t3 = one.ring.var("t", 3)
    assert reduced(build(OperatorSpec("macdonald_r", 3), 3)) == ({(1, 1, 1): t3}, one)
    assert reduced(build(OperatorSpec("raise_minus", 0), 3)) == ({(1, 1, 1): one}, one)


def test_every_denominator_is_a_signed_vandermonde_times_a_monomial():
    # QDiffOp.apply divides through the linear factors of Delta, so every
    # plan and every operator the oracles build must carry such a divisor;
    # the oracles' own divisors come from factoring an expanded den
    for n in range(0, 4):
        for kind in ALL_KINDS:
            names = operator_ring(n, kind).names
            for m in op_index_range(kind, n):
                plan = _plan(kind, m, n, names)
                lit = build(OperatorSpec(kind, m), n)
                t = lit.ring.var("t")
                for op in (plan, lit, dualize(lit), normalized(scaled(lit, t)), with_global_qshift(lit)):
                    d = op.divisor
                    assert d.n == op.nvars == n and d.sign in (1, -1) and len(d.low) == len(op.ring), op
                    assert _delta_factor(expand(d, op.ring), n) == d, op
        # +-Delta over any Laurent monomial, here (x1...xn t^2)^-1
        ring = operator_ring(n, "macdonald_r")
        for low in ((0,) * len(ring), (-1,) * n + (0, -2)):
            for sign in (1, -1):
                d = SignedDelta(n, sign, low)
                assert _delta_factor(expand(d, ring), n) == d


def test_other_denominators_are_refused():
    ring = operator_ring(3, "macdonald_r")
    delta, t = vandermonde(3, ring), ring.var("t")
    for den in (delta * (1 + t), ring.zero, 2 * delta, vandermonde(2, ring), delta * delta):
        with pytest.raises(OutOfRange, match="not"):
            _delta_factor(den, 3)


def test_division_by_delta_never_enters_the_heap_or_packed_loop(monkeypatch):
    import macops.rings as rings

    def refuse(*args):
        raise AssertionError("general division loop entered")

    monkeypatch.setattr(rings, "_heap_div", refuse)
    monkeypatch.setattr(rings, "_packed_div", refuse)
    for n in (2, 3):
        for kind in ("macdonald_r", "raise_plus", "lower_u_minus"):
            ring = operator_ring(n, kind)
            f = elementary(1, n, ring) ** 2
            for m in op_index_range(kind, n):
                apply_operator(OperatorSpec(kind, m), f, n)
        tring = xring(n, ("t", "u", "v"))
        for kind in _DET_KINDS:
            apply_factorized_qt(kind, n, elementary(1, n, tring))


def test_dx_u_on_constants_and_m1():
    # D(u) J_lam = prod_i (1 - u t^(n-i) q^lam_i) J_lam, here on J_() = 1 and J_(1) = m_(1)
    def series(lam, n, ring):
        u, q, t = ring.var("u"), ring.var("q"), ring.var("t")
        out = ring.one
        for i in range(1, n + 1):
            out = out * (1 - u * t ** (n - i) * q ** lam.part(i))
        return out

    for n in (1, 2, 3):
        ring = operator_ring(n, "macdonald_u")
        got = apply_operator(OperatorSpec("macdonald_u"), ring.one, n)
        assert got == series(P(), n, ring)
    ring = operator_ring(2, "macdonald_u")
    m1 = expand_monomial(P(1), 2, ring=ring)
    got = apply_operator(OperatorSpec("macdonald_u"), m1, 2)
    assert got == series(P(1), 2, ring) * m1


def _fold_u_op(op, value_tpow, target_ring):
    terms = {
        s: c.subs({"u": target_ring.var("t", value_tpow)}, target_ring)
        for s, c in op.terms.items()
    }
    return normalized(QDiffOp(target_ring, op.nvars, terms, divisor_subs(op.divisor, op.ring, {}, target_ring)))


def test_u_specializations_recover_named_operators():
    # the u-carrying families specialize to the plus/minus pairs:
    # u:=t^(m-n+1) for the raise pair, u:=1 for the lower pair, with a
    # t^C(n-m,2) correction on each minus kind
    for n in (1, 2, 3):
        plain = operator_ring(n, "raise_plus")
        for m in range(0, n + 1):
            ku = build(OperatorSpec("raise_u_plus", m), n)
            got = _fold_u_op(ku, m - n + 1, plain)
            assert equals(got, build(OperatorSpec("raise_plus", m), n))
            lu = build(OperatorSpec("raise_u_minus", m), n)
            got = _fold_u_op(lu, m - n + 1, plain)
            corr = plain.var("t", _binom2(n - m))
            assert equals(got, scaled(build(OperatorSpec("raise_minus", m), n), corr))
            mu = build(OperatorSpec("lower_u_plus", m), n)
            got = _fold_u_op(mu, 0, plain)
            assert equals(got, build(OperatorSpec("lower_plus", m), n))
            nu = build(OperatorSpec("lower_u_minus", m), n)
            got = _fold_u_op(nu, 0, plain)
            assert equals(got, scaled(build(OperatorSpec("lower_minus", m), n), corr))


def test_w_invariance_on_asymmetric_input():
    import random

    rng = random.Random(7)
    n = 3
    perms = [(2, 1, 3), (3, 1, 2), (1, 3, 2)]
    for kind, m in (("macdonald_r", 1), ("raise_plus", 2), ("lower_minus", 2)):
        ring = operator_ring(n, kind)
        f = ring.zero
        for _ in range(5):
            exps = tuple(rng.randrange(3) for _ in range(n)) + (0,) * (
                len(ring.names) - n
            )
            f = f + ring.monomial(exps, rng.randrange(1, 5))
        num, den = raw_image(kind, m, n, f)
        for perm in perms:
            inv = sum(
                1
                for a in range(n)
                for b in range(a + 1, n)
                if perm[a] > perm[b]
            )
            pnum, pden = raw_image(kind, m, n, permute_x(f, n, perm))
            # denominators carry one sign-flipping Vandermonde factor
            lhs = permute_x(num, n, perm)
            assert lhs == (-pnum if inv & 1 else pnum), (kind, perm)
            assert pden == den


def test_symmetry_and_integrality_channel():
    from macops.bases import to_monomial_basis

    ring = operator_ring(3, "raise_minus")
    f = expand_monomial(P(2, 1), 3, ring=ring)
    for m in range(0, 4):
        out = apply_operator(OperatorSpec("raise_minus", m), f, 3)
        sym = to_monomial_basis(out, 3)  # raises if not symmetric
        for _, c in sym.items():
            assert c.var_min("q") >= 0 and c.var_min("t") >= 0
            assert all(isinstance(v, int) for v in c.terms.values())


def test_built_shifts_are_zero_one():
    for kind in ALL_KINDS:
        m = 1 if kind in _NEEDS_INDEX else None
        op = build(OperatorSpec(kind, m), 2)
        for shift in op.terms:
            assert all(s in (0, 1) for s in shift), kind


def test_general_raise_output_is_polynomial():
    # column adders keep symmetric polynomials polynomial in x; the t
    # direction may honestly drop below zero for m < n - 1
    ring = operator_ring(3, "raise_plus")
    f = expand_monomial(P(2, 1), 3, ring=ring)
    out = apply_operator(OperatorSpec("raise_plus", 1), f, 3)
    assert all(out.var_min(f"x{j}") >= 0 for j in (1, 2, 3))
    assert out.var_min("t") < 0
