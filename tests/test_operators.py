import pytest

from macops.bases import SymPoly, elementary, expand_monomial, to_monomial_basis, vandermonde
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
    cross_cleared,
    operator_ring,
)
from macops.operators import QDiffOp, _binom2, _plan, _subsets, _tshift_delta
from macops.partitions import QTU, Partition, column_unit_scale, partitions_of
from macops.rings import QT, _positive_trail, poly_exact_div, poly_gcd, vector_shift, xring
from oracles import apply_determinantal, build, dualize, equals, normalized, permute_x, scaled, with_global_qshift


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
    assert op.den == R.one
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
    # the two cleared cross products are shifted Vandermondes in disguise
    for n in (2, 3, 4):
        ring = xring(n, ("q", "t"))
        names = ring.names
        for I in _subsets(n):
            comp = tuple(j for j in range(1, n + 1) if j not in I)
            t_pow = ring.var("t", _binom2(len(I)))
            assert cross_cleared(n, I, "plus", names) * t_pow == _tshift_delta(n, I, names)
            t_pow = ring.var("t", _binom2(n - len(I)))
            assert cross_cleared(n, I, "minus", names) * t_pow == _tshift_delta(n, comp, names)


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
                    num, den = apply_operator(spec, f, n, raw=True)
                    bnum, bden = op.apply(f, raw=True)
                    assert num * bden == bnum * den, (kind, m, n, lam.render())


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
            den = build(OperatorSpec(src, 0), n).den.subs({}, ring)
            terms = {}
            for r in range(n + 1):
                part = build(OperatorSpec(src, r), n)
                assert part.den.subs({}, ring) == den, (kind, r, n)
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


def test_determinant_route_agrees():
    for n in (1, 2, 3):
        for kind in _DET_KINDS:
            ring = operator_ring(n, kind)
            for lam in shapes_for(n):
                if lam.length > n:
                    continue
                f = expand_monomial(lam, n, ring=ring)
                dn, dd = apply_determinantal(kind, n, f, raw=True)
                pn, pd = apply_operator(OperatorSpec(kind), f, n, raw=True)
                assert dn * pd == pn * dd, (kind, n, lam.render())


def test_factorized_route_agrees_at_q_equals_t():
    for n in (1, 2, 3):
        for kind in _DET_KINDS:
            ring = operator_ring(n, kind)
            extra = tuple(
                nm for nm in ring.names if not nm.startswith("x") and nm != "q"
            )
            tring = xring(n, extra)
            for lam in shapes_for(n):
                if lam.length > n:
                    continue
                f = expand_monomial(lam, n, ring=ring)
                pn, pd = apply_operator(OperatorSpec(kind), f, n, raw=True)
                pn, pd = pn.subs({"q": ring.var("t")}), pd.subs({"q": ring.var("t")})
                ft = expand_monomial(lam, n, ring=tring)
                fn, fd = apply_factorized_qt(kind, n, ft, raw=True)
                fn, fd = fn.subs({}, ring), fd.subs({}, ring)
                assert pn * fd == fn * pd, (kind, n, lam.render())

    with pytest.raises(OutOfRange):
        apply_factorized_qt(
            "macdonald_u", 2, xring(2, ("q", "t", "u")).one
        )
    with pytest.raises(OutOfRange):
        apply_factorized_qt("raise_plus", 2, xring(2, ("t", "u")).one)


ADDERS = ("raise_plus", "raise_minus")


def adder_reference(kind, m, lam, n):
    """The column adder on m_lam through the full x-expansion."""
    f = expand_monomial(lam, n, ring=operator_ring(n, kind))
    return to_monomial_basis(apply_operator(OperatorSpec(kind, m), f, n), n)


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
    """The image of m_lam through the x-expansion, or None where it is not a polynomial."""
    f = expand_monomial(lam, n, ring=operator_ring(n, kind))
    try:
        return to_monomial_basis(apply_operator(OperatorSpec(kind, m), f, n), n)
    except (NonExactDivision, NotSymmetric):
        return None


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_removers_and_difference_operators_match_operator_on_every_monomial(n):
    # every order r of macdonald_r and every height of both removers; the
    # specialized removers keep every m_lam polynomial here
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


def test_first_family_commutes():
    ring = operator_ring(3, "macdonald_r")
    f = expand_monomial(P(2, 1), 3, ring=ring)
    results = {}
    for r in range(0, 4):
        results[r] = apply_operator(OperatorSpec("macdonald_r", r), f, 3)
    for r in range(0, 4):
        for s in range(r + 1, 4):
            rs = apply_operator(OperatorSpec("macdonald_r", s), results[r], 3)
            sr = apply_operator(OperatorSpec("macdonald_r", r), results[s], 3)
            assert rs == sr, (r, s)


def reduced(op: QDiffOp) -> QDiffOp:
    """Cancel the overall polynomial content shared with the denominator."""
    g = op.den
    for p in op.terms.values():
        g = poly_gcd(g, p)
        if g.is_const() and abs(g.const_value()) == 1:
            return op
    den = poly_exact_div(op.den, g)
    if _positive_trail(den) is not den:
        g = -g
        den = -den
    return QDiffOp(op.ring, op.nvars, {s: poly_exact_div(p, g) for s, p in op.terms.items()}, den)


def test_dx_build_edges():
    # r = 0 is the identity, r = n the pure global shift
    op0 = reduced(build(OperatorSpec("macdonald_r", 0), 3))
    assert op0.terms == {(0, 0, 0): op0.ring.one} and op0.den == op0.ring.one
    opn = reduced(build(OperatorSpec("macdonald_r", 3), 3))
    assert opn.terms == {(1, 1, 1): opn.ring.var("t", 3)}
    assert opn.den == opn.ring.one
    km0 = reduced(build(OperatorSpec("raise_minus", 0), 3))
    assert km0.terms == {(1, 1, 1): km0.ring.one} and km0.den == km0.ring.one


def test_dx_u_on_constants_and_m1():
    from macops.partitions import eigen_poly

    for n in (1, 2, 3):
        ring = operator_ring(n, "macdonald_u")
        got = apply_operator(OperatorSpec("macdonald_u"), ring.one, n)
        want = eigen_poly(P(), n).subs({}, ring)
        assert got == want
    ring = operator_ring(2, "macdonald_u")
    m1 = expand_monomial(P(1), 2, ring=ring)
    got = apply_operator(OperatorSpec("macdonald_u"), m1, 2)
    assert got == eigen_poly(P(1), 2).subs({}, ring) * m1


def _fold_u_op(op, value_tpow, target_ring):
    terms = {
        s: c.subs({"u": target_ring.var("t", value_tpow)}, target_ring)
        for s, c in op.terms.items()
    }
    return normalized(QDiffOp(target_ring, op.nvars, terms, op.den.subs({}, target_ring)))


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
        num, den = apply_operator(OperatorSpec(kind, m), f, n, raw=True)
        for perm in perms:
            inv = sum(
                1
                for a in range(n)
                for b in range(a + 1, n)
                if perm[a] > perm[b]
            )
            pnum, pden = apply_operator(
                OperatorSpec(kind, m), permute_x(f, n, perm), n, raw=True
            )
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
