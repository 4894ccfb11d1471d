import pytest

from macops.bases import SymPoly, elementary, expand_monomial, to_monomial_basis, vandermonde
from macops.errors import (
    IndexOutOfRange,
    OutOfRange,
    SpecializationRequired,
)
from macops.operators import (
    ALL_KINDS,
    _DET_KINDS,
    _NEEDS_INDEX,
    OperatorSpec,
    apply_column_adder,
    apply_determinantal,
    apply_factorized_qt,
    apply_operator,
    build,
    cross_cleared,
    dualize,
    operator_ring,
)
from macops.operators import QDiffOp, _binom2, _subsets, _tshift_delta
from macops.partitions import Partition, column_unit_scale, partitions_of
from macops.rings import QT, _positive_trail, fold_var, poly_exact_div, poly_gcd, scalar_shift, xring


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
        apply_operator(OperatorSpec("raise_plus", 3), xring(2).one.cast(operator_ring(2, "raise_plus")), 2)


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


def test_raise_zero_and_full_index():
    for n in (1, 2, 3):
        ring = operator_ring(n, "raise_plus")
        uring = operator_ring(n, "macdonald_u")
        lam = P(2, 1) if n >= 2 else P(2)
        f = expand_monomial(lam, n, ring=ring)
        assert apply_operator(OperatorSpec("raise_plus", 0), f, n) == f
        shifted = scalar_shift(f, range(1, n + 1), "q")
        assert apply_operator(OperatorSpec("raise_minus", 0), f, n) == shifted
        # column adders of full height multiply by x1..xn after the
        # u = t specialization of the generating operator
        du = apply_operator(OperatorSpec("macdonald_u"), f.cast(uring), n)
        want = fold_var(du, "u", "t").cast(ring)
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
        shifted = scalar_shift(f, range(1, n + 1), "q")
        assert apply_operator(OperatorSpec("lower_minus", 0), f, n) == shifted


def test_raise_on_one_gives_elementary():
    for n in (1, 2, 3, 4):
        ring = operator_ring(n, "raise_plus")
        for m in range(0, n + 1):
            want = elementary(m, n, ring=ring) * column_unit_scale(m).cast(ring)
            for kind in ("raise_plus", "raise_minus"):
                assert apply_operator(OperatorSpec(kind, m), ring.one, n) == want


def test_dualize_involution():
    op = build(OperatorSpec("raise_plus", 2), 3)
    assert dualize(dualize(op)).equals(op)


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
            rhs = dualize(plus).with_global_qshift().scaled(sc)
            assert minus.equals(rhs), (m, n)


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
                pn, pd = fold_var(pn, "q", "t"), fold_var(pd, "q", "t")
                ft = expand_monomial(lam, n, ring=tring)
                fn, fd = apply_factorized_qt(kind, n, ft, raw=True)
                fn, fd = fn.cast(ring), fd.cast(ring)
                assert pn * fd == fn * pd, (kind, n, lam.render())

    with pytest.raises(OutOfRange):
        apply_factorized_qt(
            "macdonald_u", 2, xring(2, ("q", "t", "u")).one
        )
    with pytest.raises(OutOfRange):
        apply_factorized_qt("raise_plus", 2, xring(2, ("t", "u")).one)


def adder_reference(m, lam, n, minus=False):
    """The column adder on m_lam through the full x-expansion."""
    f = expand_monomial(lam, n, ring=operator_ring(n, "raise_plus"))
    out = apply_operator(OperatorSpec("raise_minus" if minus else "raise_plus", m), f, n)
    return to_monomial_basis(out, n)


def test_antisymmetrized_route_agrees():
    for n in (1, 2, 3):
        for m in range(0, n + 1):
            for lam in shapes_for(n):
                if lam.length > n:
                    continue
                f = SymPoly(n, {lam: QT.one})
                for minus in (False, True):
                    want = adder_reference(m, lam, n, minus)
                    assert apply_column_adder(m, f, minus) == want, (m, n, lam.render(), minus)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_column_adder_matches_operator_on_every_monomial(n):
    for d in range(0, 5):
        for lam in partitions_of(d, max_len=n):
            for m in range(0, n + 1):
                for minus in (False, True):
                    got = apply_column_adder(m, SymPoly(n, {lam: QT.one}), minus)
                    assert got == adder_reference(m, lam, n, minus), (m, lam.render(), minus)


def test_column_adder_is_linear_over_mixed_weights():
    n = 3
    f = SymPoly(n, {P(): QT.var("q"), P(2, 1): QT.var("t", 2), P(1, 1, 1): QT.one})
    for minus in (False, True):
        want = {}
        for lam, c in f.coeffs.items():
            for nu, a in apply_column_adder(2, SymPoly(n, {lam: QT.one}), minus).coeffs.items():
                want[nu] = want.get(nu, QT.zero) + c * a
        assert apply_column_adder(2, f, minus) == SymPoly(n, want)


def test_column_adder_in_zero_variables_and_bad_index():
    one = SymPoly(0, {P(): QT.one})
    assert apply_column_adder(0, one) == one
    assert apply_column_adder(0, one, minus=True) == one
    with pytest.raises(IndexOutOfRange):
        apply_column_adder(3, SymPoly(2, {P(): QT.one}))


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
        want = eigen_poly(P(), n).cast(ring)
        assert got == want
    ring = operator_ring(2, "macdonald_u")
    m1 = expand_monomial(P(1), 2, ring=ring)
    got = apply_operator(OperatorSpec("macdonald_u"), m1, 2)
    assert got == eigen_poly(P(1), 2).cast(ring) * m1


def _fold_u_op(op, value_tpow, target_ring):
    from macops.operators import QDiffOp

    terms = {
        s: fold_var(c, "u", "t", power=value_tpow).cast(target_ring)
        for s, c in op.terms.items()
    }
    return QDiffOp(target_ring, op.nvars, terms, op.den.cast(target_ring)).normalized()


def test_u_specializations_recover_named_operators():
    # the u-carrying families specialize to the plus/minus pairs:
    # u:=t^(m-n+1) for the raise pair, u:=1 for the lower pair, with a
    # t^C(n-m,2) correction on each minus kind
    for n in (1, 2, 3):
        plain = operator_ring(n, "raise_plus")
        for m in range(0, n + 1):
            ku = build(OperatorSpec("raise_u_plus", m), n)
            got = _fold_u_op(ku, m - n + 1, plain)
            assert got.equals(build(OperatorSpec("raise_plus", m), n))
            lu = build(OperatorSpec("raise_u_minus", m), n)
            got = _fold_u_op(lu, m - n + 1, plain)
            corr = plain.var("t", _binom2(n - m))
            assert got.equals(build(OperatorSpec("raise_minus", m), n).scaled(corr))
            mu = build(OperatorSpec("lower_u_plus", m), n)
            got = _fold_u_op(mu, 0, plain)
            assert got.equals(build(OperatorSpec("lower_plus", m), n))
            nu = build(OperatorSpec("lower_u_minus", m), n)
            got = _fold_u_op(nu, 0, plain)
            assert got.equals(build(OperatorSpec("lower_minus", m), n).scaled(corr))


def test_w_invariance_on_asymmetric_input():
    import random

    from macops.rings import permute_x

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
