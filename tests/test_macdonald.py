"""Tests for the two-parameter family: eigen route, raising routes, Kostka
matrices, and the column-removal law.

The small-shape coefficient values asserted here were computed by hand
from the triangular eigenvalue system and are frozen as strings.
"""

from dataclasses import fields

import pytest

from macops.bases import SymPoly, expand_big_schur, schur_to_monomial, sym_to_xpoly, to_monomial_basis
from macops.errors import (
    LengthExceedsVars,
    NegativeExponent,
    NonIntegralEntry,
    OutOfRange,
    VerificationFailed,
)
from macops.macdonald import (
    KostkaMatrix,
    conjugate_columns,
    default_nvars,
    full_eigencheck,
    kostka_matrix,
    lowering_verify,
    macdonald_J,
    macdonald_J_raising,
    macdonald_P_eigen,
    triple_agreement,
)
from macops.partitions import Partition, c_integral, column_unit_scale, lowering_coeff, partitions_of
from macops.operators import OperatorSpec, apply_operator, operator_ring
from macops.rings import QT, xring
from oracles import bialternant, lowest_terms, plus_ones, schur_coefficients


def P(*parts):
    return Partition(parts)


def coeff_map(sym):
    return {k.parts: v.render() for k, v in sym.coeffs.items()}


def raising_reference(n, columns, kind="kplus"):
    """The integral form by applying the x-expanded column adders in turn."""
    spec = "raise_plus" if kind == "kplus" else "raise_minus"
    f = xring(n).one
    for m in columns:
        f = apply_operator(OperatorSpec(spec, m), f, n)
    return to_monomial_basis(f, n)


def test_default_nvars():
    assert default_nvars(P()) == 2
    assert default_nvars(P(3)) == 2
    assert default_nvars(P(1, 1, 1)) == 3


def test_row_two_eigen_oracle():
    res = macdonald_P_eigen(P(2), 2)
    assert res.provenance == "eigen_oracle"
    # only the integral form's Schur coefficients are stored; J and P are derived on access
    assert [f.name for f in fields(res)] == ["shape", "nvars", "schur", "provenance"]
    assert coeff_map(res.P) == {
        (2,): "1",
        (1, 1): "(1 + q - t - q*t)/(1 - q*t)",
    }
    assert coeff_map(res.J) == {
        (2,): "1 - t - q*t + q*t^2",
        (1, 1): "1 + q - 2*t - 2*q*t + t^2 + q*t^2",
    }


def test_P_reduction_matches_gcd_oracle():
    # P divides out c_integral's irreducible factors; the gcd reduction is the oracle
    for w in range(8):
        for lam in partitions_of(w):
            n0 = default_nvars(lam)
            c = c_integral(lam)
            for n in (n0, n0 + 1) if w <= 6 else (n0,):
                res = macdonald_J(lam, n)
                P_coeffs = res.P.coeffs
                assert P_coeffs.keys() == res.J.coeffs.keys()
                for mu, j in res.J.coeffs.items():
                    assert P_coeffs[mu] == lowest_terms(j, c), (lam, n, mu)


def test_row_two_raising_routes_match_eigen():
    want = macdonald_P_eigen(P(2), 2).J
    for via in ("kplus", "kminus"):
        got = macdonald_J(P(2), 2, via=via)
        assert got.J == want
        assert got.provenance == f"raising_{via}"


def test_single_column_shapes():
    for m in range(1, 5):
        lam = P(*([1] * m))
        res = macdonald_J_raising(lam, m)
        assert res.J.coeffs == {lam: column_unit_scale(m)}
        wider = macdonald_J_raising(lam, m + 1)
        assert wider.J.coeffs[lam] == column_unit_scale(m)


def test_hook_shape_value():
    res = triple_agreement(P(2, 1), 2)
    assert coeff_map(res.J) == {(2, 1): "1 - 2*t + t^2 - q*t^2 + 2*q*t^3 - q*t^4"}


def test_triple_agreement_small_shapes():
    for lam in (P(1), P(2), P(1, 1), P(3), P(2, 1)):
        n = default_nvars(lam)
        res = triple_agreement(lam, n)
        assert res.provenance == "raising_kplus"
        assert res.shape == lam


def test_triple_agreement_reports_mismatch(monkeypatch):
    import macops.macdonald as mac

    real = mac.macdonald_P_eigen

    def crooked(lam, n):
        res = real(lam, n)
        bad = dict(res.schur.coeffs)
        first = next(iter(bad))
        bad[first] = bad[first] + QT.one
        return mac.MacdonaldResult(lam, n, SymPoly(n, bad), res.provenance)

    monkeypatch.setattr(mac, "macdonald_P_eigen", crooked)
    want = (
        r"^construction routes disagree for 2 in 2 variables at s\[2\]: "
        r"kplus 1 - t - q\*t \+ q\*t\^2, kminus 1 - t - q\*t \+ q\*t\^2, "
        r"eigen 2 - t - q\*t \+ q\*t\^2$"
    )
    with pytest.raises(VerificationFailed, match=want):
        mac.triple_agreement(P(2), 2)


def test_column_sequences_agree():
    # the heights come in weakly increasing order, the only order the
    # one-column adder accepts, and they build the shape
    assert conjugate_columns(P(2, 1)) == (1, 2)
    assert conjugate_columns(P(3, 1)) == (1, 1, 2)
    assert conjugate_columns(P(3, 2, 1)) == (1, 2, 3)
    assert conjugate_columns(P()) == ()
    for lam in partitions_of(6):
        cols = conjugate_columns(lam)
        assert list(cols) == sorted(cols)
        shape = P()
        for m in cols:
            shape = plus_ones(shape, m)
        assert shape == lam


def test_stored_schur_coefficients_are_those_of_J():
    # the Schur coefficients every route stores, against the back-substitution
    # of its monomial output by Kostka numbers counted by brute-force fillings
    from macops.jack import jack_J

    for d in range(0, 6):
        for lam in partitions_of(d):
            for n in (lam.length, lam.length + 1):
                for res in (macdonald_J_raising(lam, n, "kplus"), macdonald_J_raising(lam, n, "kminus"),
                            macdonald_P_eigen(lam, n)):
                    assert res.schur == schur_coefficients(res.J), (res.provenance, lam.render(), n)
                if d <= 4:
                    jack = jack_J(lam, n)
                    assert jack == schur_coefficients(schur_to_monomial(jack.coeffs, n)), lam.render()


def test_default_column_order_matches_the_reference():
    for kind in ("kplus", "kminus"):
        got = macdonald_J_raising(P(2, 1), 3, kind).J
        assert got == raising_reference(3, (1, 2), kind)
        got = macdonald_J_raising(P(3, 1), 4, kind).J
        assert got == raising_reference(4, (1, 1, 2), kind)


def test_raising_in_zero_and_one_variables():
    for kind in ("kplus", "kminus"):
        empty = macdonald_J_raising(P(), 0, kind)
        assert empty.J == SymPoly(0, {P(): QT.one})
        assert repr(empty.J) == "<SymPoly[0] {(0): 1}>"
        for lam in (P(), P(1), P(3)):
            got = macdonald_J_raising(lam, 1, kind).J
            assert got == raising_reference(1, conjugate_columns(lam), kind), lam.render()
    assert coeff_map(macdonald_J_raising(P(2), 1).J) == {(2,): "1 - t - q*t + q*t^2"}


def test_raising_routes_agree_in_weight_seven():
    for lam in partitions_of(7):
        n = default_nvars(lam)
        plus = macdonald_J_raising(lam, n, "kplus").J
        assert plus == macdonald_J_raising(lam, n, "kminus").J, lam.render()
        assert plus.coeffs[lam] == c_integral(lam), lam.render()


def test_raising_refuses_a_negative_exponent(monkeypatch):
    import macops.macdonald as mac

    real = mac.apply_symmetric

    def laurent(kind, m, f):
        out = real(kind, m, f)
        return SymPoly(out.nvars, {mu: c * QT.var("t", -1) for mu, c in out.coeffs.items()})

    monkeypatch.setattr(mac, "apply_symmetric", laurent)
    with pytest.raises(NegativeExponent, match=r"^column 1 of 1 left s_1 = t\^-1 - 1$"):
        mac.macdonald_J_raising(P(1), 2)


@pytest.mark.parametrize("var", ["q", "a"])
def test_column_recursion_refuses_a_negative_exponent_in_every_variable(monkeypatch, var):
    # J's coefficients are in Z[q,t], the Jack limit's in Z[a]: one check covers both
    import macops.macdonald as mac
    from macops.jack import jack_J

    real = mac.apply_symmetric

    def laurent(kind, m, f):
        out = real(kind, m, f)
        return SymPoly(out.nvars, {mu: c * c.ring.var(var, -1) for mu, c in out.coeffs.items()})

    monkeypatch.setattr(mac, "apply_symmetric", laurent)
    with pytest.raises(NegativeExponent, match=rf"^column 1 of 2 left s_1 = .*{var}\^-1"):
        jack_J(P(2), 2) if var == "a" else mac.macdonald_J_raising(P(2), 2)


def test_first_operator_matrix_against_the_expansion():
    import macops.macdonald as mac

    for d in range(0, 5):
        for n in range(1, d + 2):
            ring = operator_ring(n, "macdonald_r")
            shapes, entries = mac._d1_action(d, n)
            assert shapes == tuple(partitions_of(d, max_len=n))
            want = {}
            for mu in shapes:
                f = bialternant(mu.parts, n, ring)
                out = apply_operator(OperatorSpec("macdonald_r", 1), f, n)
                for nu, c in schur_coefficients(to_monomial_basis(out, n)).coeffs.items():
                    want[(nu, mu)] = c
            assert entries == want, (d, n)


def test_routes_need_enough_variables():
    with pytest.raises(LengthExceedsVars):
        macdonald_J_raising(P(1, 1, 1), 2)
    with pytest.raises(LengthExceedsVars):
        macdonald_P_eigen(P(1, 1, 1), 2)


def test_unknown_routes_rejected():
    with pytest.raises(OutOfRange):
        macdonald_J(P(1), 2, via="newton")
    with pytest.raises(OutOfRange):
        macdonald_J_raising(P(1), 2, kind="kboth")


def test_eigencheck_passes_and_detects_tampering():
    res = macdonald_P_eigen(P(2, 1), 3)
    assert full_eigencheck(P(2, 1), 3, res.schur)
    bad = dict(res.schur.coeffs)
    key = next(iter(bad))
    bad[key] = bad[key] + QT.one
    with pytest.raises(VerificationFailed):
        full_eigencheck(P(2, 1), 3, SymPoly(3, bad))


def test_eigencheck_failure_names_the_order_and_the_monomial():
    J = macdonald_J_raising(P(2, 1), 3).schur
    bad = SymPoly(3, {**J.coeffs, P(1, 1, 1): J.coeffs[P(1, 1, 1)] + 1})
    # D_1 s_(1,1,1) = q(1 + t + t^2) s_(1,1,1) and D_1 J = (q^2 t^2 + q t + 1) J
    q, t = QT.var("q"), QT.var("t")
    ev = q * q * t * t + q * t + 1
    got = (J.coeffs[P(1, 1, 1)] * ev + q * (1 + t + t * t)).render()
    want = (bad.coeffs[P(1, 1, 1)] * ev).render()
    with pytest.raises(VerificationFailed) as exc:
        full_eigencheck(P(2, 1), 3, bad)
    assert str(exc.value) == (
        f"eigencheck failed for 2,1 in 3 variables: D_1 at s[1,1,1]: got {got}, want {want}"
    )


def test_kostka_degree_one():
    mat = kostka_matrix(1)
    assert mat.shapes == (P(1),)
    assert mat.entry(P(1), P(1)) == QT.one


def test_kostka_degree_two_gate():
    mat = kostka_matrix(2, check_duality=True)
    assert mat.shapes == (P(2), P(1, 1))
    q, t = QT.var("q"), QT.var("t")
    assert mat.entry(P(2), P(2)) == QT.one
    assert mat.entry(P(2), P(1, 1)) == t
    assert mat.entry(P(1, 1), P(2)) == q
    assert mat.entry(P(1, 1), P(1, 1)) == QT.one


def test_kostka_degree_three_duality_and_expansion():
    mat = kostka_matrix(3, check_duality=True)
    n = mat.nvars
    ring = xring(n)
    # independent round trip: the matrix columns must rebuild each
    # integral form through the determinantal big-Schur expansion
    for mu in partitions_of(3):
        want = sym_to_xpoly(macdonald_J_raising(mu, n).J, ring)
        got = ring.zero
        for lam in partitions_of(3):
            got = got + mat.entry(lam, mu).subs({}, ring) * expand_big_schur(lam, n)
        assert got == want


def test_kostka_refuses_a_nonintegral_column(monkeypatch):
    import macops.macdonald as mac

    real = mac.macdonald_J_raising

    def off_by_one(lam, n, kind="kplus"):
        res = real(lam, n, kind)
        if lam != P(1, 1):
            return res
        bad = dict(res.schur.coeffs)
        bad[P(2)] = bad.get(P(2), QT.zero) + QT.one
        return mac.MacdonaldResult(lam, n, SymPoly(n, bad), res.provenance)

    monkeypatch.setattr(mac, "macdonald_J_raising", off_by_one)
    with pytest.raises(
        NonIntegralEntry, match=r"^column J\[1,1\]: coefficient of S\[2\] = \(.*\)/\(.*\)$"
    ):
        kostka_matrix(2)


def test_kostka_stability():
    for d in (1, 2, 3):
        small = kostka_matrix(d, nvars=d)
        big = kostka_matrix(d, nvars=d + 1)
        assert small.shapes == big.shapes
        for lam in small.shapes:
            for mu in small.shapes:
                assert small.entry(lam, mu) == big.entry(lam, mu)


def test_kostka_duality_failure_is_reported():
    mat = kostka_matrix(2)
    entries = dict(mat.entries)
    entries[(P(2), P(1, 1))] = QT.var("q", 5)
    broken = KostkaMatrix(2, mat.nvars, mat.shapes, entries)
    with pytest.raises(VerificationFailed):
        broken.verify_duality()


def test_kostka_rejects_too_few_variables():
    with pytest.raises(OutOfRange):
        kostka_matrix(2, nvars=1)
    with pytest.raises(OutOfRange):
        kostka_matrix(-1)


def test_lowering_single_box():
    assert lowering_verify(P(1), 1, 2).render() == "1 - q - t^2 + q*t^2"


def test_lowering_zero_clause():
    assert lowering_verify(P(1), 2, 2).render() == "0"
    assert lowering_verify(P(), 1, 2).render() == "0"


def test_lowering_two_rows_both_kinds():
    for kind in ("mplus", "mminus"):
        lowering_verify(P(1, 1), 2, 2, kind=kind)
        lowering_verify(P(2, 2), 2, 3, kind=kind)


def test_lowering_law_on_x_polynomials():
    # the column-removal law through x-expansion and division by the
    # Vandermonde, J built by the x-level adders: no coefficient engine
    checks = 0
    for d in range(0, 4):
        for lam in partitions_of(d, max_len=3):
            for n in range(max(lam.length, 1), 4):
                J = sym_to_xpoly(raising_reference(n, conjugate_columns(lam)), xring(n))
                for m in range(lam.length, n + 1):
                    for kind in ("lower_plus", "lower_minus"):
                        got = apply_operator(OperatorSpec(kind, m), J, n)
                        if lam.length == m:
                            lower = raising_reference(n, conjugate_columns(lam.minus_ones(m)))
                            want = lowering_coeff(lam, m, n).subs({}, xring(n)) * sym_to_xpoly(lower, xring(n))
                        else:
                            want = xring(n).zero
                        assert got == want, (kind, lam.render(), m, n)
                        checks += 1
    assert checks == 68


def test_lowering_failure_names_the_first_wrong_monomial(monkeypatch, capsys):
    import macops.macdonald as mac
    from macops.cli import main

    real = mac.macdonald_J_raising

    def planted(lam, n, kind="kplus"):
        # one wrong coefficient in the shape left after the column is removed
        res = real(lam, n, kind)
        if lam != P(2, 1):
            return res
        J = SymPoly(n, {**res.schur.coeffs, P(1, 1, 1): res.schur.coeffs[P(1, 1, 1)] + 1})
        return mac.MacdonaldResult(lam, n, J, res.provenance)

    monkeypatch.setattr(mac, "macdonald_J_raising", planted)
    scale = lowering_coeff(P(3, 2), 2, 3)
    right = real(P(2, 1), 3).schur.coeffs[P(1, 1, 1)]
    message = (
        f"lowering mplus m=2 on 3,2 (n=3) at s[1,1,1]: "
        f"got {(scale * right).render()}, want {(scale * (right + 1)).render()}"
    )
    with pytest.raises(VerificationFailed) as exc:
        mac.lowering_verify(P(3, 2), 2, 3)
    assert str(exc.value) == message
    # the suite meets the planted J first as the input of (2,1)
    assert main(["verify", "--suite", "lowering", "--max-weight", "3", "--m", "2", "--n", "3"]) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        "FAIL: lowering mplus m=2 on 2,1 (n=3) at s[1]: got "
    )


def test_lowering_rejects_bad_arguments():
    with pytest.raises(OutOfRange):
        lowering_verify(P(1), 1, 2, kind="mboth")
    with pytest.raises(OutOfRange):
        lowering_verify(P(2, 1), 1, 2)
    with pytest.raises(OutOfRange):
        lowering_verify(P(1), 3, 2)


def test_integral_form_guard(monkeypatch):
    import macops.macdonald as mac

    real = mac.eigenvalue

    def crooked(lam, n, r):
        # one wrong eigenvalue: the gap below s_(1,1) no longer divides
        return real(lam, n, r) + (QT.var("q") if lam == P(1, 1) else QT.zero)

    monkeypatch.setattr(mac, "eigenvalue", crooked)
    with pytest.raises(
        NonIntegralEntry, match=r"^coefficient of s_1,1 in the integral form: \(.*\)/\(.*\)$"
    ):
        mac.macdonald_P_eigen(P(2), 2)
