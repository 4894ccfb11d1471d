"""Tests for the one-parameter differential limit."""

import pytest

from jack_oracle import apply_jack, axring
from macops.bases import SymPoly, schur_to_monomial, to_monomial_basis
from macops.errors import IndexOutOfRange, LengthExceedsVars, NotDivisible, OutOfRange, VerificationFailed
from macops.jack import (
    c_alpha,
    jack_J,
    jack_check_limits,
    jack_limit_oracle,
    jack_lowering_coeff,
    jack_lowering_verify,
)
from macops.macdonald import conjugate_columns, macdonald_J_raising
from macops.operators import apply_symmetric
from macops.partitions import Partition, partitions_of
from macops.rings import ALPHA, QT
from oracles import bialternant, schur_coefficients


def P(*parts):
    return Partition(parts)


def coeff_map(sym):
    """The monomial coefficients, rendered, of a SymPoly of Schur ones."""
    return {k.parts: v.render() for k, v in schur_to_monomial(sym.coeffs, sym.nvars).items()}


def test_raising_on_one():
    ring = axring(2)
    assert apply_jack("raise", 0, 2, ring.one) == ring.one
    assert apply_jack("raise", 1, 2, ring.one) == ring.var("x1") + ring.var("x2")
    assert apply_jack("raise", 2, 2, ring.one) == 2 * ring.var("x1") * ring.var("x2")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_engine_matches_the_x_level_oracle_on_every_monomial(n):
    # on every s_lam, compared in Schur coefficients
    for d in range(0, 5):
        for lam in partitions_of(d, max_len=n):
            for m in range(0, n + 1):
                x = bialternant(lam.parts, n, axring(n))
                for kind in ("raise", "lower"):
                    want = schur_coefficients(to_monomial_basis(apply_jack(kind, m, n, x), n))
                    got = apply_symmetric(f"jack_{kind}", m, SymPoly(n, {lam: ALPHA.one}))
                    assert got == want, (kind, m, lam.render())


def test_jack_J_matches_the_x_level_recursion():
    for d in range(0, 5):
        for lam in partitions_of(d):
            n = max(lam.length, 2)
            f = axring(n).one
            for m in conjugate_columns(lam):
                f = apply_jack("raise", m, n, f)
            assert jack_J(lam, n) == schur_coefficients(to_monomial_basis(f, n)), lam.render()


def test_small_shapes_match_hand_values():
    assert coeff_map(jack_J(P(1), 2)) == {(1,): "1"}
    assert coeff_map(jack_J(P(2), 2)) == {(2,): "1 + a", (1, 1): "2"}
    assert coeff_map(jack_J(P(1, 1), 2)) == {(1, 1): "2"}
    assert coeff_map(jack_J(P(3), 2)) == {(3,): "1 + 3*a + 2*a^2", (2, 1): "3 + 3*a"}
    assert coeff_map(jack_J(P(2, 1), 3)) == {(2, 1): "2 + a", (1, 1, 1): "6"}


def test_leading_coefficient_is_hook_product():
    a = ALPHA.var("a")
    assert c_alpha(P(2)) == (1 + a) * 1
    assert c_alpha(P(1, 1)) == 2 * ALPHA.one
    for d in (1, 2, 3):
        for lam in partitions_of(d):
            n = max(lam.length, 2)
            assert jack_J(lam, n).coeffs[lam] == c_alpha(lam)


def test_limit_oracle_small_case():
    # at parameter 1 the limit is the hook product times s_lam: 2 m_(2) + 2 m_(1,1)
    sym = jack_limit_oracle(macdonald_J_raising(P(2), 2).schur, alpha=1)
    assert dict((k.parts, v) for k, v in sym.coeffs.items()) == {(2,): 2}


def test_limits_agree_up_to_weight_four():
    for d in range(1, 5):
        for lam in partitions_of(d):
            n = max(lam.length, 2)
            jack_check_limits(lam, n)


def test_integral_coefficients():
    # the recursion stays inside Z[a]: polynomial coefficients with
    # plain integer entries, no denominators anywhere
    for d in range(1, 5):
        for lam in partitions_of(d):
            n = max(lam.length, 2)
            for c in jack_J(lam, n).coeffs.values():
                assert all(isinstance(v, int) for v in c.terms.values())


def test_lowering_scales():
    a = ALPHA.var("a")
    assert jack_lowering_coeff(P(1), 1, 2) == 2 * a
    assert jack_lowering_coeff(P(1, 1), 2, 2) == 2 * a * (1 + a)
    assert jack_lowering_coeff(P(1), 2, 2).is_zero
    assert jack_lowering_verify(P(2, 1), 2, 3).render() == "6*a + 14*a^2 + 4*a^3"


def test_lowering_law_including_zero_clause():
    cases = [
        (P(1), 1, 2),
        (P(1), 2, 2),
        (P(), 1, 2),
        (P(1, 1), 2, 2),
        (P(2), 1, 2),
        (P(2, 2), 2, 2),
    ]
    for lam, m, n in cases:
        jack_lowering_verify(lam, m, n)


def test_argument_validation():
    with pytest.raises(OutOfRange):
        apply_jack("shift", 1, 2, axring(2).one)
    with pytest.raises(OutOfRange):
        apply_jack("raise", 3, 2, axring(2).one)
    with pytest.raises(OutOfRange):
        apply_symmetric("jack_shift", 1, SymPoly(2, {P(): ALPHA.one}))
    with pytest.raises(IndexOutOfRange):
        apply_symmetric("jack_raise", 3, SymPoly(2, {P(): ALPHA.one}))
    with pytest.raises(LengthExceedsVars):
        jack_J(P(1, 1, 1), 2)
    with pytest.raises(OutOfRange):
        jack_limit_oracle(macdonald_J_raising(P(1), 2).schur, alpha=0)
    with pytest.raises(OutOfRange):
        jack_lowering_coeff(P(2, 1), 1, 3)


def test_lowering_failure_names_the_first_wrong_monomial(monkeypatch):
    import macops.jack as jk

    real = jk.jack_J

    def planted(lam, n):
        # one wrong coefficient in the shape left after the column is removed
        sym = real(lam, n)
        if lam == P(2, 1):
            sym = SymPoly(n, {**sym.coeffs, P(1, 1, 1): sym.coeffs[P(1, 1, 1)] + 1})
        return sym

    monkeypatch.setattr(jk, "jack_J", planted)
    scale = jack_lowering_coeff(P(3, 2), 2, 3)
    right = real(P(2, 1), 3).coeffs[P(1, 1, 1)]
    with pytest.raises(VerificationFailed) as exc:
        jk.jack_lowering_verify(P(3, 2), 2, 3)
    assert str(exc.value) == (
        f"lowering m=2 on 3,2 (n=3) at s[1,1,1]: "
        f"got {(scale * right).render()}, want {(scale * (right + 1)).render()}"
    )


def test_limit_mismatch_is_loud(monkeypatch):
    import macops.jack as jk

    real = jk.jack_limit_oracle

    def crooked(J, alpha):
        sym = real(J, alpha)
        return SymPoly(J.nvars, {k: v + 1 for k, v in sym.coeffs.items()})

    monkeypatch.setattr(jk, "jack_limit_oracle", crooked)
    with pytest.raises(VerificationFailed):
        jk.jack_check_limits(P(2), 2)


def test_limit_oracle_refuses_a_nondivisible_coefficient():
    # 1 - t is not divisible by (1-t)^2, the weight of (2)
    with pytest.raises(NotDivisible, match=r"^\(1-t\)\^2 does not divide$"):
        jack_limit_oracle(SymPoly(2, {P(2): 1 - QT.var("t")}), alpha=1)


def test_check_limits_builds_the_two_parameter_J_once(monkeypatch):
    import macops.jack as jk

    calls = []

    def counting(lam, n):
        calls.append(lam)
        return macdonald_J_raising(lam, n)

    monkeypatch.setattr(jk, "macdonald_J_raising", counting)
    jk.jack_check_limits(P(3, 2), 3)
    assert calls == [P(3, 2)]
