"""Tests for the one-parameter differential limit."""

import pytest

from macops.errors import LengthExceedsVars, NotDivisible, OutOfRange, VerificationFailed
from macops.jack import (
    apply_jack,
    axring,
    c_alpha,
    jack_J,
    jack_check_limits,
    jack_limit_oracle,
    jack_lowering_coeff,
    jack_lowering_verify,
)
from macops.partitions import Partition, partitions_of
from macops.rings import ALPHA


def P(*parts):
    return Partition(parts)


def coeff_map(sym):
    return {k.parts: v.render() for k, v in sym.items()}


def test_raising_on_one():
    ring = axring(2)
    assert apply_jack("raise", 0, 2, ring.one) == ring.one
    assert apply_jack("raise", 1, 2, ring.one) == ring.var("x1") + ring.var("x2")
    assert apply_jack("raise", 2, 2, ring.one) == 2 * ring.var("x1") * ring.var("x2")


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
    sym = jack_limit_oracle(P(2), 2, alpha=1)
    assert dict((k.parts, v) for k, v in sym.coeffs.items()) == {(2,): 2, (1, 1): 2}


def test_limits_agree_up_to_weight_four():
    for d in range(1, 5):
        for lam in partitions_of(d):
            n = max(lam.length, 2)
            rep = jack_check_limits(lam, n)
            assert rep["status"] == "pass"


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
    rep = jack_lowering_verify(P(2, 1), 2, 3)
    assert rep["scale"] == "6*a + 14*a^2 + 4*a^3"


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
        assert jack_lowering_verify(lam, m, n)["status"] == "pass"


def test_argument_validation():
    with pytest.raises(OutOfRange):
        apply_jack("shift", 1, 2, axring(2).one)
    with pytest.raises(OutOfRange):
        apply_jack("raise", 3, 2, axring(2).one)
    with pytest.raises(LengthExceedsVars):
        jack_J(P(1, 1, 1), 2)
    with pytest.raises(OutOfRange):
        jack_limit_oracle(P(1), 2, alpha=0)
    with pytest.raises(OutOfRange):
        jack_lowering_coeff(P(2, 1), 1, 3)


def test_limit_mismatch_is_loud(monkeypatch):
    import macops.jack as jk

    real = jk.jack_limit_oracle

    def crooked(lam, n, alpha):
        sym = real(lam, n, alpha)
        bad = {k: v + 1 for k, v in sym.coeffs.items()}
        from macops.bases import SymPoly

        return SymPoly(n, bad)

    monkeypatch.setattr(jk, "jack_limit_oracle", crooked)
    with pytest.raises(VerificationFailed):
        jk.jack_check_limits(P(2), 2)


def test_limit_oracle_refuses_a_nondivisible_coefficient(monkeypatch):
    import macops.jack as jk
    from macops.bases import SymPoly
    from macops.rings import QT

    class Crooked:
        # 1 - t is not divisible by (1-t)^2, the weight of (2)
        J = SymPoly(2, {P(2): 1 - QT.var("t")})

    monkeypatch.setattr(jk, "macdonald_J_raising", lambda lam, n: Crooked)
    with pytest.raises(NotDivisible):
        jk.jack_limit_oracle(P(2), 2, alpha=1)
