"""Package acceptance: ten checks, one test per criterion, exact equality.

Every check here runs the full stated parameter range; nothing is
sampled.  The whole file is expected to finish in a few minutes.
"""

from itertools import combinations

import pytest

from macops.bases import expand_monomial
from macops.identities import run_suite
from macops.jack import jack_J, jack_check_limits, jack_lowering_verify
from macops.macdonald import (
    commute_verify,
    duality_verify,
    full_eigencheck,
    kostka_matrix,
    lowering_verify,
    macdonald_J,
    macdonald_P_eigen,
)
from macops.operators import _DET_KINDS, operator_ring
from macops.partitions import Partition, partitions_of
from macops.rings import Poly, QT, poly_exact_div, xring
from oracles import (
    apply_determinantal,
    apply_factorized_qt,
    commute_by_application,
    duality_by_application,
    raw_image,
    same_image,
)


def _default_n(lam: Partition) -> int:
    return max(lam.length, 2)


@pytest.fixture(scope="module")
def three_routes():
    """All three constructions for every shape of weight at most six, as results."""
    out = {}
    for d in range(0, 7):
        for lam in partitions_of(d):
            n = _default_n(lam)
            plus = macdonald_J(lam, n, via="kplus")
            minus = macdonald_J(lam, n, via="kminus")
            eigen = macdonald_P_eigen(lam, n)
            out[lam] = (n, plus, minus, eigen)
    return out


def test_criterion_01_raising_recursions_match_oracle(three_routes):
    assert len(three_routes) == 30
    for lam, (n, plus, minus, eigen) in three_routes.items():
        assert plus.J == minus.J, lam.render()
        assert plus.J == eigen.J, lam.render()


def test_criterion_02_integral_form_coefficients(three_routes):
    for lam, (n, plus, minus, eigen) in three_routes.items():
        for res in (plus, minus, eigen):
            for c in res.J.coeffs.values():
                assert isinstance(c, Poly), lam.render()
                assert c.ring.names == ("q", "t")
                for exps, val in c.terms.items():
                    assert isinstance(val, int)
                    assert all(e >= 0 for e in exps)


def test_criterion_03_kostka_integrality_duality_and_gate():
    q, t = QT.var("q"), QT.var("t")
    for d in range(1, 7):
        mat = kostka_matrix(d)
        mat.verify_duality()
        for lam in mat.shapes:
            for mu in mat.shapes:
                entry = mat.entry(lam, mu)
                for exps, val in entry.terms.items():
                    assert isinstance(val, int)
                    assert all(e >= 0 for e in exps)
    gate = kostka_matrix(2)
    assert gate.shapes == (Partition((2,)), Partition((1, 1)))
    assert gate.entry(Partition((2,)), Partition((2,))) == QT.one
    assert gate.entry(Partition((2,)), Partition((1, 1))) == t
    assert gate.entry(Partition((1, 1)), Partition((2,))) == q
    assert gate.entry(Partition((1, 1)), Partition((1, 1))) == QT.one


def test_criterion_04_eigen_equations_symbolic(three_routes):
    for lam, (n, plus, minus, eigen) in three_routes.items():
        for res in (plus, minus, eigen):
            assert full_eigencheck(lam, n, res.schur)


def test_criterion_05_identity_suites():
    for n in range(1, 6):
        for name in (
            "elementary_product",
            "elementary_u_product",
            "elementary_u_slice",
        ):
            run_suite(name, n)
    for n in range(1, 4):
        for name in (
            "kernel_swap",
            "kernel_reduction_plus",
            "kernel_reduction_minus",
        ):
            run_suite(name, n)


def test_criterion_06_determinantal_and_factorized_routes():
    cases = 0
    for n in range(1, 5):
        for kind in _DET_KINDS:
            ring = operator_ring(n, kind)
            extra = tuple(
                nm for nm in ring.names if not nm.startswith("x") and nm != "q"
            )
            tring = xring(n, extra)
            for d in range(0, 5):
                for lam in partitions_of(d, max_len=n):
                    f = expand_monomial(lam, n, ring=ring)
                    pn, pd = raw_image(kind, None, n, f)
                    dn, dd = apply_determinantal(kind, n, f)
                    assert same_image(dn, dd, pn, pd), (kind, n, lam.render())
                    at_qt = poly_exact_div(pn, pd).subs({"q": ring.var("t")})
                    ft = expand_monomial(lam, n, ring=tring)
                    assert apply_factorized_qt(kind, n, ft).subs({}, ring) == at_qt, (kind, n, lam.render())
                    cases += 1
    # 5 kinds times the 37 (n, lam) with |lam| <= 4 and n = 1..4
    assert cases == 185


def test_criterion_07_lowering_theorem():
    for d in range(0, 6):
        for lam in partitions_of(d, max_len=4):
            for n in range(max(lam.length, 1), 5):
                for m in range(lam.length, n + 1):
                    for kind in ("mplus", "mminus"):
                        lowering_verify(lam, m, n, kind=kind)


def test_criterion_08_duality_by_application():
    checks = 0
    for n in range(1, 4):
        for d in range(0, 4):
            for mu in partitions_of(d, max_len=n):
                for m in range(0, n + 1):
                    duality_verify(mu, m, n)
                    assert duality_by_application(mu, m, n), (mu.render(), m, n)
                    checks += 1
    # (shapes of weight <= 3 fitting n variables) * (n + 1) heights: 4*2 + 6*3 + 7*4
    assert checks == 54


def test_criterion_09_jack_limits():
    for d in range(0, 5):
        for lam in partitions_of(d):
            n = _default_n(lam)
            jack_check_limits(lam, n)
            for c in jack_J(lam, n).coeffs.values():
                assert all(isinstance(v, int) for v in c.terms.values())
                assert all(all(e >= 0 for e in ex) for ex in c.terms)
            for m in range(lam.length, min(n, lam.length + 1) + 1):
                jack_lowering_verify(lam, m, n)


def test_criterion_10_operator_commutativity():
    checks = 0
    for n in range(1, 4):
        for d in range(0, 4):
            for mu in partitions_of(d, max_len=n):
                pairs = list(commute_verify(mu, n))
                assert pairs == list(combinations(range(n + 1), 2)), (mu.render(), n)
                by_application = commute_by_application(mu, n)
                assert pairs == list(by_application)
                assert all(by_application.values()), (mu.render(), n, by_application)
                checks += len(pairs)
    # (shapes of weight <= 3 fitting n variables) * (pairs r < s in 0..n): 4*1 + 6*3 + 7*6
    assert checks == 64
