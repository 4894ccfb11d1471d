"""Package acceptance: ten checks, one test per criterion, exact equality.

Every check here runs the full stated parameter range; nothing is
sampled.  The whole file is expected to finish in a few minutes.
"""

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
from macops.operators import (
    _DET_KINDS,
    OperatorSpec,
    apply_factorized_qt,
    apply_operator,
    operator_ring,
)
from macops.partitions import Partition, partitions_of
from macops.rings import Poly, QT, xring
from oracles import apply_determinantal


def _default_n(lam: Partition) -> int:
    return max(lam.length, 2)


@pytest.fixture(scope="module")
def three_routes():
    """All three constructions for every shape of weight at most six."""
    out = {}
    for d in range(0, 7):
        for lam in partitions_of(d):
            n = _default_n(lam)
            plus = macdonald_J(lam, n, via="kplus").J
            minus = macdonald_J(lam, n, via="kminus").J
            eigen = macdonald_P_eigen(lam, n).J
            out[lam] = (n, plus, minus, eigen)
    return out


def test_criterion_01_raising_recursions_match_oracle(three_routes):
    assert len(three_routes) == 30
    for lam, (n, plus, minus, eigen) in three_routes.items():
        assert plus == minus, lam.render()
        assert plus == eigen, lam.render()


def test_criterion_02_integral_form_coefficients(three_routes):
    for lam, (n, plus, minus, eigen) in three_routes.items():
        for sym in (plus, minus, eigen):
            for c in sym.coeffs.values():
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
        assert full_eigencheck(lam, n, plus)


def test_criterion_05_identity_suites():
    for n in range(1, 6):
        for name in (
            "elementary_product",
            "elementary_u_product",
            "elementary_u_slice",
        ):
            assert run_suite(name, n)["status"] == "pass", (name, n)
    for n in range(1, 4):
        for name in (
            "kernel_swap",
            "kernel_reduction_plus",
            "kernel_reduction_minus",
        ):
            assert run_suite(name, n)["status"] == "pass", (name, n)


def test_criterion_06_determinantal_and_factorized_routes():
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
                    pn, pd = apply_operator(OperatorSpec(kind), f, n, raw=True)
                    dn, dd = apply_determinantal(kind, n, f, raw=True)
                    assert dn * pd == pn * dd, (kind, n, lam.render())
                    qn, qd = pn.subs({"q": ring.var("t")}), pd.subs({"q": ring.var("t")})
                    ft = expand_monomial(lam, n, ring=tring)
                    fn, fd = apply_factorized_qt(kind, n, ft, raw=True)
                    fn, fd = fn.subs({}, ring), fd.subs({}, ring)
                    assert qn * fd == fn * qd, (kind, n, lam.render())


def test_criterion_07_lowering_theorem():
    for d in range(0, 6):
        for lam in partitions_of(d, max_len=4):
            for n in range(max(lam.length, 1), 5):
                for m in range(lam.length, n + 1):
                    for kind in ("mplus", "mminus"):
                        rep = lowering_verify(lam, m, n, kind=kind)
                        assert rep["status"] == "pass", (lam.render(), m, n, kind)


def test_criterion_08_duality_by_application():
    checks = 0
    for n in range(1, 4):
        for d in range(0, 4):
            for mu in partitions_of(d, max_len=n):
                for m in range(0, n + 1):
                    rep = duality_verify(mu, m, n)
                    assert rep["status"] == "pass", (mu.render(), m, n)
                    checks += 1
    # (shapes of weight <= 3 fitting n variables) * (n + 1) heights: 4*2 + 6*3 + 7*4
    assert checks == 54


def test_criterion_09_jack_limits():
    for d in range(0, 5):
        for lam in partitions_of(d):
            n = _default_n(lam)
            rep = jack_check_limits(lam, n)
            assert rep["status"] == "pass", lam.render()
            for c in jack_J(lam, n).coeffs.values():
                assert all(isinstance(v, int) for v in c.terms.values())
                assert all(all(e >= 0 for e in ex) for ex in c.terms)
            for m in range(lam.length, min(n, lam.length + 1) + 1):
                rep = jack_lowering_verify(lam, m, n)
                assert rep["status"] == "pass", (lam.render(), m)


def test_criterion_10_operator_commutativity():
    checks = 0
    for n in range(1, 4):
        for d in range(0, 4):
            for mu in partitions_of(d, max_len=n):
                for rep in commute_verify(mu, n):
                    assert rep["status"] == "pass", (mu.render(), n)
                    checks += 1
    # (shapes of weight <= 3 fitting n variables) * (pairs r < s in 0..n): 4*1 + 6*3 + 7*6
    assert checks == 64
