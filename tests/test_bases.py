import itertools
import random
from math import factorial

import pytest

import macops.bases as bases
from macops.bases import (
    SymPoly,
    change_basis,
    elementary,
    expand_big_schur,
    expand_monomial,
    expand_schur,
    hl_one_row,
    kostka_numbers,
    schur_to_monomial,
    signed_arrangements,
    sym_to_xpoly,
    to_monomial_basis,
    vandermonde,
)
from macops.errors import LengthExceedsVars, NonIntegralEntry, NotSymmetric, OutOfRange
from macops.partitions import Partition, partitions_of
from macops.rings import QT, poly_exact_div, xring
from oracles import antisymmetrize, bialternant, dominance_leq, signed_permutations


def P(*parts):
    return Partition(parts)


def mono(lam, n):
    return expand_monomial(Partition(lam), n)


def test_expand_monomial():
    R = xring(2)
    x1, x2 = R.var("x1"), R.var("x2")
    assert mono((2, 1), 2) == x1 * x1 * x2 + x1 * x2 * x2
    assert mono((1, 1), 3) == elementary(2, 3)
    assert mono((), 2) == R.one
    with pytest.raises(LengthExceedsVars):
        mono((1, 1, 1), 2)


def test_elementary_skip():
    R = xring(3)
    assert elementary(1, 3, skip=frozenset({2})) == R.var("x1") + R.var("x3")
    assert elementary(0, 3) == R.one
    assert elementary(3, 3, skip=frozenset({1})).is_zero


def test_vandermonde():
    R = xring(2)
    assert vandermonde(2) == R.var("x1") - R.var("x2")
    assert vandermonde(3).terms and len(vandermonde(3).terms) == 6


def test_expand_schur():
    assert expand_schur((1,), 2) == mono((1,), 2)
    assert expand_schur((2,), 2) == mono((2,), 2) + mono((1, 1), 2)
    assert expand_schur((2, 1), 3) == mono((2, 1), 3) + 2 * mono((1, 1, 1), 3)
    # straightening: one exchange flips the sign
    assert expand_schur((0, 2), 2) == -expand_schur((1, 1), 2)
    # repeated bialternant exponents kill the determinant
    assert expand_schur((1, 2), 2).is_zero


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_expand_schur_matches_the_bialternant(n):
    # every integer vector in [-2, 3]^n: straightening, repeats, Laurent results
    for ring in (xring(n), xring(n, ("t", "u", "v"))):
        for vec in itertools.product(range(-2, 4), repeat=n):
            assert expand_schur(vec, n, ring) == bialternant(vec, n, ring), vec


def test_expand_schur_negative_entry():
    # entries >= -1 produce Laurent results used by the lowering checks
    R = xring(2)
    got = expand_schur((2, -1), 2)
    x1, x2 = R.var("x1"), R.var("x2")
    num = x1**3 + x1 * x1 * x2 + x1 * x2 * x2 + x2**3
    assert got * (x1 * x2) == num


def test_hl_one_row():
    R = xring(2)
    t = R.var("t")
    assert hl_one_row(0, 2) == R.one
    assert hl_one_row(-1, 2).is_zero
    assert hl_one_row(1, 2) == (1 - t) * mono((1,), 2)
    expect = (1 - t) * (mono((2,), 2) + (1 - t) * mono((1, 1), 2))
    assert hl_one_row(2, 2) == expect


def test_big_schur_small():
    q1 = hl_one_row(1, 2)
    q2 = hl_one_row(2, 2)
    assert expand_big_schur(P(2), 2) == q2
    assert expand_big_schur(P(1, 1), 2) == q1 * q1 - q2
    assert expand_big_schur(P(), 2) == xring(2).one


def test_big_schur_not_triangular():
    # the (1,1) element meets m_(2) with coefficient t^2 - t: the family is
    # genuinely dense against monomials, hence the general solver
    sym = to_monomial_basis(expand_big_schur(P(1, 1), 2), 2)
    t = QT.var("t")
    assert sym.coeffs[P(2)] == t * t - t
    assert sym.coeffs[P(1, 1)] == (1 - t) ** 2


def test_big_schur_t0_is_schur():
    for d in range(1, 5):
        for lam in partitions_of(d):
            S = expand_big_schur(lam, 4)
            assert S.subs({"t": S.ring.zero}) == expand_schur(lam.parts, 4)


def test_to_monomial_basis():
    f = 3 * mono((2, 1), 3) + mono((1, 1, 1), 3) * QT.var("q").subs({}, xring(3))
    sym = to_monomial_basis(f, 3)
    assert sym.coeffs[P(2, 1)] == QT.const(3)
    assert sym.coeffs[P(1, 1, 1)] == QT.var("q")
    with pytest.raises(NotSymmetric):
        to_monomial_basis(xring(2).var("x1"), 2)
    with pytest.raises(NotSymmetric):
        # complete orbit, unequal coefficients
        R = xring(2)
        to_monomial_basis(R.var("x1", 2) + 2 * R.var("x2", 2), 2)


def test_sym_to_xpoly_roundtrip():
    rng = random.Random(11)
    n = 3
    for _ in range(10):
        coeffs = {}
        for lam in partitions_of(3, max_len=n):
            c = rng.randrange(-3, 4)
            if c:
                coeffs[lam] = QT.const(c)
        sym = SymPoly(n, coeffs)
        back = to_monomial_basis(sym_to_xpoly(sym), n)
        assert {k: v for k, v in back.coeffs.items()} == {
            k: v for k, v in sym.coeffs.items()
        }


def test_sympoly_repr_names_the_monomial_basis():
    sym = to_monomial_basis(mono((1, 1), 2), 2)
    assert repr(sym) == "<SymPoly monomial[2] {(1,1): 1}>"


def test_antisymmetrize():
    R = xring(2)
    x1, x2 = R.var("x1"), R.var("x2")
    assert antisymmetrize(x1 * x1 + 3 * x2, 2) == x1 * x1 - x2 * x2 + 3 * (x2 - x1)
    # a symmetric input cancels to zero
    assert antisymmetrize(x1 + x2, 2).is_zero


def test_kostka_numbers_by_hand():
    def k(mu, nu, d, n):
        return dict(kostka_numbers(d, n)[P(*mu)]).get(P(*nu), 0)

    assert k((2, 1), (1, 1, 1), 3, 3) == 2
    assert k((3, 2), (2, 2, 1), 5, 5) == 2
    assert k((2, 2), (2, 1, 1), 4, 4) == 1
    assert k((1, 1, 1), (2, 1), 3, 3) == 0
    for d in range(0, 7):
        table = kostka_numbers(d, d)
        for mu in partitions_of(d):
            row = dict(table[mu])
            # unitriangular in dominance order
            assert row[mu] == 1
            assert all(dominance_leq(nu, mu) for nu in row), mu
    # the variable count only drops the columns of too-long contents
    assert kostka_numbers(3, 2)[P(2, 1)] == ((P(2, 1), 1),)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_schur_to_monomial_matches_the_bialternant(n):
    for d in range(0, 5):
        for mu in partitions_of(d, max_len=n):
            want = to_monomial_basis(bialternant(mu.parts, n, xring(n)), n)
            got = schur_to_monomial({mu: QT.one}, n)
            assert got.coeffs == {nu: QT.const(c) for nu, c in want.coeffs.items()}, mu


def test_signed_arrangements():
    for n in range(0, 5):
        vals = tuple(range(n - 1, -1, -1))
        every = sorted(signed_arrangements(vals, lambda i, x: True))
        assert every == sorted((tuple(n - p for p in perm), s) for perm, s in signed_permutations(n))
    # pruned: only arrangements of (2, 1, 0) at or above (1, 1, 0)
    got = sorted(signed_arrangements((2, 1, 0), lambda i, x: x >= (1, 1, 0)[i]))
    assert got == [((1, 2, 0), -1), ((2, 1, 0), 1)]


def rand_qt(rng):
    return QT.from_terms(
        {
            (rng.randrange(3), rng.randrange(3)): rng.randrange(-2, 3)
            for _ in range(2)
        }
    )


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_change_basis_inverts_big_schur(d):
    # the x-level determinant S_lam comes back as the unit vector at lam
    for n in (d, d + 1):
        for lam in partitions_of(d):
            sym = to_monomial_basis(expand_big_schur(lam, n), n)
            assert change_basis(sym) == {lam: QT.one}, (lam, n)


@pytest.mark.parametrize("d", range(1, 8))
def test_hall_gram_symmetric_and_identity_at_t0(d):
    # G[lam, nu] = (t;t)_d <s_lam, s_nu>_t = sum over rho of chi^lam_rho
    # chi^nu_rho w_rho / d!, from the class weights change_basis divides by
    labels, weights, norm = bases._class_weights(d)
    chars = bases._characters(d)
    tt = poly_exact_div(norm, QT.const(factorial(d)))
    gram = {}
    for lam in labels:
        for nu in labels:
            total = QT.zero
            for rho, w in weights.items():
                total = total + w * (chars[lam, rho] * chars[nu, rho])
            gram[lam, nu] = poly_exact_div(total, QT.const(factorial(d)))
    assert labels == tuple(partitions_of(d))
    assert tt.subs({"t": QT.zero}) == 1 and tt.var_max("t") == d * (d + 1) // 2
    for lam in labels:
        for nu in labels:
            g = gram.get((lam, nu), QT.zero)
            assert g == gram.get((nu, lam), QT.zero)
            assert g.var_max("q") == 0
            assert g.subs({"t": QT.zero}) == (1 if lam == nu else 0)
    # <s_(d), f>_t = f(1, t, t^2, ...), and s_nu(1, t, t^2, ...) =
    # t^n(nu) / prod over cells of (1 - t^hook) (SFHP I.3, Ex. 2)
    t = QT.var("t")
    for nu in labels:
        cols = nu.conjugate().parts
        hooks = QT.one
        for i, row in enumerate(nu.parts):
            for j in range(row):
                hooks = hooks * (1 - t ** (row - j + cols[j] - i - 1))
        n_nu = sum(i * row for i, row in enumerate(nu.parts))
        assert gram[labels[0], nu] * hooks == t**n_nu * tt, nu


def test_poly_det_matches_leibniz():
    rng = random.Random(5)
    for k in range(6):
        rows = [[rand_qt(rng) for _ in range(k)] for _ in range(k)]
        want = QT.zero
        for perm, sign in signed_permutations(k):
            term = QT.one
            for i in range(k):
                term = term * rows[i][perm[i] - 1]
            want = want + term * sign
        assert bases._poly_det(rows, QT) == want, k


def test_change_basis_roundtrip():
    # an integral big-Schur combination, sent to the monomial basis and back
    rng = random.Random(13)
    for d in (2, 3, 4):
        n = d
        want = {}
        for lam in partitions_of(d):
            c = rand_qt(rng)
            if c:
                want[lam] = c
        f = xring(n).zero
        for lam, c in want.items():
            f = f + c.subs({}, xring(n)) * expand_big_schur(lam, n)
        assert change_basis(to_monomial_basis(f, n)) == want


def test_change_basis_unit_vector():
    n = 2
    sym = to_monomial_basis(expand_big_schur(P(2), n), n)
    assert change_basis(sym) == {P(2): QT.one}
    assert change_basis(SymPoly(n, {})) == {}


def test_change_basis_errors():
    sym = SymPoly(1, {P(2): QT.one})
    with pytest.raises(OutOfRange):
        change_basis(sym)  # needs n >= degree
    with pytest.raises(OutOfRange):
        change_basis(SymPoly(2, {P(2): QT.one, P(1): QT.one}))  # mixed weights
    # m_(2) alone is no integral big-Schur combination
    with pytest.raises(NonIntegralEntry, match=r"^coefficient of S\[2\] = .*/\("):
        change_basis(SymPoly(2, {P(2): QT.one}))
