import pytest

from macops.errors import LengthExceedsVars, OutOfRange
from macops.jack import jack_lowering_coeff
from macops.partitions import (
    Partition,
    c_alpha,
    c_integral,
    c_integral_factors,
    column_unit_scale,
    cyclotomic,
    eigenvalue,
    lowering_coeff,
    parse_partition,
    partitions_of,
    partitions_up_to,
    revlex_key,
)
from macops.rings import ALPHA, QT, Ring, coeff_of_power, frac_by_factors
from oracles import dominance_leq, lowest_terms, plus_ones


def P(*parts):
    return Partition(parts)


def test_construction():
    assert P(3, 1).parts == (3, 1)
    assert P(3, 1, 0, 0).parts == (3, 1)
    assert P().parts == ()
    assert P().weight == 0 and P().length == 0
    with pytest.raises(OutOfRange):
        P(1, 3)
    with pytest.raises(OutOfRange):
        P(2, -1)


def test_render_parse():
    assert P(3, 1).render() == "3,1"
    assert P().render() == "0"
    assert parse_partition("3,1") == P(3, 1)
    assert parse_partition("0") == P()
    assert parse_partition("") == P()
    with pytest.raises(OutOfRange):
        parse_partition("a,b")


def test_conjugate():
    assert P(3, 1).conjugate() == P(2, 1, 1)
    assert P().conjugate() == P()
    for lam in partitions_of(6):
        assert lam.conjugate().conjugate() == lam


def test_dominance():
    assert dominance_leq(P(2, 1), P(3))
    assert dominance_leq(P(1, 1, 1), P(2, 1))
    assert not dominance_leq(P(3), P(2, 1))
    assert dominance_leq(P(2, 2), P(3, 1))
    assert not dominance_leq(P(2, 1), P(2))  # different weights
    # antisymmetry on all pairs of weight 5
    for lam in partitions_of(5):
        for mu in partitions_of(5):
            if dominance_leq(lam, mu) and dominance_leq(mu, lam):
                assert lam == mu


def test_partitions_of_order():
    got = [p.parts for p in partitions_of(4)]
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert [p.parts for p in partitions_of(0)] == [()]
    assert len(partitions_of(6)) == 11
    assert [p.parts for p in partitions_of(4, max_len=2)] == [(4,), (3, 1), (2, 2)]
    assert sorted(partitions_of(5), key=revlex_key) == partitions_of(5)


def test_plus_minus_ones():
    assert plus_ones(P(2, 1), 3) == P(3, 2, 1)
    assert plus_ones(P(), 2) == P(1, 1)
    with pytest.raises(LengthExceedsVars):
        plus_ones(P(1, 1, 1), 2)
    assert P(3, 2, 1).minus_ones(3) == P(2, 1)
    assert P(2, 2).minus_ones(2) == P(1, 1)
    with pytest.raises(OutOfRange):
        P(1).minus_ones(2)
    with pytest.raises(OutOfRange):
        P(2, 2).minus_ones(1)  # (1, 2) is not a partition


def test_c_integral_goldens():
    assert c_integral(P(2)).render() == "1 - t - q*t + q*t^2"
    q, t = QT.var("q"), QT.var("t")
    assert c_integral(P(1, 1)) == (1 - t) * (1 - t * t)
    assert c_integral(P(1)) == 1 - t
    assert c_integral(P()) == QT.one


def test_cyclotomic_products():
    x = cyclotomic(1).ring.var("x")
    assert cyclotomic(1) == x - 1
    assert cyclotomic(6) == x * x - x + 1
    for k in range(1, 13):
        prod = x.ring.one
        for d in range(1, k + 1):
            if k % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == x**k - 1
    with pytest.raises(OutOfRange):
        cyclotomic(0)


def test_c_integral_factors_multiply_back():
    for w in range(8):
        for lam in partitions_of(w):
            prod = QT.one
            for f, k in c_integral_factors(lam):
                prod = prod * f**k
            # each cell's 1 - q^a t^b is minus its cyclotomic factors
            assert prod == (-1) ** lam.weight * c_integral(lam), lam


def test_reduction_needs_the_cyclotomic_split():
    # 1 - t^2 = (1 - t)(1 + t): only the split factor 1 + t cancels here
    t = QT.var("t")
    c = c_integral(P(1, 1))
    got = frac_by_factors(1 + t, c_integral_factors(P(1, 1)))
    assert got == (QT.one, (1 - t) ** 2)
    assert got == lowest_terms(1 + t, c)
    whole = frac_by_factors(1 + t, [(1 - t, 1), (1 - t * t, 1)])
    assert whole.den == c


def test_eigenvalue():
    q, t = QT.var("q"), QT.var("t")
    assert eigenvalue(P(1), 2, 0) == QT.one
    assert eigenvalue(P(1), 2, 1) == t * q + 1
    assert eigenvalue(P(1), 2, 2) == t * q
    assert eigenvalue(P(2, 1), 3, 2) == t**3 * q**3 + t**2 * q**2 + t * q
    with pytest.raises(LengthExceedsVars):
        eigenvalue(P(1, 1, 1), 2, 1)


def _eigen_series(lam, n):
    """prod_{i<=n} (1 - u t^(n-i) q^lam_i), whose u^r coefficient is (-1)^r e_r."""
    QTU = Ring(("q", "t", "u"))
    u, q, t = QTU.var("u"), QTU.var("q"), QTU.var("t")
    out = QTU.one
    for i in range(1, n + 1):
        out = out * (1 - u * t ** (n - i) * q ** lam.part(i))
    return out


def test_eigenvalue_is_the_generating_series_coefficient():
    cases = 0
    for n in range(0, 6):
        for lam in partitions_up_to(5, max_len=n):
            series = _eigen_series(lam, n)
            for r in range(n + 1):
                want = coeff_of_power(series, "u", r).subs({}, QT) * (-1) ** r
                assert eigenvalue(lam, n, r) == want, (lam.render(), n, r)
                cases += 1
    # sum over n of (shapes of weight <= 5 in n parts) * (n + 1) orders
    assert cases == 1 * 1 + 6 * 2 + 12 * 3 + 16 * 4 + 18 * 5 + 19 * 6


def test_eigenvalue_first_distinct():
    # distinct across partitions of one weight: drives the triangular solve
    for d in range(1, 7):
        for n in (2, 3):
            vals = []
            for lam in partitions_of(d, max_len=n):
                vals.append(tuple(sorted(eigenvalue(lam, n, 1).terms)))
            assert len(vals) == len(set(vals))


def test_lowering_coeff_golden():
    q, t = QT.var("q"), QT.var("t")
    expect = (1 - t * q * q) * (1 - t * t * q) * (1 - q) * (1 - t)
    assert lowering_coeff(P(2, 1), 2, 2) == expect
    assert lowering_coeff(P(), 0, 3) == QT.one
    # a shape shorter than the column: the i = m factor is 1 - t^0 q^0
    assert lowering_coeff(P(1), 2, 2).is_zero
    assert lowering_coeff(P(), 2, 3).is_zero
    with pytest.raises(OutOfRange):
        lowering_coeff(P(1), 2, 1)


def test_c_alpha():
    a = ALPHA.var("a")
    assert c_alpha(P(2)) == a + 1
    assert c_alpha(P(1, 1)) == ALPHA.const(2)
    assert c_alpha(P(2, 1)) == a + 2
    assert c_alpha(P()) == ALPHA.one


def test_jack_lowering_coeff():
    a = ALPHA.var("a")
    # single box removed from (1) with two variables: coefficient 2*alpha
    assert jack_lowering_coeff(P(1), 1, 2) == 2 * a
    # (2,1), m=n=2: i=1 gives (2a+1)(a+2), i=2 gives (a+0)(0+1)
    expect = (a * 2 + 1) * (a + 2) * a
    assert jack_lowering_coeff(P(2, 1), 2, 2) == expect
    # a shape shorter than the column: the i = m factor is a*0 + 0
    assert jack_lowering_coeff(P(1), 2, 3).is_zero


def test_column_unit_scale():
    t = QT.var("t")
    assert column_unit_scale(0) == QT.one
    assert column_unit_scale(2) == (1 - t) * (1 - t * t)
