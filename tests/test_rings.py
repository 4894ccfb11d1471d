import random
from fractions import Fraction

import pytest

from jack_oracle import deriv
from macops.errors import NonExactDivision, OutOfRange
from macops.rings import (
    ALPHA,
    QT,
    Frac,
    Ring,
    coeff_of_power,
    eval_var,
    fold_var,
    frac_by_factors,
    gauss_binomial,
    permute_x,
    pochhammer_t,
    poly_exact_div,
    poly_gcd,
    scalar_shift,
    split_x,
    xring,
)


def qt(expr_terms):
    return QT.from_terms(expr_terms)


def rand_poly(ring, rng, nterms=4, maxexp=3, maxc=5):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(maxexp + 1) for _ in ring.names)
        terms[e] = rng.randrange(-maxc, maxc + 1)
    return ring.from_terms(terms)


def test_construction_drops_zeros():
    p = QT.from_terms({(0, 0): 1, (1, 0): 0, (0, 1): -2})
    assert len(p.terms) == 2
    assert QT.from_terms({(1, 1): 0}).is_zero


def test_ring_interning():
    assert Ring(("q", "t")) is QT
    assert xring(3) is xring(3)


def test_render_goldens():
    # (1 - q*t)(1 - t) expanded
    p = (QT.one - QT.var("q") * QT.var("t")) * (QT.one - QT.var("t"))
    assert p.render() == "1 - t - q*t + q*t^2"
    q, t = QT.var("q"), QT.var("t")
    p2 = (QT.one + q) * (QT.one - t) * (QT.one + t)
    assert p2.render() == "1 + q - t^2 - q*t^2"
    assert QT.zero.render() == "0"
    assert (-t).render() == "-t"
    assert (QT.const(2) * q * t * t).render() == "2*q*t^2"


def test_render_within_degree_order():
    # same total degree: descending exponent tuple, so q before t
    q, t = QT.var("q"), QT.var("t")
    assert (q + t).render() == "q + t"
    assert (t * t + q * t).render() == "q*t + t^2"


def test_render_deterministic():
    rng = random.Random(7)
    for _ in range(20):
        p = rand_poly(QT, rng)
        assert p.render() == QT.from_terms(dict(reversed(list(p.terms.items())))).render()


def test_ring_axioms_random():
    rng = random.Random(1)
    R = xring(2)
    for _ in range(40):
        a, b, c = (rand_poly(R, rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a + R.zero == a
        assert a * R.one == a


def test_pow():
    x = xring(1, ()).var("x1")
    p = x + 1
    assert p**0 == xring(1, ()).one
    assert p**3 == p * p * p


def test_exact_div_difference_of_squares():
    R = xring(2, ())
    x1, x2 = R.var("x1"), R.var("x2")
    assert poly_exact_div(x1 * x1 - x2 * x2, x1 - x2) == x1 + x2


def test_exact_div_vandermonde_factor():
    R = xring(3, ())
    x1, x2, x3 = (R.var(f"x{i}") for i in (1, 2, 3))
    delta = (x1 - x2) * (x1 - x3) * (x2 - x3)
    assert poly_exact_div(delta, x2 - x3) == (x1 - x2) * (x1 - x3)


def test_exact_div_failure():
    R = xring(2, ())
    x1, x2 = R.var("x1"), R.var("x2")
    with pytest.raises(NonExactDivision):
        poly_exact_div(x1 * x1 + 1, x1 - x2)
    with pytest.raises(ZeroDivisionError):
        poly_exact_div(x1, R.zero)


def test_exact_div_random_roundtrip():
    rng = random.Random(2)
    R = xring(2)
    count = 0
    while count < 30:
        f, g = rand_poly(R, rng), rand_poly(R, rng)
        if g.is_zero:
            continue
        count += 1
        assert poly_exact_div(f * g, g) == f


def test_exact_div_laurent_dividend():
    R = xring(2, ())
    x1, x2 = R.var("x1"), R.var("x2")
    f = R.monomial((-1, 0)) + x2  # x1^-1 + x2
    g = x1 + x2 * x2
    assert poly_exact_div(f * g, g) == f


def test_gcd_basic():
    q, t = QT.var("q"), QT.var("t")
    a = (1 - t) * (1 - q * t)
    b = (1 - t) * (1 + q)
    assert poly_gcd(a, b) == 1 - t
    assert poly_gcd(QT.zero, b) == b
    assert poly_gcd(QT.const(6), QT.const(-4)) == QT.const(2)


def test_gcd_random_common_factor():
    rng = random.Random(3)
    done = 0
    while done < 20:
        a, b, c = (rand_poly(QT, rng, nterms=3, maxexp=2, maxc=3) for _ in range(3))
        if not (a and b and c):
            continue
        done += 1
        g = poly_gcd(a * c, b * c)
        # c divides the gcd
        poly_exact_div(g, poly_gcd(g, c))  # smoke: gcd(g, c) divides g
        assert poly_exact_div(a * c, g) * g == a * c
        assert poly_exact_div(b * c, g) * g == b * c
        # and g is a multiple of c up to the cofactor gcd
        assert poly_exact_div(g, poly_gcd(g, c)) is not None


def test_frac_reduction():
    q = QT.var("q")
    f = Frac(1 - q * q, 1 - q)
    assert f.is_polynomial()
    assert f.to_poly() == 1 + q
    g = Frac((1 + q) * (1 - q), (1 - q) * (1 - q))
    assert g == Frac(1 + q, 1 - q)
    assert g.render() == "(1 + q)/(1 - q)"


def test_frac_cancellation_random():
    rng = random.Random(4)
    done = 0
    while done < 15:
        a, b, c = (rand_poly(QT, rng, nterms=3, maxexp=2, maxc=3) for _ in range(3))
        if not (b and c):
            continue
        done += 1
        assert Frac(a * c, b * c) == Frac(a, b)


def test_frac_by_factors_matches_gcd_reduction():
    q, t = QT.var("q"), QT.var("t")
    factors = [(t - 1, 2), (1 + q * t, 1)]
    den = (t - 1) ** 2 * (1 + q * t)
    for num in (QT.zero, q, 3 * (t - 1), q * (t - 1) ** 2, (1 + q * t) * (t - 1) ** 3):
        got = frac_by_factors(num, den, factors)
        want = Frac(num, den)
        assert (got.num, got.den) == (want.num, want.den), num


def test_frac_arithmetic():
    q, t = QT.var("q"), QT.var("t")
    u = Frac(1 - t, 1 - q * t)
    v = Frac(1 - q * t, 1 - t)
    assert u * v == 1
    assert u + (-u) == Frac(QT.zero)
    assert (u / u) == 1
    assert u - u == 0 * u
    # cross-multiplied equality agrees with canonical equality
    lhs = Frac(t * (1 - t), t * (1 - q * t))
    assert lhs == u
    with pytest.raises(ZeroDivisionError):
        Frac(QT.one, QT.zero)


def test_pochhammer():
    t = QT.var("t")
    assert pochhammer_t(t, 3) == (1 - t) * (1 - t * t) * (1 - t**3)
    assert pochhammer_t(t, 0) == QT.one
    with pytest.raises(OutOfRange):
        pochhammer_t(t, -1)


def test_gauss_binomial_golden():
    assert gauss_binomial(3, 2).render() == "1 + t + t^2"
    assert gauss_binomial(4, 2).render() == "1 + t + 2*t^2 + t^3 + t^4"
    assert gauss_binomial(5, 0) == QT.one
    assert gauss_binomial(2, 5).is_zero
    with pytest.raises(OutOfRange):
        gauss_binomial(-1, 0)


def test_gauss_binomial_symmetry_and_product():
    t = QT.var("t")
    for m in range(8):
        for r in range(m + 1):
            assert gauss_binomial(m, r) == gauss_binomial(m, m - r)
            num = QT.one
            den = QT.one
            for i in range(1, r + 1):
                num = num * (1 - QT.var("t", m - r + i))
                den = den * (1 - QT.var("t", i))
            assert gauss_binomial(m, r) == poly_exact_div(num, den)


def test_substitute_q_to_t():
    q, t = QT.var("q"), QT.var("t")
    f = 1 - q * t
    assert fold_var(f, "q", "t") == 1 - t * t
    assert fold_var(f, "q", "t", 3) == 1 - t**4
    with pytest.raises(OutOfRange):
        fold_var(f, "q", "u", 3)


def test_substitute_t_value():
    q, t = QT.var("q"), QT.var("t")
    f = (1 - t) * (1 + q)
    g = eval_var(f, "t", Fraction(1, 2))
    assert g == (1 + q).map_coeffs(lambda c: Fraction(c, 2))
    assert eval_var(f, "t", 1).is_zero


def test_substitute_divide_then_t1():
    # the Jack limit's last step: exact division by (1-t)^order, then t := 1
    t = QT.var("t")
    f = (1 - t) ** 2 * (1 + t)
    assert eval_var(poly_exact_div(f, (1 - t) ** 2), "t", 1) == QT.const(2)
    with pytest.raises(NonExactDivision):
        poly_exact_div(1 - t, (1 - t) ** 2)


def test_eval_var_zero_negative_power():
    R = xring(1, ())
    f = R.monomial((-1,))
    with pytest.raises(ZeroDivisionError):
        eval_var(f, "x1", 0)


def test_scalar_shift():
    R = xring(2)
    x1, x2, q = R.var("x1"), R.var("x2"), R.var("q")
    f = x1 * x1 * x2
    assert scalar_shift(f, (1,), "q") == q * q * f
    assert scalar_shift(f, (1, 2), "q") == q**3 * f
    assert scalar_shift(f, (2,), "t", mult=-1) == R.from_terms({(2, 1, 0, -1): 1})


def test_permute_and_deriv():
    R = xring(3, ())
    x1, x2, x3 = (R.var(f"x{i}") for i in (1, 2, 3))
    f = x1 * x1 * x2
    assert permute_x(f, 3, (2, 3, 1)) == x2 * x2 * x3
    assert deriv(f, 1) == 2 * x1 * x2
    assert deriv(f, 3).is_zero


def test_cast_and_split():
    R2 = xring(2)
    R3 = xring(2, ("q", "t", "u"))
    f = R2.var("x1") * R2.var("q")
    g = f.cast(R3)
    assert g.ring is R3
    assert g.var_max("x1") == 1 and g.var_max("q") == 1
    assert g.cast(R2) == f
    with pytest.raises(OutOfRange):
        R3.var("u").cast(R2)
    parts = split_x(R2.var("x1") * R2.var("q") + R2.var("x1") * R2.var("t", 2), 2)
    assert set(parts) == {(1, 0)}
    assert parts[(1, 0)] == Ring(("q", "t")).var("q") + Ring(("q", "t")).var("t", 2)


def test_fold_and_coeff_of_power():
    R = Ring(("q", "t", "u"))
    f = R.var("u") * R.var("q") + R.var("u", 2) * R.var("t")
    assert coeff_of_power(f, "u", 1) == R.var("q")
    assert coeff_of_power(f, "u", 2) == R.var("t")
    assert coeff_of_power(f, "u", 0).is_zero
    assert fold_var(f, "u", "t", 2) == R.var("q") * R.var("t", 2) + R.var("t", 5)


def test_alpha_ring_render():
    a = ALPHA.var("a")
    assert ((a + 1) * (a + 2)).render() == "2 + 3*a + a^2"
