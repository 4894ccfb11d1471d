import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import event, given, settings, strategies as st

from jack_oracle import deriv
from macops.bases import vandermonde
from macops.errors import NonExactDivision, OutOfRange
from macops.rings import (
    ALPHA,
    QT,
    Frac,
    Poly,
    Ring,
    SignedDelta,
    _dict_mul,
    _digit_bytes,
    _heap_div,
    _packed_div,
    _packed_mul,
    coeff_of_power,
    frac_by_factors,
    gauss_binomial,
    pochhammer_t,
    poly_exact_div,
    poly_gcd,
    split_x,
    vector_shift,
    xring,
)
from oracles import expand, lowest_terms, permute_x, same_image


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
    # the factored divisor: Delta itself, and refused outside the ring
    assert poly_exact_div(delta * x1, SignedDelta(3, 1, (1, 0, 0))) == R.one
    with pytest.raises(OutOfRange):
        poly_exact_div(delta, SignedDelta(4, 1, (0, 0, 0)))
    with pytest.raises(OutOfRange):
        poly_exact_div(delta, SignedDelta(3, 1, (0, 0)))


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
    # a divisor with a monomial factor: (1 + x2) / (x1 (1 + x2)) = x1^-1
    assert poly_exact_div(1 + x2, x1 * (1 + x2)) == R.monomial((-1, 0))
    with pytest.raises(NonExactDivision):
        poly_exact_div(1 + x2, x1 * (1 - x2))


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
    # a Frac is shown as given; lowest terms come from the reduction
    assert Frac(1 - q * q, 1 - q).render() == "(1 - q^2)/(1 - q)"
    f = lowest_terms(1 - q * q, 1 - q)
    assert f.den == 1 and f.render() == "1 + q"
    assert f.num == 1 + q
    g = lowest_terms((1 + q) * (1 - q), (1 - q) * (1 - q))
    assert g == lowest_terms(1 + q, 1 - q)
    assert g.render() == "(1 + q)/(1 - q)"
    with pytest.raises(ZeroDivisionError):
        lowest_terms(QT.one, QT.zero)


def test_frac_cancellation_random():
    rng = random.Random(4)
    done = 0
    while done < 15:
        a, b, c = (rand_poly(QT, rng, nterms=3, maxexp=2, maxc=3) for _ in range(3))
        if not (b and c):
            continue
        done += 1
        assert lowest_terms(a * c, b * c) == lowest_terms(a, b)


def test_frac_by_factors_matches_gcd_reduction():
    q, t = QT.var("q"), QT.var("t")
    factors = [(t - 1, 2), (1 + q * t, 1)]
    den = (t - 1) ** 2 * (1 + q * t)
    for num in (QT.zero, q, 3 * (t - 1), q * (t - 1) ** 2, (1 + q * t) * (t - 1) ** 3, -q * (t - 1)):
        assert frac_by_factors(num, factors) == lowest_terms(num, den), num


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
    assert f.subs({"q": t}) == 1 - t * t
    assert f.subs({"q": t**3}) == 1 - t**4
    # the Kostka mirror q <-> t and the bar involution q -> 1/q, t -> 1/t
    assert (q * t * t + 3 * q).subs({"q": t, "t": q}) == q * q * t + 3 * t
    bar = {"q": QT.var("q", -1), "t": QT.var("t", -1)}
    assert (q * t * t - 2 * q).subs(bar) == QT.monomial((-1, -2)) - 2 * QT.var("q", -1)
    with pytest.raises(OutOfRange):
        f.subs({"q": Ring(("q", "t", "u")).var("u", 3)})
    with pytest.raises(OutOfRange):
        f.subs({"u": t})
    with pytest.raises(OutOfRange):
        f.subs({"q": 1 + t})


def test_substitute_t_value():
    q, t = QT.var("q"), QT.var("t")
    f = (1 - t) * (1 + q)
    assert f.subs({"t": QT.one}).is_zero
    assert f.subs({"t": QT.const(2)}) == -1 - q
    assert QT.var("t", -1).subs({"t": QT.const(-1)}) == QT.const(-1)
    # coefficients stay in Z: no value or factor yields a rational one
    with pytest.raises(NonExactDivision):
        QT.var("t", -1).subs({"t": QT.const(2)})
    with pytest.raises(TypeError):
        QT.var("q") * Fraction(1, 2)


def test_substitute_divide_then_t1():
    # the Jack limit's last step: exact division by (1-t)^order, then t := 1
    t = QT.var("t")
    f = (1 - t) ** 2 * (1 + t)
    assert poly_exact_div(f, (1 - t) ** 2).subs({"t": QT.one}) == QT.const(2)
    with pytest.raises(NonExactDivision):
        poly_exact_div(1 - t, (1 - t) ** 2)


def test_eval_var_zero_negative_power():
    R = xring(1, ())
    f = R.monomial((-1,))
    with pytest.raises(ZeroDivisionError):
        f.subs({"x1": R.zero})
    assert R.var("x1", 2).subs({"x1": R.zero}).is_zero


def test_vector_shift():
    R = xring(2)
    x1, x2, q = R.var("x1"), R.var("x2"), R.var("q")
    f = x1 * x1 * x2
    assert vector_shift(f, (1, 0), "q") == q * q * f
    assert vector_shift(f, (1, 1), "q") == q**3 * f
    assert vector_shift(f, (0, -1), "t") == R.from_terms({(2, 1, 0, -1): 1})
    # x_i -> q^(s_i) x_i takes x1^2 x2 to q^(2*2 - 3*1) x1^2 x2
    assert vector_shift(f, (2, -3), "q") == q * f
    assert vector_shift(x1 + q * x2, (-1, 1), "q") == R.var("q", -1) * x1 + q * q * x2
    assert vector_shift(f, (0, 0), "q") is f


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
    g = f.subs({}, R3)
    assert g.ring is R3
    assert g.var_max("x1") == 1 and g.var_max("q") == 1
    assert g.subs({}, R2) == f
    assert f.subs({}) is f
    with pytest.raises(OutOfRange):
        R3.var("u").subs({}, R2)
    # the u ring into one without u, at u = t^2
    assert (R3.var("u", 3) * R3.var("x2")).subs({"u": R2.var("t", 2)}, R2) == R2.var("x2") * R2.var("t", 6)
    parts = split_x(R2.var("x1") * R2.var("q") + R2.var("x1") * R2.var("t", 2), 2)
    assert set(parts) == {(1, 0)}
    assert parts[(1, 0)] == Ring(("q", "t")).var("q") + Ring(("q", "t")).var("t", 2)


def test_fold_and_coeff_of_power():
    R = Ring(("q", "t", "u"))
    f = R.var("u") * R.var("q") + R.var("u", 2) * R.var("t")
    assert coeff_of_power(f, "u", 1) == R.var("q")
    assert coeff_of_power(f, "u", 2) == R.var("t")
    assert coeff_of_power(f, "u", 0).is_zero
    assert f.subs({"u": R.var("t", 2)}) == R.var("q") * R.var("t", 2) + R.var("t", 5)


def test_alpha_ring_render():
    a = ALPHA.var("a")
    assert ((a + 1) * (a + 2)).render() == "2 + 3*a + a^2"


# -- the packed kernel against the dict and heap loops ---------------------

SIDE = {1: 8, 2: 5, 3: 3, 4: 2, 5: 2}


@st.composite
def laurent_terms(draw, k, bits=st.sampled_from([1, 3, 8, 40, 100])):
    """A nonzero Laurent polynomial in k variables: a box, some cells empty, signed coefficients."""
    lo = [draw(st.integers(-3, 2)) for _ in range(k)]
    side = [draw(st.integers(1, SIDE[k])) for _ in range(k)]
    bits = draw(bits)
    coeff = st.integers(-(1 << bits), 1 << bits)
    if draw(st.booleans()):
        coeff = st.one_of(st.just(0), coeff)
    cells = list(product(*(range(x, x + w) for x, w in zip(lo, side))))
    values = draw(st.lists(coeff, min_size=len(cells), max_size=len(cells)))
    return {e: c for e, c in zip(cells, values) if c} or {cells[0]: 1}


@st.composite
def laurent_pairs(draw):
    k = draw(st.integers(1, 4))
    a, b = draw(laurent_terms(k)), draw(laurent_terms(k))
    return Ring(tuple(f"y{i}" for i in range(k))), a, b


def heap_oracle(ring, f, g):
    """f / g by the heap loop alone, on the operands divided by their lowest monomials."""
    flo, glo = [min(col) for col in zip(*f)], [min(col) for col in zip(*g)]
    try:
        quot = _heap_div(
            {tuple(x - a for x, a in zip(e, flo)): c for e, c in f.items()},
            {tuple(x - a for x, a in zip(e, glo)): c for e, c in g.items()},
        )
    except NonExactDivision:
        return None
    return {tuple(x + a - b for x, a, b in zip(e, flo, glo)): c for e, c in quot.items()}


@settings(max_examples=150, deadline=None)
@given(laurent_pairs())
def test_packed_product_matches_the_dict_loop(case):
    ring, a, b = case
    want = _dict_mul(a, b)
    got = _packed_mul(a, b)
    event("packed" if got is not None else "dict loop")
    assert got is None or got == want
    assert (Poly(ring, a) * Poly(ring, b)).terms == want


@settings(max_examples=150, deadline=None)
@given(laurent_pairs())
def test_packed_division_of_a_product_matches_the_heap_loop(case):
    ring, a, b = case
    f = _dict_mul(a, b)
    got = _packed_div(f, b)
    event("packed" if got is not None else "heap loop")
    assert got is None or got == a
    assert heap_oracle(ring, f, b) == a
    assert poly_exact_div(Poly(ring, f), Poly(ring, b)).terms == a


@settings(max_examples=150, deadline=None)
@given(laurent_pairs(), st.data())
def test_packed_division_refuses_a_perturbed_dividend(case, data):
    ring, a, b = case
    f = _dict_mul(a, b)
    cells = sorted(f) + [tuple(x + 1 for x in max(f)), tuple(x - 1 for x in min(f))]
    e = data.draw(st.sampled_from(cells))
    f[e] = f.get(e, 0) + data.draw(st.sampled_from([-3, -1, 1, 2]))
    f = {e: c for e, c in f.items() if c}
    if not f:
        return
    want = heap_oracle(ring, f, b)
    try:
        got = _packed_div(f, b)
    except NonExactDivision:
        got = "refused"
    event(f"oracle divides: {want is not None}; kernel: {'undecided' if got is None else got == 'refused' and 'refuses' or 'divides'}")
    if want is None:
        assert got in (None, "refused")
        with pytest.raises(NonExactDivision):
            poly_exact_div(Poly(ring, f), Poly(ring, b))
    else:
        # the perturbation left b | f (b a unit monomial, say)
        assert got in (None, want)


@settings(max_examples=20, deadline=None)
@given(
    k=st.integers(1, 4),
    power=st.integers(8, 9),
    n=st.integers(20, 26),
    sign=st.sampled_from([1, -1]),
    data=st.data(),
)
def test_packed_division_falls_back_past_the_injectivity_bound(k, power, n, sign, data):
    # f = (1 - y^n)^power (1 + ... + y^(n-1)) r, with r small and free of
    # y, is dense with small coefficients, but its quotient by
    # g = (1 - y)^power is (1 + ... + y^(n-1))^(power + 1) r, whose
    # coefficients pass 2^(W-1) for every such r
    ring = Ring(tuple(f"y{i}" for i in range(k)))
    v = data.draw(st.integers(0, k - 1))
    y = ring.monomial(tuple(int(i == v) for i in range(k)))
    r = data.draw(laurent_terms(k - 1, bits=st.just(1))) if k > 1 else {(): 1}
    r = Poly(ring, {e[:v] + (0,) + e[v:]: c for e, c in r.items()})
    geometric = sum((y**i for i in range(n)), ring.zero)
    f = (1 - y**n) ** power * geometric * r * sign
    g = (1 - y) ** power
    h = geometric ** (power + 1) * r * sign
    norm1 = lambda p: sum(map(abs, p.terms.values()))  # noqa: E731
    nb = _digit_bytes(norm1(f) * norm1(g))
    assert norm1(g) * max(map(abs, h.terms.values())) >= 1 << (8 * nb - 1)
    assert _packed_div(f.terms, g.terms) is None
    assert poly_exact_div(f, g) == h


def test_packed_division_falls_back_at_the_smallest_case_past_the_bound():
    # the property above at k = 1, power = 8, n = 20, r = 1, without a search
    ring = Ring(("y",))
    y = ring.var("y")
    geometric = sum((y**i for i in range(20)), ring.zero)
    f, g = (1 - y**20) ** 8 * geometric, (1 - y) ** 8
    assert _packed_div(f.terms, g.terms) is None
    assert poly_exact_div(f, g) == geometric**9


def test_packed_paths_are_taken_on_dense_operands():
    q, t = QT.var("q"), QT.var("t")
    a = sum((q**i * t**j * (i - 2 * j + 1) for i in range(6) for j in range(5)), QT.zero)
    b = (1 - q * t) * (1 + 3 * q + t) * (2 - t * t)
    ab = _packed_mul(a.terms, b.terms)
    assert ab is not None and ab == _dict_mul(a.terms, b.terms)
    assert _packed_div(ab, b.terms) == a.terms
    ab[(0, 0)] += 1
    with pytest.raises(NonExactDivision, match="remainder"):
        _packed_div(ab, b.terms)
    # sparse boxes take the loops
    assert _packed_div({(0, 0): 1, (40, 40): 1}, {(0, 0): 1}) is None


def test_packed_division_rejects_a_quotient_outside_the_box():
    # in the box of f = a + b^2 the position of b^3 is that of a, so
    # pack(1 + b) divides pack(f) with quotient pack(b^2), but b^2 leaves
    # the box of f less that of 1 + b, and indeed 1 + b does not divide f
    f, g = {(1, 0): 1, (0, 2): 1}, {(0, 0): 1, (0, 1): 1}
    assert _packed_div(f, g) is None
    with pytest.raises(NonExactDivision):
        poly_exact_div(Poly(QT, f), Poly(QT, g))


# -- division by the Vandermonde against the heap loop -----------------------


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 4), sign=st.sampled_from([1, -1]), data=st.data())
def test_delta_division_matches_the_heap_loop(n, sign, data):
    # f = sign Delta x^low h over x1..xn, t: h and low Laurent
    ring = xring(n, ("t",))
    k = len(ring)
    h = data.draw(laurent_terms(k, bits=st.sampled_from([1, 3, 40])))
    low = tuple(data.draw(st.integers(-3, 3)) for _ in range(k))
    den = vandermonde(n, ring) * ring.monomial(low) * sign
    g = SignedDelta(n, sign, low)
    f = Poly(ring, h) * den
    assert poly_exact_div(f, g).terms == h
    assert heap_oracle(ring, f.terms, den.terms) == h
    assert poly_exact_div(ring.zero, g) == ring.zero
    if n < 2:
        return  # den is a unit
    # one coefficient off by one: Delta divides no monomial
    e = data.draw(st.sampled_from(sorted(f.terms)))
    bumped = dict(f.terms)
    bumped[e] += data.draw(st.sampled_from([1, -1]))
    bumped = {e: c for e, c in bumped.items() if c}
    assert heap_oracle(ring, bumped, den.terms) is None
    with pytest.raises(NonExactDivision):
        poly_exact_div(Poly(ring, bumped), g)


# -- raw images over one Delta, against cross-multiplying ---------------------


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 4), data=st.data())
def test_same_image_matches_cross_multiplying_the_expanded_divisors(n, data):
    # a / da against b / db, both over Delta in x1..xn times Laurent monomials
    ring = xring(n, ("t",))
    k = len(ring)

    def divisor():
        low = tuple(data.draw(st.integers(-3, 3)) for _ in range(k))
        return SignedDelta(n, data.draw(st.sampled_from([1, -1])), low)

    def crossed(a, da, b, db):
        return a * expand(db, ring) == b * expand(da, ring)

    a = Poly(ring, data.draw(laurent_terms(k, bits=st.sampled_from([1, 3, 40]))))
    da, db = divisor(), divisor()
    c = Poly(ring, data.draw(laurent_terms(k, bits=st.just(1))))
    assert same_image(a, da, c, db) == crossed(a, da, c, db)
    # the image of a rewritten over db: b = s_a s_b x^(beta - alpha) a
    b = a * ring.monomial(tuple(y - x for x, y in zip(da.low, db.low)), da.sign * db.sign)
    assert same_image(a, da, b, db) and crossed(a, da, b, db)
    assert same_image(b, db, a, da)
    # one sign flipped, one entry of low shifted, one coefficient changed
    i = data.draw(st.integers(0, k - 1))
    shifted = list(db.low)
    shifted[i] += data.draw(st.sampled_from([1, -1]))
    e = data.draw(st.sampled_from(sorted(b.terms)))
    bumped = dict(b.terms)
    bumped[e] += data.draw(st.sampled_from([1, -1]))
    for b2, db2 in (
        (b, db._replace(sign=-db.sign)),
        (b, db._replace(low=tuple(shifted))),
        (ring.from_terms(bumped), db),
    ):
        assert not same_image(a, da, b2, db2) and not crossed(a, da, b2, db2)
    with pytest.raises(OutOfRange):
        same_image(a, da, b, SignedDelta(n + 1, db.sign, db.low))


# -- subs against evaluation at integer points ------------------------------


@st.composite
def substitutions(draw):
    """Laurent f, g over y0..y(k-1); images c y^b over a target ring; a point of the target.

    The target is the source ring, or the unmapped variables, z and some
    mapped ones in a drawn order.  c is +-1 where f or g has a negative
    power of the variable.
    """
    k = draw(st.integers(1, 3))
    src = Ring(tuple(f"y{i}" for i in range(k)))
    f, g = draw(laurent_terms(k, bits=st.just(3))), draw(laurent_terms(k, bits=st.just(3)))
    mapped = draw(st.lists(st.sampled_from(src.names), unique=True))
    if draw(st.booleans()):
        tgt = src
    else:
        kept = draw(st.lists(st.sampled_from(mapped), unique=True)) if mapped else []
        rest = [nm for nm in src.names if nm not in mapped]
        tgt = Ring(draw(st.permutations(rest + kept + ["z"])))
    images = {}
    for nm in mapped:
        i = src.pos(nm)
        low = min(e[i] for e in list(f) + list(g))
        c = draw(st.sampled_from([-1, 1]) if low < 0 else st.integers(-3, 3))
        images[nm] = tgt.monomial(tuple(draw(st.integers(-2, 2)) for _ in tgt.names), c)
    point = {nm: Fraction(draw(st.integers(-3, 3).filter(bool))) for nm in tgt.names}
    return src, tgt, Poly(src, f), Poly(src, g), images, point


def evaluate(p, point):
    return sum((c * prod(point[nm] ** x for nm, x in zip(p.ring.names, e)) for e, c in p.terms.items()), Fraction(0))


@settings(max_examples=200, deadline=None)
@given(substitutions())
def test_subs_is_evaluation_and_a_ring_map(case):
    src, tgt, f, g, images, point = case
    # each source variable's value at the point: its image's, or the value of its namesake
    values = {nm: evaluate(images[nm], point) if nm in images else point[nm] for nm in src.names}
    event("same ring" if tgt is src else "other ring")
    sf, sg = f.subs(images, tgt), g.subs(images, tgt)
    assert sf.ring is tgt
    assert evaluate(sf, point) == evaluate(f, values)
    assert (f * g).subs(images, tgt) == sf * sg
    assert (f + g).subs(images, tgt) == sf + sg
