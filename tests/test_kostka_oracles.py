"""Known facts about the (q,t)-Kostka table, checked by code that shares nothing with macops.

Macdonald, Symmetric Functions and Hall Polynomials, VI.8: K_lam,mu(1,1)
is the number f^lam of standard tableaux, K_lam,mu(0,1) the number of
semistandard tableaux of shape lam and content mu, and K_lam,mu(0,t) the
Kostka-Foulkes polynomial, the charge generating function over those
tableaux (Lascoux-Schutzenberger; SFHP III.6).  Every coefficient is a
positive integer (Haiman, JAMS 2001).  The whole of every entry is
checked by the Haglund-Haiman-Loehr formula (J. Amer. Math. Soc. 18
(2005) 735-761), a sum over fillings of the diagram.  Partitions, hooks,
tableaux, charge and fillings are all rebuilt here independently; only
the table comes from ``kostka_matrix``.
"""

from functools import lru_cache
from math import factorial, prod

import pytest

from macops.macdonald import kostka_matrix

DEGREES = [1, 2, 3, 4, 5, 6, pytest.param(7, marks=pytest.mark.slow)]


def partitions(d, cap=None):
    if d == 0:
        yield ()
        return
    for first in range(min(d, cap or d), 0, -1):
        for rest in partitions(d - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def table(d):
    """{(lam, mu): {(q exponent, t exponent): coefficient}} for every pair."""
    mat = kostka_matrix(d, check_duality=True)
    shapes = [lam.parts for lam in mat.shapes]
    assert sorted(shapes) == sorted(partitions(d))
    return {
        (lam.parts, mu.parts): dict(mat.entry(lam, mu).terms)
        for lam in mat.shapes
        for mu in mat.shapes
    }


def hook_length_count(shape):
    cols = [sum(1 for row in shape if row > j) for j in range(shape[0])]
    hooks = prod(
        row - j + cols[j] - i - 1 for i, row in enumerate(shape) for j in range(row)
    )
    return factorial(sum(shape)) // hooks


def tableaux(shape, content):
    """Every semistandard filling of the shape with content, cell by cell in reading order."""
    cells = [(i, j) for i, row in enumerate(shape) for j in range(row)]
    left = list(content)
    fill = {}

    def rec(k):
        if k == len(cells):
            yield [[fill[i, j] for j in range(row)] for i, row in enumerate(shape)]
            return
        i, j = cells[k]
        for v in range(1, len(content) + 1):
            if not left[v - 1]:
                continue
            if (j and fill[i, j - 1] > v) or (i and fill[i - 1, j] >= v):
                continue
            left[v - 1] -= 1
            fill[i, j] = v
            yield from rec(k + 1)
            left[v - 1] += 1

    yield from rec(0)


def charge(word):
    """Charge of a word whose content is a partition.

    Split off standard subwords: from the right end, scan leftwards
    (cyclically) for 1, then 2, and so on.  Within one subword the index
    of 1 is 0 and rises by one each time the scan for the next letter
    wraps around; the charge is the sum of the indices.
    """
    word = list(word)
    total = 0
    while word:
        pos, index, picked = len(word), 0, []
        for letter in range(1, max(word) + 1):
            found = next((p for p in range(pos - 1, -1, -1) if word[p] == letter), None)
            if found is None:  # wrap around; never for 1, which starts at the right end
                found = max(p for p, w in enumerate(word) if w == letter)
                index += 1
            pos = found
            total += index
            picked.append(pos)
        word = [w for p, w in enumerate(word) if p not in picked]
    return total


def kostka_foulkes(shape, content):
    """{charge: count} over the tableaux, read row by row from the bottom."""
    out = {}
    for tab in tableaux(shape, content):
        c = charge([v for row in reversed(tab) for v in row])
        out[c] = out.get(c, 0) + 1
    return out


def test_charge_by_hand():
    assert charge([1, 2]) == 1 and charge([2, 1]) == 0
    assert charge([1, 1, 2]) == 1 and charge([2, 1, 1]) == 0
    assert charge([1, 2, 3]) == 3 and charge([3, 2, 1]) == 0
    # K_(2,2),(1^4)(t) = t^2 + t^4 (SFHP III.6 table)
    assert kostka_foulkes((2, 2), (1, 1, 1, 1)) == {2: 1, 4: 1}
    assert sum(1 for _ in tableaux((2, 1), (1, 1, 1))) == 2


@pytest.mark.parametrize("d", DEGREES)
def test_standard_tableaux_at_q1_t1(d):
    for (lam, mu), terms in table(d).items():
        assert sum(terms.values()) == hook_length_count(lam), (lam, mu)


@pytest.mark.parametrize("d", DEGREES)
def test_semistandard_tableaux_at_q0_t1(d):
    for (lam, mu), terms in table(d).items():
        at_q0 = sum(c for (qe, _), c in terms.items() if qe == 0)
        assert at_q0 == sum(1 for _ in tableaux(lam, mu)), (lam, mu)


@pytest.mark.parametrize("d", DEGREES)
def test_kostka_foulkes_by_charge_at_q0(d):
    for (lam, mu), terms in table(d).items():
        at_q0 = {te: c for (qe, te), c in terms.items() if qe == 0}
        assert at_q0 == kostka_foulkes(lam, mu), (lam, mu)


@pytest.mark.parametrize("d", DEGREES)
def test_every_coefficient_positive(d):
    for (lam, mu), terms in table(d).items():
        assert terms and all(c > 0 for c in terms.values()), (lam, mu)


def words(counts):
    """Every word with counts[v] letters v + 1, each once: the multiset permutations, built letter by letter."""
    counts, word, size = list(counts), [], sum(counts)

    def rec():
        if len(word) == size:
            yield tuple(word)
            return
        for v, c in enumerate(counts):
            if c:
                counts[v] -= 1
                word.append(v + 1)
                yield from rec()
                word.pop()
                counts[v] += 1

    yield from rec()


def hhl_statistics(mu):
    """The cells of mu's French diagram (row mu_1 at the bottom) in reading order, with HHL's data.

    Reading order runs through the rows top to bottom, left to right in a
    row.  Returns, indexed by reading position, the cell directly below
    (None in the bottom row), the leg and the arm, and the attacking pairs
    (a, b), a read before b: two cells of one row, or a in the row just
    above b and strictly right of it.
    """
    cells = [(r, c) for r in reversed(range(len(mu))) for c in range(mu[r])]
    at = {cell: k for k, cell in enumerate(cells)}
    below = [at.get((r - 1, c)) if r else None for r, c in cells]
    leg = [sum(1 for rr in range(r + 1, len(mu)) if mu[rr] > c) for r, c in cells]
    arm = [mu[r] - c - 1 for r, c in cells]
    pairs = [
        (a, b)
        for a, (ra, ca) in enumerate(cells)
        for b, (rb, cb) in enumerate(cells)
        if a < b and (ra == rb or (ra == rb + 1 and ca > cb))
    ]
    return below, leg, arm, pairs


def hhl_monomial_coefficient(mu, content):
    """{(q, t) exponents: count} of x^content in H~_mu = sum over fillings of q^inv t^maj x^filling.

    A descent is a cell whose entry exceeds the entry directly below it;
    maj sums leg + 1 over the descents, and inv counts the attacking pairs
    whose earlier cell holds the larger entry, minus the arms of the descents.
    """
    below, leg, arm, pairs = hhl_statistics(mu)
    out = {}
    for w in words(content):
        desc = [k for k, b in enumerate(below) if b is not None and w[k] > w[b]]
        maj = sum(leg[k] + 1 for k in desc)
        inv = sum(1 for a, b in pairs if w[a] > w[b]) - sum(arm[k] for k in desc)
        out[inv, maj] = out.get((inv, maj), 0) + 1
    return out


def test_hhl_by_hand():
    # H~_(2,1) = s_3 + (q + t) s_2,1 + q t s_1,1,1, so x^(1,1,1) gets 1 + 2 (q + t) + q t
    assert hhl_monomial_coefficient((2, 1), (3,)) == {(0, 0): 1}
    assert hhl_monomial_coefficient((2, 1), (2, 1)) == {(0, 0): 1, (1, 0): 1, (0, 1): 1}
    assert hhl_monomial_coefficient((2, 1), (1, 1, 1)) == {(0, 0): 1, (1, 0): 2, (0, 1): 2, (1, 1): 1}
    assert sum(1 for _ in words((2, 1, 1))) == 12


@pytest.mark.parametrize("d", DEGREES)
def test_haglund_haiman_loehr_fillings(d):
    # H~_mu = sum_lam K~_lam,mu s_lam with K~_lam,mu(q, t) = t^n(mu) K_lam,mu(q, 1/t),
    # compared on the coefficient of x^nu for every partition nu of d
    shapes = list(partitions(d))
    ssyt = {(lam, nu): sum(1 for _ in tableaux(lam, nu)) for lam in shapes for nu in shapes}
    for mu in shapes:
        n_mu = sum(i * part for i, part in enumerate(mu))
        for nu in shapes:
            want = {}
            for lam in (lam for lam in shapes if ssyt[lam, nu]):
                for (qe, te), c in table(d)[lam, mu].items():
                    key = (qe, n_mu - te)
                    want[key] = want.get(key, 0) + c * ssyt[lam, nu]
            assert hhl_monomial_coefficient(mu, nu) == want, (mu, nu)
