"""Thin pytest wrappers over the identity suites, plus the kernel helper."""

import pytest

import macops.identities as ids
from macops.errors import IdentityFailed, OutOfRange
from macops.cli import VERIFY
from macops.identities import SUITES, kernel_F, run_suite, xyring


SINGLE = (
    "elementary_product",
    "elementary_u_product",
    "elementary_u_slice",
    "generator_on_one",
)
TWO_ALPHABET = (
    "kernel_swap",
    "kernel_reduction_plus",
    "kernel_reduction_minus",
)
SCHUR = (
    "schur_action_raise",
    "schur_action_raise_comp",
    "schur_action_lower",
)


@pytest.mark.parametrize("name", SINGLE)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_single_alphabet_suites(name, n):
    run_suite(name, n)


@pytest.mark.parametrize("name", TWO_ALPHABET)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_two_alphabet_suites(name, n):
    run_suite(name, n)


@pytest.mark.parametrize("name", SCHUR)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_schur_action_suites(name, n):
    run_suite(name, n)


def test_single_column_choice():
    # fixing m runs just that slice of the loop
    run_suite("kernel_swap", 3, m=2)
    run_suite("elementary_product", 4, m=3)


def test_registry_is_complete():
    assert set(SUITES) == set(SINGLE) | set(TWO_ALPHABET) | set(SCHUR)
    with pytest.raises(OutOfRange):
        run_suite("kernel_gossip", 2)


def test_verify_groups_hold_every_suite_once():
    # the verify rows' checks and the suite registry name the same suites,
    # and no suite runs in two groups
    grouped = [name for row in VERIFY.values() for name in row.checks]
    assert len(grouped) == len(set(grouped)), grouped
    assert set(grouped) == set(SUITES)


def test_kernel_reduction_minus_shifts_the_complement(monkeypatch):
    # at n = 2, m = 1 only the minus adder's I = {} term shifts both x's
    real, seen = ids._kernel_term, []
    monkeypatch.setattr(ids, "_kernel_term", lambda ring, scale, first, second, chosen: (
        seen.append(chosen), real(ring, scale, first, second, chosen))[1])
    for name, both in (("kernel_reduction_plus", False), ("kernel_reduction_minus", True)):
        seen.clear()
        run_suite(name, 2, m=1)
        assert (frozenset({"x1", "x2"}) in seen) == both, name


def test_kernel_smallest_case():
    num, den = kernel_F(1, 1)
    ring = num.ring
    x, y, t, u = (ring.var(v) for v in ("x1", "y1", "t", "u"))
    assert den == 1  # the kernel product is left out of both sides
    assert num == (1 - t * x * y) - u * (1 - x * y)


@pytest.mark.parametrize("n", [2, 3])
def test_kernel_swap_catches_a_wrong_u_shift(monkeypatch, n):
    # the kernel product is left out of den; the swap law must still fail
    # when the swapped side scales its u argument by one power of t too many
    kernel = ids.kernel_F
    monkeypatch.setattr(
        ids, "kernel_F",
        lambda n, m, swapped=False, u_tpow=0: kernel(n, m, swapped, u_tpow + swapped),
    )
    with pytest.raises(IdentityFailed, match=f"^kernel_swap: n={n} m=1$"):
        run_suite("kernel_swap", n)


def test_kernel_rejects_empty_alphabets():
    with pytest.raises(OutOfRange):
        kernel_F(0, 1)
    with pytest.raises(OutOfRange):
        kernel_F(2, 0)


def test_xyring_names():
    ring = xyring(2, 3)
    assert ring.names == ("x1", "x2", "y1", "y2", "y3", "t", "u")


def test_failure_is_loud(monkeypatch):
    monkeypatch.setattr(ids, "pochhammer_t", lambda a, k: a.ring.zero + 7)
    with pytest.raises(IdentityFailed):
        run_suite("kernel_swap", 2)


@pytest.mark.parametrize("name", ["kernel_reduction_plus", "kernel_reduction_minus"])
def test_kernel_reduction_failure_names_the_suite(monkeypatch, name):
    real = ids._kernel_sum
    monkeypatch.setattr(ids, "_kernel_sum", lambda *args: real(*args) + 1)
    with pytest.raises(IdentityFailed, match=f"^{name}: n=2 m=1$"):
        run_suite(name, 2)


@pytest.mark.parametrize("name", SCHUR)
def test_schur_action_failure_names_the_suite(monkeypatch, name):
    real = ids.apply_factorized_qt
    monkeypatch.setattr(ids, "apply_factorized_qt", lambda kind, n, f: real(kind, n, f) + 1)
    with pytest.raises(IdentityFailed, match=f"^{name}: .*shape=0 n=2$"):
        run_suite(name, 2)


def test_generator_on_one_checks_only_the_chosen_slice(monkeypatch):
    # a planted error in the v^1 slice of the plus adder's image on 1
    real = ids.apply_operator

    def crooked(spec, f, n):
        out = real(spec, f, n)
        return out + out.ring.var("v") if spec.kind == "raise_gen_plus" else out

    monkeypatch.setattr(ids, "apply_operator", crooked)
    with pytest.raises(IdentityFailed, match="^generator_on_one: plus m=1 n=3$"):
        run_suite("generator_on_one", 3, m=1)
    run_suite("generator_on_one", 3, m=2)
    with pytest.raises(IdentityFailed, match="^generator_on_one: plus n=3$"):
        run_suite("generator_on_one", 3)


@pytest.mark.parametrize("name", SINGLE + TWO_ALPHABET + SCHUR)
def test_empty_alphabet_is_refused(name):
    with pytest.raises(OutOfRange):
        run_suite(name, 0)
