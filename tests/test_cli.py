"""CLI contract tests: frozen output bytes, exit codes, determinism."""

import json

import pytest

from macops.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_jpoly_single_column(capsys):
    code, out, _ = run(capsys, "jpoly", "--lambda", "1,1", "--nvars", "2")
    assert code == 0
    assert out == (
        "J[1,1] in 2 variables (raising_kplus)\n"
        "m[1,1] 1 - t - t^2 + t^3\n"
    )


def test_jpoly_empty_shape(capsys):
    code, out, _ = run(capsys, "jpoly", "--lambda", "0")
    assert code == 0
    assert out == "J[0] in 0 variables (raising_kplus)\nm[0] 1\n"


def test_jpoly_check_json(capsys):
    code, out, _ = run(
        capsys, "jpoly", "--lambda", "2", "--nvars", "2", "--check",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "jpoly"
    assert doc["params"] == {"lambda": [2], "nvars": 2, "via": "kplus"}
    assert doc["basis"] == "monomial"
    assert doc["coeffs"] == [
        {"partition": [2], "value": "1 - t - q*t + q*t^2"},
        {"partition": [1, 1], "value": "1 + q - 2*t - 2*q*t + t^2 + q*t^2"},
    ]
    assert doc["provenance"] == "raising_kplus"
    assert doc["check"] == "pass"


def test_jpoly_via_eigen_provenance(capsys):
    code, out, _ = run(
        capsys, "jpoly", "--lambda", "2", "--nvars", "2", "--via", "eigen",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["provenance"] == "eigen_oracle"


def test_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "jpoly", "--lambda", "2,1", "--nvars", "3", "--format", "json"
    )
    assert code == 0
    assert json.dumps(json.loads(out)) + "\n" == out


def test_deterministic_bytes(capsys):
    argv = ("ppoly", "--lambda", "2", "--nvars", "2", "--format", "json")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_ppoly_fraction_rendering(capsys):
    code, out, _ = run(
        capsys, "ppoly", "--lambda", "2", "--nvars", "2", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["coeffs"] == [
        {"partition": [2], "value": "1"},
        {"partition": [1, 1], "value": "(1 + q - t - q*t)/(1 - q*t)"},
    ]


def test_kostka_degree_one_json(capsys):
    code, out, _ = run(capsys, "kostka", "--degree", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["labels"] == [[1]]
    assert doc["matrix"] == [["1"]]


def test_kostka_degree_two_text(capsys):
    code, out, _ = run(capsys, "kostka", "--degree", "2", "--check-duality")
    assert code == 0
    assert out == (
        "kostka degree 2 in 2 variables (raising_kplus)\n"
        "shapes: (2) (1,1)\n"
        "[2] 1 t\n"
        "[1,1] q 1\n"
        "duality: pass\n"
    )


def test_jack_symbolic_and_numeric(capsys):
    code, out, _ = run(capsys, "jack", "--lambda", "2,1", "--check")
    assert code == 0
    assert out == (
        "Jack[2,1] (alpha=sym) in 3 variables (differential_recursion)\n"
        "m[2,1] 2 + a\n"
        "m[1,1,1] 6\n"
        "check: pass\n"
    )
    code, out, _ = run(
        capsys, "jack", "--lambda", "2", "--alpha", "2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["coeffs"] == [
        {"partition": [2], "value": "3"},
        {"partition": [1, 1], "value": "2"},
    ]


def test_apply_op_elementary(capsys):
    code, out, _ = run(
        capsys, "apply-op", "--kind", "raise_plus", "--m", "2",
        "--lambda", "0", "--nvars", "2",
    )
    assert code == 0
    assert out.splitlines()[1] == "m[1,1] 1 - t - t^2 + t^3"


def test_apply_op_eigen_factor(capsys):
    code, out, _ = run(
        capsys, "apply-op", "--kind", "macdonald_u", "--lambda", "1",
        "--nvars", "2", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["coeffs"] == [
        {"partition": [1], "value": "1 - u - q*t*u + q*t*u^2"}
    ]


def test_apply_op_rejects_nonpolynomial_output(capsys):
    code, _, err = run(
        capsys, "apply-op", "--kind", "lower_u_plus", "--m", "1",
        "--lambda", "0", "--nvars", "1",
    )
    assert code == 2
    assert "not a polynomial" in err


def test_apply_op_index_flag_rules(capsys):
    code, _, err = run(
        capsys, "apply-op", "--kind", "raise_plus", "--lambda", "1"
    )
    assert code == 2
    assert "needs --m" in err
    code, _, err = run(
        capsys, "apply-op", "--kind", "macdonald_u", "--m", "1", "--lambda", "1"
    )
    assert code == 2


def test_verify_suites_pass(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "kernel", "--n", "2", "--m", "2"
    )
    assert code == 0
    assert out.endswith("all pass (3 checks)\n")
    code, out, _ = run(
        capsys, "verify", "--suite", "raising", "--max-weight", "2",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert [r["shape"] for r in doc["records"]] == ["1", "2", "1,1"]
    assert doc["witness"] is None


def test_verify_failure_exits_one(capsys, monkeypatch):
    import macops.cli as cli
    from macops.errors import VerificationFailed

    def explode(lam, n):
        raise VerificationFailed("planted witness")

    monkeypatch.setattr(cli, "triple_agreement", explode)
    code, out, _ = run(capsys, "verify", "--suite", "raising", "--max-weight", "1")
    assert code == 1
    assert "FAIL: planted witness" in out


def test_check_mismatch_exits_three(capsys, monkeypatch):
    import macops.cli as cli
    from macops.errors import VerificationFailed

    def explode(lam, n):
        raise VerificationFailed("routes disagree")

    monkeypatch.setattr(cli, "triple_agreement", explode)
    code, _, err = run(capsys, "jpoly", "--lambda", "1", "--check")
    assert code == 3
    assert "routes disagree" in err


@pytest.mark.parametrize(
    "error",
    [
        "NotDivisible",
        "NegativeExponent",
        "CellOutsideDiagram",
        "SpecializationRequired",
    ],
)
def test_other_package_errors_exit_three(capsys, monkeypatch, error):
    import macops.cli as cli
    import macops.errors as errors

    def explode(lam, n):
        raise getattr(errors, error)("planted")

    monkeypatch.setattr(cli, "triple_agreement", explode)
    code, out, err = run(capsys, "jpoly", "--lambda", "1", "--check")
    assert code == 3
    assert out == ""
    assert err == "error: planted\n"


@pytest.mark.parametrize("suite", ["kernel", "schur-action"])
def test_identity_groups_refuse_zero_variables(capsys, suite):
    code, out, err = run(capsys, "verify", "--suite", suite, "--n", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("--suite", "commute", "--n", "0"),
        ("--suite", "kostka", "--max-weight", "0"),
        ("--suite", "raising", "--max-weight", "0"),
        ("--suite", "eigen", "--max-weight", "0"),
        ("--suite", "e-identities", "--n", "0"),
        ("--suite", "duality", "--max-weight", "-1"),
        ("--suite", "duality", "--n", "0"),
        ("--suite", "jack", "--n", "0"),
        ("--suite", "lowering", "--n", "0"),
    ],
)
def test_selections_that_check_nothing_are_refused(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_duality_builds_each_reference_operator_once(capsys, monkeypatch):
    import macops.macdonald as mac

    built = []
    real = mac.build

    def counting(spec, n):
        built.append((spec.kind, spec.index, n))
        return real(spec, n)

    monkeypatch.setattr(mac, "build", counting)
    mac._dual_plus.cache_clear()
    code, out, _ = run(capsys, "verify", "--suite", "duality")
    assert code == 0
    assert out.endswith("all pass (28 checks)\n")
    assert sorted(built) == [("raise_plus", m, 3) for m in range(4)]


def test_ppoly_computes_no_gcd(capsys, monkeypatch):
    import macops.rings as rings

    calls = []
    real = rings.poly_gcd

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(rings, "poly_gcd", counting)
    code, out, _ = run(capsys, "ppoly", "--lambda", "3,2,1", "--nvars", "6", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["coeffs"]) == 6
    assert calls == []
    rings.Frac(rings.QT.var("q"), rings.QT.var("t"))  # the counter does see Frac's gcd
    assert calls == [1]


def test_duality_mismatch_exits_one(capsys, monkeypatch):
    import macops.macdonald as mac
    from macops.errors import VerificationFailed
    from macops.partitions import Partition

    real = mac._dual_plus
    monkeypatch.setattr(mac, "_dual_plus", lambda m, n: real(m, n).scaled(2))
    with pytest.raises(VerificationFailed, match=r"^duality m=0 on m\[0\] \(n=1\)$"):
        mac.duality_verify(Partition(()), 0, 1)
    code, out, _ = run(capsys, "verify", "--suite", "duality", "--max-weight", "0")
    assert code == 1
    assert out.endswith("FAIL: duality m=0 on m[0] (n=3)\n")


def test_commute_mismatch_exits_one(capsys, monkeypatch):
    import macops.macdonald as mac
    from macops.errors import VerificationFailed
    from macops.partitions import Partition

    real = mac.apply_operator

    def crooked(spec, f, n, raw=False):
        # adds e_1 to every image of the order-0 operator, the identity
        out = real(spec, f, n, raw)
        if spec.index == 0:
            out = out + sum((f.ring.var(f"x{i}") for i in range(1, n + 1)), f.ring.zero)
        return out

    monkeypatch.setattr(mac, "apply_operator", crooked)
    with pytest.raises(VerificationFailed, match=r"^commutator \[0,1\] on m\[0\] \(n=1\)$"):
        list(mac.commute_verify(Partition(()), 1))
    code, out, _ = run(capsys, "verify", "--suite", "commute", "--max-weight", "0")
    assert code == 1
    assert out.endswith("FAIL: commutator [0,1] on m[0] (n=3)\n")


def test_invalid_inputs_exit_two(capsys):
    assert run(capsys, "jpoly", "--lambda", "x,y")[0] == 2
    assert run(capsys, "jpoly", "--lambda", "1,2")[0] == 2
    assert run(capsys, "kostka", "--degree", "0")[0] == 2
    assert run(capsys, "verify", "--suite", "gossip")[0] == 2
    assert run(capsys, "jack", "--lambda", "1", "--alpha", "-3")[0] == 2
    assert run(capsys, "jpoly", "--lambda", "1,1,1", "--nvars", "2")[0] == 2


def test_weight_cap_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("MACOPS_MAX_WEIGHT", "2")
    code, _, err = run(capsys, "jpoly", "--lambda", "2,1")
    assert code == 2
    assert "MACOPS_MAX_WEIGHT" in err
    monkeypatch.setenv("MACOPS_MAX_WEIGHT", "soon")
    assert run(capsys, "jpoly", "--lambda", "1")[0] == 2


def test_usage_errors_exit_two(capsys):
    assert main(["jpoly", "--badflag"]) == 2
    assert main(["nope"]) == 2
    assert main([]) == 2
