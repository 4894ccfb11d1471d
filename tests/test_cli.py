"""CLI contract tests: frozen output bytes, exit codes, determinism."""

import ast
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import macops
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


def test_apply_op_refuses_past_its_cost_bound(capsys):
    start = time.perf_counter()
    code, out, err = run(
        capsys, "apply-op", "--kind", "lower_plus", "--m", "1",
        "--lambda", "2,1", "--nvars", "8",
    )
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == (
        "error: apply-op lower_plus on m[2,1] in 8 variables would take about "
        "43545600 term products (9 shifts x 8! Vandermonde terms x 120 monomials "
        "of degree 3), over the bound 2000000; use fewer variables\n"
    )


# sha256 of stdout, generated before the coefficient engine replaced the
# x-level column removers, eigencheck and Jack operators
PINNED_STDOUT = {
    ("jack", "--lambda", "3,2,1", "--format", "json"):
        "2d14052d75d017ca565014558aaabf9fe358a36a93c1c7b789db6826602240e4",
    ("verify", "--suite", "lowering", "--max-weight", "4", "--format", "json"):
        "114c2dbae3a54bcee849be465309604f9ba41283ec4dec761fcf80a82c64d3df",
    ("apply-op", "--kind", "lower_plus", "--m", "1", "--lambda", "2,1", "--nvars", "4", "--format", "json"):
        "a3283fc0304e3c889f4382718d3670bbed7014f3f8c9c38c424cab3776a3047f",
    # weight 10 in 10 variables, from before the packed products
    ("jpoly", "--lambda", "4,3,2,1", "--format", "json"):
        "c01427a5b6f0f0c33b4c93f5b4e3e65fc1aee8883b5fc7bc5524efe625a6da4e",
    ("ppoly", "--lambda", "4,3,2,1", "--format", "json"):
        "b4c439590ff3e8eba131d5e1a54e7f1bf5a5c44fa94ef9bf6a28e629bb201b01",
    # from before the duality check compared images instead of operators
    ("verify", "--suite", "duality", "--n", "4", "--format", "json"):
        "b870f7c22db386375ca7408e61cc367a49cfdb8a9670100cd76359cb788ea9e9",
    # from before the derived kinds were built from the u kinds and D_r
    ("apply-op", "--kind", "raise_gen_minus", "--lambda", "2,1", "--nvars", "3", "--format", "json"):
        "b26ebdc0990364d170fe64a0fe03be5ca9867c8a7f39509236db28e3eddd7aad",
    ("apply-op", "--kind", "raise_minus", "--m", "2", "--lambda", "2,1", "--nvars", "3", "--format", "json"):
        "42b6a293c3d4429c01b3c54ec6683a81eeeb85932e29f40434ced7bc124ceb53",
    ("apply-op", "--kind", "macdonald_u", "--lambda", "2,1", "--nvars", "3", "--format", "json"):
        "55b4072acb9afc946bd2af44d7cd3406b6431e3138fefe0a64a48d23282a28e8",
    ("apply-op", "--kind", "raise_u_plus", "--m", "2", "--lambda", "2,1", "--nvars", "3", "--format", "json"):
        "2e4b20206e506d57888b13ce4db8c2eaca44b53ed5dcf18b658a8c1f0110275e",
    # from before the lowering generators' images were divided by Delta
    ("verify", "--suite", "schur-action", "--n", "3", "--format", "json"):
        "3dde3cb902f1d4270631144ccecb49df2cdedb20f220d444f2061bbd68fa451e",
    ("verify", "--suite", "schur-action", "--n", "4", "--format", "json"):
        "651a0bdfad9c307935c9eedb71c9c74790648622f3f96470731de2538941fbc6",
    # from before duality and commute ran on the coefficient engine
    ("verify", "--suite", "commute", "--n", "4", "--format", "json"):
        "f5507b27726be568f7aaa948d9930d38939bd90b04dfcbe014ddc68a92c6c320",
    ("verify", "--suite", "duality", "--n", "5", "--format", "json"):
        "3c899c0ac7e58930bac4693ac169abb4880d4c9a6be242f2851168be80c48387",
    ("verify", "--suite", "commute", "--n", "5", "--format", "json"):
        "e73a1e9247160d4ec95e0a8006a2bfc8222a82feafe5b32be2d1534065e56d58",
    # the kostka and jack branches of verify, which no other test runs
    ("verify", "--suite", "kostka", "--max-weight", "2", "--format", "json"):
        "8aee2bdbdd3c955b9a4a2be8bda7f9630963cd75977d458798f5fcd64bb3e4d3",
    ("verify", "--suite", "jack", "--max-weight", "2", "--format", "json"):
        "79944dd8dda5886d2950e14a8c9efbad2737ed0018016937222c3373d6f13a07",
    # from before one column recursion, one eigenvalue formula, one kernel term and one suite record
    ("verify", "--suite", "e-identities", "--n", "4", "--format", "json"):
        "e42718c301714939d34e4a4e5ab300951e88839afa88698ea0a7f1ab4ca58617",
    ("verify", "--suite", "kernel", "--n", "3", "--format", "json"):
        "b6186c5e17a3422a29b46812011591cafd4a3195e282cbec4ba3992908b65dc2",
    ("verify", "--suite", "kernel", "--n", "3"):
        "7188bf25ec726c973b63f9b3b3adebae2e8af2f366d087b177700fea02ccef2c",
    ("verify", "--suite", "eigen", "--max-weight", "6", "--format", "json"):
        "76868f3a33ef525cfa27e11c3e08970a92264abb6588dc101052c02e81724fc3",
    ("jack", "--lambda", "4,2", "--check", "--format", "json"):
        "5aa12bc91ff20ab86073a17d0d733cde2ea2d84e95276d762b272193cec008b3",
    ("ppoly", "--lambda", "3,2", "--via", "eigen", "--format", "json"):
        "1c2ef3511ff4b18d3e33e56b46a49131d6f5cd49e5afdbc7d01b727c5ea7da56",
    ("jpoly", "--lambda", "3,2,1", "--via", "eigen", "--check", "--format", "json"):
        "d1444c15e9e705e6fb688d43ebc11f46d421fcdad18014edb1a37142f30dcc22",
    # from before P was reduced by c_lambda's factors alone and cli wrote every verify record
    ("ppoly", "--lambda", "3,3,1", "--via", "kminus", "--format", "json"):
        "0182553d1b8b10686740d7d9efce0a9e9ed30f109da6159152a66e85bc46dce1",
    ("ppoly", "--lambda", "5,2,1,1", "--nvars", "5", "--format", "json"):
        "69804982f5ad092060d7bebd8d04347b64dfd27ebea58289d65a5b0a9ba501f1",
    ("ppoly", "--lambda", "2,2,2,1,1", "--nvars", "6", "--via", "eigen", "--format", "json"):
        "8533f34308b67756f232d541635dc54714ae6453f52b42ffbfdac45743a11de2",
    ("verify", "--suite", "jack", "--max-weight", "2"):
        "73797a34f1698745aa1df83984c03cbb4cb48588720656c0e3d01de2c7354a16",
    ("verify", "--suite", "lowering", "--max-weight", "2"):
        "34a4c0d889a3a318f3cdf2e3f71304f5c6ead9fde36e2282b9045527764a27af",
}


@pytest.mark.parametrize("argv", list(PINNED_STDOUT), ids=lambda a: " ".join(a))
def test_stdout_is_pinned(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[argv]


def test_jack_in_nine_variables_is_quick(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "jack", "--lambda", "2,1", "--nvars", "9")
    assert time.perf_counter() - start < 10
    assert code == 0
    assert out == (
        "Jack[2,1] (alpha=sym) in 9 variables (differential_recursion)\n"
        "m[2,1] 2 + a\n"
        "m[1,1,1] 6\n"
    )


def test_jpoly_in_ten_variables_is_quick(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "jpoly", "--lambda", "4,3,2,1")
    assert time.perf_counter() - start < 1
    assert code == 0
    assert out.startswith("J[4,3,2,1] in 10 variables (raising_kplus)\n")


def test_python_dash_m_runs_the_cli():
    src = str(Path(macops.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "macops"]
    done = subprocess.run(argv + ["jpoly", "--lambda", "1,1", "--nvars", "2"], capture_output=True, text=True, env=env)
    assert done.returncode == 0
    assert done.stdout == "J[1,1] in 2 variables (raising_kplus)\nm[1,1] 1 - t - t^2 + t^3\n"
    done = subprocess.run(argv + ["jpoly", "--lambda", "x"], capture_output=True, text=True, env=env)
    assert done.returncode == 2 and done.stdout == "" and done.stderr.startswith("error: ")


def test_package_imports_only_the_standard_library():
    # every coefficient is an int, so not even fractions is needed
    imported = set()
    for path in sorted(Path(macops.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert {"heapq", "argparse"} <= imported  # the walk does see the imports
    assert imported <= sys.stdlib_module_names, imported - sys.stdlib_module_names
    assert "fractions" not in imported


def test_the_package_defines_no_name_of_the_test_oracles():
    # a test oracle defined in the package would be a second production route
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    oracles = {
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    assert {"build", "dualize", "equals", "plus_ones"} <= oracles  # the walk does see them
    defined = set()
    for path in sorted(Path(macops.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
    assert not oracles & defined, sorted(oracles & defined)


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
    code, out, _ = run(capsys, "verify", "--suite", "duality")
    assert code == 0
    assert out.endswith("all pass (28 checks)\n")
    code, out, _ = run(
        capsys, "verify", "--suite", "raising", "--max-weight", "2",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert [r["shape"] for r in doc["records"]] == ["1", "2", "1,1"]
    assert doc["witness"] is None
    # shapes longer than --n are skipped, as the other suites skip them
    for suite in ("raising", "eigen"):
        code, out, _ = run(
            capsys, "verify", "--suite", suite, "--n", "1", "--max-weight", "2",
            "--format", "json",
        )
        assert code == 0
        assert [r["shape"] for r in json.loads(out)["records"]] == ["1", "2"]


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
        ("--suite", "lowering", "--m", "-1"),
        ("--suite", "lowering", "--n", "1", "--m", "2"),
        ("--suite", "kernel", "--m", "9"),
        ("--suite", "kernel", "--n", "3", "--m", "4"),
        ("--suite", "duality", "--m", "9"),
        ("--suite", "duality", "--m", "-1"),
        ("--suite", "e-identities", "--m", "9"),
        ("--suite", "e-identities", "--m", "-1"),
        ("--suite", "raising", "--m", "1"),
        ("--suite", "eigen", "--m", "1"),
        ("--suite", "kostka", "--m", "1"),
        ("--suite", "commute", "--m", "1"),
        ("--suite", "jack", "--m", "0"),
        ("--suite", "schur-action", "--m", "1"),
        ("--suite", "raising", "--n", "0"),
        ("--suite", "eigen", "--n", "0"),
        ("--suite", "kostka", "--n", "2"),
        ("--suite", "kostka", "--n", "3", "--max-weight", "4"),
        ("--suite", "kernel", "--max-weight", "9"),
        ("--suite", "schur-action", "--max-weight", "1"),
        ("--suite", "e-identities", "--max-weight", "0"),
        # one past the largest n of each x-level suite
        ("--suite", "kernel", "--n", "4"),
        ("--suite", "duality", "--n", "6"),
        ("--suite", "commute", "--n", "6"),
        ("--suite", "schur-action", "--n", "6"),
        ("--suite", "e-identities", "--n", "7"),
    ],
)
def test_selections_that_check_nothing_are_refused(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", *argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"suite {argv[1]!r}" in err
    assert any(flag in err for flag in argv[2::2])


def test_ppoly_computes_no_gcd(capsys, monkeypatch):
    import macops.rings as rings
    from oracles import lowest_terms

    calls = []
    real = rings.poly_gcd

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(rings, "poly_gcd", counting)
    code, out, _ = run(capsys, "ppoly", "--lambda", "3,2,1", "--nvars", "6", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["coeffs"]) == 6
    for argv in (  # one request of every other command
        ("jpoly", "--lambda", "3,2", "--via", "eigen", "--check"),
        ("kostka", "--degree", "4", "--check-duality"),
        ("jack", "--lambda", "3,1", "--check"),
        ("verify", "--suite", "kostka", "--max-weight", "3"),
        ("apply-op", "--kind", "raise_plus", "--m", "1", "--lambda", "2,1", "--nvars", "3"),
    ):
        assert run(capsys, *argv)[0] == 0, argv
    assert calls == []
    lowest_terms(rings.QT.var("q"), rings.QT.var("t"))  # the counter does see the oracle's gcd
    assert calls == [1]


@pytest.mark.parametrize(
    "suite, checker, check",
    [
        ("lowering", "lowering_verify", "lowering"),
        ("duality", "duality_verify", "duality"),
        ("commute", "commute_verify", "commute"),
        ("jack", "jack_check_limits", "jack_limit"),
        ("jack", "jack_lowering_verify", "jack_lowering"),
        ("raising", "triple_agreement", "raising"),
        ("kernel", "run_suite", None),  # an identity record names its suite, not a check
    ],
)
def test_a_run_that_fails_at_its_kth_check_prints_the_records_before_it(capsys, monkeypatch, suite, checker, check):
    import macops.cli as cli
    from macops.errors import VerificationFailed

    argv = ("verify", "--suite", suite, "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    full = json.loads(out)["records"]
    k = 2
    # the k-th record that the checker writes is the first one left out
    cut = [i for i, rec in enumerate(full) if rec.get("check") == check][k - 1]
    real, calls = getattr(cli, checker), []

    def fail_at_k():
        calls.append(1)
        if len(calls) == k:
            raise VerificationFailed("planted")

    def planted(*args, **kwargs):
        fail_at_k()
        return real(*args, **kwargs)

    def planted_pairs(*args):
        for pair in real(*args):
            fail_at_k()
            yield pair

    monkeypatch.setattr(cli, checker, planted_pairs if suite == "commute" else planted)
    code, out, _ = run(capsys, *argv)
    assert code == 1
    doc = json.loads(out)
    assert doc["records"] == full[:cut]
    assert (doc["status"], doc["witness"]) == ("fail", "planted")


def test_duality_mismatch_exits_one(capsys, monkeypatch):
    import macops.macdonald as mac
    from macops.errors import VerificationFailed
    from macops.partitions import Partition

    real = mac.apply_symmetric

    def crooked(kind, m, F):
        # doubles every image of the plus adder
        out = real(kind, m, F)
        return out.map_coeffs(lambda c: c * 2) if kind == "raise_plus" else out

    monkeypatch.setattr(mac, "apply_symmetric", crooked)
    with pytest.raises(
        VerificationFailed, match=r"^duality m=0 on s\[0\] \(n=1\) at s\[0\]: minus 1, dual_plus 2$"
    ):
        mac.duality_verify(Partition(()), 0, 1)
    code, out, _ = run(capsys, "verify", "--suite", "duality", "--max-weight", "0")
    assert code == 1
    assert out.endswith("FAIL: duality m=0 on s[0] (n=3) at s[0]: minus 1, dual_plus 2\n")


def test_commute_mismatch_exits_one(capsys, monkeypatch):
    import macops.macdonald as mac
    from macops.bases import SymPoly
    from macops.errors import VerificationFailed
    from macops.partitions import Partition
    from macops.rings import QT

    real, one = mac.apply_symmetric, Partition((1,))

    def crooked(kind, m, F):
        # adds s[1] to every image of the order-0 operator, the identity
        out = real(kind, m, F)
        if m == 0:
            out = SymPoly(F.nvars, {**out.coeffs, one: out.coeffs.get(one, QT.zero) + 1})
        return out

    monkeypatch.setattr(mac, "apply_symmetric", crooked)
    with pytest.raises(
        VerificationFailed, match=r"^commutator \[0,1\] on s\[0\] \(n=1\) at s\[1\]: rs 1, sr q$"
    ):
        list(mac.commute_verify(Partition(()), 1))
    code, out, _ = run(capsys, "verify", "--suite", "commute", "--max-weight", "0")
    assert code == 1
    assert out.endswith("FAIL: commutator [0,1] on s[0] (n=3) at s[1]: rs 1, sr 1 + t + q*t^2\n")


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
