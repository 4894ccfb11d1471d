"""Planted bugs, each of which the tests it names must catch.

An entry names a file under ``src/macops``, a text that occurs there
exactly once, the text to put in its place, and the pytest node ids that
must then fail.  ``tests/test_mutants.py`` plants one entry at a time in a
copy of ``src/`` and runs its tests against the copy:

    python3 -m pytest -m slow tests/test_mutants.py

A refactor that moves or rewrites a planted line makes its entry stale,
and the harness fails until the entry is updated.

Choose an entry's tests by planting it and running each test file on its
own under the harness's memory cap (``failures`` in ``test_mutants.py``
with one file as the id), not by one run of the whole suite: a planted
loop that grows memory ends that run at its first MemoryError, and the
report then holds no outcome for any later test.  List tests that fail
for the bug itself, and for a shared builder at least one whose other
side is built without it.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


ACC = "tests/test_acceptance.py::test_criterion_"
PIN = "tests/test_cli.py::test_stdout_is_pinned"

MUTANTS = (
    Mutant(
        "eigenvalue_t_power_above_order_one", "partitions.py",
        "e = (sum(lam.part(i) for i in S), sum(n - i for i in S))",
        "e = (sum(lam.part(i) for i in S), sum(n - i + (r > 1) for i in S))",
        (ACC + "04_eigen_equations_symbolic",
         "tests/test_macdonald.py::test_eigencheck_passes_and_detects_tampering",
         "tests/test_partitions.py::test_eigenvalue_is_the_generating_series_coefficient"),
    ),
    Mutant(
        "column_recursion_tallest_first", "macdonald.py",
        "    for m in conjugate_columns(lam):",
        "    for m in reversed(conjugate_columns(lam)):",
        (ACC + "03_kostka_integrality_duality_and_gate",
         ACC + "07_lowering_theorem",
         ACC + "09_jack_limits",
         "tests/test_jack.py::test_jack_J_matches_the_x_level_recursion",
         "tests/test_jack.py::test_small_shapes_match_hand_values",
         "tests/test_jack.py::test_leading_coefficient_is_hook_product",
         "tests/test_jack.py::test_limits_agree_up_to_weight_four",
         "tests/test_jack.py::test_lowering_scales",
         "tests/test_jack.py::test_lowering_failure_names_the_first_wrong_monomial"),
    ),
    Mutant(
        "column_recursion_misses_one_below_zero", "macdonald.py",
        "            if min(map(min, c.terms)) < 0:",
        "            if min(map(min, c.terms)) < -1:",
        ("tests/test_macdonald.py::test_raising_refuses_a_negative_exponent",
         "tests/test_macdonald.py::test_column_recursion_refuses_a_negative_exponent_in_every_variable[a]"),
    ),
    Mutant(
        "kernel_term_t_squared", "identities.py",
        "(1 - t * fa * fb)",
        "(1 - t * t * fa * fb)",
        (ACC + "05_identity_suites",
         "tests/test_identities.py::test_two_alphabet_suites[2-kernel_swap]",
         "tests/test_identities.py::test_two_alphabet_suites[2-kernel_reduction_plus]",
         "tests/test_identities.py::test_two_alphabet_suites[2-kernel_reduction_minus]"),
    ),
    Mutant(
        "kernel_reduction_minus_without_complement", "identities.py",
        "a, S = (mm - k, _comp(I, n)) if minus else (k, I)",
        "a, S = (mm - k, I) if minus else (k, I)",
        (ACC + "05_identity_suites",
         "tests/test_identities.py::test_two_alphabet_suites[2-kernel_reduction_minus]",
         "tests/test_identities.py::test_two_alphabet_suites[3-kernel_reduction_minus]",
         "tests/test_identities.py::test_kernel_reduction_minus_shifts_the_complement"),
    ),
    Mutant(
        # the suite runs, and passes, as the plus suite under the minus name
        "kernel_reduction_minus_bound_as_plus", "identities.py",
        '"kernel_reduction_minus", minus=True)',
        '"kernel_reduction_minus", minus=False)',
        ("tests/test_identities.py::test_kernel_reduction_minus_shifts_the_complement",),
    ),
    Mutant(
        # the chosen-first crossing factor t x_i - x_j becomes x_i - t x_j;
        # the oracle's build and tshift_delta do not use the builder
        "cross_product_t_on_the_other_variable", "bases.py",
        "((t * xa - xb) if a_in else (xa - t * xb))",
        "((xa - t * xb) if a_in else (xa - t * xb))",
        (ACC + "06_determinantal_and_factorized_routes",
         "tests/test_operators.py::test_cross_cleared_bridge",
         "tests/test_operators.py::test_plan_equals_the_literal_build",
         "tests/test_operators.py::test_production_matches_built_form",
         "tests/test_identities.py::test_single_alphabet_suites[2-elementary_u_slice]"),
    ),
    Mutant(
        "suite_record_nvars_off_by_one", "cli.py",
        'yield {"suite": name, "nvars": nv}',
        'yield {"suite": name, "nvars": nv + 1}',
        (PIN + "[verify --suite schur-action --n 3 --format json]",
         PIN + "[verify --suite schur-action --n 4 --format json]",
         PIN + "[verify --suite e-identities --n 4 --format json]",
         PIN + "[verify --suite kernel --n 3]"),
    ),
    Mutant(
        "verify_status_text", "cli.py",
        'records.append({**rec, "status": "pass"})',
        'records.append({**rec, "status": "passed"})',
        (PIN + "[verify --suite jack --max-weight 2]",
         PIN + "[verify --suite lowering --max-weight 2]",
         PIN + "[verify --suite kernel --n 3 --format json]"),
    ),
    Mutant(
        "raise_minus_t_power", "operators.py",
        "QT.monomial((-b, i - n)) - QT.monomial((0, m - n + 1))",
        "QT.monomial((-b, i - n + 1)) - QT.monomial((0, m - n + 1))",
        (ACC + "01_raising_recursions_match_oracle",
         ACC + "08_duality_by_application",
         PIN + "[verify --suite duality --n 4 --format json]"),
    ),
    Mutant(
        "d_r_divisor_sign", "operators.py",
        "return QDiffOp(ring, n, terms, SignedDelta(n, 1, (0,) * len(ring)))",
        "return QDiffOp(ring, n, terms, SignedDelta(n, -1, (0,) * len(ring)))",
        (ACC + "06_determinantal_and_factorized_routes",
         "tests/test_operators.py::test_plan_equals_the_literal_build",
         "tests/test_operators.py::test_production_matches_built_form"),
    ),
    Mutant(
        "specialized_minus_t_power", "operators.py",
        'low[ring.pos("t")] += base + (_binom2(n - m) if kind.endswith("minus") else 0)',
        'low[ring.pos("t")] += base + (_binom2(n - m) + 1 if kind.endswith("minus") else 0)',
        ("tests/test_operators.py::test_plan_equals_the_literal_build",
         "tests/test_operators.py::test_production_matches_built_form"),
    ),
    Mutant(
        "schur_rows_drops_the_arrangement_sign", "operators.py",
        "                    total[e] = total.get(e, 0) + sign * x",
        "                    total[e] = total.get(e, 0) + x",
        (ACC + "01_raising_recursions_match_oracle",
         ACC + "10_operator_commutativity",
         "tests/test_jack.py::test_engine_matches_the_x_level_oracle_on_every_monomial[2]"),
    ),
    Mutant(
        "duality_scale_sign", "macdonald.py",
        "scale = QT.monomial((lam.weight, m + _binom2(m)), -1 if m % 2 else 1)",
        "scale = QT.monomial((lam.weight, m + _binom2(m)), 1 if m % 2 else -1)",
        (ACC + "08_duality_by_application",
         PIN + "[verify --suite duality --n 4 --format json]"),
    ),
    Mutant(
        # the product skips the zero parts, so a short shape's scalar is not
        # zero (one for the empty shape) and the law refuses it
        "lowering_zero_clause_scalar_one", "partitions.py",
        "for i in range(1, m + 1):",
        "for i in range(1, min(m, lam.length) + 1):",
        ("tests/test_partitions.py::test_lowering_coeff_golden",
         "tests/test_macdonald.py::test_lowering_zero_clause",
         ACC + "07_lowering_theorem",
         PIN + "[verify --suite lowering --max-weight 2]",
         PIN + "[verify --suite lowering --max-weight 4 --format json]"),
    ),
    Mutant(
        "p_without_the_cell_sign", "macdonald.py",
        "sign = -1 if self.shape.weight % 2 else 1",
        "sign = 1",
        ("tests/test_macdonald.py::test_P_reduction_matches_gcd_oracle",
         PIN + "[ppoly --lambda 3,3,1 --via kminus --format json]",
         PIN + "[ppoly --lambda 5,2,1,1 --nvars 5 --format json]"),
    ),
    Mutant(
        # K_(2,1),(2,1) = 1 + q t becomes 1 + 2 q t, which keeps the q <-> t duality
        "kostka_entry_one_coefficient_off", "macdonald.py",
        "entries.update(((lam, mu), c) for lam, c in column.items())",
        "entries.update(((lam, mu), c + QT.monomial((1, 1)) * (lam == mu == Partition((2, 1))))"
        " for lam, c in column.items())",
        ("tests/test_kostka_oracles.py::test_haglund_haiman_loehr_fillings[3]",
         "tests/test_kostka_oracles.py::test_standard_tableaux_at_q1_t1[3]",
         "tests/test_macdonald.py::test_kostka_degree_three_duality_and_expansion"),
    ),
    Mutant(
        "bar_fixes_t", "macdonald.py",
        'bar = {"q": QT.var("q", -1), "t": QT.var("t", -1)}',
        'bar = {"q": QT.var("q", -1), "t": QT.var("t")}',
        (ACC + "08_duality_by_application",
         PIN + "[verify --suite duality --n 4 --format json]"),
    ),
    Mutant(
        "linear_div_ignores_the_remainder", "rings.py",
        '    if acc:\n        raise NonExactDivision(f"nonzero remainder by',
        '    if False:\n        raise NonExactDivision(f"nonzero remainder by',
        ("tests/test_rings.py::test_delta_division_matches_the_heap_loop",),
    ),
    Mutant(
        # without it the heap loop never ends on a dividend that g does not
        # divide; the harness's memory cap turns that into a MemoryError
        "heap_div_without_the_leading_term_test", "rings.py",
        '        if any(x < 0 for x in qe):\n            raise NonExactDivision("leading term not divisible")',
        '        if False:\n            raise NonExactDivision("leading term not divisible")',
        ("tests/test_rings.py::test_exact_div_failure",),
    ),
    Mutant(
        "frac_by_factors_keeps_every_factor", "rings.py",
        "den = den * f ** (k - r)",
        "den = den * f ** k",
        ("tests/test_rings.py::test_frac_by_factors_matches_gcd_reduction",
         "tests/test_partitions.py::test_reduction_needs_the_cyclotomic_split",
         "tests/test_macdonald.py::test_P_reduction_matches_gcd_oracle",
         "tests/test_cli.py::test_ppoly_fraction_rendering"),
    ),
    Mutant(
        "packed_div_without_the_injectivity_bound", "rings.py",
        "    if gnorm * max(map(abs, out.values())) >= 1 << (8 * nb - 1):\n        return None\n",
        "",
        ("tests/test_rings.py::test_packed_division_falls_back_at_the_smallest_case_past_the_bound",),
    ),
    Mutant(
        "kostka_numbers_strip_keeps_a_cell", "bases.py",
        "for x in range(max(low, shape[i] - left), shape[i] + 1):",
        "for x in range(max(low, shape[i] - left), shape[i]):",
        ("tests/test_bases.py::test_kostka_numbers_by_hand",
         "tests/test_bases.py::test_schur_to_monomial_matches_the_bialternant[2]",
         "tests/test_operators.py::test_column_adder_matches_operator_on_every_monomial[2]",
         ACC + "01_raising_recursions_match_oracle"),
    ),
    Mutant(
        "class_weights_z_without_the_factorial", "bases.py",
        "z *= part**m * factorial(m)",
        "z *= part**m",
        (ACC + "03_kostka_integrality_duality_and_gate",
         "tests/test_bases.py::test_change_basis_roundtrip",
         "tests/test_kostka_oracles.py::test_standard_tableaux_at_q1_t1[4]"),
    ),
    Mutant(
        # every s_lam column counts each m_nu of its Kostka row once; the
        # routes all share the columns, the x-level references do not
        "schur_column_kostka_multiplicity_one", "operators.py",
        "col.setdefault(v, []).append((k, c))",
        "col.setdefault(v, []).append((1, c))",
        (ACC + "01_raising_recursions_match_oracle",
         "tests/test_operators.py::test_column_adder_matches_operator_on_every_monomial[3]",
         "tests/test_jack.py::test_engine_matches_the_x_level_oracle_on_every_monomial[3]",
         "tests/test_macdonald.py::test_first_operator_matrix_against_the_expansion"),
    ),
    Mutant(
        "eigen_top_schur_coefficient_negated", "macdonald.py",
        "coeffs: dict[Partition, Poly] = {lam: c_integral(lam)}",
        "coeffs: dict[Partition, Poly] = {lam: -c_integral(lam)}",
        (ACC + "01_raising_recursions_match_oracle",
         "tests/test_macdonald.py::test_row_two_eigen_oracle",
         "tests/test_macdonald.py::test_triple_agreement_small_shapes"),
    ),
    Mutant(
        "cli_package_error_exits_two", "cli.py",
        '    except MacopsError as exc:\n        print(f"error: {exc}", file=sys.stderr)\n        return 3',
        '    except MacopsError as exc:\n        print(f"error: {exc}", file=sys.stderr)\n        return 2',
        ("tests/test_cli.py::test_check_mismatch_exits_three",
         "tests/test_cli.py::test_other_package_errors_exit_three[NotDivisible]"),
    ),
)
