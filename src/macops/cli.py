"""Command-line surface: expansions, Kostka tables, limits, verification.

Output is deterministic: canonical coefficient strings, partitions listed
largest-first in reverse-lexicographic order, and JSON documents whose
key order never varies.  Exit codes: 0 success, 1 a verification suite
found a counterexample, 2 invalid input, 3 an internal cross-check or
integrality guarantee failed, or any other package error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from math import comb, factorial
from typing import NamedTuple

from .bases import expand_monomial, render_coeff, schur_to_monomial, to_monomial_basis
from .errors import (
    LengthExceedsVars,
    MacopsError,
    NonExactDivision,
    NotSymmetric,
    OutOfRange,
    VerificationFailed,
)
from .identities import run_suite
from .jack import LIMIT_ALPHAS, jack_check_limits, jack_J, jack_lowering_verify
from .macdonald import (
    commute_verify,
    default_nvars,
    duality_verify,
    full_eigencheck,
    kostka_matrix,
    lowering_verify,
    macdonald_J,
    macdonald_P_eigen,
    triple_agreement,
)
from .operators import (
    ALL_KINDS,
    _NEEDS_INDEX,
    OperatorSpec,
    _check_index,
    apply_operator,
    operator_ring,
)
from .partitions import parse_partition, partitions_up_to
from .rings import ALPHA

DEFAULT_CAP = 12
# apply-op expands x-polynomials: each shift's coefficient holds a t-shifted
# Vandermonde of n! terms, so the numerator costs about shifts x n! x (input
# monomials) term products, while the division by Delta is linear in the
# terms per factor.  cmd_apply_op refuses a request estimated at more term
# products than this (a few seconds of work on a 2-core machine).
APPLY_OP_BUDGET = 2_000_000


class Suite(NamedTuple):
    """What one verify suite accepts; None in weights or m refuses that flag."""
    weights: tuple[int, int] | None = (0, 3)  # first weight checked, default top weight
    n: int | None = None  # default n; None takes one n per shape
    m: int | None = None  # least --m; --m is also at most the suite's n, when it has one
    max_n: int | None = None  # largest --n: under a minute at every admitted weight, 2 cores
    n_covers_top: bool = False  # --n must be at least the top weight
    checks: tuple[str, ...] = ()  # the identity suites of a group


VERIFY = {
    "raising": Suite(weights=(1, 4)),
    "lowering": Suite(m=0),
    "eigen": Suite(weights=(1, 3)),
    "kostka": Suite(weights=(1, 3), n_covers_top=True),
    "duality": Suite(n=3, m=0, max_n=5),
    "commute": Suite(n=3, max_n=5),
    "jack": Suite(),
    "e-identities": Suite(weights=None, n=3, m=0, max_n=6, checks=(
        "elementary_product", "elementary_u_product", "elementary_u_slice", "generator_on_one")),
    "kernel": Suite(weights=None, n=2, m=1, max_n=3, checks=(
        "kernel_swap", "kernel_reduction_plus", "kernel_reduction_minus")),
    "schur-action": Suite(weights=None, n=2, max_n=5, checks=(
        "schur_action_raise", "schur_action_raise_comp", "schur_action_lower")),
}


def _cap() -> int:
    raw = os.environ.get("MACOPS_MAX_WEIGHT")
    if raw is None:
        return DEFAULT_CAP
    try:
        val = int(raw)
    except ValueError:
        raise OutOfRange(f"MACOPS_MAX_WEIGHT must be an integer, got {raw!r}")
    if val < 0:
        raise OutOfRange("MACOPS_MAX_WEIGHT must be nonnegative")
    return val


def _check_cap(weight: int, what: str = "weight"):
    cap = _cap()
    if weight > cap:
        raise OutOfRange(
            f"{what} {weight} exceeds the cap {cap} (MACOPS_MAX_WEIGHT)"
        )


def _coeff_records(sym) -> list[dict]:
    return [
        {"partition": list(lam.parts), "value": render_coeff(c)}
        for lam, c in sym.items()
    ]


def _emit_poly(args, command: str, params: dict, sym, provenance: str, check, label: str) -> None:
    if args.format == "json":
        doc = {
            "command": command,
            "params": params,
            "basis": "monomial",
            "coeffs": _coeff_records(sym),
            "provenance": provenance,
            "check": check,
        }
        print(json.dumps(doc))
        return
    print(f"{label} in {sym.nvars} variables ({provenance})")
    for lam, c in sym.items():
        print(f"m[{lam.render()}] {render_coeff(c)}")
    if check is not None:
        print(f"check: {check}")


# -- polynomial commands --------------------------------------------------


def cmd_poly(args) -> int:
    """jpoly prints the integral form J, ppoly the monic form P."""
    which = args.command
    lam = parse_partition(args.shape)
    n = args.nvars if args.nvars is not None else lam.weight
    if n < 0:
        raise OutOfRange("negative variable count")
    _check_cap(lam.weight)
    if args.check:
        triple_agreement(lam, n)
        check = "pass"
    else:
        check = None
    res = macdonald_J(lam, n, via=args.via)
    sym = res.J if which == "jpoly" else res.P
    head = "J" if which == "jpoly" else "P"
    params = {"lambda": list(lam.parts), "nvars": n, "via": args.via}
    _emit_poly(
        args, which, params, sym, res.provenance, check,
        f"{head}[{lam.render()}]",
    )
    return 0


def cmd_kostka(args) -> int:
    if args.degree < 1:
        raise OutOfRange("degree must be at least 1")
    _check_cap(args.degree, "degree")
    mat = kostka_matrix(
        args.degree, nvars=args.nvars, check_duality=args.check_duality
    )
    check = "pass" if args.check_duality else None
    labels = [list(lam.parts) for lam in mat.shapes]
    rows = [
        [mat.entry(lam, mu).render() for mu in mat.shapes] for lam in mat.shapes
    ]
    if args.format == "json":
        doc = {
            "command": "kostka",
            "params": {"degree": mat.degree, "nvars": mat.nvars},
            "labels": labels,
            "matrix": rows,
            "provenance": "raising_kplus",
            "check": check,
        }
        print(json.dumps(doc))
        return 0
    print(f"kostka degree {mat.degree} in {mat.nvars} variables (raising_kplus)")
    print("shapes: " + " ".join(f"({lam.render()})" for lam in mat.shapes))
    for lam, row in zip(mat.shapes, rows):
        print(f"[{lam.render()}] " + " ".join(row))
    if check is not None:
        print(f"duality: {check}")
    return 0


def cmd_jack(args) -> int:
    lam = parse_partition(args.shape)
    n = args.nvars if args.nvars is not None else lam.weight
    if n < 0:
        raise OutOfRange("negative variable count")
    _check_cap(lam.weight)
    if args.alpha != "sym":
        try:
            val = int(args.alpha)
        except ValueError:
            raise OutOfRange(f"alpha must be 'sym' or a positive integer, got {args.alpha!r}")
        if val < 1:
            raise OutOfRange("alpha must be positive")
    else:
        val = None
    if args.check:
        jack_check_limits(lam, n)
        check = "pass"
    else:
        check = None
    sym = schur_to_monomial(jack_J(lam, n).coeffs, n)
    if val is not None:
        sym = sym.map_coeffs(lambda c: c.subs({"a": ALPHA.const(val)}))
    params = {"lambda": list(lam.parts), "nvars": n, "alpha": args.alpha}
    _emit_poly(
        args, "jack", params, sym, "differential_recursion", check,
        f"Jack[{lam.render()}] (alpha={args.alpha})",
    )
    return 0


# -- operator application -------------------------------------------------


def cmd_apply_op(args) -> int:
    kind = args.kind
    if kind in _NEEDS_INDEX:
        if args.m is None:
            raise OutOfRange(f"kind {kind!r} needs --m")
        spec = OperatorSpec(kind, args.m)
    else:
        if args.m is not None:
            raise OutOfRange(f"kind {kind!r} does not take --m")
        spec = OperatorSpec(kind)
    lam = parse_partition(args.shape)
    n = args.nvars if args.nvars is not None else max(lam.weight, 1)
    _check_cap(lam.weight)
    if lam.length > n:
        raise LengthExceedsVars(f"{lam.render()} needs more than {n} variables")
    if args.m is None:
        shifts = 2**n
    else:
        _check_index(args.m, n)
        ks = [args.m] if kind == "macdonald_r" else range(args.m + 1)
        shifts = sum(comb(n, k) for k in ks)
    monomials = comb(lam.weight + n - 1, n - 1) if n else 1
    cost = shifts * factorial(n) * monomials
    if cost > APPLY_OP_BUDGET:
        raise OutOfRange(
            f"apply-op {kind} on m[{lam.render()}] in {n} variables would take about "
            f"{cost} term products ({shifts} shifts x {n}! Vandermonde terms x "
            f"{monomials} monomials of degree {lam.weight}), over the bound "
            f"{APPLY_OP_BUDGET}; use fewer variables"
        )
    ring = operator_ring(n, kind)
    f = expand_monomial(lam, n, ring=ring)
    try:
        out = apply_operator(spec, f, n)
        sym = to_monomial_basis(out, n)
    except (NonExactDivision, NotSymmetric) as exc:
        raise OutOfRange(
            f"output of {kind} on m[{lam.render()}] is not a polynomial "
            f"in x; only polynomial outputs can be printed ({exc})"
        )
    shown_m = args.m if args.m is not None else ""
    params = {"kind": kind, "m": args.m, "lambda": list(lam.parts), "nvars": n}
    _emit_poly(
        args, "apply-op", params, sym, "operator_engine", None,
        f"{kind}[{shown_m}] m[{lam.render()}]",
    )
    return 0


# -- verification ---------------------------------------------------------


def _verify_iter(suite: str, n: int | None, m: int | None, maxw: int | None):
    """Check the suite's flags, then run its checks and yield one record per check that passed.

    Every verify record is written here; a failing check raises and ends the run.
    """
    row = VERIFY[suite]
    first, top = row.weights or (None, None)
    top = top if maxw is None else maxw
    nv = row.n if n is None else n
    for flag, value, lo, hi in (
        ("--max-weight", maxw, first, None),
        ("--n", n, top if row.n_covers_top else 1, row.max_n),
        ("--m", m, row.m, nv),
    ):
        if value is None:
            continue
        if lo is None:
            raise OutOfRange(f"suite {suite!r} takes no {flag}")
        if value < lo or (hi is not None and value > hi):
            bound = f"{flag} >= {lo}" if hi is None else f"{lo} <= {flag} <= {hi}"
            raise OutOfRange(f"suite {suite!r} needs {bound}; got {flag} {value}")
    if suite == "raising":
        for lam in partitions_up_to(top, n, 1):
            nv = n if n is not None else default_nvars(lam)
            triple_agreement(lam, nv)
            yield {"check": "raising", "shape": lam.render(), "nvars": nv}
    elif suite == "lowering":
        for lam in partitions_up_to(top, n):
            nv = n if n is not None else max(lam.length + 1, 2)
            hi = min(nv, lam.length + 1) if m is None else m
            lo = lam.length if m is None else m
            for mm in range(lo, hi + 1):
                if not lam.length <= mm <= nv:
                    continue
                for kind in ("mplus", "mminus"):
                    scale = lowering_verify(lam, mm, nv, kind=kind)
                    yield {"check": "lowering", "kind": kind, "shape": lam.render(), "m": mm,
                           "nvars": nv, "scale": scale.render()}
    elif suite == "eigen":
        for lam in partitions_up_to(top, n, 1):
            nv = n if n is not None else default_nvars(lam)
            full_eigencheck(lam, nv, macdonald_P_eigen(lam, nv).schur)
            yield {"check": "eigencheck", "shape": lam.render(), "nvars": nv}
    elif suite == "kostka":
        for d in range(1, top + 1):
            mat = kostka_matrix(d, nvars=n, check_duality=True)
            yield {"check": "kostka", "degree": d, "nvars": mat.nvars}
    elif suite == "duality":
        for lam in partitions_up_to(top, nv):
            for mm in range(0, nv + 1) if m is None else [m]:
                duality_verify(lam, mm, nv)
                yield {"check": "duality", "shape": lam.render(), "m": mm, "nvars": nv}
    elif suite == "commute":
        for lam in partitions_up_to(top, nv):
            for r, s in commute_verify(lam, nv):
                yield {"check": "commute", "shape": lam.render(), "r": r, "s": s, "nvars": nv}
    elif suite == "jack":
        for lam in partitions_up_to(top, n):
            nv = n if n is not None else default_nvars(lam)
            jack_check_limits(lam, nv)
            yield {"check": "jack_limit", "shape": lam.render(), "nvars": nv, "alphas": LIMIT_ALPHAS}
            for mm in range(lam.length, min(nv, lam.length + 1) + 1):
                scale = jack_lowering_verify(lam, mm, nv)
                yield {"check": "jack_lowering", "shape": lam.render(), "m": mm, "nvars": nv,
                       "scale": scale.render()}
    else:
        for name in row.checks:
            run_suite(name, nv, m)
            yield {"suite": name, "nvars": nv}


def cmd_verify(args) -> int:
    if args.max_weight is not None:
        _check_cap(args.max_weight, "max weight")
    records = []
    witness = None
    try:
        for rec in _verify_iter(args.suite, args.nvars, args.m, args.max_weight):
            records.append({**rec, "status": "pass"})
    except VerificationFailed as exc:
        witness = str(exc)
    status = "pass" if witness is None else "fail"
    if args.format == "json":
        doc = {
            "command": "verify",
            "params": {
                "suite": args.suite,
                "nvars": args.nvars,
                "m": args.m,
                "max_weight": args.max_weight,
            },
            "records": records,
            "status": status,
            "witness": witness,
        }
        print(json.dumps(doc))
    else:
        for rec in records:
            parts = " ".join(f"{k}={v}" for k, v in rec.items() if k != "status")
            print(f"{rec['status']} {parts}")
        if witness is None:
            print(f"all pass ({len(records)} checks)")
        else:
            print(f"FAIL: {witness}")
    return 0 if witness is None else 1


# -- parser ---------------------------------------------------------------


def _add_common(sub, with_via: bool = False):
    sub.add_argument("--lambda", dest="shape", default="0",
                     help="partition as comma-separated parts, 0 for empty")
    sub.add_argument("--nvars", type=int, default=None)
    if with_via:
        sub.add_argument("--via", choices=("kplus", "kminus", "eigen"),
                         default="kplus")
        sub.add_argument("--check", action="store_true",
                         help="cross-check all three routes")
    sub.add_argument("--format", choices=("json", "text"), default="text")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="macops",
        description="exact raising/lowering operator calculus",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    jp = subs.add_parser("jpoly", help="integral form in the monomial basis")
    _add_common(jp, with_via=True)
    jp.set_defaults(fn=cmd_poly)

    pp = subs.add_parser("ppoly", help="monic form in the monomial basis")
    _add_common(pp, with_via=True)
    pp.set_defaults(fn=cmd_poly)

    ko = subs.add_parser("kostka", help="two-parameter Kostka matrix")
    ko.add_argument("--degree", type=int, required=True)
    ko.add_argument("--nvars", type=int, default=None)
    ko.add_argument("--check-duality", action="store_true")
    ko.add_argument("--format", choices=("json", "text"), default="text")
    ko.set_defaults(fn=cmd_kostka)

    ja = subs.add_parser("jack", help="one-parameter limit polynomial")
    _add_common(ja)
    ja.add_argument("--alpha", default="sym",
                    help="'sym' for the symbolic parameter or a positive integer")
    ja.add_argument("--check", action="store_true",
                    help="compare against the substitution limit")
    ja.set_defaults(fn=cmd_jack)

    ve = subs.add_parser("verify", help="run a verification suite")
    ve.add_argument("--suite", choices=VERIFY, required=True)
    ve.add_argument("--nvars", "--n", dest="nvars", type=int, default=None)
    ve.add_argument("--m", type=int, default=None)
    ve.add_argument("--max-weight", dest="max_weight", type=int, default=None)
    ve.add_argument("--format", choices=("json", "text"), default="text")
    ve.set_defaults(fn=cmd_verify)

    ap = subs.add_parser("apply-op", help="apply one operator to a monomial input")
    ap.add_argument("--kind", choices=ALL_KINDS, required=True)
    ap.add_argument("--m", type=int, default=None)
    _add_common(ap)
    ap.set_defaults(fn=cmd_apply_op)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.fn(args)
    except (OutOfRange, LengthExceedsVars, NotSymmetric) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MacopsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
