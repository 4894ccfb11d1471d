"""Per-layer spans and work counters, installed on macops from outside.

``Tracer.install`` wraps the public entry points of each layer and rebinds
every module-level name in ``macops.*`` that refers to the original, so
calls that cross modules through ``from .rings import poly_exact_div`` go
through the wrapper as well. ``Poly.__rmul__`` is an alias of
``__mul__``; both are rebound to one wrapper. Nothing under ``src/`` is
edited.

Spans are kept in memory as ``(name, start, end, parent, n_in, n_out,
outer)`` with the list index as the span id; ``outer`` is false when an
enclosing span has the same name, so recursion is not counted twice in
inclusive time.
"""

from __future__ import annotations

import sys
from time import perf_counter

# span name -> (module, attribute)
FUNCTIONS = {
    "rings.exact_div": ("macops.rings", "poly_exact_div"),
    "rings.gcd": ("macops.rings", "poly_gcd"),
    "operators.apply": ("macops.operators", "apply_operator"),
    "bases.to_monomial": ("macops.bases", "to_monomial_basis"),
    "bases.change_basis": ("macops.bases", "change_basis"),
    "bases.big_schur": ("macops.bases", "expand_big_schur"),
    "bases.sym_to_xpoly": ("macops.bases", "sym_to_xpoly"),
    "macdonald.raising": ("macops.macdonald", "macdonald_J_raising"),
    "macdonald.eigen": ("macops.macdonald", "macdonald_P_eigen"),
    "macdonald.eigencheck": ("macops.macdonald", "full_eigencheck"),
    "macdonald.kostka": ("macops.macdonald", "kostka_matrix"),
    "macdonald.lowering": ("macops.macdonald", "lowering_verify"),
    "macdonald.triple": ("macops.macdonald", "triple_agreement"),
    "jack.jack_J": ("macops.jack", "jack_J"),
    "jack.check_limits": ("macops.jack", "jack_check_limits"),
    "jack.lowering": ("macops.jack", "jack_lowering_verify"),
    "identities.run_suite": ("macops.identities", "run_suite"),
    "cli": ("macops.cli", "main"),
}
MUL = "rings.mul"

# Metrics the traced run reports: name -> (unit, better).
METRICS = {
    "rings.mul.calls": ("count", "lower"),
    "rings.mul.terms_out": ("count", "lower"),
    "rings.mul.self_s": ("s", "lower"),
    "rings.exact_div.calls": ("count", "lower"),
    "rings.exact_div.terms_in": ("count", "lower"),
    "rings.exact_div.terms_out": ("count", "lower"),
    "rings.exact_div.self_s": ("s", "lower"),
    "rings.gcd.calls": ("count", "lower"),
    "rings.gcd.s": ("s", "lower"),
    "rings.gcd.trivial_ratio": ("ratio", "lower"),
    "operators.apply.calls": ("count", "lower"),
    "operators.apply.s": ("s", "lower"),
    "operators.apply.div_s": ("s", "lower"),
    "operators.apply.numerator_s": ("s", "lower"),
    "operators.apply.keep_ratio": ("ratio", "higher"),
    **{
        f"{layer}.{fn}.{stat}": ("count" if stat == "calls" else "s", "lower")
        for layer, fns in (
            ("bases", ("to_monomial", "change_basis", "big_schur", "sym_to_xpoly")),
            ("macdonald", ("raising", "eigen", "eigencheck", "kostka", "lowering", "triple")),
        )
        for fn in fns
        for stat in ("calls", "s")
    },
    "jack.jack_J.s": ("s", "lower"),
    "jack.check_limits.s": ("s", "lower"),
    "jack.lowering.s": ("s", "lower"),
    "identities.run_suite.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Deterministic work counts: equal on every run of the same request list.
COUNTERS = tuple(m for m in METRICS if m.endswith(".calls") or ".terms_" in m)


# Each measure returns (n_in, n_out) of a call that returned; n_out = -1
# drops the span from the counts (Poly.__mul__ returning NotImplemented).
def _measure_div(args, out):
    return len(args[0].terms), len(out.terms)


def _measure_gcd(args, out):
    return 0, int(out.is_const() and abs(out.const_value()) == 1)


def _measure_mul(args, out):
    return 0, (len(out.terms) if out is not NotImplemented else -1)


MEASURES = {"rings.exact_div": _measure_div, "rings.gcd": _measure_gcd}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}

    def wrap(self, name, fn, measure=None):
        spans, stack, depth = self.spans, self._stack, self._depth

        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            d = depth.get(name, 0)
            depth[name] = d + 1
            out = None
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = perf_counter()
                stack.pop()
                depth[name] = d
                n_in, n_out = measure(args, out) if measure and out is not None else (0, 0)
                spans[sid] = (name, start, end, parent, n_in, n_out, d == 0)

        return wrapper

    def install(self):
        """Wrap every traced entry point of the imported macops package."""
        from macops.rings import Poly

        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "macops" or n.startswith("macops."))
        ]
        for name, (modname, attr) in FUNCTIONS.items():
            orig = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(name, orig, MEASURES.get(name))
            for mod in modules:
                for k, v in list(vars(mod).items()):
                    if v is orig:
                        setattr(mod, k, wrapper)
        mul = self.wrap(MUL, Poly.__dict__["__mul__"], _measure_mul)
        Poly.__mul__ = mul
        Poly.__rmul__ = mul

    def write(self, path):
        """One tab-separated line per span: id, name, start, end, parent, n_in, n_out."""
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, n_in, n_out, _) in enumerate(self.spans):
                fh.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{n_in}\t{n_out}\n")


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced request list (all but trace.overhead_s)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict = {}
    incl: dict = {}
    self_s: dict = {}
    n_in: dict = {}
    n_out: dict = {}
    div_s = div_in = div_out = 0
    for sid, (name, start, end, parent, i, o, outer) in enumerate(spans):
        if o < 0:
            continue
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        if outer:
            incl[name] = incl.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child[sid]
        n_in[name] = n_in.get(name, 0) + i
        n_out[name] = n_out.get(name, 0) + o
        if name == "rings.exact_div" and parent >= 0 and spans[parent][0] == "operators.apply":
            div_s += dur
            div_in += i
            div_out += o
    apply_s = incl.get("operators.apply", 0.0)
    gcd_calls = calls.get("rings.gcd", 0)
    out = {
        "rings.mul.terms_out": n_out.get(MUL, 0),
        "rings.exact_div.terms_in": n_in.get("rings.exact_div", 0),
        "rings.exact_div.terms_out": n_out.get("rings.exact_div", 0),
        "rings.gcd.trivial_ratio": n_out.get("rings.gcd", 0) / gcd_calls if gcd_calls else 0.0,
        "operators.apply.div_s": div_s,
        "operators.apply.numerator_s": apply_s - div_s,
        "operators.apply.keep_ratio": div_out / div_in if div_in else 0.0,
    }
    for metric in METRICS:
        if metric in out or metric == "trace.overhead_s":
            continue
        span, stat = metric.rsplit(".", 1)
        if stat == "calls":
            out[metric] = calls.get(span, 0)
        elif stat == "s":
            out[metric] = incl.get(span, 0.0)
        elif stat == "self_s":
            out[metric] = self_s.get(span, 0.0)
        else:
            raise KeyError(metric)
    return out
