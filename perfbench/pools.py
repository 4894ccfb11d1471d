"""Request pools of the three benchmark workloads and the seeded request lists.

A pool is a fixed list of CLI argument vectors. Every request asks for
``--format json`` and passes ``--nvars`` explicitly where the command's
cost depends on it (see NOTES.md for why the CLI default is avoided).
"""

from __future__ import annotations

import random

WORKLOADS = ("jpoly", "kostka", "verify")

VERIFY_SUITES = (
    ("raising", "--max-weight", "4"),
    ("eigen", "--max-weight", "4"),
    ("lowering",),
    ("jack", "--max-weight", "4"),
    ("duality",),
    ("commute",),
    ("e-identities",),
    ("kernel",),
    ("schur-action", "--n", "3"),
    ("kostka",),
)


def partitions(d: int, cap: int | None = None):
    """Partitions of d as tuples, largest part first."""
    if d == 0:
        yield ()
        return
    for p in range(min(d, d if cap is None else cap), 0, -1):
        for rest in partitions(d - p, p):
            yield (p,) + rest


def pool(workload: str) -> list[tuple[str, ...]]:
    if workload == "jpoly":
        out = []
        for w in range(1, 7):
            for lam in partitions(w):
                base = max(len(lam), 2)
                for n in (base, base + 1) if w <= 5 else (base,):
                    for cmd in ("jpoly", "ppoly"):
                        for via in ("kplus", "kminus"):
                            out.append((
                                cmd, "--lambda", ",".join(map(str, lam)),
                                "--nvars", str(n), "--via", via,
                                "--format", "json",
                            ))
        return out
    if workload == "kostka":
        out = []
        for d in (2, 3, 4):
            base = ("kostka", "--degree", str(d), "--nvars", str(d))
            out.append(base + ("--format", "json"))
            out.append(base + ("--check-duality", "--format", "json"))
        out.append(("kostka", "--degree", "3", "--nvars", "4", "--format", "json"))
        return out
    if workload == "verify":
        return [("verify", "--suite") + s + ("--format", "json") for s in VERIFY_SUITES]
    raise ValueError(f"unknown workload {workload!r}")


def request_list(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The whole pool in a seeded order.

    Every seed does the same work; only the order, and with it which
    request meets a cold cache, changes.
    """
    order = pool(workload)
    random.Random(seed).shuffle(order)
    return order


def key(argv) -> str:
    """The digest-table key of one request."""
    return " ".join(argv)
