"""The benchmark's layer tracer must find every entry point it wraps."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import macops

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _functions():
    spec = importlib.util.spec_from_file_location("layertrace", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.FUNCTIONS


@pytest.mark.parametrize("span", sorted(_functions()))
def test_traced_entry_point_exists(span):
    modname, attr = _functions()[span]
    assert callable(getattr(importlib.import_module(modname), attr, None)), (span, modname, attr)


def test_importing_the_cli_loads_every_traced_module():
    # the benchmark worker imports only macops.cli, then Tracer.install looks
    # each traced module up in sys.modules: a module imported lazily is missing
    modules = sorted({modname for modname, _ in _functions().values()})
    src = str(Path(macops.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, macops.cli; print(*(m for m in sys.argv[1:] if m not in sys.modules))"
    done = subprocess.run([sys.executable, "-c", code, *modules], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert "macops.jack" in modules and "macops.identities" in modules  # the check sees them
    assert done.stdout.split() == [], f"not imported by macops.cli: {done.stdout.strip()}"
