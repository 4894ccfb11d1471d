"""The benchmark's layer tracer must find every entry point it wraps."""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
