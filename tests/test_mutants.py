"""Every planted bug of ``tests/mutants.py`` must make its named tests fail.

The slow tests copy ``src/`` once per entry, plant the entry in the copy
and run the entry's tests against it in a subprocess, one at a time; a
control run of every named test on an unplanted copy must pass.  Each
run is capped at MEMORY_CAP bytes of address space, so a planted bug that
loops while its memory grows ends in a MemoryError, which the report
records as a failure.  The fast tests check that every entry still plants
and that a stale one is refused.
"""

import os
import resource
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import macops
from mutants import MUTANTS, Mutant

SRC = Path(macops.__file__).resolve().parent.parent
ROOT = Path(__file__).resolve().parent.parent
# The control run of every named test peaks at about 80 MB resident and
# passes under a 128 MB cap (Python 3.11, x86-64 Linux); twice that
# leaves room, and ends the unbounded heap loop in about 5 s.
MEMORY_CAP = 256 << 20


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def copy_src(tmp: Path) -> Path:
    dest = tmp / "src"
    shutil.copytree(SRC, dest, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def plant(src: Path, mutant: Mutant) -> None:
    """Put the mutant's new text in place of its old one, which must occur exactly once."""
    path = src / "macops" / mutant.file
    text = path.read_text()
    found = text.count(mutant.old)
    if found != 1:
        raise AssertionError(f"stale mutant {mutant.name}: its old text occurs {found} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))


def failures(src: Path, ids, tmp: Path) -> dict:
    """{node id: whether it failed} of the named tests, run on the package at src."""
    report = tmp / "report.xml"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--junitxml={report}", *ids]
    subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=300, preexec_fn=_cap_memory)
    return {
        case.get("classname").replace(".", "/") + ".py::" + case.get("name"):
            case.find("failure") is not None or case.find("error") is not None
        for case in ET.parse(report).iter("testcase")
    }


def test_every_mutant_plants_once(tmp_path):
    assert len({m.name for m in MUTANTS}) == len(MUTANTS) >= 10
    for mutant in MUTANTS:
        assert mutant.tests, mutant.name
        plant(copy_src(tmp_path / mutant.name), mutant)


def test_a_stale_entry_fails_the_harness(tmp_path):
    src = copy_src(tmp_path)
    gone = Mutant("gone", "rings.py", "no such text", "", ("tests/test_rings.py::test_pow",))
    with pytest.raises(AssertionError, match="^stale mutant gone: its old text occurs 0 times in rings.py$"):
        plant(src, gone)
    twice = gone._replace(name="twice", old="def ")
    with pytest.raises(AssertionError, match="^stale mutant twice: its old text occurs [1-9][0-9]* times"):
        plant(src, twice)


@pytest.mark.slow
def test_control_run_passes(tmp_path):
    src = copy_src(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(src)}
    where = subprocess.run([sys.executable, "-c", "import macops; print(macops.__file__)"],
                           capture_output=True, text=True, env=env, cwd=ROOT)
    assert Path(where.stdout.strip()).is_relative_to(src), where  # the copy is the package under test
    ids = sorted({t for m in MUTANTS for t in m.tests})
    got = failures(src, ids, tmp_path)
    assert set(got) == set(ids), set(ids) ^ set(got)
    assert not any(got.values()), [t for t, bad in got.items() if bad]


@pytest.mark.slow
@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_is_killed(tmp_path, mutant):
    src = copy_src(tmp_path)
    plant(src, mutant)
    got = failures(src, mutant.tests, tmp_path)
    assert set(got) == set(mutant.tests), set(mutant.tests) ^ set(got)
    assert all(got.values()), [t for t, bad in got.items() if not bad]
