"""The planted faults of ``tests/mutants.py`` stay current: each edit applies, and its killers exist.

``tests/mutants.py`` runs every mutant's tests (minutes); these checks read the files alone, so a
mutant gone stale after a source or test edit fails here in well under a second.
"""

from __future__ import annotations

import ast
import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tests" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def _test_functions(path: Path) -> set[str]:
    return {node.name for node in ast.parse(path.read_text()).body if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[m.name for m in mutants.MUTANTS])
def test_mutant_applies_once_and_names_existing_tests(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests
    for test in mutant.tests:
        path, _, function = test.partition("::")
        assert (ROOT / path).is_file(), test
        if function:  # a parametrized id's brackets name a case of the function
            assert function.split("[")[0] in _test_functions(ROOT / path), test


def test_a_failing_baseline_names_its_failing_tests(capsys, monkeypatch):
    # the unchanged code's run fails: its FAILED line is printed, and no mutant is tried
    failed = "FAILED tests/test_cli.py::test_verify_dp_scan_byte_identical - assert 0 == 1"
    ran = []

    def pytest_run(workdir, tests, *flags):
        ran.append(flags)
        return subprocess.CompletedProcess([], 1, f"F.\n{failed}\n1 failed, 1 passed in 0.1s\n", "")

    monkeypatch.setattr(mutants, "_pytest", pytest_run)
    assert mutants.main() == 2
    first, *summary = capsys.readouterr().out.splitlines()
    assert first.startswith("the named tests fail on the unchanged code: ")
    assert summary == [failed] and ran == [()]
