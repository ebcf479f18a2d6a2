"""Planted faults that the tier-1 tests must catch.

Each mutant is one exact edit of a source file, (file, old text, new
text), with the tier-1 tests that must fail on it.  The script copies
``src``, ``tests`` and ``pyproject.toml`` into a temporary directory,
checks that every named test passes there unchanged, then applies each
edit in turn, runs its tests and restores the file.  A mutant survives
when its tests still pass; an edit whose old text does not occur exactly
once is reported as stale.  Exit 0 when every mutant is killed, else 1
(2 when the named tests fail on the unchanged code).

Run from anywhere, with the standard library and pytest::

    python3 tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120  # a mutant whose tests hang is reported, and counts as killed


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


FREEALGEBRA = "src/bchdenom/freealgebra.py"
KERNEL_TESTS = ("tests/test_freealgebra.py",)

MUTANTS = [
    # the per-word DP on Fractions: a block grown leftward stops at a descent
    Mutant(
        "fraction-dp-descent-admits-equal-letters",
        FREEALGEBRA,
        "for j in range(i - 2, -1, -1):\n            letter = letters[j]\n            if letter > right:",
        "for j in range(i - 2, -1, -1):\n            letter = letters[j]\n            if letter >= right:",
        KERNEL_TESTS,
    ),
    Mutant(
        "fraction-dp-piece-kept-at-letter-change",
        FREEALGEBRA,
        "right = letter\n                piece = 1\n            else:\n                piece += 1\n                c = c / piece",
        "right = letter\n            else:\n                piece += 1\n                c = c / piece",
        KERNEL_TESTS,
    ),
    Mutant(
        "fraction-dp-term-sign-swapped",
        FREEALGEBRA,
        "total = total + term if k % 2 else total - term",
        "total = total - term if k % 2 else total + term",
        KERNEL_TESTS,
    ),
    Mutant(
        "fraction-dp-multiply-skipped",
        FREEALGEBRA,
        "product = fj if c is _ONE else c if fj is _ONE else fj * c",
        "product = fj",
        KERNEL_TESTS,
    ),
    Mutant(
        "fraction-dp-overwrites-instead-of-adding",
        FREEALGEBRA,
        "col[k] = product if held is _ZERO else held + product",
        "col[k] = product",
        KERNEL_TESTS,
    ),
    # the per-word DP on integers, the class scans' kernel
    Mutant(
        "scaled-dp-descent-admits-equal-letters",
        FREEALGEBRA,
        "for j in range(i - 1, -1, -1):\n            letter = letters[j]\n            if letter > right:",
        "for j in range(i - 1, -1, -1):\n            letter = letters[j]\n            if letter >= right:",
        KERNEL_TESTS,
    ),
    Mutant(
        "scaled-dp-piece-kept-at-letter-change",
        FREEALGEBRA,
        "right = letter\n                piece = 1\n            else:\n                piece += 1\n            weight",
        "right = letter\n            else:\n                piece += 1\n            weight",
        KERNEL_TESTS,
    ),
    Mutant(
        "scaled-dp-term-sign-swapped",
        FREEALGEBRA,
        "total += term if k % 2 else -term",
        "total += -term if k % 2 else term",
        KERNEL_TESTS,
    ),
    Mutant(
        "scaled-dp-weight-not-divided-by-piece",
        FREEALGEBRA,
        "weight = weight * (j + 1) // piece",
        "weight = weight * (j + 1)",
        KERNEL_TESTS,
    ),
    Mutant(
        "staircase-descent-admits-equal-letters",
        FREEALGEBRA,
        "if any(a > b for a, b in zip(letters, letters[1:])):",
        "if any(a >= b for a, b in zip(letters, letters[1:])):",
        ("tests/test_freealgebra.py::test_staircase_examples", "tests/test_freealgebra.py::test_staircase_matches_oracle"),
    ),
    # the class orders K letters allow
    Mutant(
        "orders-bound-strict",
        "src/bchdenom/bch.py",
        "if runs <= alphabet_size * (falls + 1)]",
        "if runs < alphabet_size * (falls + 1)]",
        ("tests/test_symmetry.py::test_orders_are_those_the_words_make",),
    ),
    Mutant(
        "orders-bound-one-stretch-short",
        "src/bchdenom/bch.py",
        "if runs <= alphabet_size * (falls + 1)]",
        "if runs <= alphabet_size * falls]",
        ("tests/test_symmetry.py::test_orders_are_those_the_words_make",),
    ),
    # acceptance criterion 08: the uniform prime-plus-one residue is refuted, by sign
    Mutant(
        "cor2-accepts-both-signs",
        "src/bchdenom/bch.py",
        "elif residues[i] != expected:",
        "elif residues[i] not in (expected, -expected % p):",
        ("tests/test_acceptance.py::test_criterion_08_prime_plus_one_congruence",),
    ),
]


def _pytest(workdir: Path, tests) -> int | None:
    """pytest's exit code on ``tests`` in ``workdir``, or None on a timeout."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(command, cwd=workdir, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    return done.returncode


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="bchdenom-mutants-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", work)

        tests = sorted({t for m in MUTANTS for t in m.tests})
        if _pytest(work, tests) != 0:
            print(f"the named tests fail on the unchanged code: {' '.join(tests)}")
            return 2

        failed = []
        for m in MUTANTS:
            target = work / m.path
            original = target.read_text()
            if original.count(m.old) != 1:
                print(f"STALE     {m.name}: the old text occurs {original.count(m.old)} times in {m.path}")
                failed.append(m.name)
                continue
            target.write_text(original.replace(m.old, m.new))
            start = time.perf_counter()
            try:
                code = _pytest(work, m.tests)
            finally:
                target.write_text(original)
            # pytest exits 1 when tests failed; any other code (no tests found, a usage error) kills nothing
            verdict = "TIMEOUT" if code is None else "killed" if code == 1 else "SURVIVED"
            print(f"{verdict:<9} {m.name} ({time.perf_counter() - start:.1f} s)", flush=True)
            if verdict == "SURVIVED":
                failed.append(m.name)

    if failed:
        print(f"{len(failed)} of {len(MUTANTS)} mutants not killed: {' '.join(failed)}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
