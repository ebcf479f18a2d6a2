"""Planted faults that the tier-1 tests must catch.

Each mutant is one exact edit of a source file, (file, old text, new
text), with the tier-1 tests that must fail on it.  The script copies
``src``, ``tests``, ``perfbench`` (whose workloads ``tests/crosschecks.py``
reads) and ``pyproject.toml`` into a temporary directory,
checks that every named test passes there unchanged, then applies each
edit in turn, runs its tests and restores the file.  A mutant survives
when its tests still pass; an edit whose old text does not occur exactly
once is reported as stale.  Exit 0 when every mutant is killed, else 1
(2 when the named tests fail on the unchanged code, after pytest's
``FAILED`` line of each failing test).

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
ORDERS_TESTS = (
    "tests/test_symmetry.py::test_letters_fit_matches_the_letter_sequences",
    "tests/test_symmetry.py::test_orders_are_those_the_words_make",
)
SMALLEST_WORD_TESTS = (
    "tests/test_symmetry.py::test_smallest_word_is_the_least_word_of_its_run_structure",
    "tests/test_symmetry.py::test_class_representatives_are_the_class_minima",
)

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
    # the dense series: one table of K^n coefficients per degree n, built by Horner steps
    Mutant(
        "series-check-counts-tables-only",
        FREEALGEBRA,
        "if [len(table) for table in self.tables] != [self.alphabet_size**n for n in range(self.max_degree + 1)]:",
        "if len(self.tables) != self.max_degree + 1:",
        ("tests/test_freealgebra.py::test_series_needs_k_to_the_n_coefficients_at_every_degree",),
    ),
    Mutant(
        "series-log-term-sign-swapped",
        FREEALGEBRA,
        "horner[0][0] = (-1) ** (k + 1) * scale // k",
        "horner[0][0] = (-1) ** k * scale // k",
        KERNEL_TESTS,
    ),
    Mutant(
        "series-exp-weight-dropped",
        FREEALGEBRA,
        "lo, w = head * size, comb(T, j)",
        "lo, w = head * size, 1",
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
    # the letters a run of rises and falls needs, which decide the class orders K letters allow
    Mutant(
        "orders-bound-strict",
        "src/bchdenom/bch.py",
        "return rises <= top - letter + falls * top and",
        "return rises < top - letter + falls * top and",
        ORDERS_TESTS,
    ),
    Mutant(
        "orders-bound-one-stretch-short",
        "src/bchdenom/bch.py",
        "falls <= letter + rises * top",
        "falls <= letter + (rises - 1) * top",
        ORDERS_TESTS,
    ),
    # a class's least word: a fall takes the shortest unused run, a rise the longest, each to the least letter
    Mutant(
        "smallest-word-fall-takes-the-longest-run",
        "src/bchdenom/bch.py",
        "run, nxt, desc = unused.pop(), fall, desc - 1",
        "run, nxt, desc = unused.pop(0), fall, desc - 1",
        SMALLEST_WORD_TESTS,
    ),
    Mutant(
        "smallest-word-rise-takes-the-shortest-run",
        "src/bchdenom/bch.py",
        "run, nxt, asc = unused.pop(0), max(",
        "run, nxt, asc = unused.pop(), max(",
        SMALLEST_WORD_TESTS,
    ),
    Mutant(
        "smallest-word-rise-one-letter-too-high",
        "src/bchdenom/bch.py",
        "max(letter + 1, desc - (asc - 1) * T)",
        "max(letter + 2, desc - (asc - 1) * T)",
        SMALLEST_WORD_TESTS,
    ),
    Mutant(
        "smallest-word-one-letter-fall-never-taken",
        "src/bchdenom/bch.py",
        "fall < letter and _letters_fit",
        "fall < letter - 1 and _letters_fit",
        SMALLEST_WORD_TESTS,
    ),
    Mutant(
        "smallest-word-fall-stops-short-of-the-least-letter",
        "src/bchdenom/bch.py",
        "fall = max(0, desc - 1 - asc * T)",
        "fall = max(0, desc - asc * T)",
        SMALLEST_WORD_TESTS,
    ),
    # the closed form d_n, the partition counts the DP scans are held to, and the minimality verdict
    Mutant(
        "dn-exponent-misses-an-equal-power",
        "src/bchdenom/numtheory.py",
        "while q <= s:",
        "while q < s:",
        ("tests/test_numtheory.py::test_compute_dn_examples",),
    ),
    Mutant(
        "class-count-recurrence-takes-one-part-fewer",
        "src/bchdenom/numtheory.py",
        "parts[r - m][m]",
        "parts[r - m][m - 1]",
        (
            "tests/test_numtheory.py::test_partition_count_matches_the_enumeration",
            "tests/test_symmetry.py::test_class_representatives_count_partitions",
            "tests/test_symmetry.py::test_class_count_is_the_number_of_representatives",
        ),
    ),
    Mutant(
        "minimal-verdict-admits-a-smaller-lcm",
        "src/bchdenom/bch.py",
        "minimal=observed == common,",
        "minimal=observed <= common,",
        ("tests/test_cli.py::test_exit_code_contract[minimal-violation-dp]",),
    ),
    # the record factory: a record built by _make, and so by _replace, is checked; checks raise, not assert
    Mutant(
        "record-make-skips-the-check",
        "src/bchdenom/_records.py",
        "return cls(*values)",
        "return tuple.__new__(cls, values)",
        ("tests/test_records.py::test_replace_and_make_run_the_check",),
    ),
    Mutant(
        "report-drops-the-divisibility-check",
        "src/bchdenom/bch.py",
        "        if self.divisibility_ok and self.common_denominator % self.observed_lcm:\n"
        "            raise ValueError(\"divisibility_ok needs an lcm that divides n! * d_n\")\n",
        "",
        ("tests/test_records.py",),
    ),
    # the pool's chunks joined in task order, and "both" comparing the backends word by word
    Mutant(
        "pool-chunks-joined-out-of-order",
        "src/bchdenom/bch.py",
        "pool.map(_dp_scan_chunk, tasks)",
        "pool.map(_dp_scan_chunk, tasks[::-1])",
        (
            "tests/test_bch.py::test_degree_report_parallel_matches_serial",
            "tests/test_cli.py::test_verify_dp_scan_byte_identical",
        ),
    ),
    Mutant(
        "both-backends-never-compared",
        "src/bchdenom/bch.py",
        "if a != b:",
        "if False:",
        (
            "tests/test_cli.py::test_every_pool_a_verify_run_opens_is_exited[disagreement]",
            "tests/test_cli.py::test_exit_code_contract[minimal-backend-disagreement]",
        ),
    ),
    # the one gate every run's size passes, and the CLI's order: check, then announce
    Mutant(
        "gate-refuses-a-size-equal-to-the-budget",
        "src/bchdenom/errors.py",
        "if value > largest:",
        "if value >= largest:",
        ("tests/test_cli.py::test_verify_eq3_budget_is_the_scan_budget",),
    ),
    Mutant(
        "gate-sizes-n-without-the-lower-degrees",
        "src/bchdenom/errors.py",
        "m = 1\n    while True:",
        "m = n\n    while True:",
        ("tests/test_cli.py::test_refusal_far_past_the_budget_counts_only_low_degrees",),
    ),
    Mutant(
        "gate-words-an-exact-refusal-as-at-least",
        "src/bchdenom/errors.py",
        'least = "at least " if m < n else ""',
        'least = "at least " if m <= n else ""',
        ("tests/test_errors.py::test_a_refusal_at_n_itself_is_worded_exactly",),
    ),
    Mutant(
        "announce-before-the-check",
        "src/bchdenom/cli.py",
        "    count = bch.scan_count(degree, args.alphabet, per_class)\n"
        "    _announce(degree, args.alphabet, f\"{count} words\")\n",
        "    count = bch.class_count(degree, args.alphabet) if per_class else args.alphabet**degree\n"
        "    _announce(degree, args.alphabet, f\"{count} words\")\n"
        "    bch.scan_count(degree, args.alphabet, per_class)\n",
        ("tests/test_cli.py::test_dp_class_scan_budget_exceeded",),
    ),
    # a gate moved after the work it guards: cor1 and cor2 sieve the primes up to --max before any gate
    Mutant(
        "congruence-gate-after-the-sieve",
        "src/bchdenom/cli.py",
        "    check_budget(lambda m: args.alphabet**m, least, f\"{what} scan of degree {least} or more\", \"words\")\n"
        "    if what == \"cor1\":\n"
        "        check, primes = bch.check_corollary_prime, numtheory.primes_below(N + 1)\n"
        "    else:\n"
        "        check, primes = bch.check_corollary_prime_plus_one, numtheory.primes_below(N)[1:]\n",
        "    if what == \"cor1\":\n"
        "        check, primes = bch.check_corollary_prime, numtheory.primes_below(N + 1)\n"
        "    else:\n"
        "        check, primes = bch.check_corollary_prime_plus_one, numtheory.primes_below(N)[1:]\n"
        "    check_budget(lambda m: args.alphabet**m, least, f\"{what} scan of degree {least} or more\", \"words\")\n",
        (
            "tests/test_cli.py::test_congruence_far_range_is_refused_before_the_primes_are_listed[cor1-10**19]",
            "tests/test_cli.py::test_congruence_far_range_is_refused_before_the_primes_are_listed[cor2-10**19]",
            "tests/test_cli_properties.py::test_every_command_line_keeps_the_exit_code_contract[verify-cor1]",
        ),
    ),
    # the Bernoulli table every call shares, and the gates of bernoulli and coeff
    Mutant(
        "bernoulli-returns-the-live-table",
        "src/bchdenom/numtheory.py",
        "return _BERNOULLI[:count]",
        "return _BERNOULLI",
        ("tests/test_numtheory.py::test_bernoulli_table_grows_once_and_answers_copies",),
    ),
    Mutant(
        "bernoulli-skip-drops-b1",
        "src/bchdenom/numtheory.py",
        "if _BERNOULLI[j]:",
        "if j % 2 == 0:",
        ("tests/test_numtheory.py::test_bernoulli_numbers_first_values",),
    ),
    Mutant(
        "bernoulli-gate-sizes-count-not-its-square",
        "src/bchdenom/numtheory.py",
        "check_budget(lambda m: m * m, count,",
        "check_budget(lambda m: m, count,",
        ("tests/test_cli.py::test_verify_bernoulli_refuses_what_it_cannot_finish",),
    ),
    Mutant(
        "coeff-gate-sizes-n-squared",
        "src/bchdenom/cli.py",
        "check_budget(lambda m: m**3, word.degree,",
        "check_budget(lambda m: m**2, word.degree,",
        ("tests/test_cli.py::test_coeff_refuses_a_word_whose_dp_it_cannot_finish",),
    ),
    # the one row loop: a plain header comes once, before the first row
    Mutant(
        "report-prints-the-header-before-every-row",
        "src/bchdenom/cli.py",
        "if not count and header is not None:",
        "if header is not None:",
        ("tests/test_golden_output.py",),
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


def _pytest(workdir: Path, tests, *flags: str) -> subprocess.CompletedProcess | None:
    """pytest's run of ``tests`` in ``workdir`` with ``flags``, its output as text, or None on a timeout."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *flags, *tests]
    try:
        return subprocess.run(command, cwd=workdir, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="bchdenom-mutants-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "out")
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, work / part, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", work)

        tests = sorted({t for m in MUTANTS for t in m.tests})
        baseline = _pytest(work, tests)  # every test, not to the first failure, so each failing one is named
        if baseline is None or baseline.returncode != 0:
            print(f"the named tests fail on the unchanged code: {' '.join(tests)}")
            # pytest's short summary: a FAILED line per failing test, an ERROR line per test not collected
            output = "" if baseline is None else baseline.stdout + baseline.stderr
            summary = [line for line in output.splitlines() if line.startswith(("FAILED", "ERROR"))]
            print("\n".join(summary) or (f"timed out after {TIMEOUT_S} s" if baseline is None else output))
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
                done = _pytest(work, m.tests, "-x")
            finally:
                target.write_text(original)
            code = None if done is None else done.returncode
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
