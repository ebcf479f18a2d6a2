"""The CLI's exit-code contract as properties of command lines drawn from its grammar.

Every command and flag is drawn, with values in range and out of it: ``--max`` and ``--degree``
among -1, 0, small degrees, 1553, 10^6 and 10^30, well-formed and malformed words, ``--alphabet``
from 1 to 30, and flags a command does not take.  ``cli.main`` runs in-process with the scan
budget lowered to 2^12, so a drawn run either finishes in a moment or is refused.
"""

from __future__ import annotations

import contextlib
import io
import json
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bchdenom import bch, cli, errors
from crosschecks import REFUSAL

BUDGET = 2**12
# derandomized, so each run draws the same command lines; a call that outlives the deadline fails
SETTINGS = settings(derandomize=True, deadline=timedelta(seconds=5), database=None)

DEGREES = st.one_of(st.sampled_from([1, 2, 3, 4, 5, 6, 11, 13]), st.sampled_from([-1, 0, 1553, 10**6, 10**30])).map(str)
ALPHABETS = st.one_of(st.just(2), st.integers(1, 30)).map(str)  # the two-letter checks take 2 alone
FORMATS = st.sampled_from(["plain", "json", "csv"] * 3 + ["xml"])
BACKENDS = st.sampled_from([*bch.BACKENDS] * 3 + ["gpu"])
PARALLELISMS = st.sampled_from(["1", "2", "auto"] * 3 + ["0", "many"])
WORDS = st.sampled_from([
    "AB", "BAA", "AABAB", "AB" * 6, "A" * 17, "ABC", "0,1,2", "0,5,29", "7",  # well-formed for some alphabet
    "", "AXB", "ab", "A,B", "0,,1", "1,-2", "0,30", "A B",  # malformed for every alphabet
])


def optional(argv: st.SearchStrategy[list[str]], given: int = 1) -> st.SearchStrategy[list[str]]:
    """A drawn ``argv`` ``given`` times in ``given`` + 1, else nothing, which leaves the default."""
    return st.integers(0, given).flatmap(lambda i: argv if i else st.just([]))


def flag(name: str, values: st.SearchStrategy[str], given: int = 1) -> st.SearchStrategy[list[str]]:
    """``name`` and a drawn value, ``given`` times in ``given`` + 1, else nothing."""
    return optional(values.map(lambda value: [name, value]), given)


def command(name: str, *flags: st.SearchStrategy[list[str]]) -> st.SearchStrategy[list[str]]:
    """``name``, then its ``flags`` in a drawn order, each given or left out."""
    return st.tuples(*flags).flatmap(st.permutations).map(lambda drawn: [name, *sum(drawn, [])])


SCAN_FLAGS = (flag("--backend", BACKENDS), flag("--parallelism", PARALLELISMS), flag("--format", FORMATS))
# now and then a flag another command takes, one no command takes, or help
STRAY = st.sampled_from([[]] * 20 + [["--dedup"], ["--degree", "3"], ["--enum-bound", "3"], ["-h"]])

#: The command lines of each command, and of each check of verify, drawn from its own flags and a stray one.
COMMAND_LINES = {
    "dn": command("dn", flag("--max", DEGREES, given=9), flag("--format", FORMATS), STRAY),
    **{
        f"verify-{what}": command(
            "verify", st.just(["--what", what]), flag("--max", DEGREES, given=9), flag("--alphabet", ALPHABETS),
            *SCAN_FLAGS, STRAY,
        )
        for what in [*cli._CHECKS, "nonsense"]
    },
    "coeff": command(
        "coeff", optional(WORDS.map(lambda word: [word]), given=9), flag("--alphabet", ALPHABETS),
        flag("--format", FORMATS), STRAY,
    ),
    "table": command(
        "table", flag("--degree", DEGREES, given=9), flag("--alphabet", ALPHABETS), optional(st.just(["--dedup"])),
        *SCAN_FLAGS, STRAY,
    ),
    "no-command": st.sampled_from([[], ["frobnicate"], ["--help"], ["verify", "--max", "3"]]),
}


def call(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)``'s exit code, stdout and stderr, with the budget lowered."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        patch.setattr(errors, "SCAN_BUDGET", BUDGET)
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", COMMAND_LINES)
@SETTINGS
@given(data=st.data())
def test_every_command_line_keeps_the_exit_code_contract(name, data):
    argv = data.draw(COMMAND_LINES[name])
    code, out, err = call(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_VIOLATION, cli.EXIT_USAGE, cli.EXIT_BUDGET)
    if code in (cli.EXIT_USAGE, cli.EXIT_BUDGET):
        assert out == ""
    if code == cli.EXIT_BUDGET:
        *before, last = err.splitlines()
        assert REFUSAL.fullmatch(last), last  # in the one wording of errors.check_budget
        assert not any(line.startswith("scanning degree") for line in before)
    if code == cli.EXIT_VIOLATION:
        # the one check the program refutes: the uniform prime-plus-one residue
        assert argv[0] == "verify" and argv[argv.index("--what") + 1] == "cor2"
        violation = json.loads(out.splitlines()[-1])
        assert violation["check"] == "cor2" and violation["passed"] is False


SCANS = [*(["verify", "--what", what, "--max"] for what in ("minimal", "cor1", "cor2", "goldberg")),
         ["table", "--degree"], ["table", "--dedup", "--degree"]]


@settings(SETTINGS, max_examples=10)
@given(st.sampled_from(SCANS), st.sampled_from(["5", "11"]), st.sampled_from(["dp", "both"]), FORMATS)
def test_parallel_runs_print_what_serial_runs_print(scan, degree, backend, output_format):
    argv = [*scan, degree, "--backend", backend, "--format", output_format]
    serial, parallel = call([*argv, "--parallelism", "1"]), call([*argv, "--parallelism", "2"])
    assert serial[:2] == parallel[:2]
