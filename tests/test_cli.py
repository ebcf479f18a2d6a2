"""CLI contract tests: subcommands, formats, exit codes, determinism."""

from __future__ import annotations

import csv
import io
import json
import multiprocessing
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from bchdenom import bch, cli, errors
from bchdenom.freealgebra import Word, bch_coeff_word

D_SEQUENCE = [1, 1, 2, 1, 6, 2, 6, 3, 10, 2, 6, 2, 210, 30, 12, 3, 30, 10, 210, 42, 330, 30, 60, 30, 546]
KERNEL_SEQUENCE = [1, 1, 2, 1, 6, 2, 6, 3, 10, 2, 6, 2, 210, 30, 6, 3, 30, 10, 210, 42, 330, 30, 30, 30, 546]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# dn


def test_dn_plain(capsys):
    code, out, _ = run(capsys, "dn", "--max", "12")
    assert code == 0
    assert "239500800" in out
    assert len(out.strip().splitlines()) == 13  # header + 12 rows


def test_dn_json_matches_reference_sequences(capsys):
    code, out, _ = run(capsys, "dn", "--max", "25", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [int(r["d_n"]) for r in rows] == D_SEQUENCE
    assert [int(r["kernel"]) for r in rows] == KERNEL_SEQUENCE
    assert rows[10]["common_denominator"] == "239500800"
    assert rows[10]["common_factorization"] == "2^9*3^5*5^2*7*11"


def test_dn_csv(capsys):
    code, out, _ = run(capsys, "dn", "--max", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "d_n", "kernel", "common_denominator", "d_n_factorization", "common_factorization"]
    assert rows[3] == ["3", "2", "2", "12", "2", "2^2*3"]


def test_dn_single_row(capsys):
    code, out, _ = run(capsys, "dn", "--max", "1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1] == ["1", "1", "1", "1", "1", "1"]


@pytest.fixture
def str_digits():
    """Sets CPython's limit on the digits of an int printed in decimal; restored after."""
    limit = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("output_format", ["plain", "json", "csv"])
def test_dn_refuses_what_it_cannot_print(capsys, str_digits, output_format):
    # 306! * d_306 has 636 digits and 307! * d_307 more than 640: under that limit dn prints the
    # whole table through 306, and refuses 307 before its first row (it exited 2 part way through)
    str_digits(640)
    code, out, err = run(capsys, "dn", "--max", "306", "--format", output_format)
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 306 + (output_format != "json")  # and a header
    code, out, err = run(capsys, "dn", "--max", "307", "--format", output_format)
    assert code == 3 and out == ""
    assert err == (
        "budget exceeded: n!*d_n of degree 307 of 642 digits exceeds the limit of 640 digits for integer string conversion\n"
    )


def test_dn_far_past_the_digit_limit_sizes_only_low_degrees(capsys, monkeypatch, str_digits):
    # n! * d_n never falls as n grows, so the gate sizes it at 1, 2, 4, ..., 512 and refuses there
    str_digits(640)
    monkeypatch.setattr(cli.numtheory, "common_denominator", _counted_below(cli.numtheory.common_denominator, 512))
    code, out, err = run(capsys, "dn", "--max", "1000000")
    assert code == 3 and out == ""
    assert err == (
        "budget exceeded: n!*d_n of degree 1000000 of at least 1183 digits exceeds the limit of 640 digits"
        " for integer string conversion\n"
    )


def test_dn_without_a_digit_limit_refuses_nothing(capsys, str_digits):
    str_digits(0)  # no limit
    code, out, err = run(capsys, "dn", "--max", "400", "--format", "json")
    assert code == 0 and err == "" and len(out.splitlines()) == 400


def test_dn_rejects_bad_max(capsys):
    code, _, err = run(capsys, "dn", "--max", "0")
    assert code == 2
    assert "error" in err


def test_dn_and_coeff_take_no_scan_flags(capsys, monkeypatch):
    # neither command computes a scan, so neither reads $BCHDENOM_PARALLELISM
    monkeypatch.setenv("BCHDENOM_PARALLELISM", "zero")
    code, out, err = run(capsys, "dn", "--max", "3")
    assert code == 0 and err == ""
    assert len(out.strip().splitlines()) == 4  # header + 3 rows
    assert run(capsys, "coeff", "AB")[0] == 0
    for argv in (["dn", "--max", "3"], ["coeff", "AB"]):
        assert run(capsys, *argv, "--parallelism", "2")[0] == 2
        assert run(capsys, *argv, "--backend", "dp")[0] == 2


# ---------------------------------------------------------------------------
# verify


def test_verify_eq3(capsys):
    code, out, err = run(capsys, "verify", "--what", "eq3", "--max", "10")
    assert code == 0
    assert out.count("PASS") == 10
    assert err == ""  # 2**10 words are fewer than PROGRESS_WORDS


def _never_enumerated(real):
    """A patch factory, as in EXIT_CASES, for a partition enumerator that must not run."""

    def never(n):
        raise AssertionError(f"the partitions of {n} were enumerated")

    return never


def test_verify_eq3_budget_exceeded(capsys, monkeypatch):
    # p(71) = 4697205 partitions are over the scan budget: counted without enumerating a single
    # partition, and refused before the first degree runs
    monkeypatch.setattr(cli.numtheory, "partitions", _never_enumerated(None))
    code, out, err = run(capsys, "verify", "--what", "eq3", "--max", "71")
    assert code == 3
    assert out == ""
    assert err == (
        "budget exceeded: partition enumeration of 71 of 4697205 partitions exceeds the scan budget 4194304\n"
    )


@pytest.mark.parametrize(
    "argv, degree, classes",
    [
        (["--what", "minimal", "--max", "71"], 71, 4697205),
        (["--what", "goldberg", "--max", "71"], 71, 4697205),
        (["--what", "minimal", "--alphabet", "3", "--max", "62"], 62, 4627559),
    ],
    ids=["minimal", "goldberg", "minimal-three-letters"],
)
def test_dp_class_scan_budget_exceeded(capsys, monkeypatch, argv, degree, classes):
    # the largest degree's classes are over the scan budget: counted without listing a single
    # class (the listing walks the partitions, so that fails at once), and refused before the
    # first degree runs, and before the degree is announced: the refusal is the one line of stderr
    monkeypatch.setattr(cli.numtheory, "partitions", _never_enumerated(None))
    code, out, err = run(capsys, "verify", *argv, "--backend", "dp")
    assert code == 3 and out == ""
    assert err == f"budget exceeded: scan of degree {degree} of {classes} words exceeds the scan budget 4194304\n"


def _counted_below(real, bound=200):
    """A spy on a count nondecreasing in the degree: it raises, rather than counts, past ``bound``."""

    def spy(n, *rest):
        if n > bound:
            raise AssertionError(f"degree {n} was counted")
        return real(n, *rest)

    return spy


FAR_CLASSES = "scan of degree 100000 of at least {} words"


@pytest.mark.parametrize(
    "argv, what",
    [
        (["minimal", "--backend", "dp"], FAR_CLASSES.format(bch.class_count(128))),
        (["goldberg", "--backend", "dp"], FAR_CLASSES.format(bch.class_count(128))),
        (["theorem", "--alphabet", "3", "--backend", "dp"], FAR_CLASSES.format(bch.class_count(64, 3))),
        (["eq3"], f"partition enumeration of 100000 of at least {cli.numtheory.partition_count(128)} partitions"),
    ],
    ids=["minimal", "goldberg", "theorem-three-letters", "eq3"],
)
def test_refusal_far_past_the_budget_counts_only_low_degrees(capsys, monkeypatch, argv, what):
    # each count takes O(n^2) work, so the degrees 1, 2, 4, ... below n are probed first: the first
    # one over the budget refuses n, and stderr names that degree's count, not a count of n's own
    monkeypatch.setattr(bch, "class_count", _counted_below(bch.class_count))
    monkeypatch.setattr(cli.numtheory, "partition_count", _counted_below(cli.numtheory.partition_count))
    code, out, err = run(capsys, "verify", "--what", argv[0], "--max", "100000", *argv[1:])
    assert code == 3 and out == ""
    assert err == f"budget exceeded: {what} exceeds the scan budget {errors.SCAN_BUDGET}\n"


def test_far_refusal_is_quick_in_a_fresh_interpreter():
    # three letters at degree 10^7: the gate sizes 3^m at m = 1, 2, 4, 8, 16 and refuses at 16, where
    # working out 3^10000000, for the budget and again for the announcement, took seconds
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**{k: v for k, v in os.environ.items() if k != cli.PARALLELISM_ENV}, "PYTHONPATH": src}
    argv = ["verify", "--what", "minimal", "--alphabet", "3", "--max", "10000000"]
    done = subprocess.run(
        [sys.executable, "-m", "bchdenom.cli", *argv], capture_output=True, text=True, env=env, timeout=5
    )
    assert done.returncode == 3 and done.stdout == ""
    assert done.stderr == (
        f"budget exceeded: scan of degree 10000000 of at least {3**16} words exceeds the scan budget 4194304\n"
    )


@pytest.mark.parametrize(
    "what, far", [(what, far) for what in ("cor1", "cor2") for far in (10**8, 10**19, 10**30)],
    ids=[f"{what}-10**{digits}" for what in ("cor1", "cor2") for digits in (8, 19, 30)],
)
def test_congruence_far_range_is_refused_before_the_primes_are_listed(capsys, what, far):
    # the largest prime up to N exceeds N / 2 (Bertrand), so that lower bound of the largest degree is
    # held to the budget before the primes up to N, a sieve of N bytes, are listed: the sieve came
    # first, which took 5.7 s and 363 MB at 10^8 and raised OverflowError (exit 1) from 10^19
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--what", what, "--max", str(far))
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err == (
        f"budget exceeded: {what} scan of degree {far // 2 + 1} or more of at least {2**32} words"
        " exceeds the scan budget 4194304\n"
    )


@pytest.mark.parametrize(
    "argv",
    [["1553"], ["1553", "--format", "json"], ["1553", "--format", "csv"], ["1000000"], ["1000000", "--dedup"]],
    ids=["plain", "json", "csv", "far", "far-dedup"],
)
def test_table_is_refused_before_its_header(capsys, monkeypatch, argv):
    # the header's n! * d_n is worked out only once the degree has passed the budget: at 1553 it
    # had more digits than str may print (exit 2), and at 10^6 it ran for minutes
    monkeypatch.setattr(cli.numtheory, "common_denominator", _counted_below(None, 0))
    code, out, err = run(capsys, "table", "--degree", *argv)
    assert code == 3 and out == ""
    assert err == (
        f"budget exceeded: scan of degree {argv[0]} of at least {2**32} words exceeds the scan budget 4194304\n"
    )


def test_verify_eq3_budget_is_the_scan_budget(capsys, monkeypatch):
    # the largest degree's partitions are held to the one scan budget, whose value is all that moves it
    monkeypatch.setattr(errors, "SCAN_BUDGET", 627)  # p(20)
    code, out, err = run(capsys, "verify", "--what", "eq3", "--max", "20")
    assert code == 0 and out.count("PASS") == 20 and err == "scanning degree 20 (627 partitions)...\n"
    code, out, err = run(capsys, "verify", "--what", "eq3", "--max", "22")
    assert code == 3 and out == ""
    # p(22), the largest degree's count, and no flag that raises the budget
    assert err == "budget exceeded: partition enumeration of 22 of 1002 partitions exceeds the scan budget 627\n"


def test_verify_enum_bound_hard_cap(capsys):
    # no bound short of the scan budget: eq3 reaches the paper's degree 30 with no flag, and the
    # --enum-bound flag is gone (a usage error)
    code, out, err = run(capsys, "verify", "--what", "eq3", "--max", "30")
    assert code == 0
    assert out.count("PASS") == 30 and len(out.splitlines()) == 30
    code, out, err = run(capsys, "verify", "--what", "eq3", "--max", "5", "--enum-bound", "25")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --enum-bound 25" in err


def test_verify_eq3_above_default_bound_warns_nothing(capsys):
    # past degree 20, the old enumeration default: the partition oracle at degree 24 is about
    # interpreter start, and its stderr is the announce line of its largest degree, p(24) = 1575
    code, out, err = run(capsys, "verify", "--what", "eq3", "--max", "24")
    assert code == 0
    assert out.count("PASS") == 24
    assert err == "scanning degree 24 (1575 partitions)...\n"


def test_verify_bernoulli(capsys):
    code, out, _ = run(capsys, "verify", "--what", "bernoulli", "--max", "25")
    assert code == 0
    assert out.count("PASS") == 25


def test_verify_bernoulli_refuses_what_it_cannot_finish(capsys, monkeypatch):
    # the table is built through --max before the first row, so a refusal prints no row
    monkeypatch.setattr(errors, "SCAN_BUDGET", 100)
    code, out, err = run(capsys, "verify", "--what", "bernoulli", "--max", "10")
    assert code == 0 and out.count("PASS") == 10 and err == ""
    code, out, err = run(capsys, "verify", "--what", "bernoulli", "--max", "11")
    assert code == 3 and out == ""
    assert err == "budget exceeded: Bernoulli recurrence through B_10 of 121 terms exceeds the scan budget 100\n"


@pytest.mark.parametrize("argv, announced", [
    (("verify", "--what", "bernoulli", "--max", "12"), "degree 12 (144 Bernoulli terms)"),
    (("verify", "--what", "bernoulli", "--max", "30"), "degree 30 (900 Bernoulli terms)"),
    (("coeff", "AB" * 6), "degree 12 (1728 DP steps)"),
    (("coeff", "AAB" * 5, "--format", "json"), "degree 15 (3375 DP steps)"),
])
def test_bernoulli_and_coeff_announce_from_degree_12(capsys, monkeypatch, argv, announced):
    # as eq3: the count its gate held, on stderr once the gate has passed, from degree 12 on
    code, out, err = run(capsys, *argv)
    assert code == 0 and out and err == f"scanning {announced}...\n"
    monkeypatch.setattr(errors, "SCAN_BUDGET", 100)  # a refused run prints the refusal alone
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == "" and err.startswith("budget exceeded:") and err.count("\n") == 1


def test_verify_theorem_and_minimal(capsys):
    code, out, _ = run(capsys, "verify", "--what", "theorem", "--max", "6", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert all(r["passed"] and r["divisibility_ok"] for r in rows)
    code, out, _ = run(capsys, "verify", "--what", "minimal", "--max", "6")
    assert code == 0
    assert out.count("PASS") == 6


def run_on_backend(capsys, backend, *argv):
    """Run ``argv`` on ``backend``; its exit code and stdout must be those of the series backend."""
    code, out, err = run(capsys, *argv, "--backend", backend)
    assert (code, out) == run(capsys, *argv, "--backend", "series")[:2]
    return code, out, err


# cor1 and cor2 read every word, and goldberg one word per run-length class
# on the per-word DP; "both" compares the two backends word by word
@pytest.mark.parametrize("backend", ["series", "dp", "both"])
def test_verify_cor1(capsys, backend):
    code, out, _ = run_on_backend(capsys, backend, "verify", "--what", "cor1", "--max", "7")
    assert code == 0
    assert out.count("PASS") == 4  # p = 2, 3, 5, 7


@pytest.mark.parametrize("backend", ["series", "dp", "both"])
def test_verify_cor2_reports_violations(capsys, backend):
    # the uniform residue claim fails on B...A words; the CLI says so
    code, out, _ = run_on_backend(capsys, backend, "verify", "--what", "cor2", "--max", "6")
    assert code == 1
    violation = json.loads(out.strip().splitlines()[-1])
    assert violation["check"] == "cor2"
    assert violation["violations"]
    assert not violation["exceptional_zero_failures"]


@pytest.mark.parametrize("backend", ["series", "dp", "both"])
def test_verify_goldberg(capsys, backend):
    code, out, _ = run_on_backend(capsys, backend, "verify", "--what", "goldberg", "--max", "11")
    assert code == 0
    assert "AAAAAAAABBB" in out
    assert "2112/5" in out
    assert "1247400" in out


@pytest.mark.parametrize("what, max_degree, expected_code", [("cor1", "5", 0), ("cor2", "4", 1), ("goldberg", "11", 0)])
def test_verify_dp_congruence_builds_no_series(capsys, monkeypatch, what, max_degree, expected_code):
    # --backend dp builds no series on cor1, cor2 and goldberg either
    monkeypatch.setattr(bch, "bch_series", None)
    code, out, _ = run(capsys, "verify", "--what", what, "--max", max_degree, "--backend", "dp")
    assert code == expected_code and out


@pytest.mark.parametrize("what, built, expected_code", [("cor1", 7, 0), ("cor2", 8, 1)])
def test_verify_congruence_builds_the_series_to_its_largest_degree(capsys, monkeypatch, what, built, expected_code):
    # --max 10 scans cor1 at the primes through 7 and cor2 at the degrees p + 1 through 8
    degrees = []
    real = bch.bch_series
    monkeypatch.setattr(bch, "bch_series", lambda K, n, **kw: degrees.append(n) or real(K, n, **kw))
    code, out, _ = run(capsys, "verify", "--what", what, "--max", "10")
    assert code == expected_code and out
    assert degrees == [built]


def test_verify_goldberg_below_counterexample(capsys):
    # degree 11 is never examined below --max 11, so there is nothing to pass
    code, out, err = run(capsys, "verify", "--what", "goldberg", "--max", "8")
    assert code == 2
    assert out == ""
    assert "--max 11" in err


@pytest.mark.parametrize("what, least, code_at_least", [("cor1", 2, 0), ("cor2", 4, 1)])
def test_verify_congruence_empty_range_is_usage_error(capsys, monkeypatch, what, least, code_at_least):
    # an empty range of checked degrees must not pass; refused before the series is built
    with monkeypatch.context() as m:
        m.setattr(bch, "bch_series", None)
        code, out, err = run(capsys, "verify", "--what", what, "--max", str(least - 1))
    assert code == 2
    assert out == ""
    assert f"--max {least} or more" in err
    code, out, _ = run(capsys, "verify", "--what", what, "--max", str(least))
    assert code == code_at_least and out


def test_verify_failure_exit_code(capsys, monkeypatch):
    # force a mismatch to exercise the violation path end to end
    import bchdenom.numtheory as nt

    real = nt.common_denominator
    monkeypatch.setattr(nt, "common_denominator", lambda n: (real(n)[0] + 1, real(n)[1]))
    code, out, _ = run(capsys, "verify", "--what", "eq3", "--max", "3")
    assert code == 1
    violation = json.loads(out.strip().splitlines()[-1])
    assert violation["check"] == "eq3"
    assert violation["degree"] == 1


@pytest.mark.parametrize("what", ["theorem", "minimal"])
def test_verify_dp_scan_builds_no_series(capsys, monkeypatch, what):
    _, expected, _ = run(capsys, "verify", "--what", what, "--max", "6", "--backend", "series")

    def no_series(*_args, **_kwargs):
        raise AssertionError("the per-word scan must not build the dense series")

    monkeypatch.setattr(bch, "bch_series", no_series)
    code, out, _ = run(capsys, "verify", "--what", what, "--max", "6", "--backend", "dp")
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("what", ["theorem", "minimal"])
def test_verify_dp_scan_byte_identical(capsys, monkeypatch, what):
    # the per-word DP reports one word per run-length class, on one pool
    # for the whole run; the output must show neither
    real_pool = multiprocessing.Pool
    pools = []

    def counting_pool(*args, **kwargs):
        pools.append(args)
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(multiprocessing, "Pool", counting_pool)
    for output_format in ("plain", "json"):
        outputs = set()
        for backend, parallelism in (("dp", "1"), ("dp", "2"), ("series", "1")):
            pools.clear()
            code, out, _ = run(
                capsys,
                "verify", "--what", what, "--max", "10", "--format", output_format,
                "--backend", backend, "--parallelism", parallelism,
            )
            assert code == 0
            assert len(pools) == (1 if parallelism == "2" else 0)
            outputs.add(out)
        assert len(outputs) == 1
        assert len(outputs.pop().splitlines()) == 10


@pytest.mark.parametrize(
    "alphabet, degree, backend, count",
    [
        ("2", "13", "dp", "101"),
        ("3", "14", "dp", "253"),
        pytest.param("2", "13", "series", "8192", id="2-13-series-2**13"),
        # the gate is the degree's 2**12 words, not the degree: 5**6 = 15,625 and 3**8 = 6,561
        # announce, 3**7 = 2,187 does not
        pytest.param("5", "6", "both", "15625", id="5-6-both-5**6"),
        ("3", "8", "dp", "34"),
        ("3", "7", "dp", None),
    ],
)
def test_verify_announces_the_words_it_computes(capsys, alphabet, degree, backend, count):
    # the class-reduced DP computes one word per run-length class (p(13) = 101
    # for two letters), the series backend every word
    argv = ["verify", "--what", "minimal", "--max", degree, "--alphabet", alphabet, "--backend", backend]
    code, _, err = run(capsys, *argv)
    assert code == 0
    assert err == ("" if count is None else f"scanning degree {degree} ({count} words)...\n")


@pytest.mark.parametrize(
    "what, max_degree, announced",
    [
        ("cor1", "14", "scanning degree 13 (8192 words)...\n"),  # 13 is the largest prime <= 14
        ("cor2", "13", "scanning degree 12 (4096 words)...\n"),  # 11 + 1 is the largest p + 1 <= 13
        ("cor1", "12", ""),  # its largest degree, 11, has fewer than PROGRESS_WORDS words
    ],
)
def test_verify_congruence_announces_the_largest_degree_it_scans(capsys, what, max_degree, announced):
    code, _, err = run(capsys, "verify", "--what", what, "--max", max_degree)
    assert code == (1 if what == "cor2" else 0)  # the uniform cor2 residue is refuted
    assert err == announced


def test_verify_goldberg_on_dp_announces_one_word_per_class(capsys):
    code, _, err = run(capsys, "verify", "--what", "goldberg", "--max", "13", "--backend", "dp")
    assert code == 0
    assert err == "scanning degree 13 (101 words)...\n"


def test_goldberg_prints_each_degree_as_it_finishes(monkeypatch):
    # a row per goldberg_check call, printed before the next degree is computed; a stdout closed
    # after the first row leaves degrees 5..11 uncomputed
    computed = []
    real = cli.bch.goldberg_check

    def counting(n, **scan):
        computed.append(n)
        return real(n, **scan)

    monkeypatch.setattr(cli.bch, "goldberg_check", counting)
    args = cli.build_parser().parse_args(["verify", "--what", "goldberg", "--max", "11", "--backend", "dp"])
    rows = cli._goldberg_rows(args)
    _, plain, _ = next(rows)
    assert plain == "goldberg n=4: divides" and computed == [4]
    rows.close()

    computed.clear()
    printed = []

    class ClosedAfterFirstRow:
        def write(self, text):
            printed.append(text)
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", ClosedAfterFirstRow())
    with pytest.raises(BrokenPipeError):
        cli._report("plain", cli._goldberg_rows(args))
    assert printed == ["goldberg n=4: divides"] and computed == [4]


@pytest.mark.parametrize("what, N, first", [("minimal", 10, 1), ("goldberg", 12, 4)])
def test_dp_run_lists_each_degree_once(capsys, monkeypatch, what, N, first):
    # the largest degree's classes are counted for the scan's budget and announcement, and listed
    # only by its report; stdout is the series backend's
    argv = ["verify", "--what", what, "--max", str(N)]
    _, expected, _ = run(capsys, *argv, "--backend", "series")
    listed = []
    real = bch.class_representatives
    monkeypatch.setattr(bch, "class_representatives", lambda n, *K: listed.append(n) or real(n, *K))
    code, out, _ = run(capsys, *argv, "--backend", "dp")
    assert code == 0 and out == expected
    assert sorted(listed) == list(range(first, N + 1))


def test_verify_goldberg_regression_exits_1(capsys, monkeypatch):
    # if degree 11 ever passed, the check must report it, not crash
    real = cli.bch.goldberg_check

    def degree_11_passes(n, **kwargs):
        r = real(n, **kwargs)
        if n != 11:
            return r
        return bch.GoldbergDegreeResult(
            degree=r.degree,
            goldberg_denominator=r.goldberg_denominator,
            passed=True,
            witness=None,
            witness_denominator=None,
            ratio=None,
        )

    monkeypatch.setattr(cli.bch, "goldberg_check", degree_11_passes)
    code, out, err = run(capsys, "verify", "--what", "goldberg", "--max", "11")
    assert code == 1
    violation = json.loads(out.strip().splitlines()[-1])
    assert violation["check"] == "goldberg"
    assert violation["degree"] == 11
    assert violation["passed"] is True
    assert "Traceback" not in err


def test_verify_usage_errors(capsys):
    code, _, _ = run(capsys, "verify", "--what", "nonsense", "--max", "5")
    assert code == 2
    code, _, _ = run(capsys, "verify", "--what", "goldberg", "--max", "3")
    assert code == 2
    code, _, _ = run(capsys, "verify", "--what", "cor1", "--max", "5", "--alphabet", "3")
    assert code == 2


# ---------------------------------------------------------------------------
# coeff


def test_coeff_pinned_word(capsys):
    code, out, _ = run(capsys, "coeff", "AAAAAAAABBB")
    assert code == 0
    assert "1/1247400" in out
    assert "192" in out
    assert "2^3*3^4*5^2*7*11" in out


def test_coeff_json(capsys):
    code, out, _ = run(capsys, "coeff", "AB", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == {
        "word": "AB",
        "h_num": "1",
        "h_den": "2",
        "a": "1",
        "denom_factorization": "2",
        "common_denominator": "2",
    }


def test_coeff_csv_header(capsys):
    code, out, _ = run(capsys, "coeff", "AAAA", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["word", "h_num", "h_den", "a", "denom_factorization"]
    assert rows[1] == ["AAAA", "0", "1", "0", "1"]


def test_coeff_large_alphabet_indices(capsys):
    code, out, _ = run(capsys, "coeff", "0,1", "--alphabet", "27", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["h_num"] == "1" and data["h_den"] == "2"
    assert data["word"] == "0,1"


def test_coeff_refuses_a_word_whose_dp_it_cannot_finish(capsys, monkeypatch):
    # n^3 bounds the per-word DP's cell updates, and is held to the budget before any is made
    monkeypatch.setattr(errors, "SCAN_BUDGET", 1000)
    code, out, err = run(capsys, "coeff", "ABABABABAB")
    assert code == 0 and "numerator over it" in out and err == ""

    def no_dp(word, alphabet_size):
        raise AssertionError(f"the DP ran on a word of {word.degree} letters")

    monkeypatch.setattr(cli, "bch_coeff_word", no_dp)
    code, out, err = run(capsys, "coeff", "ABABABABABA", "--format", "json")
    assert code == 3 and out == ""
    assert err == "budget exceeded: per-word DP for 11 letters of 1331 steps exceeds the scan budget 1000\n"
    monkeypatch.setattr(errors, "SCAN_BUDGET", 1 << 22)
    for word, what in (
        ("A" * 162, "per-word DP for 162 letters of 4251528 steps"),  # 161 letters pass (161^3 = 4173281)
        ("AB" * 1500 + "A", "per-word DP for 3001 letters of at least 16777216 steps"),  # 256^3, the first over
    ):
        code, out, err = run(capsys, "coeff", word)
        assert code == 3 and out == ""
        assert err == f"budget exceeded: {what} exceeds the scan budget 4194304\n"


def test_coeff_malformed_word(capsys):
    code, _, err = run(capsys, "coeff", "AXB")
    assert code == 2
    code, _, _ = run(capsys, "coeff", "")
    assert code == 2
    # an index list that does not parse is named in the error
    for argv, text in ((["coeff", ",1"], ",1"), (["coeff", "1,,2", "--alphabet", "3"], "1,,2")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: malformed word {text!r}\n"


# ---------------------------------------------------------------------------
# table


def test_table_factors_each_distinct_denominator_once(capsys, monkeypatch):
    nt = cli.numtheory
    distinct = {h.denominator for h in bch.degree_coefficients(10, 2)}
    calls = []
    real = nt._trial_divisors
    monkeypatch.setattr(nt, "_trial_divisors", lambda: calls.append(1) or real())
    nt.PrimeFactorization.of.cache_clear()
    code, out, _ = run(capsys, "table", "--degree", "10")
    assert code == 0 and len(out.splitlines()) == 1 + 2**10
    assert len(calls) == len(distinct) < 2**10


def test_table_formats_each_factorization_once_per_row(capsys, monkeypatch):
    factorization = cli.numtheory.PrimeFactorization
    calls = []
    real = factorization.__str__
    monkeypatch.setattr(factorization, "__str__", lambda self: calls.append(1) or real(self))
    code, out, _ = run(capsys, "table", "--degree", "8", "--format", "json")
    assert code == 0
    rows = len(out.splitlines())
    assert rows == 2**8 and len(calls) <= rows


def test_table_degree_two_plain(capsys):
    code, out, _ = run(capsys, "table", "--degree", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("degree 2")
    assert [line.split()[0] for line in lines[1:]] == ["AA", "AB", "BA", "BB"]


def test_table_degree_one(capsys):
    code, out, _ = run(capsys, "table", "--degree", "1", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1:] == [["A", "1", "1", "1", "1"], ["B", "1", "1", "1", "1"]]


def test_table_csv_json_round_trip(capsys):
    code, csv_out, _ = run(capsys, "table", "--degree", "3", "--format", "csv")
    assert code == 0
    code, json_out, _ = run(capsys, "table", "--degree", "3", "--format", "json")
    assert code == 0
    header, *csv_rows = list(csv.reader(io.StringIO(csv_out)))
    json_rows = [json.loads(line) for line in json_out.strip().splitlines()]
    assert len(csv_rows) == len(json_rows) == 8
    for csv_row, json_row in zip(csv_rows, json_rows):
        assert dict(zip(header, csv_row)) == json_row


def test_table_dedup(capsys):
    code, out, _ = run(capsys, "table", "--degree", "2", "--dedup", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[1:] == [["AB", "1", "2", "1", "2"], ["BA", "-1", "2", "-1", "2"]]


def test_table_dedup_degree_11(capsys):
    code, out, err = run(capsys, "table", "--degree", "11", "--dedup", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 31  # header + 30 distinct values
    by_denominator = {row[2]: row for row in rows[1:]}
    assert by_denominator["47900160"][1:] == ["1", "47900160", "5", "2^9*3^5*5*7*11"]
    assert by_denominator["2772"][1:] == ["-1", "2772", "-86400", "2^2*3^2*7*11"]


def test_table_deterministic_across_runs_and_backends(capsys):
    _, first, _ = run(capsys, "table", "--degree", "5", "--format", "csv")
    _, second, _ = run(capsys, "table", "--degree", "5", "--format", "csv")
    assert first == second
    _, parallel, _ = run(
        capsys,
        "table", "--degree", "5", "--format", "csv",
        "--backend", "dp", "--parallelism", "2",
    )
    assert parallel == first


def test_table_byte_identical_across_backends_and_parallelism(capsys):
    outputs = set()
    for backend in ("series", "dp", "both"):
        for parallelism in ("1", "2"):
            code, out, _ = run(
                capsys,
                "table", "--degree", "9", "--format", "json",
                "--backend", backend, "--parallelism", parallelism,
            )
            assert code == 0
            outputs.add(out)
    assert len(outputs) == 1
    assert len(outputs.pop().splitlines()) == 2**9


def test_table_dedup_honours_backend_and_parallelism(capsys, monkeypatch):
    def no_series(*_args, **_kwargs):
        raise AssertionError("a per-word table must not build the dense series")

    # at the even degree a word and its reversal have opposite values, so a class's two orders differ
    for degree in ("9", "10"):
        outputs = set()
        for backend in ("series", "dp", "both"):
            for parallelism in ("1", "2"):
                code, out, _ = run(
                    capsys,
                    "table", "--degree", degree, "--dedup", "--format", "csv",
                    "--backend", backend, "--parallelism", parallelism,
                )
                assert code == 0
                outputs.add(out)
        assert len(outputs) == 1
        rows = list(csv.DictReader(io.StringIO(next(iter(outputs)))))
        words = (Word.unpack(packed, int(degree), 2) for packed in range(2 ** int(degree)))
        assert len(rows) == len({(row["h_num"], row["h_den"]) for row in rows})
        assert {Fraction(int(row["h_num"]), int(row["h_den"])) for row in rows} == {
            bch_coeff_word(word, 2) for word in words
        } - {0}

        with monkeypatch.context() as patch:
            patch.setattr(cli.bch, "bch_series", no_series)
            code, out, _ = run(capsys, "table", "--degree", degree, "--dedup", "--format", "csv", "--backend", "dp")
        assert code == 0
        assert {out} == outputs


def test_table_computes_common_denominator_once(capsys):
    common_denominator = cli.numtheory.common_denominator
    common_denominator.cache_clear()
    code, out, _ = run(capsys, "table", "--degree", "5", "--backend", "dp", "--format", "json")
    assert code == 0
    assert len(out.splitlines()) == 32
    info = common_denominator.cache_info()
    assert (info.misses, info.hits) == (1, 32)


def test_table_checks_every_word_against_the_common_denominator(capsys, monkeypatch):
    # a common denominator one factor of 2 short cannot hold every coefficient: the table stops at
    # the first word it cannot hold, with every earlier row and then a violation record naming it
    real = cli.bch.common_denominator
    halved = real(5)[0] // 2
    words = (Word.unpack(packed, 5, 2) for packed in range(2**5))
    first = next(word for word in words if halved % bch_coeff_word(word, 2).denominator)
    monkeypatch.setattr(cli.bch, "common_denominator", _halved(real))
    code, out, err = run(capsys, "table", "--degree", "5", "--backend", "dp", "--format", "json")
    *rows, last = out.splitlines()
    assert code == 1 and "Traceback" not in err
    assert [json.loads(row)["word"] for row in rows] == [
        Word.unpack(packed, 5, 2).to_string(2) for packed in range(first.pack(2))
    ]
    assert json.loads(last) == {
        "check": "table",
        "error": f"denominator of coefficient of {first.to_string(2)} does not divide {halved}",
    }


def test_table_budget_exceeded(capsys):
    code, _, err = run(capsys, "table", "--degree", "25")
    assert code == 3
    assert "budget" in err


# ---------------------------------------------------------------------------
# shared flags


def test_unknown_command_usage(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_parallelism_env_default(capsys, monkeypatch):
    monkeypatch.setenv("BCHDENOM_PARALLELISM", "2")
    code, out, _ = run(capsys, "table", "--degree", "3", "--backend", "dp", "--format", "csv")
    assert code == 0
    assert len(out.strip().splitlines()) == 9


def test_parallelism_auto(capsys):
    code, _, _ = run(capsys, "table", "--degree", "3", "--parallelism", "auto", "--format", "csv")
    assert code == 0


def test_parallelism_rejects_garbage(capsys):
    assert cli.main(["table", "--degree", "3", "--parallelism", "zero"]) == 2


@pytest.mark.parametrize("value", ["0", "zero"])
def test_parallelism_env_garbage_is_a_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("BCHDENOM_PARALLELISM", value)
    code, out, err = run(capsys, "table", "--degree", "3")
    assert code == 2
    assert out == "" and "parallelism" in err
    # an explicit flag overrides the bad default
    assert run(capsys, "table", "--degree", "3", "--parallelism", "1")[0] == 0


class _RecordingPool:
    """Stands in for ``multiprocessing.Pool``: records its size, tasks and exits, and maps in this process."""

    sizes: list[int] = []
    tasks: list[int] = []
    exits: list[_RecordingPool] = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.exits.append(self)
        return False

    def map(self, fn, items):
        self.tasks.append(len(items))
        return list(map(fn, items))


@pytest.fixture
def recording_pool(monkeypatch):
    """``multiprocessing.Pool``, replaced by a ``_RecordingPool``: no process starts."""
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(_RecordingPool, "tasks", [])
    monkeypatch.setattr(_RecordingPool, "exits", [])
    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
    return _RecordingPool


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--what", "minimal", "--max", "7", "--backend", "dp"],  # one pool for the run
        ["verify", "--what", "cor1", "--max", "7", "--backend", "both"],
        ["table", "--degree", "6", "--backend", "dp", "--format", "csv"],  # one pool, as for verify
    ],
    ids=["minimal", "cor1", "table"],
)
def test_parallelism_is_capped_at_the_usable_cpus(capsys, recording_pool, argv):
    _, serial, _ = run(capsys, *argv, "--parallelism", "1")
    code, out, err = run(capsys, *argv, "--parallelism", "1000")
    cpus = bch._usable_cpus()
    assert code == 0
    assert out == serial
    assert recording_pool.sizes == [cpus]
    # each scan is cut into about four tasks per worker the pool has
    assert max(recording_pool.tasks) <= 4 * cpus
    assert err.count("parallelism 1000 lowered") == 1
    assert f"parallelism 1000 lowered to {cpus}" in err


def test_parallelism_within_the_cpus_is_kept(capsys, monkeypatch, recording_pool):
    monkeypatch.setattr(bch, "_usable_cpus", lambda: 4)
    code, _, err = run(capsys, "table", "--degree", "5", "--backend", "dp", "--parallelism", "3")
    assert code == 0
    assert recording_pool.sizes == [3]
    assert "lowered" not in err
    assert bch.degree_coefficients(5, 2, "dp", parallelism=9) == bch.degree_coefficients(5, 2, "dp")
    assert recording_pool.sizes == [3, 4]


def test_library_pools_are_capped_without_a_word(capsys, recording_pool):
    # the CLI says once that a request was lowered; a library call that opens
    # a pool per degree clamps each one and prints nothing
    cpus = bch._usable_cpus()
    reports = [bch.degree_report(n, 2, "dp", parallelism=1000) for n in range(2, 7)]
    assert reports == [bch.degree_report(n, 2, "dp") for n in range(2, 7)]
    assert recording_pool.sizes == [cpus] * 5
    assert capsys.readouterr().err == ""


def _budget_at_degree_4(real):
    def degree_report(n, *args, **kwargs):
        if n == 4:
            raise cli.BudgetError("scan of degree 4 exceeds a test budget")
        return real(n, *args, **kwargs)

    return degree_report


def _disagreeing_at_degree_4(real):
    # the per-word DP of every word, wrong at degree 4 only: "both" finds the series disagrees
    return lambda word, K: Fraction(1, 7) if word.degree == 4 else real(word, K)


def _halved(real):
    # too small for some coefficient: a word is found whose denominator does not divide it
    return lambda n: (real(n)[0] // 2, real(n)[1])


# (argv, with "--backend dp --parallelism 2" after its command, bch attribute to patch and its factory,
# exit code, pools opened)
POOL_PATHS = {
    "pass": (["verify", "--what", "minimal", "--max", "7"], None, 0, 1),
    "violation": (["verify", "--what", "cor2", "--max", "6"], None, 1, 1),
    "budget-before-the-pool": (["verify", "--what", "cor1", "--max", "23"], None, 3, 0),
    "budget-inside-the-pool": (
        ["verify", "--what", "theorem", "--max", "6"], ("degree_report", _budget_at_degree_4), 3, 1
    ),
    "usage": (["verify", "--what", "cor1", "--max", "1"], None, 2, 0),
    "non-divisor": (["verify", "--what", "cor1", "--max", "5"], ("common_denominator", _halved), 1, 1),
    "disagreement": (
        ["verify", "--what", "minimal", "--max", "6", "--backend", "both"],
        ("bch_coeff_word", _disagreeing_at_degree_4),
        1,
        1,
    ),
    "table": (["table", "--degree", "6"], None, 0, 1),
    "table-dedup": (["table", "--degree", "6", "--dedup"], None, 0, 1),
}


@pytest.mark.parametrize("argv, patch, expected, pools", POOL_PATHS.values(), ids=POOL_PATHS.keys())
def test_every_pool_a_verify_run_opens_is_exited(
    capsys, monkeypatch, recording_pool, argv, patch, expected, pools
):
    # verify and table set up their scans alike, through cli._scan
    monkeypatch.setattr(bch, "_usable_cpus", lambda: 2)
    if patch is not None:
        attr, factory = patch
        monkeypatch.setattr(bch, attr, factory(getattr(bch, attr)))
    code, out, err = run(capsys, argv[0], "--backend", "dp", "--parallelism", "2", *argv[1:])
    assert code == expected
    assert recording_pool.sizes == [2] * pools
    assert len(recording_pool.exits) == pools
    if expected == 3:
        assert "budget" in err and (out == "") == (pools == 0)


def test_closed_stdout_exits_the_pool(monkeypatch, recording_pool):
    # the first write to stdout fails as on a closed pipe: _report closes the rows, and so the pool
    monkeypatch.setattr(bch, "_usable_cpus", lambda: 2)

    class ClosedStdout:
        def write(self, text):
            raise BrokenPipeError

    commands = [
        (["verify", "--what", "minimal", "--max", "6"], cli._CHECKS["minimal"][0]),
        (["table", "--degree", "6"], cli._table_rows),
    ]
    for opened, (argv, rows) in enumerate(commands, 1):
        args = cli.build_parser().parse_args([*argv, "--backend", "dp", "--parallelism", "2"])
        # the kept traceback holds the rows, so only an explicit close exits the pool here
        monkeypatch.setattr(sys, "stdout", ClosedStdout())
        with pytest.raises(BrokenPipeError) as closed:
            cli._report("plain", rows(args))
        assert closed.traceback
        assert recording_pool.sizes == [2] * opened
        assert len(recording_pool.exits) == opened


def test_usable_cpus_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert bch._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert bch._usable_cpus() == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["verify", "--what", "eq3", "--max", "5"],
        ["verify", "--what", "minimal", "--max", "6"],
        ["verify", "--what", "minimal", "--max", "6", "--backend", "dp", "--parallelism", "1"],
    ],
    ids=["help", "eq3", "minimal-series", "minimal-dp-serial"],
)
def test_serial_runs_do_not_import_multiprocessing(argv):
    # a fresh interpreter: only a run that opens a worker pool imports
    # multiprocessing, no run imports dataclasses (or the inspect module
    # it brings), and only a JSON or CSV run imports json or csv
    unused = ("multiprocessing", "dataclasses", "inspect", "json", "csv")
    script = (
        "import sys\n"
        "from bchdenom import cli\n"
        f"code = cli.main({argv!r})\n"
        f"sys.stderr.write(repr((code, [m for m in {unused!r} if m in sys.modules])))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "BCHDENOM_PARALLELISM": "1"}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert done.stderr.splitlines()[-1] == "(0, [])"


# ---------------------------------------------------------------------------
# exit-code contract: 0 pass, 1 violation, 2 usage, 3 budget, 141 closed stdout


def test_closed_stdout_exits_141_without_traceback():
    # about 300 kB of rows, more than a pipe holds: the writer is still
    # writing when the reader goes away after the first line
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "bchdenom.cli", "table", "--degree", "12"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.readline().startswith(b"degree 12, alphabet 2")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == cli.EXIT_BROKEN_PIPE == 141
    assert "Traceback" not in err and "BrokenPipeError" not in err
    proc.stderr.close()


def _plus_one(real):
    return lambda n: (real(n)[0] + 1, real(n)[1])


def _doubled(real):
    return lambda n: (real(n)[0] * 2, real(n)[1])


def _one(real):
    return lambda n: (1, real(n)[1])


def _always_divides(real):
    # a candidate that every denominator divides: degree 11 no longer fails
    return lambda n: cli.numtheory.common_denominator(n)[0]


# (argv, (module attribute to patch, factory from the real function), exit code)
EXIT_CASES = {
    "dn-pass": (["dn", "--max", "5"], None, 0),
    "dn-max-0": (["dn", "--max", "0"], None, 2),
    "coeff-pass": (["coeff", "AAB"], None, 0),
    "coeff-malformed": (["coeff", "AXB"], None, 2),
    "coeff-letters-beyond-26": (["coeff", "AB", "--alphabet", "27"], None, 2),
    "coeff-one-index-beyond-26": (["coeff", "5", "--alphabet", "27"], None, 0),
    "coeff-negative-index-beyond-26": (["coeff", "-1", "--alphabet", "30"], None, 2),
    "table-pass": (["table", "--degree", "4"], None, 0),
    "table-dedup-pass": (["table", "--degree", "4", "--dedup", "--backend", "dp"], None, 0),
    "table-degree-0": (["table", "--degree", "0"], None, 2),
    "table-budget": (["table", "--degree", "25"], None, 3),
    "table-backend-alias": (["table", "--degree", "4", "--backend", "per-word-dp"], None, 2),
    "theorem-pass": (["verify", "--what", "theorem", "--max", "6"], None, 0),
    "theorem-violation": (["verify", "--what", "theorem", "--max", "6"], ("bch.common_denominator", _one), 1),
    "minimal-pass-dp": (["verify", "--what", "minimal", "--max", "6", "--backend", "dp"], None, 0),
    "minimal-violation-dp": (
        ["verify", "--what", "minimal", "--max", "6", "--backend", "dp"],
        ("bch.common_denominator", _doubled),
        1,
    ),
    "minimal-max-0": (["verify", "--what", "minimal", "--max", "0"], None, 2),
    "minimal-backend-alias": (
        ["verify", "--what", "minimal", "--max", "6", "--backend", "per-word-dp"], None, 2
    ),
    "minimal-budget": (["verify", "--what", "minimal", "--alphabet", "3", "--max", "14"], None, 3),
    # the series and the DP disagree: a violation record, not a traceback
    "minimal-backend-disagreement": (
        ["verify", "--what", "minimal", "--max", "6", "--backend", "both"],
        ("bch.bch_coeff_word", _disagreeing_at_degree_4),
        1,
    ),
    "minimal-dp-three-letters-14": (
        ["verify", "--what", "minimal", "--alphabet", "3", "--max", "14", "--backend", "dp"],
        None,
        0,
    ),
    "cor1-pass": (["verify", "--what", "cor1", "--max", "7"], None, 0),
    "cor1-violation": (["verify", "--what", "cor1", "--max", "7"], ("bch.common_denominator", _doubled), 1),
    # a denominator that does not divide n! * d_n is a violation record, not a traceback
    "cor1-non-divisor": (["verify", "--what", "cor1", "--max", "5"], ("bch.common_denominator", _halved), 1),
    "cor1-three-letters": (["verify", "--what", "cor1", "--max", "5", "--alphabet", "3"], None, 2),
    "cor1-max-1": (["verify", "--what", "cor1", "--max", "1"], None, 2),
    "cor2-max-3": (["verify", "--what", "cor2", "--max", "3"], None, 2),
    "cor2-violation": (["verify", "--what", "cor2", "--max", "6"], None, 1),
    # refused before the first degree runs, as on the series backend
    "cor1-budget-dp": (["verify", "--what", "cor1", "--max", "23", "--backend", "dp"], None, 3),
    "cor2-budget-dp": (["verify", "--what", "cor2", "--max", "24", "--backend", "dp"], None, 3),
    "eq3-pass": (["verify", "--what", "eq3", "--max", "8"], None, 0),
    "eq3-violation": (["verify", "--what", "eq3", "--max", "3"], ("numtheory.common_denominator", _plus_one), 1),
    # p(71) partitions, over the scan budget: refused before any is enumerated
    "eq3-budget": (
        ["verify", "--what", "eq3", "--max", "71"], ("numtheory.Dn_bruteforce", _never_enumerated), 3
    ),
    # --enum-bound is gone, so any value of it is an unknown flag
    "eq3-enum-bound-0": (["verify", "--what", "eq3", "--max", "3", "--enum-bound", "0"], None, 2),
    "eq3-26": (["verify", "--what", "eq3", "--max", "26"], None, 0),
    "bernoulli-pass": (["verify", "--what", "bernoulli", "--max", "10"], None, 0),
    "bernoulli-violation": (
        ["verify", "--what", "bernoulli", "--max", "3"],
        ("numtheory.squarefree_kernel", lambda real: lambda n: real(n) + 1),
        1,
    ),
    "goldberg-pass": (["verify", "--what", "goldberg", "--max", "11"], None, 0),
    "goldberg-violation": (
        ["verify", "--what", "goldberg", "--max", "11"],
        ("numtheory.goldberg_denominator", _always_divides),
        1,
    ),
    "goldberg-max-10": (["verify", "--what", "goldberg", "--max", "10"], None, 2),
    "goldberg-max-3": (["verify", "--what", "goldberg", "--max", "3"], None, 2),
    "unknown-check": (["verify", "--what", "nonsense", "--max", "5"], None, 2),
}


@pytest.mark.parametrize("argv, patch, expected", EXIT_CASES.values(), ids=EXIT_CASES.keys())
def test_exit_code_contract(capsys, monkeypatch, argv, patch, expected):
    if patch is not None:
        target, factory = patch
        module_name, attr = target.split(".")
        module = getattr(cli, module_name)
        monkeypatch.setattr(module, attr, factory(getattr(module, attr)))
    code, out, err = run(capsys, *argv)
    assert code == expected
    assert "Traceback" not in err
    if expected == 1:
        violation = json.loads(out.strip().splitlines()[-1])
        assert violation["check"] == argv[2]
    elif expected == 2:
        assert err and out == ""
    elif expected == 3:
        assert "budget" in err and out == ""


# (argv, patched scan budget or None, what the refusal counts): one of each kind of size
BUDGET_REFUSALS = {
    "series-table": (["table", "--degree", "25"], None, f"scan of degree 25 of {2**25} words"),
    "per-word-scan": (
        ["verify", "--what", "cor1", "--max", "23", "--backend", "dp"], None, f"scan of degree 23 of {2**23} words"
    ),
    "class-scan": (
        ["verify", "--what", "minimal", "--alphabet", "3", "--max", "8", "--backend", "dp"],
        len(bch.class_representatives(8, 3)) - 1,
        f"scan of degree 8 of {len(bch.class_representatives(8, 3))} words",
    ),
    "partitions": (
        ["verify", "--what", "eq3", "--max", "71"], None, "partition enumeration of 71 of 4697205 partitions"
    ),
}


@pytest.mark.parametrize("argv, budget, what", BUDGET_REFUSALS.values(), ids=BUDGET_REFUSALS.keys())
def test_every_budget_refusal_is_one_message(capsys, monkeypatch, argv, budget, what):
    # tables, words, classes and partitions: one budget, one check, one message, and no output
    if budget is not None:
        monkeypatch.setattr(errors, "SCAN_BUDGET", budget)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.splitlines()[-1] == f"budget exceeded: {what} exceeds the scan budget {errors.SCAN_BUDGET}"


def test_plain_cor2_builds_only_the_printed_record(capsys, monkeypatch):
    # every cor2 degree fails, and a record names each violating word; plain format prints the
    # first failure's record alone, so it builds that one only
    calls = []
    real = bch.CongruenceReport.to_json_dict
    monkeypatch.setattr(bch.CongruenceReport, "to_json_dict", lambda r: calls.append(r.p) or real(r))
    code, out, _ = run(capsys, "verify", "--what", "cor2", "--max", "12")
    *lines, last = out.splitlines()
    assert code == 1 and calls == [3]
    assert [line.split(":")[0] for line in lines] == [f"cor2 p={p} (degree {p + 1})" for p in (3, 5, 7, 11)]
    assert json.loads(last) == {"check": "cor2", **real(bch.check_corollary_prime_plus_one(3))}


def _broken_at(degrees, broken):
    """A patch factory, as in EXIT_CASES, that applies ``broken`` at ``degrees`` only."""
    return lambda real: lambda n: broken(real)(n) if n in degrees else real(n)


def _int_plus_one(real):
    return lambda n: real(n) + 1


def _int_one(real):
    return lambda n: 1


# check: (--max, the degrees it reports, patch as in EXIT_CASES, the first of its two failing degrees)
TWO_FAILURES = {
    "theorem": ("6", [1, 2, 3, 4, 5, 6], ("bch.common_denominator", _broken_at((3, 5), _one)), 3),
    "cor1": ("7", [2, 3, 5, 7], ("bch.common_denominator", _broken_at((3, 5), _doubled)), 3),
    "goldberg": ("11", list(range(4, 12)), ("numtheory.goldberg_denominator", _broken_at((5, 7), _int_one)), 5),
    "eq3": ("6", [1, 2, 3, 4, 5, 6], ("numtheory.common_denominator", _broken_at((2, 4), _plus_one)), 2),
    "bernoulli": (
        "6", [1, 2, 3, 4, 5, 6], ("numtheory.squarefree_kernel", _broken_at((2, 4), _int_plus_one)), 2
    ),
}


@pytest.mark.parametrize("what", TWO_FAILURES)
def test_two_failing_degrees_emit_every_row_then_the_first_failure(capsys, monkeypatch, what):
    max_degree, degrees, (target, factory), first_failure = TWO_FAILURES[what]
    module_name, attr = target.split(".")
    module = getattr(cli, module_name)
    monkeypatch.setattr(module, attr, factory(getattr(module, attr)))
    violations = set()
    for output_format in ("plain", "json", "csv"):
        code, out, _ = run(capsys, "verify", "--what", what, "--max", max_degree, "--format", output_format)
        assert code == 1
        *lines, last = out.splitlines()
        if output_format == "plain":
            assert [line.split(" ", 1)[0] for line in lines] == [what] * len(degrees)
        elif output_format == "json":
            assert [json.loads(line)["degree"] for line in lines] == degrees
        else:
            header, *rows = csv.reader(io.StringIO("\n".join(lines)))
            assert [int(row[header.index("degree")]) for row in rows] == degrees
        violation = json.loads(last)
        assert (violation["check"], violation["degree"]) == (what, first_failure)
        violations.add(last)
    assert len(violations) == 1  # the violation record is JSON whatever the format
