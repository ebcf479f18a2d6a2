"""CLI contract tests: subcommands, formats, exit codes, determinism."""

from __future__ import annotations

import csv
import io
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bchdenom import bch, cli

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
    code, out, _ = run(capsys, "verify", "--what", "eq3", "--max", "10")
    assert code == 0
    assert out.count("PASS") == 10


def test_verify_eq3_budget_exceeded(capsys):
    code, _, err = run(capsys, "verify", "--what", "eq3", "--max", "22", "--enum-bound", "4")
    assert code == 3
    assert "budget" in err


def test_verify_eq3_budget_names_flag_degree_and_cap(capsys):
    code, out, err = run(capsys, "verify", "--what", "eq3", "--max", "22")
    assert code == 3
    assert out.count("PASS") == 20
    assert "--enum-bound 20" in err
    assert "degree 22" in err and "degree 21" in err
    assert "792 partitions" in err  # p(21)
    assert "hard cap" not in err  # --enum-bound is the only enumeration budget
    assert "compositions" not in err


def test_verify_enum_bound_hard_cap(capsys):
    # there is no hard cap: any bound of at least 1 is accepted
    code, out, err = run(capsys, "verify", "--what", "eq3", "--max", "5", "--enum-bound", "25")
    assert code == 0
    assert out.count("PASS") == 5


def test_verify_eq3_above_default_bound_warns_nothing(capsys):
    # the partition oracle at degree 24 is about interpreter start
    code, out, err = run(capsys, "verify", "--what", "eq3", "--max", "24", "--enum-bound", "24")
    assert code == 0
    assert out.count("PASS") == 24
    assert err == ""


def test_verify_bernoulli(capsys):
    code, out, _ = run(capsys, "verify", "--what", "bernoulli", "--max", "25")
    assert code == 0
    assert out.count("PASS") == 25


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
    monkeypatch.setattr(cli, "bch_series", None)
    monkeypatch.setattr(bch, "bch_series", None)
    code, out, _ = run(capsys, "verify", "--what", what, "--max", max_degree, "--backend", "dp")
    assert code == expected_code and out


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
        m.setattr(cli, "bch_series", None)
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

    monkeypatch.setattr(cli, "bch_series", no_series)
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
    [("2", "13", "dp", "101"), ("3", "14", "dp", "253"), ("2", "13", "series", "2**13")],
)
def test_verify_announces_the_words_it_computes(capsys, alphabet, degree, backend, count):
    # the class-reduced DP computes one word per run-length class (p(13) = 101
    # for two letters), the series backend every word
    argv = ["verify", "--what", "minimal", "--max", degree, "--alphabet", alphabet, "--backend", backend]
    code, _, err = run(capsys, *argv)
    assert code == 0
    assert err == f"scanning degree {degree} ({count} words)...\n"


@pytest.mark.parametrize(
    "what, max_degree, announced",
    [
        ("cor1", "14", "scanning degree 13 (2**13 words)...\n"),  # 13 is the largest prime <= 14
        ("cor2", "13", "scanning degree 12 (2**12 words)...\n"),  # 11 + 1 is the largest p + 1 <= 13
        ("cor1", "12", ""),  # its largest degree, 11, is below PROGRESS_DEGREE
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


def test_verify_goldberg_regression_exits_1(capsys, monkeypatch):
    # if degree 11 ever passed, the check must report it, not crash
    real = cli.bch.goldberg_check

    def degree_11_passes(*args, **kwargs):
        results = real(*args, **kwargs)
        return [
            bch.GoldbergDegreeResult(
                degree=r.degree,
                goldberg_denominator=r.goldberg_denominator,
                passed=True,
                witness=None,
                witness_denominator=None,
                ratio=None,
            )
            if r.degree == 11
            else r
            for r in results
        ]

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
        "--backend", "per-word-dp", "--parallelism", "2",
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
    outputs = set()
    for backend in ("series", "dp", "both"):
        for parallelism in ("1", "2"):
            code, out, _ = run(
                capsys,
                "table", "--degree", "9", "--dedup", "--format", "csv",
                "--backend", backend, "--parallelism", parallelism,
            )
            assert code == 0
            outputs.add(out)
    assert len(outputs) == 1

    def no_series(*_args, **_kwargs):
        raise AssertionError("a per-word table must not build the dense series")

    monkeypatch.setattr(cli.bch, "bch_series", no_series)
    code, out, _ = run(capsys, "table", "--degree", "9", "--dedup", "--format", "csv", "--backend", "dp")
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
    # a common denominator one factor of 2 short cannot hold every coefficient
    real = cli.bch.common_denominator
    monkeypatch.setattr(cli.bch, "common_denominator", lambda n: (real(n)[0] // 2, real(n)[1]))
    with pytest.raises(cli.bch.CommonDenominatorError):
        run(capsys, "table", "--degree", "5", "--backend", "dp", "--format", "json")


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
    code, out, _ = run(capsys, "table", "--degree", "3", "--backend", "per-word-dp", "--format", "csv")
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
    """Stands in for ``multiprocessing.Pool``: records its size and tasks, and maps in this process."""

    sizes: list[int] = []
    tasks: list[int] = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        self.tasks.append(len(items))
        return list(map(fn, items))


@pytest.fixture
def recording_pool(monkeypatch):
    """``multiprocessing.Pool``, replaced by a ``_RecordingPool``: no process starts."""
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(_RecordingPool, "tasks", [])
    monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
    return _RecordingPool


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--what", "minimal", "--max", "7", "--backend", "dp"],  # one pool for the run
        ["verify", "--what", "cor1", "--max", "7", "--backend", "both"],
        ["table", "--degree", "6", "--backend", "dp", "--format", "csv"],  # a pool of the scan's own
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
    "table-pass": (["table", "--degree", "4"], None, 0),
    "table-dedup-pass": (["table", "--degree", "4", "--dedup", "--backend", "dp"], None, 0),
    "table-degree-0": (["table", "--degree", "0"], None, 2),
    "table-budget": (["table", "--degree", "25"], None, 3),
    "theorem-pass": (["verify", "--what", "theorem", "--max", "6"], None, 0),
    "theorem-violation": (["verify", "--what", "theorem", "--max", "6"], ("bch.common_denominator", _one), 1),
    "minimal-pass-dp": (["verify", "--what", "minimal", "--max", "6", "--backend", "dp"], None, 0),
    "minimal-violation-dp": (
        ["verify", "--what", "minimal", "--max", "6", "--backend", "dp"],
        ("bch.common_denominator", _doubled),
        1,
    ),
    "minimal-max-0": (["verify", "--what", "minimal", "--max", "0"], None, 2),
    "minimal-budget": (["verify", "--what", "minimal", "--alphabet", "3", "--max", "14"], None, 3),
    "minimal-dp-three-letters-14": (
        ["verify", "--what", "minimal", "--alphabet", "3", "--max", "14", "--backend", "dp"],
        None,
        0,
    ),
    "cor1-pass": (["verify", "--what", "cor1", "--max", "7"], None, 0),
    "cor1-violation": (["verify", "--what", "cor1", "--max", "7"], ("bch.common_denominator", _doubled), 1),
    "cor1-three-letters": (["verify", "--what", "cor1", "--max", "5", "--alphabet", "3"], None, 2),
    "cor1-max-1": (["verify", "--what", "cor1", "--max", "1"], None, 2),
    "cor2-max-3": (["verify", "--what", "cor2", "--max", "3"], None, 2),
    "cor2-violation": (["verify", "--what", "cor2", "--max", "6"], None, 1),
    "eq3-pass": (["verify", "--what", "eq3", "--max", "8"], None, 0),
    "eq3-violation": (["verify", "--what", "eq3", "--max", "3"], ("numtheory.common_denominator", _plus_one), 1),
    "eq3-budget": (["verify", "--what", "eq3", "--max", "22", "--enum-bound", "4"], None, 3),
    "eq3-enum-bound-0": (["verify", "--what", "eq3", "--max", "3", "--enum-bound", "0"], None, 2),
    "eq3-enum-bound-negative": (["verify", "--what", "eq3", "--max", "3", "--enum-bound", "-1"], None, 2),
    "eq3-enum-bound-26": (["verify", "--what", "eq3", "--max", "26", "--enum-bound", "26"], None, 0),
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
        assert "budget" in err  # eq3 streams the degrees it finished first
