"""CLI contract tests: subcommands, formats, exit codes, determinism."""

from __future__ import annotations

import csv
import dataclasses
import io
import json

import pytest

from bchdenom import cli

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


def test_verify_enum_bound_hard_cap(capsys):
    code, _, err = run(capsys, "verify", "--what", "eq3", "--max", "5", "--enum-bound", "25")
    assert code == 2


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


def test_verify_cor1(capsys):
    code, out, _ = run(capsys, "verify", "--what", "cor1", "--max", "7")
    assert code == 0
    assert out.count("PASS") == 4  # p = 2, 3, 5, 7


def test_verify_cor2_reports_violations(capsys):
    # the uniform residue claim fails on B...A words; the CLI says so
    code, out, _ = run(capsys, "verify", "--what", "cor2", "--max", "6")
    assert code == 1
    violation = json.loads(out.strip().splitlines()[-1])
    assert violation["check"] == "cor2"
    assert violation["violations"]
    assert not violation["exceptional_zero_failures"]


def test_verify_goldberg(capsys):
    code, out, _ = run(capsys, "verify", "--what", "goldberg", "--max", "11")
    assert code == 0
    assert "AAAAAAAABBB" in out
    assert "2112/5" in out
    assert "1247400" in out


def test_verify_goldberg_below_counterexample(capsys):
    code, out, _ = run(capsys, "verify", "--what", "goldberg", "--max", "8")
    assert code == 0
    assert "FAILS" not in out


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


def test_verify_goldberg_regression_exits_1(capsys, monkeypatch):
    # if degree 11 ever passed, the check must report it, not crash
    real = cli.bch.goldberg_check

    def degree_11_passes(*args, **kwargs):
        results = real(*args, **kwargs)
        return [
            dataclasses.replace(r, passed=True, witness=None, witness_denominator=None, ratio=None)
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


# ---------------------------------------------------------------------------
# table


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


def test_table_scan_warning(capsys, monkeypatch):
    # degrees past the default budget still run, but announce the cost
    monkeypatch.setattr(cli.bch, "DEFAULT_SCAN_LIMIT", 4)
    code, _, err = run(capsys, "table", "--degree", "5")
    assert code == 0
    assert "warning" in err


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
