"""Command-line front end: every computation and check as a subcommand.

Exit codes: 0 all checks passed, 1 a check failed (a JSON violation
record is printed), 2 usage error, 3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import bch, numtheory
from .errors import BudgetError
from .freealgebra import Word, bch_coeff_word, bch_series
from .numtheory import DEFAULT_ENUMERATION_BOUND, HARD_ENUMERATION_CAP, PrimeFactorization

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

PARALLELISM_ENV = "BCHDENOM_PARALLELISM"

PROGRESS_DEGREE = 12  # scans at least this large announce themselves on stderr


@dataclass
class RunConfig:
    """Validated run parameters shared by the subcommands."""

    max_degree: int
    alphabet_size: int = 2
    backend: str = bch.SERIES_BACKEND
    output_format: str = "plain"
    parallelism: int = 1
    enumeration_bound: int = DEFAULT_ENUMERATION_BOUND

    def validate(self) -> None:
        if self.max_degree < 1:
            raise ValueError("max degree must be >= 1")
        if self.alphabet_size < 2:
            raise ValueError("alphabet size must be >= 2")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.enumeration_bound > HARD_ENUMERATION_CAP:
            raise ValueError(
                f"enumeration bound is hard-capped at {HARD_ENUMERATION_CAP}"
            )


def _parallelism(text: str) -> int:
    if text == "auto":
        return os.cpu_count() or 1
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid parallelism {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("parallelism must be >= 1")
    return value


def _warn(message: str) -> None:
    print(message, file=sys.stderr)


def _warn_budgets(config: RunConfig, scan_degree: int | None = None) -> None:
    if scan_degree is not None and scan_degree > bch.DEFAULT_SCAN_LIMIT:
        _warn(
            f"warning: scanning up to degree {scan_degree} exceeds the default "
            f"budget of {bch.DEFAULT_SCAN_LIMIT}; this may take a while"
        )
    if config.enumeration_bound > DEFAULT_ENUMERATION_BOUND:
        _warn(
            f"warning: enumeration bound {config.enumeration_bound} exceeds the "
            f"default of {DEFAULT_ENUMERATION_BOUND}; this may take a while"
        )


def _announce_scan(degree: int, alphabet_size: int) -> None:
    if degree >= PROGRESS_DEGREE:
        _warn(f"scanning degree {degree} ({alphabet_size}**{degree} words)...")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bchdenom",
        description=(
            "Exact coefficients of log(e^A e^B) and verification of the "
            "closed-form common denominator n!*d_n for each degree."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("plain", "json", "csv"),
            default="plain",
            help="output format (default plain)",
        )
        p.add_argument(
            "--parallelism",
            type=_parallelism,
            default=_parallelism(os.environ.get(PARALLELISM_ENV, "1")),
            help="worker count or 'auto' (default from $BCHDENOM_PARALLELISM or 1)",
        )

    p_dn = sub.add_parser("dn", help="tabulate d_n, its kernel, and n!*d_n")
    p_dn.add_argument("--max", type=int, required=True, metavar="N")
    add_common(p_dn)

    p_verify = sub.add_parser("verify", help="run one verification check")
    p_verify.add_argument(
        "--what",
        required=True,
        choices=("theorem", "minimal", "cor1", "cor2", "eq3", "bernoulli", "goldberg"),
        help=(
            "theorem: every denominator divides n!*d_n; "
            "minimal: the denominator lcm equals n!*d_n; "
            "cor1: prime-degree numerator congruence; "
            "cor2: prime-plus-one congruence and zero set; "
            "eq3: composition-lcm oracle equals n!*d_n; "
            "bernoulli: Bernoulli-polynomial denominator equals the kernel; "
            "goldberg: the Bernoulli-quotient candidate passes below degree 11 "
            "and fails at 11"
        ),
    )
    p_verify.add_argument("--max", type=int, required=True, metavar="N")
    p_verify.add_argument("--alphabet", type=int, default=2, metavar="K")
    p_verify.add_argument(
        "--backend",
        choices=("series", "per-word-dp", "dp", "both"),
        default="series",
    )
    p_verify.add_argument(
        "--enum-bound",
        type=int,
        default=DEFAULT_ENUMERATION_BOUND,
        metavar="B",
        help=f"composition enumeration bound (default {DEFAULT_ENUMERATION_BOUND}, "
        f"hard cap {HARD_ENUMERATION_CAP})",
    )
    add_common(p_verify)

    p_coeff = sub.add_parser("coeff", help="coefficient of a single word")
    p_coeff.add_argument("word", help="e.g. AAB, or comma-separated indices for K > 26")
    p_coeff.add_argument("--alphabet", type=int, default=2, metavar="K")
    add_common(p_coeff)

    p_table = sub.add_parser("table", help="coefficient table of one degree")
    p_table.add_argument("--degree", type=int, required=True, metavar="N")
    p_table.add_argument("--alphabet", type=int, default=2, metavar="K")
    p_table.add_argument(
        "--dedup", action="store_true", help="one row per distinct nonzero value"
    )
    p_table.add_argument(
        "--backend",
        choices=("series", "per-word-dp", "dp", "both"),
        default="series",
    )
    add_common(p_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        if args.command == "dn":
            return _cmd_dn(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "coeff":
            return _cmd_coeff(args)
        if args.command == "table":
            return _cmd_table(args)
        raise AssertionError(args.command)
    except BudgetError as exc:
        _warn(f"budget exceeded: {exc}")
        return EXIT_BUDGET
    except ValueError as exc:
        _warn(f"error: {exc}")
        return EXIT_USAGE


def _csv_writer():
    return csv.writer(sys.stdout, lineterminator="\n")


# ---------------------------------------------------------------------------
# dn


def _cmd_dn(args: argparse.Namespace) -> int:
    config = RunConfig(max_degree=args.max, output_format=args.format)
    config.validate()
    rows = []
    for n in range(1, args.max + 1):
        d_n, d_fact = numtheory.compute_dn(n)
        kernel = numtheory.squarefree_kernel(n)
        common, common_fact = numtheory.common_denominator(n)
        rows.append((n, d_n, kernel, common, str(d_fact), str(common_fact)))
    if args.format == "json":
        for n, d_n, kernel, common, d_fact, common_fact in rows:
            print(
                json.dumps(
                    {
                        "n": n,
                        "d_n": str(d_n),
                        "kernel": str(kernel),
                        "common_denominator": str(common),
                        "d_n_factorization": d_fact,
                        "common_factorization": common_fact,
                    }
                )
            )
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow(
            ["n", "d_n", "kernel", "common_denominator", "d_n_factorization", "common_factorization"]
        )
        for row in rows:
            writer.writerow(row)
    else:
        print(f"{'n':>3} {'d_n':>6} {'kernel':>6} {'n!*d_n':>24}  {'d_n factors':<14} n!*d_n factors")
        for n, d_n, kernel, common, d_fact, common_fact in rows:
            print(f"{n:>3} {d_n:>6} {kernel:>6} {common:>24}  {d_fact:<14} {common_fact}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


class _CheckEmitter:
    """One report line per check item; CSV gets a header from the first record."""

    def __init__(self, output_format: str):
        self.output_format = output_format
        self.fields: list[str] | None = None

    def emit(self, record: dict, plain: str) -> None:
        if self.output_format == "json":
            print(json.dumps(record))
        elif self.output_format == "csv":
            writer = _csv_writer()
            if self.fields is None:
                self.fields = sorted(record)
                writer.writerow(self.fields)
            writer.writerow([_csv_cell(record.get(k)) for k in self.fields])
        else:
            print(plain)


def _csv_cell(value):
    if isinstance(value, (list, dict)):
        return json.dumps(value)
    if value is None:
        return ""
    return value


def _emit_violation(record: dict) -> None:
    # the violation record is always JSON, whatever the report format
    print(json.dumps(record))


def _cmd_verify(args: argparse.Namespace) -> int:
    config = RunConfig(
        max_degree=args.max,
        alphabet_size=args.alphabet,
        backend=args.backend,
        output_format=args.format,
        parallelism=args.parallelism,
        enumeration_bound=getattr(args, "enum_bound", DEFAULT_ENUMERATION_BOUND),
    )
    config.validate()
    what = args.what
    emitter = _CheckEmitter(args.format)
    if what in ("theorem", "minimal", "cor1", "cor2", "goldberg"):
        return _verify_scanning(args, config, emitter)
    if what == "eq3":
        _warn_budgets(config)
        failures = []
        for n in range(1, args.max + 1):
            oracle = numtheory.Dn_bruteforce(n, bound=config.enumeration_bound)
            closed, _ = numtheory.common_denominator(n)
            ok = oracle == closed
            if not ok:
                failures.append({"check": "eq3", "degree": n, "oracle": str(oracle), "closed_form": str(closed)})
            emitter.emit(
                {"check": "eq3", "degree": n, "passed": ok, "value": str(closed)},
                f"eq3 n={n}: {'PASS' if ok else 'FAIL'} ({oracle} vs {closed})",
            )
        return _finish(failures)
    if what == "bernoulli":
        failures = []
        for n in range(1, args.max + 1):
            poly = numtheory.bernoulli_poly_denominator(n)
            kernel = numtheory.squarefree_kernel(n)
            ok = poly == kernel
            if not ok:
                failures.append({"check": "bernoulli", "degree": n, "poly_denominator": str(poly), "kernel": str(kernel)})
            emitter.emit(
                {"check": "bernoulli", "degree": n, "passed": ok, "value": str(kernel)},
                f"bernoulli n={n}: {'PASS' if ok else 'FAIL'} ({poly} vs {kernel})",
            )
        return _finish(failures)
    raise AssertionError(what)


def _finish(failures: list[dict]) -> int:
    if failures:
        _emit_violation(failures[0])
        return EXIT_VIOLATION
    return EXIT_OK


def _verify_scanning(args: argparse.Namespace, config: RunConfig, emitter: _CheckEmitter) -> int:
    what = args.what
    K = config.alphabet_size
    N = config.max_degree
    _warn_budgets(config, scan_degree=N)
    _announce_scan(N, K)
    # theorem and minimal read the series only through the series backend
    per_word_only = (
        what in ("theorem", "minimal") and bch.canonical_backend(config.backend) == bch.DP_BACKEND
    )
    series = None if per_word_only else bch_series(K, N)
    failures: list[dict] = []

    if what in ("theorem", "minimal"):
        for n in range(1, N + 1):
            report = bch.degree_report(
                n, K, config.backend,
                series=series, parallelism=config.parallelism, scan_limit=N,
            )
            ok = report.divisibility_ok if what == "theorem" else report.minimal
            if not ok:
                failures.append({"check": what, **report.to_json_dict()})
            emitter.emit(
                {"check": what, "passed": ok, **report.to_json_dict()},
                f"{what} n={n}: {'PASS' if ok else 'FAIL'} "
                f"(lcm {report.observed_lcm}, n!*d_n {report.common_denominator})",
            )
        return _finish(failures)

    if what == "cor1":
        if K != 2:
            raise ValueError("cor1 is a two-letter check")
        for p in numtheory.primes_below(N + 1):
            report = bch.check_corollary_prime(p, series=series, scan_limit=N)
            if not report.passed:
                failures.append({"check": "cor1", **report.to_json_dict()})
            emitter.emit(
                {"check": "cor1", **report.to_json_dict()},
                f"cor1 p={p}: {'PASS' if report.passed else 'FAIL'} "
                f"(expected residue {report.expected_residue} mod {p})",
            )
        return _finish(failures)

    if what == "cor2":
        if K != 2:
            raise ValueError("cor2 is a two-letter check")
        for p in numtheory.primes_below(N):
            if p == 2 or p + 1 > N:
                continue
            report = bch.check_corollary_prime_plus_one(p, series=series, scan_limit=N)
            if not report.passed:
                failures.append({"check": "cor2", **report.to_json_dict()})
            emitter.emit(
                {"check": "cor2", **report.to_json_dict()},
                f"cor2 p={p} (degree {p + 1}): {'PASS' if report.passed else 'FAIL'} "
                f"(expected residue {report.expected_residue} mod {p})",
            )
        return _finish(failures)

    if what == "goldberg":
        if K != 2:
            raise ValueError("goldberg is a two-letter check")
        if N < 4:
            raise ValueError("goldberg needs --max >= 4")
        results = bch.goldberg_check(N, series=series, scan_limit=N)
        for result in results:
            emitter.emit(
                {"check": "goldberg", **result.to_json_dict()},
                f"goldberg n={result.degree}: "
                f"{'divides' if result.passed else 'FAILS'}"
                + (
                    ""
                    if result.passed
                    else f" at {result.witness.to_string(2)}"
                    f" (denominator {result.witness_denominator}, ratio {result.ratio})"
                ),
            )
        # expected pattern: all degrees through 10 pass, degree 11 fails
        expected_ok = all(r.passed == (r.degree <= 10) for r in results if r.degree <= 11)
        if not expected_ok:
            bad = next(r for r in results if r.degree <= 11 and r.passed != (r.degree <= 10))
            _emit_violation({"check": "goldberg", **bad.to_json_dict()})
            return EXIT_VIOLATION
        return EXIT_OK

    raise AssertionError(what)


# ---------------------------------------------------------------------------
# coeff


def _cmd_coeff(args: argparse.Namespace) -> int:
    config = RunConfig(max_degree=1, alphabet_size=args.alphabet, output_format=args.format)
    config.validate()
    word = Word.from_string(args.word, args.alphabet)
    if word.degree < 1:
        raise ValueError("the word must be nonempty")
    h = bch_coeff_word(word, args.alphabet)
    common, _ = numtheory.common_denominator(word.degree)
    a = bch.numerator_over_common(word, args.alphabet, coefficient=h)
    factorization = PrimeFactorization.of(h.denominator)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "word": word.to_string(args.alphabet),
                    "h_num": str(h.numerator),
                    "h_den": str(h.denominator),
                    "a": str(a),
                    "denom_factorization": str(factorization),
                    "common_denominator": str(common),
                }
            )
        )
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["word", "h_num", "h_den", "a", "denom_factorization"])
        writer.writerow(
            [word.to_string(args.alphabet), h.numerator, h.denominator, a, str(factorization)]
        )
    else:
        print(f"word               {word.to_string(args.alphabet)}")
        print(f"degree             {word.degree}")
        print(f"coefficient        {h}")
        print(f"denominator        {h.denominator} = {factorization}")
        print(f"common denominator {common}")
        print(f"numerator over it  {a}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# table


def _cmd_table(args: argparse.Namespace) -> int:
    config = RunConfig(
        max_degree=args.degree,
        alphabet_size=args.alphabet,
        backend=args.backend,
        output_format=args.format,
        parallelism=args.parallelism,
    )
    config.validate()
    n = args.degree
    K = args.alphabet
    _warn_budgets(config, scan_degree=n)
    _announce_scan(n, K)
    common, _ = numtheory.common_denominator(n)

    if args.dedup:
        entries = bch.coefficient_value_table(n, K, scan_limit=n)
        rows = [
            (
                e.word.to_string(K),
                str(e.value.numerator),
                str(e.value.denominator),
                str(e.numerator),
                str(e.denominator_factorization),
            )
            for e in entries
        ]
    else:
        coeffs = bch.degree_coefficients(
            n, K, config.backend, parallelism=config.parallelism, scan_limit=n
        )
        rows = []
        for packed, h in enumerate(coeffs):
            word = Word.unpack(packed, n, K)
            a = bch.numerator_over_common(word, K, coefficient=h)
            rows.append(
                (
                    word.to_string(K),
                    str(h.numerator),
                    str(h.denominator),
                    str(a),
                    str(PrimeFactorization.of(h.denominator)),
                )
            )

    if args.format == "json":
        for word, h_num, h_den, a, fact in rows:
            print(
                json.dumps(
                    {
                        "word": word,
                        "h_num": h_num,
                        "h_den": h_den,
                        "a": a,
                        "denom_factorization": fact,
                    }
                )
            )
    elif args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["word", "h_num", "h_den", "a", "denom_factorization"])
        for row in rows:
            writer.writerow(row)
    else:
        print(f"degree {n}, alphabet {K}, common denominator {common}")
        for word, h_num, h_den, a, fact in rows:
            value = Fraction(int(h_num), int(h_den))
            print(f"{word:<{n + 2}} h={value!s:<16} a={a:<12} denom={fact}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
