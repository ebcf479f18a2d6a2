"""Command-line front end: every computation and check as a subcommand.

Exit codes: 0 all checks passed, 1 a check failed (a JSON violation
record is printed), 2 usage error, 3 resource budget exceeded, 141 stdout
was closed before the output was written (as by ``| head``; the shell's
status for a process killed by SIGPIPE).
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence
from fractions import Fraction

from . import bch, numtheory
from .errors import BudgetError
from .freealgebra import Word, bch_coeff_word, bch_series
from .numtheory import DEFAULT_ENUMERATION_BOUND, PrimeFactorization

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_BROKEN_PIPE = 141

PARALLELISM_ENV = "BCHDENOM_PARALLELISM"

PROGRESS_DEGREE = 12  # scans at least this large announce themselves on stderr


def _validate(args: argparse.Namespace) -> None:
    """Reject out-of-range arguments argparse lets through (a usage error, exit 2)."""
    if getattr(args, "max", getattr(args, "degree", 1)) < 1:
        raise ValueError("max degree must be >= 1")
    if getattr(args, "alphabet", 2) < 2:
        raise ValueError("alphabet size must be >= 2")
    if getattr(args, "enum_bound", DEFAULT_ENUMERATION_BOUND) < 1:
        raise ValueError("enumeration bound must be >= 1")


def _parallelism(text: str) -> int:
    if text == "auto":
        return bch._usable_cpus()
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid parallelism {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("parallelism must be >= 1")
    size = bch._pool_size(value)
    if size < value:
        _warn(f"parallelism {value} lowered to {size}, the CPUs this process may use")
    return size


def _warn(message: str) -> None:
    print(message, file=sys.stderr)


def _announce_scan(degree: int, alphabet_size: int, words: list[int] | None = None) -> None:
    """Announce a large scan of ``words`` (None: every word) on stderr."""
    if degree >= PROGRESS_DEGREE:
        count = f"{alphabet_size}**{degree}" if words is None else len(words)
        _warn(f"scanning degree {degree} ({count} words)...")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bchdenom",
        description=(
            "Exact coefficients of log(e^A e^B) and verification of the "
            "closed-form common denominator n!*d_n for each degree."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("plain", "json", "csv"),
            default="plain",
            help="output format (default plain)",
        )

    def add_scan(p: argparse.ArgumentParser) -> None:
        """The flags of the commands that compute a degree's coefficients."""
        p.add_argument("--backend", choices=tuple(bch._BACKEND_ALIASES), default="series")
        p.add_argument(
            "--parallelism",
            type=_parallelism,
            # a string default goes through type=, so a bad value is a usage error
            default=os.environ.get(PARALLELISM_ENV, "1"),
            help="worker count or 'auto' (default from $BCHDENOM_PARALLELISM or 1)",
        )

    p_dn = sub.add_parser("dn", help="tabulate d_n, its kernel, and n!*d_n")
    p_dn.add_argument("--max", type=int, required=True, metavar="N")
    add_format(p_dn)

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
    add_scan(p_verify)
    p_verify.add_argument(
        "--enum-bound",
        type=int,
        default=DEFAULT_ENUMERATION_BOUND,
        metavar="B",
        help=f"largest degree the eq3 oracle enumerates partitions for "
        f"(default {DEFAULT_ENUMERATION_BOUND})",
    )
    add_format(p_verify)

    p_coeff = sub.add_parser("coeff", help="coefficient of a single word")
    p_coeff.add_argument("word", help="e.g. AAB, or indices for K > 26 (0,5,29 or 5)")
    p_coeff.add_argument("--alphabet", type=int, default=2, metavar="K")
    add_format(p_coeff)

    p_table = sub.add_parser("table", help="coefficient table of one degree")
    p_table.add_argument("--degree", type=int, required=True, metavar="N")
    p_table.add_argument("--alphabet", type=int, default=2, metavar="K")
    p_table.add_argument(
        "--dedup", action="store_true", help="one row per distinct nonzero value"
    )
    add_scan(p_table)
    add_format(p_table)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    commands = {"dn": _cmd_dn, "verify": _cmd_verify, "coeff": _cmd_coeff, "table": _cmd_table}
    try:
        _validate(args)
        code = commands[args.command](args)
        sys.stdout.flush()  # a closed pipe then shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # as the Python docs on SIGPIPE advise: send what is still buffered
        # to devnull, so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except BudgetError as exc:
        _warn(f"budget exceeded: {exc}")
        return EXIT_BUDGET
    except ValueError as exc:
        _warn(f"error: {exc}")
        return EXIT_USAGE


# ---------------------------------------------------------------------------
# dn


_DN_FIELDS = ("n", "d_n", "kernel", "common_denominator", "d_n_factorization", "common_factorization")


def _cmd_dn(args: argparse.Namespace) -> int:
    header = f"{'n':>3} {'d_n':>6} {'kernel':>6} {'n!*d_n':>24}  {'d_n factors':<14} n!*d_n factors"
    emitter = _CheckEmitter(args.format, fields=_DN_FIELDS, header=header)
    for n in range(1, args.max + 1):
        d_n, d_fact = numtheory.compute_dn(n)
        kernel = numtheory.squarefree_kernel(n)
        common, common_fact = numtheory.common_denominator(n)
        values = (n, str(d_n), str(kernel), str(common), str(d_fact), str(common_fact))
        emitter.emit(
            dict(zip(_DN_FIELDS, values)),
            f"{n:>3} {d_n:>6} {kernel:>6} {common:>24}  {d_fact!s:<14} {common_fact}",
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


class _CheckEmitter:
    """One output line per record, as JSON, CSV or plain text.

    CSV has the columns ``fields`` (default: the first record's keys,
    sorted) and a header row of their names; plain text has the ``header``
    line, if any.  Either header comes before the first record.  ``json``
    and ``csv`` are imported only for the format that writes them, so a
    plain run never loads them.
    """

    def __init__(
        self, output_format: str, *, fields: Sequence[str] | None = None, header: str | None = None
    ):
        self.output_format = output_format
        self.fields = fields
        self.header = header
        self.started = False
        if output_format == "json":
            import json

            self.dumps = json.dumps
        elif output_format == "csv":
            import csv

            self.writer = csv.writer(sys.stdout, lineterminator="\n")

    def emit(self, record: dict, plain: str) -> None:
        if self.output_format == "json":
            print(self.dumps(record))
        elif self.output_format == "csv":
            if not self.started:
                self.fields = self.fields or sorted(record)
                self.writer.writerow(self.fields)
            self.writer.writerow([_csv_cell(record.get(k)) for k in self.fields])
        else:
            if not self.started and self.header is not None:
                print(self.header)
            print(plain)
        self.started = True


def _csv_cell(value):
    if isinstance(value, (list, dict)):
        import json

        return json.dumps(value)
    if value is None:
        return ""
    return value


def _cmd_verify(args: argparse.Namespace) -> int:
    what = args.what
    emitter = _CheckEmitter(args.format)
    if what in ("theorem", "minimal", "cor1", "cor2", "goldberg"):
        return _verify_scanning(args, emitter)
    if what == "eq3":
        bound = args.enum_bound
        failures = []
        for n in range(1, args.max + 1):
            if n > bound:
                # n is bound + 1: counting its partitions costs less than
                # the oracle just spent on degree bound
                count = sum(1 for _ in numtheory.partitions(n))
                raise BudgetError(
                    f"eq3 up to degree {args.max} needs degree {n} ({count} partitions), "
                    f"beyond the enumeration budget --enum-bound {bound}"
                )
            oracle = numtheory.Dn_bruteforce(n, bound=bound)
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
    if not failures:
        return EXIT_OK
    # the violation record is always JSON, whatever the report format
    import json

    print(json.dumps(failures[0]))
    return EXIT_VIOLATION


#: Smallest --max for each two-letter check; below it the check would pass
#: without examining the degrees its claim is about.
_LEAST_MAX = {
    "cor1": (2, "the first prime degree is 2"),
    "cor2": (4, "the first odd prime p = 3 has degree p + 1 = 4"),
    "goldberg": (11, "the candidate first fails at degree 11"),
}


def _congruence_primes(what: str, N: int) -> list[int]:
    """The primes cor1 checks (degrees p <= N), or cor2 (degrees p + 1 <= N, p odd)."""
    return numtheory.primes_below(N + 1) if what == "cor1" else numtheory.primes_below(N)[1:]


def _verify_scanning(args: argparse.Namespace, emitter: _CheckEmitter) -> int:
    what = args.what
    K = args.alphabet
    N = args.max
    if what in _LEAST_MAX:
        if K != 2:
            raise ValueError(f"{what} is a two-letter check")
        least, reason = _LEAST_MAX[what]
        if N < least:
            raise ValueError(f"{what} needs --max {least} or more: {reason}")
    # announce the largest degree the check scans: cor1 and cor2 compute
    # every word of their primes' degrees, the others the words degree_report does
    if what in ("cor1", "cor2"):
        p = _congruence_primes(what, N)[-1]
        _announce_scan(p if what == "cor1" else p + 1, K)
    else:
        _announce_scan(N, K, bch.report_words(N, K, args.backend))
    # the per-word DP alone reads no series; the others share one for every degree
    series = None if bch.canonical_backend(args.backend) == bch.DP_BACKEND else bch_series(K, N)
    with bch.worker_pool(args.backend, args.parallelism) as pool:
        scan = {"backend": args.backend, "series": series, "parallelism": args.parallelism, "pool": pool}
        return _run_scanning(what, K, N, scan, emitter)


def _run_scanning(what: str, K: int, N: int, scan: dict, emitter: _CheckEmitter) -> int:
    """Run one scanning check; ``scan`` holds the backend keywords of every degree it reads."""
    failures: list[dict] = []

    if what in ("theorem", "minimal"):
        for n in range(1, N + 1):
            report = bch.degree_report(n, K, **scan)
            ok = report.divisibility_ok if what == "theorem" else report.minimal
            if not ok:
                failures.append({"check": what, **report.to_json_dict()})
            emitter.emit(
                {"check": what, "passed": ok, **report.to_json_dict()},
                f"{what} n={n}: {'PASS' if ok else 'FAIL'} "
                f"(lcm {report.observed_lcm}, n!*d_n {report.common_denominator})",
            )
        return _finish(failures)

    if what in ("cor1", "cor2"):
        check = bch.check_corollary_prime if what == "cor1" else bch.check_corollary_prime_plus_one
        for p in _congruence_primes(what, N):
            report = check(p, **scan)
            if not report.passed:
                failures.append({"check": what, **report.to_json_dict()})
            degree = "" if report.degree == p else f" (degree {report.degree})"
            emitter.emit(
                {"check": what, **report.to_json_dict()},
                f"{what} p={p}{degree}: {'PASS' if report.passed else 'FAIL'} "
                f"(expected residue {report.expected_residue} mod {p})",
            )
        return _finish(failures)

    if what == "goldberg":
        for r in bch.goldberg_check(N, **scan):
            outcome = "divides" if r.passed else (
                f"FAILS at {r.witness.to_string(2)} (denominator {r.witness_denominator}, ratio {r.ratio})"
            )
            emitter.emit({"check": "goldberg", **r.to_json_dict()}, f"goldberg n={r.degree}: {outcome}")
            # expected pattern: all degrees through 10 pass, degree 11 fails
            if r.degree <= 11 and r.passed != (r.degree <= 10):
                failures.append({"check": "goldberg", **r.to_json_dict()})
        return _finish(failures)

    raise AssertionError(what)


# ---------------------------------------------------------------------------
# coeff and table: one row per word, in the same columns

_WORD_FIELDS = ("word", "h_num", "h_den", "a", "denom_factorization")


def _word_record(word: str, h: Fraction, a: int, factorization: PrimeFactorization) -> dict:
    values = (word, str(h.numerator), str(h.denominator), str(a), str(factorization))
    return dict(zip(_WORD_FIELDS, values))


def _cmd_coeff(args: argparse.Namespace) -> int:
    word = Word.from_string(args.word, args.alphabet)
    if word.degree < 1:
        raise ValueError("the word must be nonempty")
    h = bch_coeff_word(word, args.alphabet)
    common, _ = numtheory.common_denominator(word.degree)
    a = bch.numerator_over_common(word, args.alphabet, coefficient=h)
    factorization = PrimeFactorization.of(h.denominator)
    text = word.to_string(args.alphabet)
    # the JSON record also carries the common denominator; the CSV row does not
    _CheckEmitter(args.format, fields=_WORD_FIELDS).emit(
        {**_word_record(text, h, a, factorization), "common_denominator": str(common)},
        f"word               {text}\n"
        f"degree             {word.degree}\n"
        f"coefficient        {h}\n"
        f"denominator        {h.denominator} = {factorization}\n"
        f"common denominator {common}\n"
        f"numerator over it  {a}",
    )
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    n = args.degree
    K = args.alphabet
    _announce_scan(n, K)
    common, _ = numtheory.common_denominator(n)

    header = f"degree {n}, alphabet {K}, common denominator {common}"
    emitter = _CheckEmitter(args.format, fields=_WORD_FIELDS, header=header)

    def emit(word: Word, h: Fraction, a: int, factorization: PrimeFactorization) -> None:
        text = word.to_string(K)
        record = _word_record(text, h, a, factorization)
        plain = "" if args.format != "plain" else (  # only the plain format prints this line
            f"{text:<{n + 2}} h={h!s:<16} a={a!s:<12} denom={record['denom_factorization']}"
        )
        emitter.emit(record, plain)

    if args.dedup:
        for e in bch.coefficient_value_table(n, K, args.backend, parallelism=args.parallelism):
            emit(e.word, e.value, e.numerator, e.denominator_factorization)
    else:
        coeffs = bch.degree_coefficients(n, K, args.backend, parallelism=args.parallelism)
        for packed, h in enumerate(coeffs):
            word = Word.unpack(packed, n, K)
            a = bch.numerator_over_common(word, K, coefficient=h)
            emit(word, h, a, PrimeFactorization.of(h.denominator))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
