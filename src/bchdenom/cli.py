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
from collections.abc import Callable, Generator, Iterator, Sequence
from contextlib import AbstractContextManager, closing
from functools import partial

from . import bch, numtheory
from .errors import BudgetError, check_budget
from .freealgebra import Word, bch_coeff_word

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_BROKEN_PIPE = 141

PARALLELISM_ENV = "BCHDENOM_PARALLELISM"

PROGRESS_WORDS = 2**12  # a scan whose largest degree has this many words or more announces itself on stderr


def _validate(args: argparse.Namespace) -> None:
    """Reject out-of-range arguments argparse lets through (a usage error, exit 2)."""
    if getattr(args, "max", getattr(args, "degree", 1)) < 1:
        raise ValueError("max degree must be >= 1")
    if getattr(args, "alphabet", 2) < 2:
        raise ValueError("alphabet size must be >= 2")
    if getattr(args, "what", None) and _CHECKS[args.what][2]:
        if args.alphabet != 2:
            raise ValueError(f"{args.what} is a two-letter check")
        least, reason = _CHECKS[args.what][2]
        if args.max < least:
            raise ValueError(f"{args.what} needs --max {least} or more: {reason}")


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
        p.add_argument("--backend", choices=bch.BACKENDS, default="series")
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
        choices=tuple(_CHECKS),
        help="; ".join(f"{what}: {claim}" for what, (_, claim, _) in _CHECKS.items()),
    )
    p_verify.add_argument("--max", type=int, required=True, metavar="N")
    p_verify.add_argument("--alphabet", type=int, default=2, metavar="K")
    add_scan(p_verify)
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
    except (bch.CommonDenominatorError, bch.BackendDisagreementError) as exc:  # a violation, not a crash
        return _violation({"check": getattr(args, "what", args.command), "error": str(exc)})
    except ValueError as exc:
        _warn(f"error: {exc}")
        return EXIT_USAGE


# ---------------------------------------------------------------------------
# verify, and the one row loop every command prints through (_report)


def _report(
    output_format: str,
    rows: Generator[tuple, None, None],
    fields: Sequence[str] | None = None,
    header: str | None = None,
) -> int:
    """Print every row; then print the first failure record, always as JSON, and return 1, or return 0.

    A row is (record, plain line, failure record or None); a row may leave out (as None) a record
    its format does not print, and every failure after the first.  CSV has the columns ``fields``
    (default: the first record's keys, sorted) and a header row of their names; plain text has the
    ``header`` line, if any.  Either header comes before the first row.  ``json`` and ``csv`` are
    imported only for the format that writes them, so a plain run never loads them.  ``rows`` is
    closed on every way out, a closed stdout too, and with it any worker pool it holds.
    """
    failure = None
    with closing(rows):
        if output_format == "json":
            import json
        elif output_format == "csv":
            import csv

            writer = csv.writer(sys.stdout, lineterminator="\n")
        for count, (record, plain, failed) in enumerate(rows):
            if output_format == "json":
                print(json.dumps(record))
            elif output_format == "csv":
                if not count:
                    fields = fields or sorted(record)
                    writer.writerow(fields)
                writer.writerow([_csv_cell(record.get(k)) for k in fields])
            else:
                if not count and header is not None:
                    print(header)
                print(plain)
            failure = failed if failure is None else failure
    return EXIT_OK if failure is None else _violation(failure)


def _csv_cell(value):
    if isinstance(value, (list, dict)):
        import json

        return json.dumps(value)
    return "" if value is None else value


def _violation(record: dict) -> int:
    import json

    print(json.dumps(record))  # JSON whatever the format, as the last line of stdout
    return EXIT_VIOLATION


def _cmd_verify(args: argparse.Namespace) -> int:
    return _report(args.format, _CHECKS[args.what][0](args))


def _scan(args: argparse.Namespace, degree: int, per_class: bool = False) -> AbstractContextManager[dict]:
    """The backend keywords of a scanning command's run, from ``bch.shared_scan``.

    The largest ``degree`` is first held to the scan budget (``bch.scan_count``: one word per
    class on the per-word DP where ``per_class``, else every word), so a refused run prints
    nothing but the refusal; then it is announced (``_announce``) with the words computed there.
    The series is built and the pool opened when the context is entered.
    """
    per_class = per_class and args.backend == bch.DP_BACKEND
    count = bch.scan_count(degree, args.alphabet, per_class)
    _announce(degree, args.alphabet, f"{count} words")
    return bch.shared_scan(args.alphabet, args.backend, args.parallelism, degree)


def _announce(degree: int, alphabet_size: int, count: str) -> None:
    """Name a run's largest degree on stderr with its ``count``, if it has ``PROGRESS_WORDS`` words or more."""
    if alphabet_size**degree >= PROGRESS_WORDS:
        _warn(f"scanning degree {degree} ({count})...")


def _degree_rows(verdict: str, args: argparse.Namespace) -> Iterator[tuple]:
    """theorem and minimal: one degree report per degree, judged by its field ``verdict``."""
    what, K, N = args.what, args.alphabet, args.max
    with _scan(args, N, per_class=True) as scan:
        for n in range(1, N + 1):
            report = bch.degree_report(n, K, **scan)
            ok, fields = getattr(report, verdict), report.to_json_dict()
            plain = (
                f"{what} n={n}: {'PASS' if ok else 'FAIL'} "
                f"(lcm {report.observed_lcm}, n!*d_n {report.common_denominator})"
            )
            yield {"check": what, "passed": ok, **fields}, plain, None if ok else {"check": what, **fields}


def _congruence_rows(args: argparse.Namespace) -> Iterator[tuple]:
    """cor1 at the prime degrees p <= N, cor2 at the degrees p + 1 <= N of the odd primes p.

    The largest prime up to N - shift exceeds half of it (Bertrand's postulate), so that lower bound
    of the largest degree is held to the budget before the primes, N bytes of sieve, are listed.
    """
    what, N = args.what, args.max
    shift = 0 if what == "cor1" else 1
    least = (N - shift) // 2 + 1 + shift
    check_budget(lambda m: args.alphabet**m, least, f"{what} scan of degree {least} or more", "words")
    if what == "cor1":
        check, primes = bch.check_corollary_prime, numtheory.primes_below(N + 1)
    else:
        check, primes = bch.check_corollary_prime_plus_one, numtheory.primes_below(N)[1:]
    failed = False
    with _scan(args, primes[-1] + shift) as scan:  # each degree's every word
        for p in primes:
            report = check(p, **scan)
            # a record names every violating word, so it is built only where it is printed: on every
            # json and csv row, and in plain format for the first failure alone
            printed = args.format != "plain" or not (report.passed or failed)
            record = {"check": what, **report.to_json_dict()} if printed else None
            failed = failed or not report.passed
            degree = "" if report.degree == p else f" (degree {report.degree})"
            plain = (
                f"{what} p={p}{degree}: {'PASS' if report.passed else 'FAIL'} "
                f"(expected residue {report.expected_residue} mod {p})"
            )
            yield record, plain, None if report.passed else record


def _goldberg_rows(args: argparse.Namespace) -> Iterator[tuple]:
    N = args.max
    with _scan(args, N, per_class=True) as scan:
        for n in range(4, N + 1):
            r = bch.goldberg_check(n, **scan)
            outcome = "divides" if r.passed else (
                f"FAILS at {r.witness.to_string(2)} (denominator {r.witness_denominator}, ratio {r.ratio})"
            )
            record = {"check": "goldberg", **r.to_json_dict()}
            # expected pattern: all degrees through 10 pass, degree 11 fails
            unexpected = r.degree <= 11 and r.passed != (r.degree <= 10)
            yield record, f"goldberg n={r.degree}: {outcome}", record if unexpected else None


def _match_row(check: str, n: int, found: tuple[str, int], expected: tuple[str, int]) -> tuple:
    """The eq3 or bernoulli row of degree n: whether the ``found`` (name, value) is the ``expected`` one."""
    (found_name, value), (expected_name, wanted) = found, expected
    ok = value == wanted
    record = {"check": check, "degree": n, "passed": ok, "value": str(wanted)}
    failure = None if ok else {"check": check, "degree": n, found_name: str(value), expected_name: str(wanted)}
    return record, f"{check} n={n}: {'PASS' if ok else 'FAIL'} ({value} vs {wanted})", failure


def _eq3_rows(args: argparse.Namespace) -> Iterator[tuple]:
    # the largest degree has the most partitions; announced from degree 12 on, as for two letters
    _announce(args.max, 2, f"{numtheory.check_partition_budget(args.max)} partitions")
    for n in range(1, args.max + 1):
        oracle = numtheory.Dn_bruteforce(n)
        yield _match_row("eq3", n, ("oracle", oracle), ("closed_form", numtheory.common_denominator(n)[0]))


def _bernoulli_rows(args: argparse.Namespace) -> Iterator[tuple]:
    # the terms through the largest degree, held to the budget before the first row; announced as for eq3
    _announce(args.max, 2, f"{numtheory.check_bernoulli_budget(args.max)} Bernoulli terms")
    for n in range(1, args.max + 1):
        poly = numtheory.bernoulli_poly_denominator(n)
        kernel = numtheory.squarefree_kernel(n)
        yield _match_row("bernoulli", n, ("poly_denominator", poly), ("kernel", kernel))


#: Each check of ``verify --what``, in ``--help`` order: its rows, what it checks, and for a two-letter
#: check the least --max and why (below it the check would examine no degree its claim is about).
_CHECKS: dict[str, tuple[Callable[[argparse.Namespace], Iterator[tuple]], str, tuple[int, str] | None]] = {
    "theorem": (partial(_degree_rows, "divisibility_ok"), "every denominator divides n!*d_n", None),
    "minimal": (partial(_degree_rows, "minimal"), "the denominator lcm equals n!*d_n", None),
    "cor1": (_congruence_rows, "prime-degree numerator congruence", (2, "the first prime degree is 2")),
    "cor2": (
        _congruence_rows,
        "prime-plus-one congruence and zero set",
        (4, "the first odd prime p = 3 has degree p + 1 = 4"),
    ),
    "eq3": (_eq3_rows, "composition-lcm oracle equals n!*d_n", None),
    "bernoulli": (_bernoulli_rows, "Bernoulli-polynomial denominator equals the kernel", None),
    "goldberg": (
        _goldberg_rows,
        "the Bernoulli-quotient candidate passes below degree 11 and fails at 11",
        (11, "the candidate first fails at degree 11"),
    ),
}


# ---------------------------------------------------------------------------
# dn, coeff and table (the last two print one row per word, in the same columns)

_DN_FIELDS = ("n", "d_n", "kernel", "common_denominator", "d_n_factorization", "common_factorization")


def _cmd_dn(args: argparse.Namespace) -> int:
    header = f"{'n':>3} {'d_n':>6} {'kernel':>6} {'n!*d_n':>24}  {'d_n factors':<14} n!*d_n factors"
    return _report(args.format, _dn_rows(args.max), _DN_FIELDS, header)


def _dn_rows(n_max: int) -> Iterator[tuple]:
    """The rows of degrees 1..n_max, refused first where n! * d_n has more digits than ``str`` may print.

    n! * d_n divides (n+1)! * d_{n+1}, so it never falls as n grows, as the gate requires.
    """
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit (nor the function before 3.10.7)
    if digits:
        limit = (digits, f"the limit of {digits} digits for integer string conversion")
        check_budget(_common_digits, n_max, f"n!*d_n of degree {n_max}", "digits", limit)
    for n in range(1, n_max + 1):
        d_n, d_fact = numtheory.compute_dn(n)
        kernel = numtheory.squarefree_kernel(n)
        common, common_fact = numtheory.common_denominator(n)
        values = (n, str(d_n), str(kernel), str(common), str(d_fact), str(common_fact))
        plain = f"{n:>3} {d_n:>6} {kernel:>6} {common:>24}  {d_fact!s:<14} {common_fact}"
        yield dict(zip(_DN_FIELDS, values)), plain, None


def _common_digits(n: int) -> int:
    """The decimal digits of n! * d_n, counted without ``str``, whose digit limit is the one checked.

    Its bits give a count from below (bit_length * log10(2)), raised past each power of ten it reaches.
    """
    common, _ = numtheory.common_denominator(n)
    count = common.bit_length() * 1233 >> 12  # 1233 / 4096 < log10(2)
    while common >= 10**count:
        count += 1
    return count


_WORD_FIELDS = ("word", "h_num", "h_den", "a", "denom_factorization")


def _word_record(entry: bch.TableEntry, alphabet_size: int) -> dict:
    """The row of a priced coefficient (``bch.TableEntry.of``)."""
    h, text = entry.value, entry.word.to_string(alphabet_size)
    values = (text, h.numerator, h.denominator, entry.numerator, entry.denominator_factorization)
    return dict(zip(_WORD_FIELDS, map(str, values)))


def _cmd_coeff(args: argparse.Namespace) -> int:
    return _report(args.format, _coeff_rows(args), _WORD_FIELDS)


def _coeff_rows(args: argparse.Namespace) -> Iterator[tuple]:
    word = Word.from_string(args.word, args.alphabet)
    if word.degree < 1:
        raise ValueError("the word must be nonempty")
    # the DP's cell updates grow as n^3 (about n^3/6 for a word whose letters never fall)
    steps = check_budget(lambda m: m**3, word.degree, f"per-word DP for {word.degree} letters", "steps")
    _announce(word.degree, 2, f"{steps} DP steps")  # from degree 12 on, as for two letters
    entry = bch.TableEntry.of(word, bch_coeff_word(word, args.alphabet), args.alphabet)
    common, _ = numtheory.common_denominator(word.degree)
    record = _word_record(entry, args.alphabet)
    # the JSON record also carries the common denominator; the CSV row does not
    yield {**record, "common_denominator": str(common)}, (
        f"word               {record['word']}\n"
        f"degree             {word.degree}\n"
        f"coefficient        {entry.value}\n"
        f"denominator        {record['h_den']} = {record['denom_factorization']}\n"
        f"common denominator {common}\n"
        f"numerator over it  {entry.numerator}"
    ), None


def _cmd_table(args: argparse.Namespace) -> int:
    bch.scan_count(args.degree, args.alphabet)  # n! * d_n only once the degree has passed the budget
    common, _ = numtheory.common_denominator(args.degree)
    header = f"degree {args.degree}, alphabet {args.alphabet}, common denominator {common}"
    return _report(args.format, _table_rows(args), _WORD_FIELDS, header)


def _table_rows(args: argparse.Namespace) -> Iterator[tuple]:
    """One row per distinct nonzero value (``--dedup``) or per word, from one scan of the degree."""
    n, K = args.degree, args.alphabet
    with _scan(args, n) as scan:
        if args.dedup:
            entries = bch.coefficient_value_table(n, K, **scan)
        else:
            coeffs = bch.degree_coefficients(n, K, **scan)
            entries = (bch.TableEntry.of(Word.unpack(packed, n, K), h, K) for packed, h in enumerate(coeffs))
        for entry in entries:
            record = _word_record(entry, K)
            plain = "" if args.format != "plain" else (  # only the plain format prints this line
                f"{record['word']:<{n + 2}} h={entry.value!s:<16} a={entry.numerator!s:<12} "
                f"denom={record['denom_factorization']}"
            )
            yield record, plain, None


if __name__ == "__main__":
    sys.exit(main())
