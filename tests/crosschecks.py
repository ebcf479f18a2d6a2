"""The slow checks beyond tier-1, as one table of CLI runs: ``python3 tests/crosschecks.py``.

Each entry runs ``python -m bchdenom.cli`` in a fresh interpreter, ``src`` on PYTHONPATH, without COLUMNS.
``same``: two command lines exit with a given code and print one stdout; ``digest``: one exits with a given
code and stdout SHA-256; ``refused``: one exits 3 in time, with no stdout and one stderr line, a refusal
in the words ``errors.check_budget`` gives it (``REFUSAL``).
A ``same`` or ``digest`` run that has not exited after ``TIMEOUT_S`` fails its entry.
"""

from __future__ import annotations

import hashlib
import os
import re
import runpy
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))  # by path: sys.path stays as it was

ENV = {k: v for k, v in os.environ.items() if k != "COLUMNS"}
ENV["PYTHONPATH"] = str(ROOT / "src")
V, DP, SERIES = "verify --what ", "--backend dp --parallelism 2", "--backend series"
TIMEOUT_S = 300  # for each run of a same or digest entry; the slowest takes about 10 s here
#: A budget refusal's stderr line: "<what> of [at least ]<count> <unit> exceeds <limit>", with a decimal count
REFUSAL = re.compile(
    r"budget exceeded: .+ of (at least )?[0-9]+ [a-z]+( [a-z]+)* exceeds "
    r"(the scan budget [0-9]+|the limit of [0-9]+ digits for integer string conversion)"
)


def same(command: str, one: str, other: str, code: int = 0) -> tuple:
    """``command`` with the flags ``one`` against it with ``other``, both to exit with ``code``."""
    return ("same", f"{command} {one}", f"{command} {other}", code)


ENTRIES = [
    # every word on both backends, a disagreement being a violation (exit 1), against the series alone
    *[same(f"{V}minimal --alphabet {k} --max {n}", "--backend both", SERIES)
      for k, n in ((2, 12), (3, 9), (4, 7), (5, 6))],
    *[same(f"{V}{check}", "--backend both", SERIES) for check in ("cor1 --max 11", "goldberg --max 12")],
    # one word per class on dp, whose least letters scale with K - 1; the JSON records carry the witnesses
    *[same(f"{V}minimal --alphabet {k} --max {n} --format json", DP, SERIES)
      for k, n in ((2, 20), (3, 12), (5, 9), (6, 8))],
    # the paper's claim, minimality through degree 30, at either parallelism
    *[("digest", f"{V}minimal --max 30 --backend dp --parallelism {p}", 0,
       "7c96a22203f963681dbef21bca2c14cece8cb011172c2f8cdd371cc23afa6d27") for p in (2, 1)],
    # the partition oracle through degree 30; p(30) = 5604 is far within the scan budget
    ("digest", f"{V}eq3 --max 30", 0, "ace22d4eb805f5752083528b737027a5d887edee1e1f966d276eea1f8209b55e"),
    # the Bernoulli-polynomial denominators through degrees 500 and 700, each from one table of B_0..B_{n-1}
    ("digest", f"{V}bernoulli --max 500", 0, "273d28a47aa939f6e648ca4f0a1737c6971b548e4bc9b7acfd9491f0d7899ede"),
    ("digest", f"{V}bernoulli --max 700", 0, "b5c6df5e164abcb21baf6c6093f59f94e9fa5c0699e76cdeb3c08f442a8d981b"),
    # cor1 and cor2 read every word on both backends, goldberg one word per class on dp; cor2 exits 1 (refuted)
    *[same(f"{V}{check} --format {fmt}", DP, SERIES, code)
      for check, code in (("cor1 --max 11", 0), ("cor2 --max 12", 1), ("goldberg --max 14", 0))
      for fmt in ("plain", "json")],
    # --max 22 scans the primes through 19, as --max 19 does, and builds no larger series
    same(f"{V}cor1", f"--max 22 {SERIES}", f"--max 19 {SERIES}"),
    # every word on the Fraction DP (degree 13 is the dp-table13 workload's), and one priced row per value
    *[same(f"table --degree {table} --format json", DP, SERIES) for table in ("13", "12 --dedup")],
    # over the scan budget: refused before a table is built or a word, class or partition listed
    ("refused", f"{V}cor1 --max 23 --backend dp", 30),
    *[("refused", f"{V}{run} --backend dp", 10)
      for run in ("minimal --max 71", "goldberg --max 71", "minimal --alphabet 3 --max 62")],
    *[("refused", f"{V}{run}", 5)
      for run in ("minimal --max 5000 --backend dp", "eq3 --max 100000", "bernoulli --max 100000")],
    ("refused", "coeff " + "A" * 162, 5),  # 162^3 DP steps; a 161-letter word runs
    # far past the budget, or past the digits str may print (n! * d_n): refused by sizing low degrees only
    *[("refused", run, 5) for run in (
        f"{V}minimal --alphabet 3 --max 10000000", "table --degree 1000000", "table --degree 1553 --format json",
        "dn --max 100000",
    )],
    # cor1 and cor2 at 10^30, refused on a lower bound of the largest degree before the primes are listed
    *[("refused", f"{V}{check} --max {10**30}", 5) for check in ("cor1", "cor2")],
    # the benchmark's command lines and --help print the stdout it gates on
    ("digest", " ".join(BENCH["HELP_ARGV"]), 0, BENCH["HELP_SHA256"]),
    *[("digest", " ".join(w.argv), w.exit_code, w.stdout_sha256) for w in BENCH["WORKLOADS"].values()],
]


def run(command: str, timeout: float | None = None) -> tuple[int, bytes, bytes]:
    """The exit code, stdout and stderr of ``bchdenom.cli`` on ``command``, split at spaces."""
    argv = [sys.executable, "-m", "bchdenom.cli", *command.split()]
    done = subprocess.run(argv, capture_output=True, env=ENV, timeout=timeout)
    return done.returncode, done.stdout, done.stderr


def check(entry: tuple) -> str | None:
    """Why ``entry`` fails, or None when it holds."""
    kind, command, *expected = entry
    timeout = expected[0] if kind == "refused" else TIMEOUT_S
    try:
        if kind == "same":
            (code, out, _), (other_code, other_out, _) = run(command, timeout), run(expected[0], timeout)
            if not code == other_code == expected[1]:
                return f"exit {code} and {other_code}, not {expected[1]}"
            common = os.path.commonprefix([out.splitlines(True), other_out.splitlines(True)])  # a list of lines
            return None if out == other_out else f"stdout differs from line {len(common) + 1}"
        code, out, err = run(command, timeout)
    except subprocess.TimeoutExpired:
        return f"no exit within {timeout} s"
    if kind == "digest":
        digest = hashlib.sha256(out).hexdigest()
        return None if [code, digest] == expected else f"exit {code}, stdout SHA-256 {digest}"
    if code != 3 or out:
        return f"exit {code} with {len(out)} bytes of stdout"
    lines = err.decode().splitlines()
    return None if len(lines) == 1 and REFUSAL.fullmatch(lines[0]) else f"stderr is not one refusal line: {err!r}"


def main() -> int:
    failed = []
    for entry in ENTRIES:
        start, name = time.perf_counter(), f"{entry[0]} {entry[1]}"
        why = check(entry)
        took = time.perf_counter() - start
        print(f"{'FAILED' if why else 'ok':<6} {name} ({took:.1f} s)" + (f": {why}" if why else ""), flush=True)
        if why:
            failed.append(name)
    if failed:
        print(f"{len(failed)} of {len(ENTRIES)} entries failed:", *failed, sep="\n  ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
