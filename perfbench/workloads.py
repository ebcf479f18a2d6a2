"""The benchmark's workloads: fixed `bchdenom` command lines and their expected output.

Every workload uses two letters and a deterministic input, so a call's
stdout never changes.  ``stdout_sha256`` and ``exit_code`` were recorded
from the commit that introduced the benchmark; every call is gated on
both.  stderr (the "scanning degree ..." line) is not part of the digest.

``parallelism`` is passed explicitly on every command line, because the
CLI otherwise takes its default from ``$BCHDENOM_PARALLELISM``.

``units`` is the work a call completes, for ``throughput_per_s``:
coefficients (sum of 2^n over the scanned degrees) for the scans and
compositions (sum of 2^(n-1)) for the oracle.  See README.md for why each
workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]
    parallelism: int
    units: int
    unit_name: str
    stdout_sha256: str
    exit_code: int = 0

    @property
    def argv(self) -> list[str]:
        return [*self.args, "--parallelism", str(self.parallelism)]


def _coefficients(max_degree: int) -> int:
    return sum(2**n for n in range(1, max_degree + 1))


def _compositions(max_degree: int) -> int:
    return sum(2 ** (n - 1) for n in range(1, max_degree + 1))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="series-minimal14",
            args=("verify", "--what", "minimal", "--max", "14"),
            parallelism=1,
            units=_coefficients(14),
            unit_name="coefficients",
            stdout_sha256="80d227bcb57254958667a91ed2b6e02c42c83c02b407a6f3a8644ad441c34a30",
        ),
        Workload(
            name="dp-minimal13-p2",
            args=("verify", "--what", "minimal", "--max", "13", "--backend", "dp"),
            parallelism=2,
            units=_coefficients(13),
            unit_name="coefficients",
            stdout_sha256="aa7910076d3aefbc6f555108a0f880191389aca8f03eac6157c357af7cab89c6",
        ),
        Workload(
            name="dp-table13",
            args=("table", "--degree", "13", "--backend", "dp", "--format", "json"),
            parallelism=1,
            # one degree only: the table lists every word of degree 13
            units=2**13,
            unit_name="coefficients",
            stdout_sha256="f7ecf060ecc5f876c7ca09572cd189c54ec4d6ae7423b414c2b4812f7b499c6c",
        ),
        Workload(
            name="oracle-eq3-20",
            args=("verify", "--what", "eq3", "--max", "20"),
            parallelism=1,
            units=_compositions(20),
            unit_name="compositions",
            stdout_sha256="17e2ee0446fc8acafca2e6ca607cc84924ac65b5912526941e6c3586a5fd7a62",
        ),
    )
}

#: The set-up probe: interpreter start, imports and argument parser.
HELP_ARGV = ["--help"]
HELP_SHA256 = "1a81bc8322b5a77592af7960bfe53088e41a44cd13491a5e060009d9bea134e6"
