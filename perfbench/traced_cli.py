"""Run one ``bchdenom`` CLI call in this process, with span recording on.

    python3 perfbench/traced_cli.py --spawned-at T --spans PATH --run-id ID -- ARGS...
    python3 perfbench/traced_cli.py --spawned-at T --spans PATH --run-id ID --serial-scan N K

The first form installs the wrappers from ``layers.py``, calls
``bchdenom.cli.main(ARGS)`` and exits with its code; stdout is the CLI's
stdout, byte for byte.  The root span ``cli`` opens at T, the starting
process's CLOCK_MONOTONIC reading just before it spawned this one, so
interpreter start, the program's imports and its output all land in
``cli`` self time.  The tracer is imported after the program, and the time
spent importing and installing it is recorded as tracer time, not charged
to ``cli``.

The second form is the serial reference for ``bch.scan.parallel_efficiency``:
one unwrapped per-word scan of degree N over K letters, recorded as a
single ``serial-scan`` span.

Either way the spans are written to PATH as JSON when the call returns,
followed by a line with the seconds that writing them took.
"""

from time import monotonic as clock

import bchdenom.cli

_imported = clock()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import layers  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--serial-scan", type=int, nargs=2, metavar=("N", "K"))
    parser.add_argument("args", nargs="*")
    options = parser.parse_args()

    tracer = Tracer(options.run_id)
    if options.serial_scan:
        bch = bchdenom.bch
        n, alphabet_size = options.serial_scan
        span = tracer.open("serial-scan")
        bch.degree_coefficients(n, alphabet_size, bch.DP_BACKEND, parallelism=1, scan_limit=n)
        tracer.close(span)
        code = 0
    else:
        root = tracer.open(layers.ROOT_SPAN, start=options.spawned_at)
        layers.install(tracer)
        tracer_s = clock() - _imported
        code = bchdenom.cli.main(options.args)
        sys.stdout.flush()
        tracer.close(root, tracer_s)

    # line 1: the spans; line 2: how long line 1 took to write, which is
    # the tracer's time and not the program's
    started = clock()
    with open(options.spans, "w") as f:
        f.write(json.dumps([list(span) for span in tracer.spans()]) + "\n")
        f.write(json.dumps(clock() - started) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
