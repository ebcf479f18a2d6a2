"""The bchdenom benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Every call is a fresh interpreter running the real CLI, and
every call is gated on its exit code and the SHA-256 of its stdout.

``--trace 0`` alternates workload calls with ``bchdenom --help`` set-up
probes for about S seconds and reports the end-to-end metrics.
``--trace 1`` alternates traced calls (``traced_cli.py``) with untraced
ones and reports the per-layer metrics.  The seed only shuffles the order
of the two kinds of call in each round; the inputs never change.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A fuller record (machine, seed, every call) goes to
``perfbench/out/``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import monotonic as clock

import layers
from spans import Span
from workloads import HELP_ARGV, HELP_SHA256, WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

#: Rounds per run even when one round outlasts --seconds.
MIN_ROUNDS = 3
#: A call running longer than this is killed and counted as failed.
CALL_TIMEOUT_S = 60.0
#: No new round starts after this much of a run, whatever --seconds says.
RUN_LIMIT_S = 120.0


@dataclass
class Call:
    kind: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: bytes
    ok: bool = False

    def record(self) -> dict:
        return {
            "kind": self.kind,
            "ok": self.ok,
            "exit_code": self.exit_code,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "peak_rss_mb": self.peak_rss_mb,
            "stdout_bytes": len(self.stdout),
        }


def pinned_env() -> dict[str, str]:
    """The environment of every call: the checkout's sources, no parallelism default."""
    env = dict(os.environ)
    env.pop("BCHDENOM_PARALLELISM", None)  # the CLI's --parallelism default
    env["PYTHONPATH"] = str(SRC)
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_call(kind: str, argv: list[str], env: dict[str, str], start: float) -> Call:
    """Run one process to completion, timed from ``start`` (taken just before spawning).

    CPU time and peak RSS come from ``os.wait4``; they cover the process and
    every descendant it waited for, such as its pool workers.  The process
    gets its own session so a timeout kills its workers too.
    """
    proc = subprocess.Popen(
        argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        env=env, cwd=ROOT, start_new_session=True,
    )
    timer = threading.Timer(CALL_TIMEOUT_S, _kill_group, (proc.pid,))
    timer.start()
    try:
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = clock() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(
        kind=kind,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,  # KiB on Linux
        exit_code=proc.returncode,
        stdout=out,
    )


def gate(call: Call, exit_code: int, stdout_sha256: str) -> Call:
    """Mark the call ok only if its exit code and stdout digest are the expected ones."""
    call.ok = call.exit_code == exit_code and hashlib.sha256(call.stdout).hexdigest() == stdout_sha256
    return call


def cli_call(kind: str, args: list[str], env: dict[str, str]) -> Call:
    start = clock()
    return run_call(kind, [sys.executable, "-m", "bchdenom.cli", *args], env, start)


def workload_call(workload: Workload, env: dict[str, str]) -> Call:
    return gate(cli_call("workload", workload.argv, env), workload.exit_code, workload.stdout_sha256)


def help_call(env: dict[str, str]) -> Call:
    return gate(cli_call("setup", HELP_ARGV, env), 0, HELP_SHA256)


def read_spans(path: Path) -> tuple[list[Span], float]:
    """The spans ``traced_cli.py`` wrote, and the seconds it took to write them."""
    with open(path) as f:
        spans, write_s = (json.loads(line) for line in f)
    return [Span(*record) for record in spans], write_s


def traced_cli(kind: str, args: list[str], env: dict[str, str], run_id: str, keep: Path):
    """Run ``traced_cli.py`` with ``args`` after its own options; see that file.

    Returns the call, its spans and the seconds the child took to write
    them out.  The child writes to a new file, which is then moved to
    ``keep``: truncating a file that holds data can block for tens of
    milliseconds (ext4 flushes it first), and that would be timed as part
    of the call.
    """
    fresh = OUT / f"spans-{run_id}.json"
    fresh.unlink(missing_ok=True)
    start = clock()
    argv = [
        sys.executable, str(BENCH_DIR / "traced_cli.py"),
        "--spawned-at", repr(start), "--spans", str(fresh), "--run-id", run_id, *args,
    ]
    call = run_call(kind, argv, env, start)
    if not fresh.exists():
        return call, None, 0.0
    spans, write_s = read_spans(fresh)
    os.replace(fresh, keep)
    return call, spans, write_s


def traced_call(workload: Workload, env: dict[str, str], run_id: str, keep: Path):
    """One gated traced call of ``workload`` and its spans (None if it failed).

    The root span is stretched to the process exit seen from here, so that
    interpreter teardown counts as ``cli`` time as it does for a user; the
    time the child spent writing its spans out is tracer time.
    """
    call, spans, write_s = traced_cli("traced", ["--", *workload.argv], env, run_id, keep)
    gate(call, workload.exit_code, workload.stdout_sha256)
    call.ok = call.ok and spans is not None
    if not call.ok:
        return call, None
    root = spans[0]
    spans[0] = root._replace(end=root.start + call.wall_s, tracer_s=root.tracer_s + write_s)
    return call, spans


def serial_scan(degree: int, alphabet_size: int, env: dict[str, str], keep: Path):
    args = ["--serial-scan", str(degree), str(alphabet_size)]
    call, spans, _ = traced_cli("serial-reference", args, env, "serial-reference", keep)
    call.ok = call.exit_code == 0 and spans is not None
    return call, spans[0] if call.ok else None


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest order statistic with ten samples above it."""
    ordered = sorted(values)
    rank = len(ordered) - 11
    if rank < 0:
        return None
    return 100 * (rank + 1) / len(ordered), ordered[rank]


def rounds(seconds: float, rng: random.Random, kinds: list[str], step) -> list[list[Call]]:
    """Run rounds of one call per entry of ``kinds``, in seeded order, for about ``seconds``.

    A new round starts only if the last round's length still fits, once
    MIN_ROUNDS are done.
    """
    begun = clock()
    done: list[list[Call]] = []
    last_round = 0.0
    while len(done) < MIN_ROUNDS or clock() + last_round <= begun + seconds:
        if clock() - begun > RUN_LIMIT_S:
            break
        round_start = clock()
        order = list(kinds)
        rng.shuffle(order)
        done.append([step(kind) for kind in order])
        last_round = clock() - round_start
    return done


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json declares them."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in manifest[section]}


def end_to_end(workload: Workload, calls: list[Call]) -> tuple[dict, dict]:
    timed = [c for c in calls if c.kind == "workload" and c.ok]
    probes = [c for c in calls if c.kind == "setup" and c.ok]
    if not timed or not probes:
        return {}, {}
    wall = median(c.wall_s for c in timed)
    metrics = {
        "wall_s": wall,
        "throughput_per_s": workload.units / wall,
        "cpu_s": median(c.cpu_s for c in timed),
        "peak_rss_mb": median(c.peak_rss_mb for c in timed),
        "setup_s": median(c.wall_s for c in probes),
    }
    tail = tail_percentile([c.wall_s for c in timed])
    notes = {
        "samples": len(timed),
        "setup_samples": len(probes),
        "wall_s_max": max(c.wall_s for c in timed),
        "wall_s_tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
        "throughput_unit": f"{workload.unit_name}/s",
        "fail_ratio": sum(not c.ok for c in calls) / len(calls),
    }
    return metrics, notes


def per_layer(done: list[list[Call]], traced: list[tuple[Call, list[Span]]], reference) -> tuple[dict, dict]:
    # traced minus untraced wall within each round, so that slow drift of
    # the machine's speed cancels out
    paired = [
        t.wall_s - u.wall_s
        for calls in done
        for t in calls if t.kind == "traced" and t.ok
        for u in calls if u.kind == "workload" and u.ok
    ]
    if not paired:
        return {}, {}
    per_call = []
    for call, spans in traced:
        metrics = layers.layer_metrics(spans, reference)
        metrics["cli.rows"] = call.stdout.count(b"\n")
        metrics["cli.stdout_bytes"] = len(call.stdout)
        accounted = sum(v for k, v in metrics.items() if k in layers.SELF_TIME_METRIC.values())
        metrics["trace.unaccounted_s"] = call.wall_s - accounted
        per_call.append(metrics)
    out = {name: median(m[name] for m in per_call) for name in per_call[0]}
    out["trace.wall_s"] = median(c.wall_s for c, _ in traced)
    out["trace.overhead_s"] = median(paired)
    notes = {
        "traced_samples": len(traced),
        "paired_rounds": len(paired),
        "spans_per_call": len(traced[-1][1]),
        # the tracer's own measured work; trace.unaccounted_s should equal it
        "tracer_s": median(sum(s.tracer_s for s in spans) for _, spans in traced),
        "serial_reference": reference,
    }
    return out, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    options = parser.parse_args(argv)
    if options.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "bchdenom" / "cli.py").is_file():
        print(f"error: no bchdenom sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[options.workload]
    env = pinned_env()
    rng = random.Random(options.seed)
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": workload.name,
        "argv": workload.argv,
        "seed": options.seed,
        "seconds": options.seconds,
        "trace": options.trace,
        "machine": machine(),
        "loadavg_before": os.getloadavg(),
    }

    warmup = help_call(env)  # also writes the bytecode caches before anything is timed
    if not warmup.ok:
        print(f"error: `bchdenom --help` failed its gate (exit {warmup.exit_code})", file=sys.stderr)
        return 1

    if options.trace == 0:
        def step(kind):
            return workload_call(workload, env) if kind == "workload" else help_call(env)

        done = rounds(options.seconds, rng, ["workload", "setup", "setup", "setup"], step)
        calls = [call for calls in done for call in calls]
        metrics, notes = end_to_end(workload, calls)
    else:
        keep = OUT / f"spans-{workload.name}.json"
        traced: list[tuple[Call, list[Span]]] = []
        extra: list[Call] = []
        reference = None

        def step(kind):
            nonlocal reference
            if kind == "workload":
                return workload_call(workload, env)
            call, spans = traced_call(
                workload, env, f"{workload.name}-seed{options.seed}-call{len(traced)}", keep
            )
            if spans is not None:
                traced.append((call, spans))
                scans = layers.pool_scans(spans)
                if reference is None and scans:
                    top = max(scans, key=lambda s: s.info["n"])
                    ref_call, ref_span = serial_scan(
                        top.info["n"], top.info["alphabet_size"], env, OUT / "spans-serial-reference.json"
                    )
                    extra.append(ref_call)
                    if ref_span is not None:
                        reference = (top.info["n"], ref_span.end - ref_span.start)
            return call

        done = rounds(options.seconds, rng, ["workload", "traced"], step)
        calls = [call for calls in done for call in calls] + extra
        metrics, notes = per_layer(done, traced, reference)

    record["loadavg_after"] = os.getloadavg()
    record["calls"] = [c.record() for c in calls]
    record["notes"] = notes
    if metrics:
        declared = declared_units("end_to_end" if options.trace == 0 else "per_layer")
        if set(metrics) != set(declared):
            raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}")
        record["metrics"] = {name: {"value": metrics[name], "unit": declared[name]} for name in declared}
    else:
        record["metrics"] = {}
    report = OUT / f"{workload.name}-seed{options.seed}-trace{options.trace}.json"
    report.write_text(json.dumps(record, indent=1) + "\n")

    failed = sum(not c.ok for c in calls)
    print(f"workload {workload.name}: {' '.join(workload.argv)}")
    print(f"seed {options.seed}; {len(calls)} calls, {failed} failed; "
          f"python {record['machine']['python']}, nproc {record['machine']['nproc']}, "
          f"load {record['loadavg_before'][0]:.2f} -> {record['loadavg_after'][0]:.2f}")
    for key, value in notes.items():
        print(f"{key}: {value}")
    print(f"full record: {report.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": len(calls),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
