"""The slow-check runner ``tests/crosschecks.py``, on cheap commands, and its table against the CLI."""

from __future__ import annotations

import hashlib
import sys

import crosschecks
from bchdenom import cli


def test_same_fails_on_different_stdout():
    assert crosschecks.check(("same", "dn --max 3", "dn --max 3", 0)) is None
    assert crosschecks.check(("same", "dn --max 3", "dn --max 4", 0)) == "stdout differs from line 5"  # a row more
    assert crosschecks.check(("same", "dn --max 3", "dn --max 0", 0)) == "exit 0 and 2, not 0"


def test_same_fails_when_both_commands_fail_alike():
    # a crash in code both sides share exits 2 with empty stdout on each; only the expected code tells it apart
    assert crosschecks.check(("same", "dn --max 0", "dn --max 0", 0)) == "exit 2 and 2, not 0"
    assert crosschecks.check(("same", "dn --max 0", "dn --max 0", 2)) is None
    # every entry's pair must exit 0, but cor2's, whose refutation exits 1
    codes = {(" cor2 " in command, code) for kind, command, *_, code in crosschecks.ENTRIES if kind == "same"}
    assert codes == {(False, 0), (True, 1)}


def test_importing_the_runner_leaves_sys_path_as_it_was():
    assert str(crosschecks.ROOT / "perfbench") not in sys.path


def test_digest_fails_on_a_corrupted_digest_and_on_a_wrong_exit_code():
    code, out, _ = crosschecks.run("dn --max 3")
    digest = hashlib.sha256(out).hexdigest()
    assert code == 0 and crosschecks.check(("digest", "dn --max 3", 0, digest)) is None
    corrupted = ("0" if digest[0] != "0" else "1") + digest[1:]
    assert crosschecks.check(("digest", "dn --max 3", 0, corrupted)) == f"exit 0, stdout SHA-256 {digest}"
    assert crosschecks.check(("digest", "dn --max 3", 1, digest)) == f"exit 0, stdout SHA-256 {digest}"


def test_refused_fails_on_a_command_that_exits_0_and_on_its_timeout():
    assert crosschecks.check(("refused", "table --degree 25", 30)) is None
    assert crosschecks.check(("refused", "dn --max 3", 30)).startswith("exit 0 with ")
    # no interpreter starts within a millisecond
    assert crosschecks.check(("refused", "table --degree 25", 0.001)) == "no exit within 0.001 s"


def test_refused_fails_unless_stderr_is_one_refusal_line(monkeypatch):
    refusal = b"budget exceeded: scan of degree 25 of 33554432 words exceeds the scan budget 4194304\n"
    for err, holds in (
        (refusal, True),
        (b"scanning degree 25 (33554432 words)...\n" + refusal, False),  # an announcement before it
        (refusal + b"Traceback (most recent call last):\n", False),  # a line after it
        (refusal.replace(b"33554432", b"2^25"), False),  # a count not in decimal
        (b"budget exceeded: scan of 2^25 words, past the budget\n", False),  # a wording of its own
        (b"", False),
    ):
        monkeypatch.setattr(crosschecks, "run", lambda command, timeout=None: (3, b"", err))
        why = crosschecks.check(("refused", "table --degree 25", 30))
        assert why is None if holds else why == f"stderr is not one refusal line: {err!r}"


def test_same_and_digest_fail_on_their_timeout(monkeypatch):
    # a run that hangs fails its entry, as a refusal too slow does, rather than stalling the runner
    monkeypatch.setattr(crosschecks, "TIMEOUT_S", 0.001)
    assert crosschecks.check(("same", "dn --max 3", "dn --max 3", 0)) == "no exit within 0.001 s"
    assert crosschecks.check(("digest", "dn --max 3", 0, "0" * 64)) == "no exit within 0.001 s"


def test_every_entry_parses(capsys):
    # a command line the CLI no longer takes fails here, not only in the slow run
    for kind, *commands in crosschecks.ENTRIES:
        for command in commands[:2] if kind == "same" else commands[:1]:
            try:
                cli.build_parser().parse_args(command.split())
            except SystemExit as exc:
                assert exc.code == 0 and command == "--help", (command, capsys.readouterr().err)
