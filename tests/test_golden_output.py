"""Golden stdout digests: ``dn``, ``coeff``, ``table``, ``verify`` and ``--help``, byte for byte.

The SHA-256 digests of ``dn``, ``coeff`` and ``table`` were recorded from
the CLI before these commands shared ``verify``'s row loop, and those of
``verify --what minimal`` before ``bch_series`` stopped expanding the
exponential product, so any byte either change makes shows here.  Those
of ``verify --what cor1|cor2|goldberg`` were recorded before the two
congruence checks shared one scan, and those of ``verify --what
theorem|eq3|bernoulli`` before the records shared one constructor.  Each
digest comes with the exit code of its run: cor2 exits 1, because the
uniform residue it checks is refuted.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bchdenom import cli

GOLDEN = {
    ("dn", "--max", "12", "--format", "plain"): (0, "dcdf2abfc6d832ad05c94f783f7b8e6bd5a3e62869f9df6e8e93db717974fcd8"),
    ("dn", "--max", "12", "--format", "json"): (0, "7904ad9dd84f0759bbf9cb5c449eb09a51bcfe65cc42b8826d93bee9df34649a"),
    ("dn", "--max", "12", "--format", "csv"): (0, "9c8baeed84004dd62449e5918a91ad8efbe15d29fb3b0712ebfc78cb325ef1c7"),
    ("coeff", "AAAAAAAABBB", "--format", "plain"): (0, "db41d9340c93f950ba50a995a9463d529cf316ed4122377d0c284c372f23ba00"),
    ("coeff", "AAAAAAAABBB", "--format", "json"): (0, "555ff447e83a85cb970556bcd0236687fc240f95e61e75fa6468a88a786eed18"),
    ("coeff", "AAAAAAAABBB", "--format", "csv"): (0, "a1c9b9d4c598b639acc384a7ea02298cdb827d304ff6080ca033921c99d58d45"),
    ("table", "--degree", "9", "--format", "plain"): (0, "dbea11ae176d5d2deafcd010652fdb218383b9604bdfcbc2c5ff6aed73e1e0a6"),
    ("table", "--degree", "9", "--format", "json"): (0, "9a482eb4a87ea996ca4240800bb2d870e9bc491a649fcc5334f1f114cb9afee0"),
    ("table", "--degree", "9", "--format", "csv"): (0, "8ea79223a364104771de5c3d942a5093f458255c32856e057daa230bbd04fb84"),
    ("table", "--degree", "11", "--dedup", "--format", "plain"): (0, "fefc20939618c6634914279984d1a461f6f357b179a916950151dee597c918f1"),
    ("table", "--degree", "11", "--dedup", "--format", "json"): (0, "6172b85373cacb9884679b7770456520bab184063a916e8411d66236e11aff74"),
    ("table", "--degree", "11", "--dedup", "--format", "csv"): (0, "6e6ea66c518cdbb34ea3a8355ac69d4e2699d3662aa5589e9f8bda36e98a322b"),
    ("verify", "--what", "minimal", "--max", "16"): (0, "140e0bde3542085e03a20e4de7627a79d699e5eb35ada9d2ec5de3995407f9dc"),
    ("verify", "--what", "minimal", "--max", "16", "--format", "json"): (0, "2ce8edd3c29b588e89505f7b66b0ab083b2888aa01c3ccb1e10d8f435044ef05"),
    ("verify", "--what", "minimal", "--alphabet", "3", "--max", "10"): (0, "42d9460ef4ff0aa1584c24369378771ef577246e4b38457494ba7535f4a53014"),
    ("verify", "--what", "cor1", "--max", "13", "--format", "plain"): (0, "62855cda26363d0a677dcb1f6a62d4883a40d0c5be5882b200263355c7d77aec"),
    ("verify", "--what", "cor1", "--max", "13", "--format", "json"): (0, "cee46f539fa03c0768464da92f2b80c6295fbff72c5068473e088a6f41b32293"),
    ("verify", "--what", "cor1", "--max", "13", "--format", "csv"): (0, "37528642be99584d0e52b11f4a02e6c3a27c347f5808a38ed06ed7687ddee4c7"),
    ("verify", "--what", "cor2", "--max", "12", "--format", "plain"): (1, "ed81c5b2e0b950ab6fcdb695502258006e19b626baf58a3b5143499f1f3a5fdd"),
    ("verify", "--what", "cor2", "--max", "12", "--format", "json"): (1, "2ce2a009c603b4587c0bf1e0b0dbee1068a711c8c19d9a6b7970a4105f9f8476"),
    ("verify", "--what", "cor2", "--max", "12", "--format", "csv"): (1, "7130e6ff99ecfda058420285c3094b4f30147f0c855ee2ef0b6527fcb7eac9ae"),
    ("verify", "--what", "goldberg", "--max", "12", "--format", "plain"): (0, "ce15ed9c1fc587c374f9c23117f25fa96b134ad7c3cc6fc013b355700bbfc99b"),
    ("verify", "--what", "goldberg", "--max", "12", "--format", "json"): (0, "daf87331f5c6327f8658ee11a56953bec0848ac1c7d83cad9b1e13e86ac6efa6"),
    ("verify", "--what", "goldberg", "--max", "12", "--format", "csv"): (0, "86254c2589327fa7a03362e0d60024560b4d44f1095bcfc4bf9fde181b9b8192"),
    ("verify", "--what", "theorem", "--max", "12", "--format", "plain"): (0, "50673048bab42c2e3441df679ffc3d1e32fe70b3a5e917e95b3323163525c501"),
    ("verify", "--what", "theorem", "--max", "12", "--format", "json"): (0, "9c0770c41fc5a7a88ee5fb1b8ac12ac613ce567493866083bf3673d2e5e5396b"),
    ("verify", "--what", "theorem", "--max", "12", "--format", "csv"): (0, "a4102f4d6b3d9728d3748d69424fc0fc2d7c5d1fb0f677f4d7141c6ed5047298"),
    ("verify", "--what", "eq3", "--max", "20", "--format", "plain"): (0, "17e2ee0446fc8acafca2e6ca607cc84924ac65b5912526941e6c3586a5fd7a62"),
    ("verify", "--what", "eq3", "--max", "20", "--format", "json"): (0, "9d20200c1319686a87e5e00e08af5893be79e0bdc02d8f73201c96a728ded7f5"),
    ("verify", "--what", "eq3", "--max", "20", "--format", "csv"): (0, "c89e4ae4b3b9088c42e92c25fa6ffaa46ae7271d763ed9d9f80e1ea728a81b0b"),
    ("verify", "--what", "bernoulli", "--max", "20", "--format", "plain"): (0, "8eb56e15151595a64a82f38a0455650d2c03dacdae0462627c35c351accb4a27"),
    ("verify", "--what", "bernoulli", "--max", "20", "--format", "json"): (0, "53938894fed35af7a0fd8b22bfa2f4767a0cd9246eac0f0e123843171d147851"),
    ("verify", "--what", "bernoulli", "--max", "20", "--format", "csv"): (0, "8a5143776768654db4526df6f5f1e933b4a7ac14e31f794ec76f52e3da77c7cf"),
}

#: ``bchdenom --help`` at argparse's default 80 columns; the benchmark's
#: set-up probe gates on the same digest (``HELP_SHA256`` in perfbench/workloads.py).
HELP_SHA256 = "1a81bc8322b5a77592af7960bfe53088e41a44cd13491a5e060009d9bea134e6"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("argv, expected", GOLDEN.items(), ids=[" ".join(a) for a in GOLDEN])
def test_golden_stdout(capsys, argv, expected):
    code, digest = expected
    assert cli.main(list(argv)) == code
    assert _sha256(capsys.readouterr().out) == digest


def test_golden_help():
    # a fresh interpreter with stdout on a pipe and no $COLUMNS, as the benchmark runs it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "COLUMNS"}
    done = subprocess.run(
        [sys.executable, "-m", "bchdenom.cli", "--help"],
        capture_output=True, text=True, env={**env, "PYTHONPATH": src},
    )
    assert done.returncode == 0
    assert _sha256(done.stdout) == HELP_SHA256
