"""What the CLI's start-up loads, and what its commands hand to the renderer."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qgame import cli, files
from qgame.quantum import identity_chi

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# one call of each cmd_* on the bundled inputs
COMMANDS = [
    ["validate", "ewl.game"],
    ["tensor", "ewl.game", "I"],
    ["tensor", "ewl.game", "II", "--check-fixture"],
    ["payoff", "ewl.game", "chi_star.strategy", "xi_star.strategy"],
    ["best-response", "ewl.game", "xi_star.strategy", "II"],
    ["verify-nash", "ewl.game", "chi_star.strategy", "xi_star.strategy"],
    ["simulate", "ewl.game", "ewl.povm", "chi_star.strategy", "xi_star.strategy",
     "--rounds", "100", "--seed", "1"],
    ["classical", "ewl.game"],
]


def test_startup_loads_no_module_that_one_command_needs():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, str(HERE / "startup_imports.py")], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert str(SRC / "qgame") in proc.stdout


def _records(value):
    """Every record (an object with ``_fields``) in a payload, outside other records."""
    if hasattr(value, "_fields"):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _records(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _records(item)


def test_every_command_is_called():
    assert {argv[0].replace("-", "_") for argv in COMMANDS} == \
        {name[len("cmd_"):] for name in dir(cli) if name.startswith("cmd_")}
    assert len(list(_records({"strategies": [(identity_chi(2),)]}))) == 1


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: "-".join(argv[:2] + argv[3:4]))
def test_payload_holds_no_record(argv):
    # json.dumps writes a record as a list, where any other object raises
    args = cli.build_parser().parse_args(argv)
    args.tol = None
    code, payload = args.func(args)
    assert code == cli.EXIT_OK
    assert list(_records(payload)) == []
    assert json.loads(files.emit_document(payload)).keys() == payload.keys()
