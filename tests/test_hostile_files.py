"""Hostile input files: every command fails precisely or handles them correctly.

Each mutation of a bundled file runs through every command in-process.  No
exception may escape ``cli.main``, the exit code must be 0, 1 or 2, and the
suite's filter turns any warning raised in qgame into an error.
"""

import json

import numpy as np
import pytest

from qgame import cli, files


def _bundled(name: str) -> dict:
    return json.loads(files.resolve_input(name).read_text(encoding="utf-8"))


def _set(path: list, value):
    """A mutation that sets the entry at ``path`` of a document to ``value``."""

    def mutate(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return doc

    return mutate


def _without(key: str):
    def mutate(doc):
        del doc[key]
        return doc

    return mutate


def _big_diagonal(doc):
    # finite, but 2 * 1e308 overflows: R_I's Hermitian part must be taken without that sum
    for k in (1, 2):
        doc["payoff_ops"]["I"][k][k] = [1e308, 0]
    return doc


# (id, "game" or "strategy", mutation of the bundled document, or raw bytes)
MUTATIONS = [
    ("r-diagonal-1e308", "game", _big_diagonal),
    ("nan-entry", "game", _set(["rho", 1, 1, 0], float("nan"))),
    ("infinity-entry", "game", _set(["payoff_ops", "I", 0, 0, 0], float("inf"))),
    ("huge-n1", "game", _set(["n1"], 10 ** 30)),
    ("float-n1", "game", _set(["n1"], 2.0)),
    ("no-rho", "game", _without("rho")),
    ("not-utf8", "game", b"\xff\xfe\x00" + files.resolve_input("ewl.game").read_bytes()),
    ("huge-classical-index", "strategy", _set(["index"], 10 ** 30)),
    ("kind-is-a-list", "strategy", _set(["kind"], ["chi"])),
]


def _commands(game: str, strategy: str) -> list[list[str]]:
    """The seven commands, on ``game`` with ``strategy`` as player I's (and the opponent)."""
    pair = [strategy, "xi_star.strategy"]
    return [
        ["validate", game],
        ["tensor", game, "I", "--check-fixture"],
        ["payoff", game, *pair],
        ["best-response", game, strategy, "II"],
        ["verify-nash", game, *pair],
        ["simulate", game, "ewl.povm", *pair, "--rounds", "100", "--seed", "0"],
        ["classical", game],
    ]


@pytest.mark.parametrize("name, target, mutation", MUTATIONS, ids=[m[0] for m in MUTATIONS])
def test_every_command_fails_precisely_on_hostile_files(name, target, mutation, tmp_path,
                                                        capsys):
    source = "ewl.game" if target == "game" else "identity.strategy"
    path = tmp_path / f"{name}.{target}"
    if isinstance(mutation, bytes):
        path.write_bytes(mutation)
    else:
        path.write_text(json.dumps(mutation(_bundled(source))))
    game, strategy = (str(path), "chi_star.strategy") if target == "game" else ("ewl.game",
                                                                              str(path))
    for argv in _commands(game, strategy):
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err, argv


def test_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "utf16.game"
    path.write_bytes(files.resolve_input("ewl.game").read_text(encoding="utf-8").encode("utf-16"))
    assert cli.main(["validate", str(path)]) == 2
    assert "not UTF-8 text" in capsys.readouterr().err


def test_huge_dimension_is_a_failed_check(tmp_path, capsys):
    path = tmp_path / "huge.game"
    path.write_text(json.dumps(_set(["n1"], 10 ** 30)(_bundled("ewl.game"))))
    assert cli.main(["validate", str(path), "--json"]) == 1
    rows = {row["name"]: row for row in files.parse_document(capsys.readouterr().out)["checks"]}
    assert not rows["dimensions"]["passed"]
    assert rows["dimensions"]["residual"] == pytest.approx(2e30)


def test_large_finite_payoffs_are_handled(tmp_path, capsys):
    # two entries of R_I at 1e308: every result is finite, and the fixture sees the change
    path = tmp_path / "large.game"
    path.write_text(json.dumps(_big_diagonal(_bundled("ewl.game"))))
    code = cli.main(["payoff", str(path), "chi_star.strategy", "xi_star.strategy"])
    assert (code, capsys.readouterr().out) == (0, "payoff I  = 1e+308\npayoff II = 2.5\n")
    code = cli.main(["tensor", str(path), "I", "--check-fixture"])
    assert code == 1
    assert capsys.readouterr().out.startswith("match: 248/256 entries\n")
    code = cli.main(["verify-nash", str(path), "chi_star.strategy", "xi_star.strategy", "--json"])
    report = files.parse_document(capsys.readouterr().out)
    assert code == 0 and report["is_equilibrium"]
    assert (report["payoff_I"], report["payoff_II"]) == (1e308, 2.5)
    assert cli.main(["classical", str(path), "--json"]) == 0
    assert np.all(np.isfinite(files.parse_document(capsys.readouterr().out)["payoff_I"]))
