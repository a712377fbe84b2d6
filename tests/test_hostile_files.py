"""Hostile input files: every command fails precisely or handles them correctly.

Each mutation of a bundled file runs through every command in-process.  No
exception may escape ``cli.main``, the exit code must be 0, 1 or 2, and the
suite's filter turns any warning raised in qgame into an error.  A fixed
table holds the mutations found by hand; ``hypothesis`` generates more (drop
a field, change a value's JSON type, nest a value deeply, resize a matrix,
set an integer field), reproducibly.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _all_entries(value):
    """A mutation that sets every entry of R_I to ``value``."""

    def mutate(doc):
        doc["payoff_ops"]["I"] = [[[value, 0] for _ in row] for row in doc["payoff_ops"]["I"]]
        return doc

    return mutate


def _dimensions(n: int):
    def mutate(doc):
        doc["n1"] = doc["n2"] = n
        return doc

    return mutate


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
    ("r-all-1e308", "game", _all_entries(1e308)),
    ("huge-n1-n2", "game", _dimensions(10 ** 2200)),
    ("integer-entry-beyond-float", "game", _set(["rho", 0, 0, 0], 10 ** 400)),
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


def test_dimensions_of_more_digits_than_python_prints(tmp_path, capsys):
    path = tmp_path / "huge.game"
    path.write_text(json.dumps(_dimensions(10 ** 2200)(_bundled("ewl.game"))))
    assert cli.main(["validate", str(path)]) == 1
    detail = "rho 4, payoff operators 4 and 4, n1*n2 = about 10^4400"
    assert f"dimensions                    FAIL  {detail}\n" in capsys.readouterr().out
    assert cli.main(["payoff", str(path), "chi_star.strategy", "xi_star.strategy"]) == 1
    assert capsys.readouterr().err == f"validation error: dimensions failed: {detail} (limit 0)\n"


def test_integer_beyond_the_float_range_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "big.povm"
    doc = _bundled("ewl.povm")
    doc["payoffs_I"][0] = 10 ** 400
    path.write_text(json.dumps(doc))
    code = cli.main(["simulate", "ewl.game", str(path), "identity.strategy", "identity.strategy"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "parse error: payoffs_I: an integer is too large for a float\n"


def test_payoffs_near_the_float_limit_solve_without_overflow(tmp_path, capsys):
    # every entry of R_I at 1e308: player II's response is still 2.5, and player I's
    # optimum, 2e308, is not a float, which the realness check of the payoff reports
    path = tmp_path / "limit.game"
    path.write_text(json.dumps(_all_entries(1e308)(_bundled("ewl.game"))))
    assert cli.main(["best-response", str(path), "chi_star.strategy", "II", "--json"]) == 0
    result = files.parse_document(capsys.readouterr().out)
    assert result["converged"] and result["value"] == pytest.approx(2.5, abs=1e-9)
    assert result["dual_bound"] == pytest.approx(2.5, abs=1e-9)
    for argv in (["best-response", str(path), "xi_star.strategy", "I"],
                 ["verify-nash", str(path), "chi_star.strategy", "xi_star.strategy"]):
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == ("error: payoff real failed: real part inf is not "
                                           "finite (limit 5e+298)\n")


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


# ---------------------------------------------------------------------------
# generated mutations
# ---------------------------------------------------------------------------

GENERATED_SOURCES = [("game", "ewl.game"), ("strategy", "identity.strategy"),
                     ("strategy", "chi_star.strategy")]
INTEGERS = st.integers(-3, 10) | st.integers() | st.sampled_from([2 ** 63, 10 ** 30, 10 ** 400,
                                                                  10 ** 2200])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | INTEGERS | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8)


def _paths(doc, prefix=()):
    """The path of every value in a document, the document's own (``()``) first."""
    yield prefix
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        return
    for key, value in children:
        yield from _paths(value, (*prefix, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _is_matrix(value) -> bool:
    return isinstance(value, list) and bool(value) and isinstance(value[0], list) \
        and bool(value[0]) and isinstance(value[0][0], list)


def _resized(matrix: list, rows: int, cols: int) -> list:
    """``matrix`` cut or padded with zero entries to ``rows`` x ``cols``."""
    padded = [row[:cols] + [[0, 0]] * (cols - len(row[:cols])) for row in matrix[:rows]]
    return padded + [[[0, 0]] * cols for _ in range(rows - len(padded))]


@st.composite
def hostile_documents(draw):
    """A bundled game or strategy file with one mutation: (target, file text)."""
    target, source = draw(st.sampled_from(GENERATED_SOURCES))
    doc = _bundled(source)
    paths = list(_paths(doc))
    matrices = [path for path in paths if _is_matrix(_at(doc, path))]
    keys = [key for key in ("n1", "n2", "index") if key in doc]
    kind = draw(st.sampled_from(["drop", "retype", "nest"] + ["resize"] * bool(matrices)
                                + ["integers"] * bool(keys)))
    if kind == "drop":
        path = draw(st.sampled_from(paths[1:]))
        del _at(doc, path[:-1])[path[-1]]
    elif kind == "retype":
        path = draw(st.sampled_from(paths[1:]))
        _at(doc, path[:-1])[path[-1]] = draw(JSON_VALUES)
    elif kind == "nest":
        # json.dumps itself recurses, so the nesting is spliced into its text
        path = draw(st.sampled_from(paths[1:]))
        depth = draw(st.integers(1, 50) | st.just(100_000))
        nested = "[" * depth + json.dumps(_at(doc, path)) + "]" * depth
        _at(doc, path[:-1])[path[-1]] = "<nested>"
        return target, json.dumps(doc).replace('"<nested>"', nested)
    elif kind == "resize":
        path = draw(st.sampled_from(matrices))
        rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        _at(doc, path[:-1])[path[-1]] = _resized(_at(doc, path), rows, cols)
    else:
        for key in draw(st.lists(st.sampled_from(keys), min_size=1, unique=True)):
            doc[key] = draw(INTEGERS)
    return target, json.dumps(doc)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("generated")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=hostile_documents())
def test_every_command_fails_precisely_on_generated_files(workdir, case):
    target, text = case
    path = workdir / f"generated.{target}"
    path.write_text(text)
    game, strategy = (str(path), "chi_star.strategy") if target == "game" else ("ewl.game",
                                                                              str(path))
    for argv in _commands(game, strategy):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        assert code in (0, 1, 2), (argv, code, err.getvalue())
