"""Game, strategy and measurement file formats.

All files are structured text (JSON): complex numbers are two-element
``[re, im]`` arrays, matrices are row-major arrays of rows, and every file
carries a ``format_version`` field (a file without it is read as the
current version; any other version is a ``ParseError``).  Structural
problems raise ``ParseError`` (CLI exit 2); physical-validity problems
raise the matching ``ValidationError`` subclass (CLI exit 1).

A ``.game`` file holds ``n1``, ``n2``, ``rho`` and either two explicit
payoff operators or a measurement plus payoff vectors from which the
operators are folded.  A ``.strategy`` file holds one of four payload
kinds: ``kraus``, ``chi``, ``unitary`` or ``classical``; its dimension
comes from the game (a ``chi`` matrix is checked against the player's n,
and an ``n`` field in the file is not read).  A ``.povm`` file holds
measurement elements plus both players' payoff vectors.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, ParseError, ValidationError
from .game import QuantumGame, build_game, game_checks, payoff_length_check, payoff_operator
from .linalg import Check, require
from .quantum import (
    ChiMatrix,
    KrausChannel,
    completeness_check,
    kraus_form,
    kraus_to_chi,
    operator_stack,
    shift_channel,
    validate_chi,
    validate_kraus,
)

FORMAT_VERSION = 1

STRATEGY_KINDS = ("kraus", "chi", "unitary", "classical")


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def matrix_to_lists(m) -> list:
    """A complex array (or scalar) as nested lists with ``[re, im]`` pairs at the leaves."""
    a = np.asarray(m, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _is_number(x) -> bool:
    """A JSON number; ``true`` and ``false`` are not, though Python's bool is an int."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _floats(data, what: str) -> np.ndarray:
    """JSON numbers as floats; an integer literal beyond the float range is a ``ParseError``."""
    try:
        return np.asarray(data, dtype=float)
    except OverflowError:
        raise ParseError(f"{what}: an integer is too large for a float") from None


def matrix_from_lists(data, what: str) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise ParseError(f"{what}: expected a non-empty array of rows")
    width = None
    for r, row in enumerate(data):
        if not isinstance(row, list) or (width is not None and len(row) != width):
            raise ParseError(f"{what}: row {r} is not an array of length {width}")
        width = len(row)
        for c, cell in enumerate(row):
            if not isinstance(cell, list) or len(cell) != 2 or not all(map(_is_number, cell)):
                raise ParseError(f"{what}: entry ({r}, {c}) is not a [re, im] pair")
    if len(data) != width:
        raise ParseError(f"{what}: must be square, got {len(data)}x{width}")
    # the [re, im] pairs, read as one complex number each
    return _floats(data, what).view(complex)[..., 0]


def real_vector_from_list(data, what: str) -> np.ndarray:
    if not isinstance(data, list) or not all(map(_is_number, data)):
        raise ParseError(f"{what}: expected an array of real numbers")
    return _floats(data, what)


def _require(doc: dict, key: str, what: str):
    if key not in doc:
        raise ParseError(f"{what}: missing required field {key!r}")
    return doc[key]


def _int_field(doc: dict, key: str, what: str) -> int:
    value = _require(doc, key, what)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{what}: field {key!r} must be an integer")
    return value


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------

def _json_value(obj):
    """``json.dumps`` hook: complex numbers and arrays as ``[re, im]`` pairs, numpy as Python."""
    if np.iscomplexobj(obj):
        return matrix_to_lists(obj)
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def emit_document(payload: dict) -> str:
    """Serialize a payload, numpy values included; ``parse_document`` inverts it."""
    return json.dumps(payload, indent=2, sort_keys=True, default=_json_value) + "\n"


def parse_document(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ParseError("arrays or objects nested too deeply") from None
    except ValueError as exc:  # an integer literal of more digits than Python converts
        raise ParseError(str(exc)) from None


def bundled_path(name) -> pathlib.Path:
    """The packaged data file with the final component of ``name``."""
    return pathlib.Path(__file__).with_name("data") / pathlib.Path(name).name


def resolve_input(name) -> pathlib.Path:
    """Resolve an input path: the filesystem first, then bundled data for a bare file name."""
    p = pathlib.Path(name)
    if p.is_file():
        return p
    bundled = bundled_path(name)
    if os.path.dirname(name) == "" and bundled.is_file():
        return bundled
    raise ParseError(f"no such input file: {name}")


def load_document(path) -> dict:
    resolved = resolve_input(path)
    try:
        text = resolved.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{resolved.name}: not UTF-8 text ({exc.reason} at byte {exc.start})"
                         ) from None
    doc = parse_document(text)
    if not isinstance(doc, dict):
        raise ParseError(f"{resolved.name}: top level must be an object")
    version = doc.get("format_version", FORMAT_VERSION)
    if not (_is_number(version) and version == FORMAT_VERSION):
        raise ParseError(
            f"{resolved.name}: unsupported format_version {version!r}, expected {FORMAT_VERSION}"
        )
    return doc


def _dimension_check(what: str, dim: int, need: int) -> Check:
    """An operation from a file acts on the dimension the game gives it."""
    return Check(f"{what} dimension", abs(dim - need), 0, DimensionMismatch,
                 f"acts on dim {dim}, game needs {need}")


def _measurement_fields(doc: dict, what: str,
                        tol: float | None) -> tuple[KrausChannel, np.ndarray, np.ndarray, Check]:
    """A measurement's ``elements`` as a Kraus set, its two payoff vectors and its completeness."""
    elements = _require(doc, "elements", what)
    if not isinstance(elements, list) or not elements:
        raise ParseError(f"{what}: elements must be a non-empty array of matrices")
    mats = [matrix_from_lists(m, f"povm element {k}") for k, m in enumerate(elements)]
    payoffs = [real_vector_from_list(_require(doc, f"payoffs_{p}", what), f"payoffs_{p}")
               for p in ("I", "II")]
    stacked = operator_stack(mats, "POVM element")
    return KrausChannel(stacked), *payoffs, completeness_check(stacked, tol, "measurement")


# ---------------------------------------------------------------------------
# game files
# ---------------------------------------------------------------------------

def _parse_game(path, tol: float | None) -> tuple[list[Check], tuple | None]:
    """A .game file's measurement checks, and :func:`build_game`'s positional arguments.

    The arguments are ``None`` when a payoff vector's length leaves no
    operator to fold.
    """
    doc = load_document(path)
    what = "game file"
    n1 = _int_field(doc, "n1", what)
    n2 = _int_field(doc, "n2", what)
    if n1 < 1 or n2 < 1:
        raise ParseError(f"{what}: per-player dimensions must be at least 1")
    rho = matrix_from_lists(_require(doc, "rho", what), "rho")
    checks: list[Check] = []
    if "payoff_ops" in doc and "povm" in doc:
        raise ParseError(f"{what}: needs either payoff_ops or povm, not both")
    if "payoff_ops" in doc:
        fields = doc["payoff_ops"]
        if not isinstance(fields, dict):
            raise ParseError(f"{what}: payoff_ops must be an object with fields 'I' and 'II'")
        ops = [matrix_from_lists(_require(fields, label, "payoff_ops"), f"payoff operator {label}")
               for label in ("I", "II")]
    elif "povm" in doc:
        if not isinstance(doc["povm"], dict):
            raise ParseError(f"{what}: povm must be an object")
        povm, *vectors, complete = _measurement_fields(doc["povm"], "povm", tol)
        lengths = [payoff_length_check(povm.n_operators, vec, f"payoffs {label}")
                   for label, vec in zip(("I", "II"), vectors)]
        checks = [complete, *lengths]
        if not all(check.passed for check in lengths):
            return checks, None
        ops = [payoff_operator(povm, vec) for vec in vectors]
    else:
        raise ParseError(f"{what}: needs either payoff_ops or povm")
    return checks, (rho, *ops, n1, n2)


def game_file_checks(path, tol: float | None = None) -> list[Check]:
    """Every check :func:`load_game` applies to a .game file, in order.

    Non-finite entries and POVM elements of mixed sizes raise instead.
    """
    checks, args = _parse_game(path, tol)
    return checks if args is None else checks + list(game_checks(*args, tol))


def load_game(path, tol: float | None = None) -> QuantumGame:
    """Parse and fully validate a .game file."""
    checks, args = _parse_game(path, tol)
    require(checks)
    return build_game(*args, tol)


def game_to_payload(game: QuantumGame) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "n1": game.n1,
        "n2": game.n2,
        "rho": matrix_to_lists(game.rho.matrix),
        "payoff_ops": {
            "I": matrix_to_lists(game.payoff_op_i),
            "II": matrix_to_lists(game.payoff_op_ii),
        },
    }


# ---------------------------------------------------------------------------
# strategy files
# ---------------------------------------------------------------------------

class LoadedStrategy(NamedTuple):
    """A strategy bound to a player dimension, in both forms of it.

    ``channel`` is the file's Kraus set and ``chi`` its ``kraus_to_chi``, or
    for a chi file ``chi`` is the file's and ``channel`` its ``kraus_form``.
    """

    chi: ChiMatrix
    channel: KrausChannel


def load_strategy(path, n: int, tol: float | None = None) -> LoadedStrategy:
    doc = load_document(path)
    what = "strategy file"
    kind = _require(doc, "kind", what)
    if kind not in STRATEGY_KINDS:
        raise ParseError(f"{what}: kind must be one of {STRATEGY_KINDS}, got {kind!r}")

    if kind == "chi":
        chi = validate_chi(matrix_from_lists(_require(doc, "matrix", what), "chi matrix"), n, tol)
        return LoadedStrategy(chi, kraus_form(chi))

    if kind == "classical":
        index = _int_field(doc, "index", what)
        if not (0 <= index < n):
            raise ValidationError(f"classical strategy index {index} out of range [0, {n})")
        channel = shift_channel(n, index)
    else:
        if kind == "kraus":
            ops = _require(doc, "operators", what)
            if not isinstance(ops, list) or not ops:
                raise ParseError(f"{what}: operators must be a non-empty array of matrices")
            mats = [matrix_from_lists(m, f"Kraus operator {k}") for k, m in enumerate(ops)]
        else:
            # unitarity is exactly the one-operator completeness sum
            mats = [matrix_from_lists(_require(doc, "matrix", what), "unitary matrix")]
        channel = validate_kraus(mats, tol)
        require([_dimension_check("strategy", channel.dim, n)])
    return LoadedStrategy(kraus_to_chi(channel), channel)


# ---------------------------------------------------------------------------
# measurement files
# ---------------------------------------------------------------------------

def load_povm_file(path, dim: int,
                   tol: float | None = None) -> tuple[KrausChannel, np.ndarray, np.ndarray]:
    povm, *payoffs, complete = _measurement_fields(load_document(path), "povm file", tol)
    require([complete, _dimension_check("measurement", povm.dim, dim)])
    return povm, *payoffs
