"""The contract of the records that freeze their fields: immutable NamedTuples
whose array fields are read-only copies of the constructor's input."""

import numpy as np
import pytest

from qgame.errors import DimensionMismatch, ValidationError
from qgame.game import ClassicalBimatrix, QuantumGame
from qgame.quantum import ChiMatrix, DensityMatrix, KrausChannel, identity_chi


def _kwargs(name: str) -> dict:
    """Fresh keyword arguments, in field order, for one of the freezing records."""
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    return {
        "DensityMatrix": {"matrix": np.diag([1.0, 0.0]).astype(complex)},
        "KrausChannel": {"operators": np.stack([np.eye(2), flip]) / np.sqrt(2)},
        "ChiMatrix": {"matrix": identity_chi(2).matrix.copy()},
        "QuantumGame": {"rho": DensityMatrix(np.eye(4) / 4), "payoff_op_i": np.diag([3.0, 0, 5, 1]),
                        "payoff_op_ii": np.diag([3.0, 5, 0, 1]), "n1": 2, "n2": 2},
        "ClassicalBimatrix": {"payoff_i": np.array([[3.0, 0], [5, 1]]),
                              "payoff_ii": np.array([[3.0, 5], [0, 1]])},
    }[name]


RECORDS = {cls.__name__: cls for cls in (DensityMatrix, KrausChannel, ChiMatrix, QuantumGame,
                                         ClassicalBimatrix)}


def _array_fields(kwargs: dict) -> list[str]:
    return [name for name, value in kwargs.items() if isinstance(value, np.ndarray)]


@pytest.mark.parametrize("name", RECORDS)
def test_fields_keep_their_names_and_order(name):
    assert RECORDS[name]._fields == tuple(_kwargs(name))


@pytest.mark.parametrize("name", RECORDS)
def test_assigning_a_field_raises(name):
    record = RECORDS[name](**_kwargs(name))
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("name", RECORDS)
def test_array_fields_are_read_only(name):
    kwargs = _kwargs(name)
    record = RECORDS[name](**kwargs)
    arrays = [getattr(record, field) for field in _array_fields(kwargs)]
    if name == "QuantumGame":
        arrays.append(record.rho.matrix)
    for array in arrays:
        assert array.flags.writeable is False
        with pytest.raises(ValueError):
            array[0] = 0


@pytest.mark.parametrize("name", RECORDS)
def test_changing_the_input_leaves_the_record_unchanged(name):
    kwargs = _kwargs(name)
    record = RECORDS[name](**kwargs)
    before = {field: getattr(record, field).copy() for field in _array_fields(kwargs)}
    for field in before:
        kwargs[field][...] = 7.0
    for field, value in before.items():
        np.testing.assert_array_equal(getattr(record, field), value)


@pytest.mark.parametrize("name", RECORDS)
def test_keyword_and_positional_construction_agree(name):
    kwargs = _kwargs(name)
    by_keyword = RECORDS[name](**kwargs)
    by_position = RECORDS[name](*kwargs.values())
    for field in by_keyword._fields:
        np.testing.assert_array_equal(np.asarray(getattr(by_keyword, field)),
                                      np.asarray(getattr(by_position, field)))
    text = repr(by_keyword)
    assert text.startswith(f"{name}(")
    assert all(f"{field}=" in text for field in by_keyword._fields)


def test_numpy_reads_a_density_matrix_as_its_matrix():
    state = DensityMatrix(np.eye(2) / 2)
    np.testing.assert_array_equal(np.asarray(state), np.eye(2) / 2)
    assert np.asarray(state, dtype=complex).shape == (2, 2)


@pytest.mark.parametrize("payoff_i, payoff_ii", [
    (np.zeros((2, 2)), np.zeros((2, 3))),
    (np.zeros(2), np.zeros(2)),
])
def test_classical_bimatrix_rejects_mismatched_shapes(payoff_i, payoff_ii):
    with pytest.raises(DimensionMismatch):
        ClassicalBimatrix(payoff_i, payoff_ii)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_classical_bimatrix_rejects_non_finite_entries(bad):
    with pytest.raises(ValidationError):
        ClassicalBimatrix(np.array([[1.0, bad], [0.0, 1.0]]), np.zeros((2, 2)))


@pytest.mark.parametrize("name", RECORDS)
def test_make_and_replace_freeze_and_copy(name):
    kwargs = _kwargs(name)
    record = RECORDS[name](**kwargs)
    array_fields = _array_fields(kwargs)
    fresh = _kwargs(name)
    made = RECORDS[name]._make(fresh.values())
    replaced = record._replace(**{field: fresh[field] for field in array_fields})
    for copy in (made, replaced):
        assert type(copy) is RECORDS[name]
        for field in array_fields:
            value = getattr(copy, field)
            assert value.flags.writeable is False
            assert not np.shares_memory(value, fresh[field])
            assert value.dtype == getattr(record, field).dtype


def test_make_and_replace_validate_a_bimatrix():
    good = ClassicalBimatrix(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        ClassicalBimatrix._make([np.array([[1.0, np.nan]]), np.zeros((1, 2))])
    with pytest.raises(DimensionMismatch):
        ClassicalBimatrix._make([np.array([[1.0, 0.0]]), np.zeros((1, 1))])
    with pytest.raises(DimensionMismatch):
        good._replace(payoff_i=np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        good._replace(payoff_ii=np.full((2, 2), np.inf))
