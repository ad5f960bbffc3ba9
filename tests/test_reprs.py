"""The vectorised float writer against ``repr``, the text it must match byte
for byte."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optotriplet import _reprs


def texts(values):
    """Each value's text as :func:`_reprs.cells` lays it out."""
    return [bytes(cell).replace(b"\0", b"").decode() for cell in _reprs.cells(values)]


def reprs(values):
    return [repr(float(v)) for v in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=200))
def test_any_bit_pattern_is_written_as_repr_writes_it(patterns):
    # every float64, subnormals, both zeros, both infinities and NaNs included
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert texts(values) == reprs(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=200))
def test_any_float_is_written_as_repr_writes_it(values):
    assert texts(np.array(values, dtype=np.float64)) == reprs(values)


def _edge_values():
    tens = [float(f"1e{e}") for e in range(-323, 309)]
    return ([2.0**e for e in range(-1074, 1024)] + tens
            + [float(np.nextafter(t, toward)) for t in tens for toward in (0.0, np.inf)]
            + [1e16, 9999999999999998.0, 0.0001, 1e-05, 5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, 1e23, 2.0**53 + 2])


def test_powers_neighbours_and_layout_edges_are_written_as_repr_writes_them():
    values = np.array(_edge_values())
    assert texts(values) == reprs(values)
    assert texts(-values) == reprs(-values)


def _chunk_values():
    rng = np.random.default_rng(30)
    n = 3 * _reprs._CHUNK + 7
    return np.concatenate((
        rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True).view(np.float64),
        rng.integers(0, 10**6, n) / 10.0 ** rng.integers(0, 9, n),
        rng.integers(0, 2**62, n).astype(np.float64),
        rng.integers(1, 10**6, n) * 10.0 ** rng.integers(-320, 300, n),
    ))


@pytest.mark.parametrize("sure", [_reprs._SURE, 0.5])
def test_many_values_over_several_chunks_are_written_as_repr_writes_them(monkeypatch, sure):
    # at 0.5 every value's bounds are recomputed exactly
    monkeypatch.setattr(_reprs, "_SURE", sure)
    values = _chunk_values()
    assert texts(values) == reprs(values)


# the binary ufuncs whose result type numpy 1.x's value-based casting and
# NEP 50 may choose differently when one operand is a Python or mixed-kind scalar
_ARITHMETIC = {np.add, np.subtract, np.multiply, np.floor_divide, np.true_divide,
               np.remainder, np.divmod, np.power, np.minimum, np.maximum, np.left_shift,
               np.right_shift, np.bitwise_and, np.bitwise_or, np.bitwise_xor}
# the comparisons, whose handling of a Python int outside the integer array's
# range numpy 1.x's value-based casting and NEP 50 may also choose differently
_COMPARISON = {np.less, np.less_equal, np.greater, np.greater_equal, np.equal, np.not_equal}


def _implicit(operand) -> bool:
    """Whether ``operand``, beside a ``uint64`` array, leaves the result type
    to the casting rules: a Python int or float, a numpy scalar of another
    type, or a signed or float array."""
    if isinstance(operand, np.generic):
        return operand.dtype != np.uint64
    if isinstance(operand, np.ndarray):
        return operand.dtype.kind in "if"
    return isinstance(operand, (int, float)) and not isinstance(operand, bool)


class _Operands(np.ndarray):
    """An array that logs, in ``found``, every arithmetic or bitwise ufunc in
    which a ``uint64`` array meets an operand of :func:`_implicit`, and every
    comparison in which an integer array meets a Python int outside its
    dtype's range; every array computed from it is one too."""

    found = []

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if (ufunc in _ARITHMETIC
                and any(isinstance(x, np.ndarray) and x.dtype == np.uint64 for x in inputs)
                and any(map(_implicit, inputs))):
            self.found.append((ufunc.__name__, [getattr(x, "dtype", type(x)) for x in inputs]))
        if ufunc in _COMPARISON:
            ranges = [np.iinfo(x.dtype) for x in inputs
                      if isinstance(x, np.ndarray) and x.dtype.kind in "iu"]
            self.found.extend((ufunc.__name__, [r.dtype, x]) for r in ranges for x in inputs
                              if type(x) is int and not r.min <= x <= r.max)
        inputs = [x.view(np.ndarray) if isinstance(x, _Operands) else x for x in inputs]
        if out is not None:
            kwargs["out"] = tuple(x.view(np.ndarray) if isinstance(x, _Operands) else x
                                  for x in out)
            getattr(ufunc, method)(*inputs, **kwargs)
            return out[0] if len(out) == 1 else out
        return _as_operands(getattr(ufunc, method)(*inputs, **kwargs))

    def __array_function__(self, func, types, args, kwargs):
        return _as_operands(super().__array_function__(func, types, args, kwargs))


def _as_operands(result):
    if isinstance(result, tuple):
        return tuple(map(_as_operands, result))
    return result.view(_Operands) if type(result) is np.ndarray else result


@pytest.mark.parametrize("sure", [_reprs._SURE, 0.5])
def test_the_integer_kernel_keeps_every_uint64_operand_explicit(monkeypatch, sure):
    # the bit patterns that _format reads, and every array computed from
    # them, log each operation that mixes a uint64 array with an operand whose
    # type the casting rules would choose, and each comparison of an integer
    # array with a Python int outside its range: numpy 1.24 and numpy 2 could
    # give such an operation different types, and so different bytes
    monkeypatch.setattr(_reprs, "_SURE", sure)
    monkeypatch.setattr(_Operands, "found", [])
    values = np.concatenate((_edge_values(), _chunk_values()))
    bits = values.view(np.uint64)
    out = np.empty((values.size, _reprs.WIDTH // 8), dtype=_reprs._WORD)
    for start in range(0, values.size, _reprs._CHUNK):
        end = start + _reprs._CHUNK
        _reprs._format(bits[start:end].view(_Operands), out[start:end])
    assert _Operands.found == []
    cells = out.view(np.uint8).reshape(-1, _reprs.WIDTH)
    assert [bytes(cell).replace(b"\0", b"").decode() for cell in cells] == reprs(values)


def test_rows_join_fields_with_commas_and_end_each_row():
    values = np.array([[1.5, -0.0, np.nan, 1e16],
                       [1e-05, 123456789.0, -np.inf, 0.1]])
    cells = _reprs.cells(values)
    text = b"1.5,-0.0,nan,1e+16\n1e-05,123456789.0,-inf,0.1\n"
    assert _reprs.rows((cells,)) == text
    assert _reprs.rows((cells[:, :1], cells[:, 1:3], cells[:, 3:])) == text
    assert _reprs.rows((_reprs.cells(np.array([[5e-324]])),)) == b"5e-324\n"


def test_an_empty_input_writes_nothing():
    assert _reprs.cells(np.empty(0)).shape == (0, _reprs.WIDTH)
    assert _reprs.rows((_reprs.cells(np.empty((0, 4))),)) == b""


def test_the_cli_and_a_passing_oracle_do_not_import_the_writer(tmp_path):
    code = (
        "import sys\n"
        "import optotriplet.cli as cli\n"
        "assert 'optotriplet._reprs' not in sys.modules\n"
        "argv = ['oracle', '--preset', 'table1', '--scenario', 'sym-lossless',\n"
        "        '--out', sys.argv[1],\n"
        "        '--trajectories', '8', '--duration', '0.008', '--dt', '3.306878306878307e-06',\n"
        "        '--segments', '8', '--seed', '4']\n"
        "assert cli.main(argv) == 0\n"
        "assert 'optotriplet._reprs' not in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code, str(tmp_path)], check=True,
                   stdout=subprocess.DEVNULL, timeout=300)
