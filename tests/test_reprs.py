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


@pytest.mark.parametrize("sure", [_reprs._SURE, 0.5])
def test_many_values_over_several_chunks_are_written_as_repr_writes_them(monkeypatch, sure):
    # at 0.5 every value's bounds are recomputed exactly
    monkeypatch.setattr(_reprs, "_SURE", sure)
    rng = np.random.default_rng(30)
    n = 3 * _reprs._CHUNK + 7
    values = np.concatenate((
        rng.integers(0, 2**64 - 1, n, dtype=np.uint64, endpoint=True).view(np.float64),
        rng.integers(0, 10**6, n) / 10.0 ** rng.integers(0, 9, n),
        rng.integers(0, 2**62, n).astype(np.float64),
        rng.integers(1, 10**6, n) * 10.0 ** rng.integers(-320, 300, n),
    ))
    assert texts(values) == reprs(values)


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
