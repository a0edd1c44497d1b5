"""The vectorized float writer against Python's repr, cell for cell."""

import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nubes import _floattext

CELLS = _floattext.Cells(4096)


def _texts(values: np.ndarray) -> list[str]:
    """Each value as the kernel writes it, without its separator."""
    out = []
    for start in range(0, values.size, CELLS.lanes):
        slots = CELLS(values[start:start + CELLS.lanes], ord(","))
        out.extend(slots[slots != 0].tobytes().decode().split(",")[:-1])
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1, max_size=64))
def test_floats_match_repr(values):
    assert _texts(np.array(values, dtype=np.float64)) == [repr(float(v)) for v in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_bit_patterns_match_repr(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert _texts(values) == [repr(v) for v in values.tolist()]


def _edge_values() -> np.ndarray:
    with np.errstate(over="ignore"):
        powers = np.concatenate([2.0 ** np.arange(-1074, 1024), 10.0 ** np.arange(-323, 309)])
    special = [0.0, np.inf, np.nan, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
               1.7976931348623157e308, 1e15, 1e16, 1e-4, 1e-5, 0.1, 0.3, 2.0**53 + 2, 9007199254740993.0,
               123456789012345678.0, 1e23, 5e-310]
    edges = np.concatenate([powers, special, np.arange(1.0, 5001.0)])
    with np.errstate(invalid="ignore", over="ignore"):
        edges = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf)])
    normals = np.random.default_rng(7).standard_normal(20_000)
    return np.concatenate([edges, normals])


def test_sweep_matches_repr():
    # a million random bit patterns cover every exponent, sign and special class
    patterns = np.random.default_rng(20201201).integers(0, 2**64, size=1_000_000, dtype=np.uint64)
    edges = _edge_values()
    values = np.concatenate([patterns.view(np.float64), edges, -edges])
    sep = np.where(np.arange(values.size) % 5 == 4, ord("\n"), ord(","))
    made = []
    for start in range(0, values.size, CELLS.lanes):
        block = slice(start, start + CELLS.lanes)
        slots = CELLS(values[block], sep[block])
        made.append(slots[slots != 0].tobytes())
    expected = "".join(repr(v) + chr(s) for v, s in zip(values.tolist(), sep.tolist()))
    assert b"".join(made) == expected.encode()


def test_separator_broadcasts_over_columns():
    values = np.array([[0.5, -2.0, 1e-7], [np.inf, 3.25, 0.0]])
    slots = CELLS(values, np.array([ord(","), ord(","), ord("\n")]))
    assert slots[slots != 0].tobytes() == b"0.5,-2.0,1e-07\ninf,3.25,0.0\n"


def test_tables_are_built_on_first_use():
    code = ("import nubes.cli, nubes._floattext as f; a = f._tables.cache_info().currsize; "
            "f.Cells(1)(1.0, 44); print(a, f._tables.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["0", "1"]
