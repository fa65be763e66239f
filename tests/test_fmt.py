"""The table formatter against the row join it replaced, byte for byte.

``fmt_rows`` computes the digits of ``'%.17g'`` in numpy and leaves only
uncertified values to ``fmt``; these tests compare it with the plain
per-value join on the values where a digit or layout rule could slip:
every bit pattern, powers of ten and their neighbours, exact ties and
integers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import h3frames.fmt as fmt_module
from h3frames import frames
from h3frames.cli import main
from h3frames.fmt import fmt_rows

SEPS = (",", " ")
PREFIXES = ("", "v ", "f ")


def _reference_fmt_rows(rows, sep=" ", prefix=""):
    """The per-row ``'%.17g'`` join that ``fmt_rows`` replaced."""
    rows = np.asarray(rows, dtype=float)
    line = prefix + sep.join(["%.17g"] * rows.shape[1]) + "\n"
    return "".join([line % tuple(r) for r in rows.tolist()])


def _assert_same(rows):
    for sep in SEPS:
        for prefix in PREFIXES:
            assert "".join(fmt_rows(rows, sep, prefix)) == _reference_fmt_rows(rows, sep, prefix)


def _table(values, ncols=3):
    """``values`` as rows of ``ncols`` (the last row padded with zeros)."""
    values = np.asarray(values, dtype=float).ravel()
    pad = -len(values) % ncols
    return np.concatenate([values, np.zeros(pad)]).reshape(-1, ncols)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64), st.integers(1, 5))
def test_every_bit_pattern(bits, ncols):
    _assert_same(_table(np.array(bits, dtype=np.uint64).view(np.float64), ncols))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=64), st.integers(1, 5))
def test_any_float_with_nan_inf_zero_and_subnormals(values, ncols):
    _assert_same(_table(values + [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324], ncols))


def test_powers_of_ten_their_neighbours_and_halfway_mantissas():
    exps = range(-323, 309)
    p = np.array([float(f"1e{e}") for e in exps])
    values = [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf), [float(f"9.5e{e}") for e in exps]]
    table = _table(np.concatenate(values), 4)
    _assert_same(table)
    _assert_same(-table)


def test_exact_ties_round_half_even():
    i = np.arange(-2000, 2001)
    ties = np.concatenate([2.0**50 + i / 4, 2.0**49 + i / 8, 2.0**48 + i / 16])
    assert "".join(fmt_rows([[2.0**50 + 0.25]])) == "1125899906842624.2\n"
    _assert_same(_table(ties, 3))


def test_integer_valued_floats_up_to_2_53():
    rng = np.random.default_rng(7)
    ints = np.concatenate([
        rng.integers(0, 2**53, 3000), rng.integers(0, 100_000, 3000),
        [0, 1, 9, 10, 99, 100, 2**53 - 1, 2**53], 10 ** np.arange(16),
    ])
    _assert_same(_table(ints.astype(float), 3))


@pytest.mark.parametrize("shape", [(1, 1), (1, 16), (4097, 3), (3, 0)])
def test_table_shapes(shape):
    rng = np.random.default_rng(11)
    table = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)
    if shape == (4097, 3):
        assert len(list(fmt_rows(table))) > 1  # crosses a block edge
    _assert_same(table)


def _count_fallbacks(monkeypatch):
    calls = []
    real = fmt_module.fmt
    monkeypatch.setattr(fmt_module, "fmt", lambda x: calls.append(x) or real(x))
    return calls


def test_no_fallback_on_the_default_cross_cap_table(monkeypatch, capsys):
    # count fmt calls only inside the table writer's fmt_rows: cli formats
    # its header values with fmt itself, and those are no fallbacks
    calls, tables = [], []
    real_fmt, real_rows = fmt_module.fmt, frames.fmt_rows

    def counted_fmt(x):
        if tables and tables[-1]:
            calls.append(x)
        return real_fmt(x)

    def counted_rows(*args, **kwargs):
        tables.append(True)
        try:
            yield from real_rows(*args, **kwargs)
        finally:
            tables[-1] = False

    monkeypatch.setattr(fmt_module, "fmt", counted_fmt)
    monkeypatch.setattr(frames, "fmt_rows", counted_rows)
    assert main(["invariants", "--example", "cross_cap"]) == 0
    assert len(capsys.readouterr().out.splitlines()) > 21 * 21
    assert tables == [False]  # the table went through fmt_rows once
    assert calls == []


def test_fallback_exactly_for_non_finite_out_of_range_and_ties(monkeypatch):
    left = [np.nan, np.inf, -np.inf, 5e-324, 1e-300, -1e281, 1e300, 2.0**50 + 0.25, 2.0**49 + 0.125]
    table = _table([0.5, *left[:4], -0.0, 123.25, *left[4:], 1e-280, 1e280, 0.0, 3.0], 4)
    calls = _count_fallbacks(monkeypatch)
    text = "".join(fmt_rows(table, ","))
    assert calls == pytest.approx(left, nan_ok=True)
    assert text == _reference_fmt_rows(table, ",")
