"""The table renderer gives the text of the per-cell renderer it replaced.

``_ref_fmt``, ``_ref_cell`` and ``_ref_json`` are the per-cell renderer
that printed every CLI table before tables were rendered a row template at a
time: one call per cell and one ``json.dumps`` per key.  They are kept here,
unchanged, as the reference.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasekit.cli import Table, _emit, _json


def _ref_fmt(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # canonicalize -0.0
    return "%.17g" % x


def _ref_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return _ref_fmt(value)
    return str(value)


def _ref_json(value, indent=None) -> str:
    deeper = None if indent is None else indent + 1
    if isinstance(value, dict):
        brackets = "{}"
        items = [f"{json.dumps(str(k))}: {_ref_json(v, deeper)}" for k, v in value.items()]
    elif isinstance(value, (list, tuple)):
        brackets = "[]"
        items = [_ref_json(v, deeper) for v in value]
        if not any(isinstance(v, (dict, list, tuple)) for v in value):
            indent = None
    elif isinstance(value, float):
        return _ref_fmt(value)
    else:
        return json.dumps(value)
    if indent is None or not items:
        return brackets[0] + ", ".join(items) + brackets[1]
    pad = "  " * indent
    return f"{brackets[0]}\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}{brackets[1]}"


def _ref_rows(table: Table) -> list:
    """The table as the per-point objects (or lists) the JSON body used to hold."""
    if table.keys is None:
        return [list(row) for row in table.rows]
    return [dict(zip(table.keys, row)) for row in table.rows]


def _ref_csv(table: Table) -> list[str]:
    return [",".join(table.header or table.keys)] + [",".join(map(_ref_cell, r))
                                                     for r in table.rows]


#: -0.0, zeros, subnormals, the ends of the range, integral floats (printed
#: without a point) and floats that round-trip only at 17 digits
EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
               1.7976931348623157e308, 1.0, -1.0, 2.0, 1e16, 2.0**53 + 2.0, 0.1, 0.1 + 0.2,
               1.0 / 3.0, -2.0 / 3.0, math.pi, math.inf, -math.inf, math.nan)
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
CELLS = st.one_of(FLOATS, st.none(), st.booleans(), st.integers(), st.text(max_size=6),
                  st.floats().map(np.float64))
#: a table sits at indent 1 (top of the body) or 3 (in a list of blocks)
INDENTS = (0, 1, 2, 3)


def _check(render, reference, *tables):
    """``render()`` gives ``reference()`` where every float in ``tables`` is finite;
    otherwise it raises FloatingPointError, since JSON holds no NaN or infinity."""
    if all(math.isfinite(x) for t in tables for row in t.rows for x in row
           if isinstance(x, float)):
        assert render() == reference()
    else:
        with pytest.raises(FloatingPointError):
            render()


@st.composite
def tables(draw, keyed=True):
    """A table of 0 to 4 rows whose columns are all-float or mixed."""
    ncols = draw(st.integers(1, 5))
    kinds = draw(st.lists(st.sampled_from((FLOATS, CELLS)), min_size=ncols, max_size=ncols))
    rows = draw(st.lists(st.tuples(*kinds), max_size=4))
    if not keyed:
        return Table(None, [list(row) for row in rows])
    # keys hold the characters a row template must escape
    keys = draw(st.lists(st.text(alphabet='ab%"\\s ,', max_size=4), min_size=ncols,
                         max_size=ncols, unique=True))
    header = draw(st.none() | st.just(tuple(k.upper() for k in keys)))
    return Table(tuple(keys), rows, header)


@st.composite
def array_tables(draw):
    """A table of 0 to 5 rows held as a float array, keyed or not.  Its cells come
    from a pool of a few values (-0.0 and 0.0 among them), from all floats, or
    both, so that both sides of the renderer's distinct-value rule are drawn."""
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(1, 5))
    pool = st.sampled_from(draw(st.lists(FLOATS, max_size=3)) + [-0.0, 0.0])
    cell = draw(st.sampled_from((pool, FLOATS, pool | FLOATS)))
    cells = draw(st.lists(cell, min_size=nrows * ncols, max_size=nrows * ncols))
    rows = np.array(cells, dtype=float).reshape(nrows, ncols)
    if not draw(st.booleans()):
        return Table(None, rows)
    keys = draw(st.lists(st.text(alphabet='ab%"\\s ,', max_size=4), min_size=ncols,
                         max_size=ncols, unique=True))
    header = draw(st.none() | st.just(tuple(k.upper() for k in keys)))
    return Table(tuple(keys), rows, header)


@settings(max_examples=150, deadline=None)
@given(tables(), st.sampled_from(INDENTS))
def test_keyed_table_json_matches_the_per_cell_renderer(table, indent):
    _check(lambda: _json(table, indent), lambda: _ref_json(_ref_rows(table), indent), table)


@settings(max_examples=100, deadline=None)
@given(tables(keyed=False), st.sampled_from(INDENTS))
def test_unkeyed_table_json_matches_the_per_cell_renderer(table, indent):
    _check(lambda: _json(table, indent), lambda: _ref_json(_ref_rows(table), indent), table)


@settings(max_examples=150, deadline=None)
@given(tables())
def test_table_csv_matches_the_per_cell_renderer(table):
    comments = {"summary": {"E": -0.0}, "box": (-6.0, 6.0), "skipped": None}
    expected = ["# phasekit t", "# config: {}", '# summary: {"E": 0}', "# box: -6:6"]
    _check(lambda: _emit("t", {}, {}, [(comments, table)], "csv"),
           lambda: "\n".join(expected + _ref_csv(table)) + "\n", table)


@settings(max_examples=100, deadline=None)
@given(tables(), tables(keyed=False), st.sampled_from(("json", "csv")))
def test_artifacts_match_at_every_table_depth(rows, vectors, fmt):
    # a table at the top of the body (indent 1), in a list of blocks (indent
    # 3) and as one-line lists of floats, as the runners place them
    body = {"blocks": [{"potential": {"m": 1.0}, "rows": rows}], "rows": rows,
            "eigenvectors": vectors}
    sections = [({"potential": {"m": 1.0}}, rows), ({}, Table(("x",), []))]
    if fmt == "json":
        ref_body = {"blocks": [{"potential": {"m": 1.0}, "rows": _ref_rows(rows)}],
                    "rows": _ref_rows(rows), "eigenvectors": _ref_rows(vectors)}
        expected = lambda: _ref_json({"config": {"a": -0.0}, **ref_body}, indent=0) + "\n"
    else:
        expected = lambda: "\n".join(["# phasekit t", '# config: {"a": 0}',
                                      '# potential: {"m": 1}', *_ref_csv(rows), "x"]) + "\n"
    # CSV prints only the sections, which do not hold the eigenvectors
    _check(lambda: _emit("t", {"a": -0.0}, body, sections, fmt), expected,
           *((rows, vectors) if fmt == "json" else (rows,)))


@settings(max_examples=150, deadline=None)
@given(array_tables(), st.sampled_from(INDENTS))
def test_array_table_json_matches_the_per_cell_renderer(table, indent):
    _check(lambda: _json(table, indent), lambda: _ref_json(_ref_rows(table), indent), table)


@settings(max_examples=150, deadline=None)
@given(array_tables())
def test_array_table_csv_matches_the_per_cell_renderer(table):
    table = Table(table.keys or tuple(f"c{j}" for j in range(table.rows.shape[1])),
                  table.rows, table.header)
    _check(lambda: _emit("t", {}, {}, [({}, table)], "csv"),
           lambda: "\n".join(["# phasekit t", "# config: {}"] + _ref_csv(table)) + "\n", table)


@pytest.mark.parametrize("distinct", [6, 7])
def test_each_side_of_the_distinct_value_rule(distinct, monkeypatch):
    # 12 cells: with at most 6 distinct values each is formatted once (and looked up
    # by np.searchsorted), with 7 or more each cell has a %.17g slot; -0.0 fills the
    # rest and counts as 0.0
    cells = [x for x in EDGE_FLOATS if math.isfinite(x)][1:distinct + 1]
    table = Table(("a", "b", "c"), np.array(cells + [-0.0] * (12 - distinct)).reshape(4, 3))
    searchsorted, lookups = np.searchsorted, []
    monkeypatch.setattr(np, "searchsorted", lambda *args: lookups.append(args)
                        or searchsorted(*args))
    assert _json(table, 1) == _ref_json(_ref_rows(table), 1)
    assert "-0" not in _emit("t", {}, {}, [({}, table)], "csv")
    assert len(lookups) == 2 * (distinct == 6)  # once for JSON, once for CSV


def test_edge_floats_in_a_float_column():
    table = Table(("m",), [(x,) for x in EDGE_FLOATS if math.isfinite(x)])
    assert set(map(type, (x for (x,) in table.rows))) == {float}  # the %.17g slot path
    text = _json(table, 1)
    assert text == _ref_json(_ref_rows(table), 1)
    assert '"m": 0\n' in text and '"m": 1\n' in text and '"m": 0.30000000000000004\n' in text
    assert "-0" not in text.replace("-0.6", "")


NON_FINITE = pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan,
                                             np.float64(math.nan)],
                                      ids=["inf", "-inf", "nan", "np.nan"])


def _non_finite_cases(bad):
    """(comments, table) with one non-finite float, keyed by the name the error gives."""
    plain = Table(("n",), [(0,)])
    return {
        "E": ({}, Table(("n", "E"), [(0, 1.0), (1, bad)])),  # a %.17g slot
        "E_oracle": ({}, Table(("n", "E_oracle"), [(0, None), (1, bad)])),  # cell by cell
        "T_matched": ({"summary": {"E": 0.5, "T_matched": bad}}, plain),
        "overlap": ({"overlap": bad}, plain),
        "eigenvalues": ({"eigenvalues": [0.5, bad]}, plain),
        "box": ({"box": (-6.0, bad)}, plain),
        # float arrays: the first bad column, not the first bad cell, and on either
        # side of the distinct-value rule
        "psi_sq": ({}, Table(("q", "psi_sq", "S"), np.array([[0.0, 1.0, bad],
                                                             [1.0, bad, 2.0]]))),
        "im_value": ({}, Table(("q", "im_value"), np.array([[0.5, 0.0]] * 3 + [[0.5, bad]]))),
    }


@pytest.mark.parametrize("fmt", ["json", "csv"])
@NON_FINITE
@pytest.mark.parametrize("name", list(_non_finite_cases(0.0)))
def test_a_non_finite_float_is_refused_by_name(name, bad, fmt):
    comments, table = _non_finite_cases(bad)[name]
    with pytest.raises(FloatingPointError, match=name):
        _emit("t", {}, {**comments, "rows": table}, [(comments, table)], fmt)


@NON_FINITE
def test_a_table_without_keys_is_named_by_its_key(bad):
    with pytest.raises(FloatingPointError, match="eigenvectors"):
        _emit("t", {}, {"eigenvectors": Table(None, [[0.1, bad]])}, [], "json")


@NON_FINITE
def test_an_array_table_without_keys_is_named_by_its_key(bad):
    with pytest.raises(FloatingPointError, match="eigenvectors"):
        _emit("t", {}, {"eigenvectors": Table(None, np.array([[0.1, 0.2], [0.3, bad]]))},
              [], "json")
