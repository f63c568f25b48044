"""``harness._lines`` fills one line template per table; it must write the
bytes ``csv.writer(lineterminator="\\n")`` would, for every value a table
holds."""

import csv
import io
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenario_eval import approaches, harness

from conftest import examples
from test_golden import THREE_SCENARIO_SETTINGS
from test_harness import CollectingWriter

HEADERS = harness._HEADERS

TOKENS = sorted({variant for _, variant in approaches.VARIANTS}
                | {"true", "false", ""}
                | set(harness._x_kinds(2)) | set(harness._x_kinds(12)))
FLOATS = (st.floats()
          | st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
                             2.2250738585072014e-308, 1e16, 1e-5, 1e-4, 0.1,
                             1.7976931348623157e308]))
VALUES = st.integers() | FLOATS | st.sampled_from(TOKENS)


def _csv_bytes(header, rows):
    text = io.StringIO(newline="")
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue().encode("utf-8")


@st.composite
def tables(draw):
    name = draw(st.sampled_from(sorted(HEADERS)))
    width = len(HEADERS[name])
    batches = draw(st.lists(st.lists(st.tuples(*[VALUES] * width), max_size=8),
                            min_size=1, max_size=3))
    return name, batches


@settings(max_examples=examples(300), deadline=None)
@given(tables())
def test_template_writes_the_bytes_of_csv_writer(table):
    name, batches = table
    written = harness._table(name, batches[0]) + b"".join(   # a new table, then more rows
        harness._lines(name, rows) for rows in batches[1:])
    expected = _csv_bytes(HEADERS[name], [row for rows in batches for row in rows])
    assert written == expected


@pytest.mark.parametrize("run_settings", [harness.RunSettings(), THREE_SCENARIO_SETTINGS],
                         ids=["default", "three_scenarios"])
def test_every_label_is_a_bare_token(run_settings):
    # csv.writer would quote a field with a comma, quote, space or line
    # break; the template does not, so no written str may hold one.
    writer = CollectingWriter()
    harness.evaluate(run_settings, writer)
    labels = {value for rows in writer.tables.values() for row in rows
              for value in row if isinstance(value, str)}
    assert {"true", "false", "realized"} <= labels
    assert all(re.fullmatch(r"[A-Za-z0-9_]*", label) for label in labels), labels
    for name, rows in writer.tables.items():
        assert rows and {len(row) for row in rows} == {len(HEADERS[name])}, name


@pytest.mark.parametrize("row", [(1, 2, "realized"), (1, 2, "realized", 0.5, 0.5),
                                 [1, 2, "realized", 0.5]], ids=["short", "long", "list"])
def test_a_row_that_does_not_fill_the_template_raises(row):
    with pytest.raises(TypeError):
        harness._table("projections.csv", [row])
    assert harness._table("projections.csv", []) == b"model_id,location_id,x_kind,y_projected\n"
