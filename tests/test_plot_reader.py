"""``plots._read_csv`` splits report lines itself; on every line it takes it
must keep what a ``csv.reader`` parse of the file gives, and it must take no
file that the ``csv`` parse refuses."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenario_eval import harness, plots
from scenario_eval.errors import ConfigError

from test_golden import THREE_SCENARIO_CONFIG
from test_harness import write_config


def _csv_read(path, columns, where=None, by=None):
    """The reference: ``_read_csv``'s contract through ``csv.reader``, the
    ``by`` groups as one list of floats per column."""
    with open(path, encoding="utf-8") as handle:
        rows = csv.reader(handle)
        header = next(rows, [])
        picks = [header.index(name) for name in columns]
        at, value = (header.index(where[0]), where[1]) if where else (0, None)
        key = header.index(by) if by else None
        kept, groups = [], {}
        for row in rows:
            if len(row) != len(header):
                raise ConfigError(f"line {rows.line_num} has {len(row)} fields", str(path))
            if key is not None:
                columns_of = groups.setdefault(int(row[key]), [[] for _ in picks])
                for column, k in zip(columns_of, picks):
                    column.append(float(row[k]))
            elif value is None or row[at] == value:
                kept.append(tuple(row[k] for k in picks))
        return kept if key is None else groups


def _assert_same(got, want):
    """``_read_csv``'s result ``got`` is the reference's ``want``: the same
    tuples, or the same groups in the same order, each column with the same
    bits row by row in file order."""
    if isinstance(want, list):
        assert got == want
        return
    assert list(got) == list(want)
    for j, columns_of in want.items():
        assert [column.tobytes() for column in got[j]] == \
            [np.array(column, dtype=float).tobytes() for column in columns_of]


def _assert_read_alike(*args):
    _assert_same(plots._read_csv(*args), _csv_read(*args))


def _plot_reads(report):
    """Each read ``plot`` makes of ``report``, as ``_read_csv`` arguments."""
    return [
        (report / "world.csv", ("location_id", "x_kind"), None, None),
        (report / "report.csv", ("approach", "variant", "model_id", "scenario_index",
                                 "mae_of_means", "ks_d", "ks_critical"), None, None),
        (report / "approach_estimates.csv",
         ("approach", "variant", "scenario_index", "mean", "q05", "q95"),
         ("location_id", "-1"), None),
        (report / "decomposition.csv", tuple(name for name, _ in plots.COMPONENTS),
         None, "scenario_index"),
    ]


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """A default and a 3-scenario report, each as written, with CRLF line
    ends and without the final newline."""
    tmp = tmp_path_factory.mktemp("reports")
    harness.run(None, tmp / "default")
    harness.run(write_config(tmp, THREE_SCENARIO_CONFIG), tmp / "three_scenarios")
    edits = {"crlf": lambda data: data.replace(b"\n", b"\r\n"),
             "no_final_newline": lambda data: data.removesuffix(b"\n")}
    for name in ("default", "three_scenarios"):
        for edit, change in edits.items():
            copy = tmp / f"{name}-{edit}"
            copy.mkdir()
            for source in (tmp / name).glob("*.csv"):
                (copy / source.name).write_bytes(change(source.read_bytes()))
    return tmp


@pytest.mark.parametrize("report", [
    "default", "three_scenarios", "default-crlf", "three_scenarios-crlf",
    "default-no_final_newline", "three_scenarios-no_final_newline"])
def test_read_csv_matches_csv_reader(reports, report):
    for args in _plot_reads(reports / report):
        _assert_read_alike(*args)
    # Every column of every table, as strings.
    for name in harness.DATA_FILES:
        path = reports / report / name
        with open(path, encoding="utf-8") as handle:
            header = tuple(next(csv.reader(handle)))
        _assert_read_alike(path, header)


def test_line_limit_is_within_csv_field_limit(tmp_path):
    # A line of LINE_LIMIT characters is read as csv reads it. One more
    # raises, though csv reads it too: its limit is per field.
    path = tmp_path / "t.csv"
    path.write_text(f"a,b\n{'1' * (plots.LINE_LIMIT - 2)},2\n", encoding="utf-8")
    _assert_read_alike(path, ("a", "b"))
    long = "1" * (plots.LINE_LIMIT - 1)
    path.write_text(f"a,b\n{long},2\n", encoding="utf-8")
    assert _csv_read(path, ("a", "b")) == [(long, "2")]
    with pytest.raises(ConfigError, match=f"line 2 is longer than {plots.LINE_LIMIT}"):
        plots._read_csv(path, ("a", "b"))


# Fields that float and int read in different ways: signs, spaces,
# underscores, non-ASCII digits, overflow and nan; then fields that csv
# reads otherwise than a split at commas would (quotes, NUL) or that are
# no number, and a line separator that str.splitlines breaks at.
NUMBERS = ["0", "1", "-1", "2", "01", "1.5", "-0.0", "1e308", "1e999", "nan", "-inf",
           "1_0", " 1", "1 ", "\u0661"]
ODD = ["", "x", '"1"', '1"', '"', '""', "\x00", "1\x00", " ", "\u00a0", "\u2028", "1.5j"]
FIELDS = st.sampled_from(NUMBERS * 10 + ODD)
# Column c is mostly an integer, as a scenario index is.
KEYS = st.sampled_from(["0", "1", "-1", "01", " 1", "1_0", "\u0661"] * 10 + NUMBERS + ODD)


@st.composite
def report_texts(draw):
    """A small 3-column CSV text, perhaps with one ragged or blank line,
    joined by one kind of line end."""
    rows = draw(st.lists(st.tuples(FIELDS, FIELDS, KEYS), max_size=8))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.lists(FIELDS, max_size=4)))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    final = draw(st.booleans())
    lines = ["a,b,c"] + [",".join(row) for row in rows]
    return end.join(lines) + (end if final else "")


@settings(max_examples=400, deadline=None)
@given(text=report_texts(),
       read=st.sampled_from([(("a", "b"), None, None), (("a", "c"), ("b", "-1"), None),
                             (("a", "b"), ("c", "-1"), None), (("b", "c"), ("a", "1"), None),
                             (("a", "b"), None, "c")]))
def test_takes_no_file_csv_refuses_and_keeps_its_values(tmp_path_factory, text, read):
    path = tmp_path_factory.mktemp("fuzz") / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    try:
        got = plots._read_csv(path, *read)
    except (ConfigError, ValueError):
        return
    _assert_same(got, _csv_read(path, *read))   # raises if csv refuses the file
