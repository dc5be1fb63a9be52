"""Data layer: CSV ingestion and emission, missingness bookkeeping,
bootstrap resampling."""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnarcause import (
    BadValue,
    Dataset,
    EmptyData,
    Schema,
    SchemaMismatch,
    MnarError,
    emit_csv,
    generate_table1,
    load_csv,
    missingness_summary,
    resample,
)
from mnarcause import data as data_module

SCHEMA = Schema(treatment="a", outcome="y", confounders=("c1", "c2"),
                missing="c1", outcome_family="gaussian")


def small_dataset(r_pattern=(1, 1, 1)):
    c1 = np.array([0.5, -1.0, 2.0])
    c1 = np.where(np.array(r_pattern) == 1, c1, np.nan)
    c = np.column_stack([c1, np.array([1.0, 0.0, 1.0])])
    return Dataset(a=np.array([1.0, 0.0, 1.0]), y=np.array([2.0, 0.5, -1.0]),
                   c=c, schema=SCHEMA)


class TestLoadCsv:
    def test_all_cells_present(self):
        text = "a,y,c1,c2\n1,2.0,0.5,1\n0,0.5,-1.0,0\n1,-1.0,2.0,1\n"
        d = load_csv(text, SCHEMA)
        assert d.n == 3
        assert d.r.tolist() == [1.0, 1.0, 1.0]
        assert d.a.tolist() == [1.0, 0.0, 1.0]

    def test_empty_cell_sets_r_zero(self):
        text = "a,y,c1,c2\n1,2.0,0.5,1\n0,0.5,,0\n1,-1.0,2.0,1\n"
        d = load_csv(text, SCHEMA)
        assert d.r.tolist() == [1.0, 0.0, 1.0]
        assert np.isnan(d.c[1, 0])

    def test_na_marker(self):
        text = "a,y,c1,c2\n1,2.0,NA,1\n0,0.5,-1.0,0\n"
        d = load_csv(text, SCHEMA)
        assert d.r.tolist() == [0.0, 1.0]

    def test_na_marker_is_case_sensitive(self):
        text = "a,y,c1,c2\n1,2.0,na,1\n"
        with pytest.raises(BadValue):
            load_csv(text, SCHEMA)

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-Infinity"])
    def test_non_finite_cell_in_designated_column(self, cell):
        # float() parses these, but they are not missing markers: r must
        # not silently become 0
        text = f"a,y,c1,c2\n1,2.0,0.5,1\n0,0.5,{cell},0\n"
        with pytest.raises(BadValue, match=r"non-finite cell .* column 'c1' at data row 2"):
            load_csv(text, SCHEMA)

    @pytest.mark.parametrize("column", ["y", "c2"])
    def test_non_finite_cell_elsewhere(self, column):
        cells = {"a": "1", "y": "2.0", "c1": "0.5", "c2": "1"}
        cells[column] = "nan"
        text = "a,y,c1,c2\n0,0.5,-1.0,0\n" + ",".join(cells.values()) + "\n"
        with pytest.raises(BadValue, match=f"non-finite cell 'nan' in column '{column}' "
                                           "at data row 2"):
            load_csv(text, SCHEMA)

    def test_bad_treatment_value(self):
        text = "a,y,c1,c2\n2,2.0,0.5,1\n"
        with pytest.raises(BadValue):
            load_csv(text, SCHEMA)

    def test_missing_cell_outside_designated_column(self):
        text = "a,y,c1,c2\n1,2.0,0.5,\n"
        with pytest.raises(BadValue):
            load_csv(text, SCHEMA)

    def test_absent_role_column(self):
        text = "a,y,c1\n1,2.0,0.5\n"
        with pytest.raises(SchemaMismatch):
            load_csv(text, SCHEMA)

    def test_header_only(self):
        with pytest.raises(EmptyData):
            load_csv("a,y,c1,c2\n", SCHEMA)

    def test_empty_input(self):
        with pytest.raises(EmptyData):
            load_csv("", SCHEMA)

    def test_non_numeric_cell(self):
        text = "a,y,c1,c2\n1,two,0.5,1\n"
        with pytest.raises(BadValue):
            load_csv(text, SCHEMA)

    def test_bytes_input(self):
        text = b"a,y,c1,c2\n1,2.0,0.5,1\n"
        d = load_csv(text, SCHEMA)
        assert d.n == 1

    def test_extra_columns_ignored(self):
        text = "extra,a,y,c1,c2\n9,1,2.0,0.5,1\n"
        d = load_csv(text, SCHEMA)
        assert d.n == 1 and d.y[0] == 2.0

    @pytest.mark.parametrize("header", ["a,y,c1,c2,c2", "a,y,y,c1,c2"])
    def test_repeated_role_column(self, header):
        # which of the two cells would be the value is undecidable
        name = "c2" if header.endswith("c2,c2") else "y"
        text = f"{header}\n1,2.0,0.5,1,0\n"
        with pytest.raises(SchemaMismatch, match=f"'{name}' appears 2 times"):
            load_csv(text, SCHEMA)

    def test_repeated_column_outside_roles_ignored(self):
        text = "x,a,y,c1,c2,x\n9,1,2.0,0.5,1,8\n"
        assert load_csv(text, SCHEMA).n == 1


NAN = float("nan")
HEADER = "a,y,c1,c2"
BOTH_ROWS = [(1.0, 2.5, 0.5, 1.0), (0.0, -1.0, NAN, 0.0)]

# how load_csv reads each dialect: the rows (a, y, c1, c2) it returns, or
# the exception it raises and its message
DIALECT = [
    ("plain", f"{HEADER}\n1,2.5,0.5,1\n0,-1,,0\n", BOTH_ROWS),
    ("no final newline", f"{HEADER}\n1,2.5,0.5,1\n0,-1,,0", BOTH_ROWS),
    ("blank line in the middle", f"{HEADER}\n1,2.5,0.5,1\n\n0,-1,,0\n",
     (BadValue, "row 2 has 0 cells, header has 4")),
    ("blank line at the end", f"{HEADER}\n1,2.5,0.5,1\n0,-1,,0\n\n",
     (BadValue, "row 3 has 0 cells, header has 4")),
    ("only blank lines", f"{HEADER}\n\n\n", (BadValue, "row 1 has 0 cells, header has 4")),
    ("comment-like line", f"{HEADER}\n1,2.5,0.5,1\n#x,1,2\n0,-1,,0\n",
     (BadValue, "row 2 has 3 cells, header has 4")),
    ("comment-like cell", f"{HEADER}\n1,2.5,0.5,1\n#x,1,2,3\n",
     (BadValue, "non-numeric cell '#x' in column 'a' at data row 2")),
    ("CRLF line endings", f"{HEADER}\r\n1,2.5,0.5,1\r\n0,-1,,0\r\n", BOTH_ROWS),
    ("space-padded cells", f"{HEADER}\n1, 2.5 ,0.5,\t1\n0,-1,,0\n", BOTH_ROWS),
    ("quoted cells", f'{HEADER}\n"1","2.5","0.5","1"\n0,-1,"",0\n', BOTH_ROWS),
    ("quoted header and NA", f'"a","y","c1","c2"\n1,2.5,0.5,1\n0,-1,NA,0\n', BOTH_ROWS),
    ("quoted empty cell in y", f'{HEADER}\n1,"",0.5,1\n',
     (BadValue, "missing value in column 'y' at data row 1")),
    ("NA in y", f"{HEADER}\n1,NA,0.5,1\n",
     (BadValue, "missing value in column 'y' at data row 1")),
    ("short row", f"{HEADER}\n1,2.5,0.5\n0,-1,,0\n",
     (BadValue, "row 1 has 3 cells, header has 4")),
    ("long row", f"{HEADER}\n1,2.5,0.5,1\n0,-1,,0,9\n",
     (BadValue, "row 2 has 5 cells, header has 4")),
    ("every row long", f"{HEADER}\n1,2.5,0.5,1,9\n0,-1,,0,9\n",
     (BadValue, "row 1 has 5 cells, header has 4")),
    ("nan in y", f"{HEADER}\n1,nan,0.5,1\n0,-1,,0\n",
     (BadValue, "non-finite cell 'nan' in column 'y' at data row 1")),
    ("nan in c1", f"{HEADER}\n1,2.5,0.5,1\n0,-1,nan,0\n",
     (BadValue, "non-finite cell 'nan' in column 'c1' at data row 2")),
    ("inf in c2", f"{HEADER}\n1,2.5,0.5,inf\n",
     (BadValue, "non-finite cell 'inf' in column 'c2' at data row 1")),
    ("underscore digits", f"{HEADER}\n1,2_5,0.5,1\n",
     [(1.0, 25.0, 0.5, 1.0)]),
    ("exponents and signs", f"{HEADER}\n+1,2.5e-3,-.5,1E2\n",
     [(1.0, 0.0025, -0.5, 100.0)]),
    ("hexadecimal", f"{HEADER}\n1,0x10,0.5,1\n",
     (BadValue, "non-numeric cell '0x10' in column 'y' at data row 1")),
    ("UTF-8 byte order mark", f"\ufeff{HEADER}\n1,2.5,0.5,1\n0,-1,,0\n".encode(),
     BOTH_ROWS),
    ("blank cell in c1", f'{HEADER}\n1,2.5," ",1\n',
     (BadValue, "non-numeric cell ' ' in column 'c1' at data row 1")),
    ("treatment 2", f"{HEADER}\n2,2.5,0.5,1\n",
     (BadValue, "treatment values must be 0 or 1")),
    ("extra text column", f"id,{HEADER}\nx,1,2.5,0.5,1\ny,0,-1,,0\n", BOTH_ROWS),
    ("bare CR line breaks", f"{HEADER}\r1,2.5,0.5,1\r0,-1,,0\r",
     (BadValue, "malformed CSV: new-line character seen in unquoted field")),
    ("byte 0xff in a cell", f"{HEADER}\n1,2.5,0.5,1\n0,-1,".encode() + b"\xff,0\n",
     (BadValue, "not UTF-8: byte 0xff at offset 27")),
]


@pytest.mark.parametrize("text, outcome", [case[1:] for case in DIALECT],
                         ids=[case[0] for case in DIALECT])
def test_dialect(text, outcome):
    if isinstance(outcome, tuple):
        kind, message = outcome
        with pytest.raises(kind) as caught:
            load_csv(text, SCHEMA)
        assert type(caught.value) is kind and str(caught.value) == message
    else:
        d = load_csv(text, SCHEMA)
        got = np.column_stack([d.a, d.y, d.c])
        assert np.array_equal(got, np.array(outcome), equal_nan=True)


def test_byte_order_mark_in_text_is_dropped():
    d = load_csv(f"\ufeff{HEADER}\n1,2.5,0.5,1\n0,-1,,0\n", SCHEMA)
    assert np.array_equal(np.column_stack([d.a, d.y, d.c]), np.array(BOTH_ROWS),
                          equal_nan=True)


def test_undecodable_byte_in_a_text_mode_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_bytes(f"{HEADER}\n1,2.5,0.5,1\n0,-1,".encode() + b"\xff,0\n")
    with open(path, encoding="utf-8") as fh, pytest.raises(BadValue) as caught:
        load_csv(fh, SCHEMA)
    assert str(caught.value) == "not utf-8: byte 0xff"


def outcome(text, per_cell=False):
    """What load_csv makes of text: the bytes of its rows, or the type and
    message of what it raises; with per_cell, by the per-cell loop alone."""
    with pytest.MonkeyPatch.context() as mp:
        if per_cell:
            mp.setattr(data_module, "_read_cells", lambda *args: None)
        try:
            d = load_csv(text, SCHEMA)
        except MnarError as err:
            return type(err).__name__, str(err)
        except Exception as err:  # the csv module's own errors are outcomes too
            return "other", type(err).__name__, str(err)
    return np.column_stack([d.a, d.y, d.c]).tobytes()


CELLS = ["0", "1", "-3.5", "0.25", "", "NA", "na", "nan", "-Infinity", " 1", "\t0 ",
         '"1"', '""', '"NA"', "1e3", "2_5", "0x10", " ", "x", '"2\n"', '"1,2"', '"1"2',
         '1"2', "1.", ".5", "1e", "\xa01", "#x", "1\r", "1e400", "4.9e-324"]
ENDS = ["\n", "\r\n", "\r", "\n\n", ""]


@st.composite
def csv_texts(draw):
    """A header and up to four rows of plain cells, with at most one cell
    replaced by a tricky one and one row a cell short or long."""
    header = draw(st.sampled_from([HEADER, "c2,c1,y,a", '"a","y","c1","c2"',
                                   "id,a,y,c1,c2", "a,y,c1,c2,", "a,y,c1,c2,c2",
                                   '"a\n",y,c1,c2', "\ufeffa,y,c1,c2"]))
    width = len(header.split(","))
    plain = st.sampled_from(["0", "1", "0.25", "-3.5"])
    rows = draw(st.lists(st.lists(plain, min_size=width, max_size=width), max_size=4))
    if rows and draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, width - 1))] = draw(st.sampled_from(CELLS))
    if rows and draw(st.integers(0, 3)) == 0:
        row = draw(st.sampled_from(rows))
        row[:] = row[:-1] if draw(st.booleans()) else row + ["1"]
    ends = st.sampled_from(ENDS[:2] * 3 + ENDS[2:])
    text = header + draw(ends) + "".join(",".join(r) + draw(ends) for r in rows)
    return text.encode() if draw(st.booleans()) else text


@settings(max_examples=400, deadline=None)
@given(csv_texts())
def test_c_reader_decides_as_the_per_cell_loop(text):
    assert outcome(text) == outcome(text, per_cell=True)


def float_cells(text: str) -> np.ndarray:
    """Every data cell of a CSV made by emit_csv, read by float(); empty
    cells NaN."""
    rows = list(csv.reader(io.StringIO(text)))[1:]
    return np.array([[float(c) if c else np.nan for c in row] for row in rows])


@pytest.mark.parametrize("seed", [[7, 0], [7, 1]])
def test_values_equal_float_of_each_cell(seed):
    text = emit_csv(generate_table1("continuous", 10000, seed)[0])
    d = load_csv(text.encode(), Schema("a", "y", ("c1",), "c1"))
    assert np.column_stack([d.a, d.y, d.c]).tobytes() == float_cells(text).tobytes()


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.booleans(), finite, finite, finite, st.booleans()),
                min_size=1, max_size=20))
def test_round_trip_is_bit_for_bit(rows):
    a, y, c1, c2, present = (np.array(col, dtype=float) for col in zip(*rows))
    d = Dataset(a, y, np.column_stack([np.where(present == 1, c1, np.nan), c2]),
                SCHEMA)
    text = emit_csv(d)
    back = load_csv(text, SCHEMA)
    assert np.column_stack([back.a, back.y, back.c]).tobytes() == \
        float_cells(text).tobytes() == np.column_stack([d.a, d.y, d.c]).tobytes()


class TestRoundTrip:
    def test_round_trip_preserves_values_and_missingness(self):
        d = small_dataset(r_pattern=(1, 0, 1))
        d2 = load_csv(emit_csv(d), SCHEMA)
        assert d2.r.tolist() == d.r.tolist()
        assert np.array_equal(d2.a, d.a)
        assert np.array_equal(d2.y, d.y)
        assert np.array_equal(d2.c, d.c, equal_nan=True)

    def test_seventeen_digit_emission(self):
        c1 = np.array([1.0 / 3.0])
        d = Dataset(a=np.array([1.0]), y=np.array([np.pi]),
                    c=np.column_stack([c1, [0.0]]), schema=SCHEMA)
        d2 = load_csv(emit_csv(d), SCHEMA)
        assert d2.y[0] == d.y[0]
        assert d2.c[0, 0] == d.c[0, 0]


class TestDatasetInvariants:
    def test_treatment_domain(self):
        with pytest.raises(BadValue):
            Dataset(a=np.array([0.5]), y=np.array([1.0]),
                    c=np.array([[1.0, 0.0]]), schema=SCHEMA)

    def test_binary_outcome_domain(self):
        schema = Schema("a", "y", ("c1",), "c1", outcome_family="binary")
        with pytest.raises(BadValue):
            Dataset(a=np.array([1.0]), y=np.array([0.3]),
                    c=np.array([[1.0]]), schema=schema)

    def test_nan_outside_designated_column(self):
        with pytest.raises(BadValue):
            Dataset(a=np.array([1.0]), y=np.array([1.0]),
                    c=np.array([[1.0, np.nan]]), schema=SCHEMA)

    def test_empty(self):
        with pytest.raises(EmptyData):
            Dataset(a=np.empty(0), y=np.empty(0), c=np.empty((0, 2)),
                    schema=SCHEMA)

    def test_missing_column_must_be_confounder(self):
        with pytest.raises(SchemaMismatch):
            Schema("a", "y", ("c1",), missing="c9")

    def test_duplicate_roles(self):
        with pytest.raises(SchemaMismatch):
            Schema("a", "a", ("c1",), missing="c1")

    def test_row_view_hides_missing_value(self):
        d = small_dataset(r_pattern=(1, 0, 1))
        assert np.isnan(d.c[1, 0])
        assert d.r[1] == 0
        assert d.c[1, 1] == 0.0

    def test_arrays_read_only(self):
        d = small_dataset()
        with pytest.raises(ValueError):
            d.a[0] = 0.0

    def test_complete_cases_without_missing_is_the_dataset(self):
        d = small_dataset()
        assert d.complete_cases() is d

    def test_complete_cases_drops_missing_rows(self):
        cc = small_dataset(r_pattern=(1, 0, 1)).complete_cases()
        assert cc.n == 2 and cc.r.all()
        assert cc.y.tolist() == [2.0, -1.0]
        assert cc.c[:, 0].tolist() == [0.5, 2.0]


class TestMissingnessSummary:
    def test_no_missing(self):
        s = missingness_summary(small_dataset())
        assert s.rate == 0.0 and s.n_missing == 0

    def test_counting(self):
        c1 = np.array([np.nan, np.nan, np.nan, np.nan, 1, 1, 1, 1, 1, 1.0])
        a = np.array([1, 1, 0, 0, 1, 1, 1, 0, 0, 0.0])
        d = Dataset(a=a, y=np.zeros(10),
                    c=np.column_stack([c1, np.zeros(10)]), schema=SCHEMA)
        s = missingness_summary(d)
        assert s.n == 10 and s.n_missing == 4
        assert s.rate == pytest.approx(0.4)
        assert s.rate_treated == pytest.approx(2 / 5)
        assert s.rate_control == pytest.approx(2 / 5)


class TestResample:
    """resample draws row indices; d.subset of them is the copy."""

    def test_single_row(self):
        d = small_dataset()
        one = d.subset(np.array([0]))
        out = one.subset(resample(one.n, seed=3))
        assert out.n == 1
        assert out.a[0] == one.a[0] and out.y[0] == one.y[0]

    def test_determinism(self):
        d = small_dataset(r_pattern=(1, 0, 1))
        r1 = d.subset(resample(d.n, seed=11))
        r2 = d.subset(resample(d.n, seed=11))
        assert np.array_equal(r1.a, r2.a)
        assert np.array_equal(r1.c, r2.c, equal_nan=True)

    def test_rows_come_from_input(self):
        d = small_dataset(r_pattern=(1, 0, 1))
        out = d.subset(resample(d.n, seed=5))
        originals = {(d.a[i], d.y[i]) for i in range(d.n)}
        for i in range(out.n):
            assert (out.a[i], out.y[i]) in originals

    def test_selection_frequency_uniform(self):
        # law-of-large-numbers check: each of 5 rows should be drawn with
        # frequency 0.2 +- 0.01 over 10000 resamples
        c1 = np.arange(5, dtype=float)
        d = Dataset(a=np.ones(5), y=np.arange(5, dtype=float),
                    c=np.column_stack([c1, np.zeros(5)]), schema=SCHEMA)
        counts = np.zeros(5)
        draws = 0
        for s in range(10000):
            out = d.subset(resample(d.n, seed=s))
            for v in out.y:
                counts[int(v)] += 1
            draws += out.n
        freq = counts / draws
        assert np.all(np.abs(freq - 0.2) < 0.01)
