"""Data layer: CSV ingestion and emission, missingness bookkeeping,
bootstrap resampling."""

import numpy as np
import pytest

from mnarcause import (
    BadValue,
    Dataset,
    EmptyData,
    Schema,
    SchemaMismatch,
    emit_csv,
    load_csv,
    missingness_summary,
    resample,
)

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
    def test_single_row(self):
        d = small_dataset()
        one = d.subset(np.array([0]))
        out = resample(one, seed=3)
        assert out.n == 1
        assert out.a[0] == one.a[0] and out.y[0] == one.y[0]

    def test_determinism(self):
        d = small_dataset(r_pattern=(1, 0, 1))
        r1 = resample(d, seed=11)
        r2 = resample(d, seed=11)
        assert np.array_equal(r1.a, r2.a)
        assert np.array_equal(r1.c, r2.c, equal_nan=True)

    def test_rows_come_from_input(self):
        d = small_dataset(r_pattern=(1, 0, 1))
        out = resample(d, seed=5)
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
            out = resample(d, seed=s)
            for v in out.y:
                counts[int(v)] += 1
            draws += out.n
        freq = counts / draws
        assert np.all(np.abs(freq - 0.2) < 0.01)
