"""Command-line interface: the fit report's columns and its bootstrap
failure counts."""

import csv
import io
import json

import pytest

from mnarcause import emit_csv, generate_table1
from mnarcause.cli import main

HEADER = ["section", "name", "quantity", "estimate", "se", "ci_lo", "ci_hi",
          "boot_se", "boot_lo", "boot_hi", "boot_failures"]


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """fit --bootstrap 20 --seed 0 on a 400-row Table-1 CSV. Stage one fails
    on resamples 11 and 14 of that seed (NoConvergence after its restarts),
    so WEE-OR leaves out two resamples; the complete-case fit never fails."""
    root = tmp_path_factory.mktemp("fit")
    data = root / "data.csv"
    data.write_text(emit_csv(generate_table1("continuous", 400, 7)[0]))
    out = {}
    for fmt in ("csv", "json"):
        path = root / f"report.{fmt}"
        code = main(["fit", "--data", str(data), "--treatment", "a",
                     "--outcome", "y", "--confounders", "c1", "--missing", "c1",
                     "--estimators", "wee-or,cc-or", "--bootstrap", "20",
                     "--seed", "0", "--out", str(path), "--format", fmt])
        assert code == 0
        out[fmt] = path.read_text()
    return out


def test_csv_report_columns_and_failures(reports):
    rows = list(csv.reader(io.StringIO(reports["csv"])))
    assert rows[0] == HEADER
    by_name = {(r[0], r[1], r[2]): dict(zip(HEADER, r)) for r in rows[1:]}
    assert by_name[("ate", "wee-or", "tau")]["boot_failures"] == "2"
    assert by_name[("ate", "cc-or", "tau")]["boot_failures"] == "0"
    model_rows = [r for key, r in by_name.items() if key[0] == "model"]
    assert model_rows and all(r["boot_failures"] == "" for r in model_rows)


def test_json_report_columns_and_failures(reports):
    payload = json.loads(reports["json"])
    assert all(list(row) == HEADER for row in payload)
    ate = {row["name"]: row for row in payload if row["section"] == "ate"}
    assert ate["wee-or"]["boot_failures"] == 2
    assert ate["cc-or"]["boot_failures"] == 0
    assert all(row["boot_failures"] is None
               for row in payload if row["section"] == "model")


def test_formats_agree(reports):
    rows = list(csv.reader(io.StringIO(reports["csv"])))[1:]
    payload = json.loads(reports["json"])
    assert len(rows) == len(payload)
    for row, obj in zip(rows, payload):
        assert row[:3] == [obj["section"], obj["name"], obj["quantity"]]
        assert float(row[3]) == obj["estimate"]
