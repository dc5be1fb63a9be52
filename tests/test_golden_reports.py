"""Whole reports against fixtures frozen in tests/golden/:

- fit_all_nine_bootstrap20.json: `fit --bootstrap 20 --mi-m 3 --seed 0
  --format json` with all nine estimators on generate_table1("continuous",
  400, 7), where the WEE estimators leave out the two resamples (11 and
  14) on which stage one fails;
- simulate_ompm.csv and simulate_ompm_raw.csv: `simulate --scenario ompm
  --n 500 --reps 3 --seed 5` with all nine methods.

Strings and integers must match exactly, and floats to 1e-12 relative. A
deliberate change to these numbers updates the fixtures and says so in
CHANGES.md.
"""

import csv
import io
import json
import math
from pathlib import Path

from mnarcause import emit_csv, generate_table1
from mnarcause.cli import main
from mnarcause.simlab import TABLE2_ALL_METHODS

GOLDEN = Path(__file__).parent / "golden"
RTOL = 1e-12


def assert_same(got, want, where="report"):
    """Equal structure; floats within RTOL, everything else exact."""
    if isinstance(want, float) and not isinstance(got, bool):
        assert isinstance(got, float), (where, got, want)
        assert math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0), (where, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), (where, got, want)
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), (where, got, want)
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


def cell(text: str):
    """A CSV cell as int, float or str, the order in which it parses."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def csv_cells(text: str) -> list:
    return [[cell(c) for c in row] for row in csv.reader(io.StringIO(text))]


def test_fit_report(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text(emit_csv(generate_table1("continuous", 400, 7)[0]))
    out = tmp_path / "report.json"
    assert main(["fit", "--data", str(data), "--treatment", "a", "--outcome", "y",
                 "--confounders", "c1", "--missing", "c1", "--bootstrap", "20",
                 "--mi-m", "3", "--seed", "0", "--format", "json",
                 "--out", str(out)]) == 0
    want = json.loads((GOLDEN / "fit_all_nine_bootstrap20.json").read_text())
    assert_same(json.loads(out.read_text()), want)


def test_simulate_reports(tmp_path):
    out = tmp_path / "study.csv"
    assert main(["simulate", "--scenario", "ompm", "--n", "500", "--reps", "3",
                 "--seed", "5", "--estimators", ",".join(TABLE2_ALL_METHODS),
                 "--out", str(out)]) == 0
    for name, path in (("simulate_ompm.csv", out),
                       ("simulate_ompm_raw.csv", tmp_path / "study_raw.csv")):
        want = csv_cells((GOLDEN / name).read_text())
        assert_same(csv_cells(path.read_text()), want, name)
