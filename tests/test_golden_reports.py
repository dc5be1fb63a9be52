"""Whole reports against fixtures frozen in tests/golden/:

- fit_all_nine_bootstrap20.json: `fit --bootstrap 20 --mi-m 3 --seed 0
  --format json` with all nine estimators on generate_table1("continuous",
  400, 7), where the WEE estimators leave out the two resamples (11 and
  14) on which stage one fails;
- fit_binary_all_nine_bootstrap5.json: `fit --outcome-family binary
  --bootstrap 5 --mi-m 3 --seed 0 --format json` with all nine estimators
  on generate_table1("binary", 600, 3);
- simulate_ompm.csv and simulate_ompm_raw.csv: `simulate --scenario ompm
  --n 500 --reps 3 --seed 5` with all nine methods;
- simulate_table1-binary.csv, simulate_table1-continuous.csv and their
  _raw files: `simulate --scenario table1-binary` (and
  `table1-continuous`) `--n 300 --reps 3 --seed 5`;
- cli_runs.json: the exit code, standard output and standard error of
  `example1-check` at the default phi and at `--phi 1e-3`, and of `fit`
  with estimated alpha on generate_table2("ocpc", 2000, 1), which exits 3
  with one NoConvergence line: its stage-one solve stalls. Numbers in the text are compared as
  floats.

Strings and integers must match exactly, and floats to 1e-12 relative. A
deliberate change to these numbers updates the fixtures and says so in
CHANGES.md.
"""

import csv
import io
import json
import math
import re
from pathlib import Path

import pytest

from mnarcause import emit_csv, generate_table1, generate_table2
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


def check_fit(tmp_path, fixture, kind, n, seed, flags):
    data = tmp_path / "data.csv"
    data.write_text(emit_csv(generate_table1(kind, n, seed)[0]))
    out = tmp_path / "report.json"
    assert main(["fit", "--data", str(data), "--treatment", "a", "--outcome", "y",
                 "--confounders", "c1", "--missing", "c1", *flags,
                 "--mi-m", "3", "--seed", "0", "--format", "json",
                 "--out", str(out)]) == 0
    want = json.loads((GOLDEN / fixture).read_text())
    assert_same(json.loads(out.read_text()), want)


def check_simulate(tmp_path, scenario, n, flags):
    out = tmp_path / "study.csv"
    assert main(["simulate", "--scenario", scenario, "--n", str(n), "--reps", "3",
                 "--seed", "5", *flags, "--out", str(out)]) == 0
    for name, path in ((f"simulate_{scenario}.csv", out),
                       (f"simulate_{scenario}_raw.csv", tmp_path / "study_raw.csv")):
        want = csv_cells((GOLDEN / name).read_text())
        assert_same(csv_cells(path.read_text()), want, name)


def test_fit_report(tmp_path):
    check_fit(tmp_path, "fit_all_nine_bootstrap20.json", "continuous", 400, 7,
              ["--bootstrap", "20"])


def test_binary_fit_report(tmp_path):
    check_fit(tmp_path, "fit_binary_all_nine_bootstrap5.json", "binary", 600, 3,
              ["--outcome-family", "binary", "--bootstrap", "5"])


def test_simulate_reports(tmp_path):
    check_simulate(tmp_path, "ompm", 500,
                   ["--estimators", ",".join(TABLE2_ALL_METHODS)])


@pytest.mark.parametrize("scenario", ["table1-binary", "table1-continuous"])
def test_table1_simulate_reports(tmp_path, scenario):
    check_simulate(tmp_path, scenario, 300, [])


NUMBER = re.compile(r"(\d+(?:\.\d+)?e[-+]?\d+)")


def text_pieces(text: str) -> list:
    """text split at its numbers in exponent notation: the pieces between
    them as strings, the numbers as floats."""
    return [float(p) if i % 2 else p for i, p in enumerate(NUMBER.split(text))]


CLI_RUNS = {
    "example1-check": ["example1-check"],
    "example1-check --phi 1e-3": ["example1-check", "--phi", "1e-3"],
    "fit ocpc 2000 1": ["fit", "--treatment", "a", "--outcome", "y",
                        "--confounders", "c1,c2", "--missing", "c1"],
}


def run_cli(name, tmp_path, capsys) -> dict:
    argv = CLI_RUNS[name]
    if argv[0] == "fit":
        data = tmp_path / "ocpc.csv"
        data.write_text(emit_csv(generate_table2("ocpc", 2000, 1)[0]))
        argv = [*argv, "--data", str(data)]
    code = main(argv)
    out = capsys.readouterr()
    return {"exit_code": code, "stdout": text_pieces(out.out),
            "stderr": text_pieces(out.err)}


@pytest.mark.parametrize("name", list(CLI_RUNS))
def test_cli_run(tmp_path, capsys, name):
    want = json.loads((GOLDEN / "cli_runs.json").read_text())[name]
    assert_same(run_cli(name, tmp_path, capsys), want, name)


def first_float_scaled(value, factor):
    """value with its first float (depth first) multiplied by factor."""
    if isinstance(value, float):
        return value * factor, True
    items = list(value.items()) if isinstance(value, dict) else (
        list(enumerate(value)) if isinstance(value, list) else [])
    for key, item in items:
        scaled, done = first_float_scaled(item, factor)
        if done:
            copy = dict(value) if isinstance(value, dict) else list(value)
            copy[key] = scaled
            return copy, True
    return value, False


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.iterdir()))
def test_assert_same_sees_a_perturbed_fixture(name):
    text = (GOLDEN / name).read_text()
    want = json.loads(text) if name.endswith(".json") else csv_cells(text)
    perturbed, done = first_float_scaled(want, 1.0 + 1e-9)
    assert done
    assert_same(want, want, name)
    with pytest.raises(AssertionError):
        assert_same(perturbed, want, name)
