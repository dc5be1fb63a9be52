"""Dataset model: CSV ingestion/emission, missingness bookkeeping, and
the bootstrap draw.

A Dataset holds treatment a, outcome y, a confounder matrix c whose single
designated column may contain missing cells, and the derived indicator r
(1 iff the designated value is present). Rows are ordered and immutable.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadValue, EmptyData, SchemaMismatch

MISSING_MARKERS = ("", "NA")  # case-sensitive, fixed for determinism


@dataclass(frozen=True)
class Schema:
    """Column roles: names of treatment/outcome columns, ordered confounder
    names, which confounder may go missing, and the outcome family."""

    treatment: str
    outcome: str
    confounders: tuple[str, ...]
    missing: str
    outcome_family: str = "gaussian"

    def __post_init__(self):
        if self.missing not in self.confounders:
            raise SchemaMismatch(
                f"designated missing column {self.missing!r} is not a confounder"
            )
        if self.outcome_family not in ("gaussian", "binary"):
            raise SchemaMismatch(f"unknown outcome family {self.outcome_family!r}")
        names = (self.treatment, self.outcome) + self.confounders
        if len(set(names)) != len(names):
            raise SchemaMismatch("duplicate column names across roles")

    @property
    def missing_index(self) -> int:
        return self.confounders.index(self.missing)


@dataclass(frozen=True)
class MissingnessSummary:
    n: int
    n_missing: int
    rate: float
    rate_treated: float
    rate_control: float


class Dataset:
    """Immutable rectangular sample. The designated confounder column stores
    NaN where the value is absent; r is derived from that column."""

    def __init__(self, a, y, c, schema: Schema):
        a = np.asarray(a, dtype=float)
        y = np.asarray(y, dtype=float)
        c = np.asarray(c, dtype=float)
        if c.ndim == 1:
            c = c[:, None]
        n = a.shape[0]
        if n < 1:
            raise EmptyData("dataset must contain at least one row")
        if y.shape != (n,) or c.shape != (n, len(schema.confounders)):
            raise BadValue("column lengths disagree")
        if not np.isin(a, (0.0, 1.0)).all():
            raise BadValue("treatment values must be 0 or 1")
        if not np.isfinite(y).all():
            raise BadValue("outcome contains non-finite values")
        if schema.outcome_family == "binary" and not np.isin(y, (0.0, 1.0)).all():
            raise BadValue("binary outcome family requires y in {0,1}")
        j = schema.missing_index
        other = np.delete(np.arange(c.shape[1]), j)
        if other.size and not np.isfinite(c[:, other]).all():
            raise BadValue("missing value outside the designated column")
        col = c[:, j]
        if np.isinf(col).any():
            raise BadValue("non-finite confounder value")
        self.a = a
        self.y = y
        self.c = c
        self.r = (~np.isnan(col)).astype(float)
        self.schema = schema
        for arr in (self.a, self.y, self.c, self.r):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def confounder(self, name: str) -> np.ndarray:
        return self.c[:, self.schema.confounders.index(name)]

    def subset(self, idx) -> "Dataset":
        return Dataset(self.a[idx], self.y[idx], self.c[idx], self.schema)

    def complete_cases(self) -> "Dataset":
        """The rows with the designated confounder present; the dataset
        itself when none is missing (its arrays are read-only)."""
        if self.r.all():
            return self
        return self.subset(self.r == 1)


def load_csv(source, schema: Schema) -> Dataset:
    """Parse a UTF-8 CSV with a header row under the given column roles.

    source is a str, bytes, or a file object opened in text or binary
    mode. The dialect accepted:
    - cells separated by commas, records ended by LF or CRLF; a leading
      UTF-8 byte order mark is dropped;
    - a cell may be quoted with double quotes, within which commas and
      line breaks are part of the cell and a doubled quote stands for one;
    - the header row names the columns; each role's column appears in it
      exactly once, other columns may come in any number and are not read;
    - every data row has as many cells as the header, so a blank line, a
      short or long row and a line starting with "#" are errors;
    - a cell is a number as Python's float() reads it: surrounding
      whitespace, a sign, exponents and digit underscores are allowed;
    - an empty cell or the literal "NA" in the designated missing column
      sets r=0; such cells elsewhere, non-numeric cells and non-finite
      numbers ("nan", "inf") anywhere raise BadValue, which names the
      first bad cell by column and data row;
    - the treatment is 0 or 1;
    - bytes that are not UTF-8 (given as bytes or read from a binary
      file), bytes that a text-mode file's encoding cannot decode, and a
      bare CR line break outside quotes, raise BadValue.

    The rows are read by numpy's C reader. Any input it does not take as it
    stands goes through the per-cell loop (_parse_rows), which decides as
    the C reader would where both decide and names the first bad cell.
    """
    try:
        raw = source if isinstance(source, (str, bytes)) else source.read()
    except UnicodeDecodeError as err:  # a file in text mode, decoded by its reader
        raise BadValue(f"not {err.encoding}: byte 0x{err.object[err.start]:02x}") from None
    try:
        text = raw.decode("utf-8-sig") if isinstance(raw, bytes) else raw.removeprefix("\ufeff")
    except UnicodeDecodeError as err:
        at = err.start + len(raw) - len(err.object)  # err.object lacks the BOM
        raise BadValue(f"not UTF-8: byte 0x{raw[at]:02x} at offset {at}") from None
    ends = [0]  # where each line the header record takes ends

    def lines():
        while ends[-1] < len(text):
            ends.append(text.find("\n", ends[-1]) + 1 or len(text))
            yield text[ends[-2]:ends[-1]]

    try:
        header = next(csv.reader(lines()), None)
    except csv.Error as err:
        raise _malformed(err) from None
    if header is None:
        raise EmptyData("no header row")
    for role in (schema.treatment, schema.outcome) + schema.confounders:
        if role not in header:
            raise SchemaMismatch(f"column {role!r} absent from header")
        if header.count(role) > 1:
            raise SchemaMismatch(
                f"column {role!r} appears {header.count(role)} times in the header")
    col = {name: header.index(name) for name in header}
    if ends[-1] == len(text):
        raise EmptyData("no data rows")
    cells = _read_cells(text, raw, len(ends) - 1, len(header), col, schema)
    if cells is None:
        try:
            body = list(csv.reader(io.StringIO(text[ends[-1]:])))
        except csv.Error as err:
            raise _malformed(err) from None
        return _parse_rows(body, len(header), col, schema)
    return Dataset(cells[:, col[schema.treatment]].copy(),
                   cells[:, col[schema.outcome]].copy(),
                   cells[:, [col[name] for name in schema.confounders]], schema)


def _malformed(err: csv.Error) -> BadValue:
    # the csv module's advice after " - " is for whoever opened the file
    return BadValue(f"malformed CSV: {str(err).partition(' - ')[0]}")


def _read_cells(text: str, raw, header_lines: int, width: int, col: dict,
                schema: Schema):
    """Every cell of the data rows, read by numpy's C reader, as an
    (n, width) array, with NaN where a missing marker stands in the
    designated missing column. None where the C reader would decide
    otherwise than the per-cell loop, or does not decide: a blank line,
    which it skips; rows of another length; a cell that is not a finite
    number; a missing marker outside the designated column."""
    if "\n\n" in text or "\n\r\n" in text:
        return None

    def designated(cell: str) -> float:
        if cell in MISSING_MARKERS:
            return np.nan
        value = float(cell)
        if not math.isfinite(value):
            raise ValueError(cell)
        return value

    try:
        encoded = raw if isinstance(raw, bytes) else text.encode("utf-8")
        cells = np.loadtxt(io.BytesIO(encoded), delimiter=",", comments=None,
                           quotechar='"', skiprows=header_lines, ndmin=2,
                           encoding="utf-8", converters={col[schema.missing]: designated})
    except ValueError:
        return None
    others = [col[name] for name in (schema.treatment, schema.outcome) + schema.confounders
              if name != schema.missing]
    if cells.shape[1] != width or not np.isfinite(cells[:, others]).all():
        return None
    return cells


def _parse_rows(body: list, width: int, col: dict, schema: Schema) -> Dataset:
    """The data rows, lists of cells, one cell at a time; raises BadValue
    at the first bad cell."""

    def parse(cell: str, name: str, line: int) -> float:
        if cell in MISSING_MARKERS:
            if name == schema.missing:
                return np.nan
            raise BadValue(f"missing value in column {name!r} at data row {line}")
        try:
            value = float(cell)
        except ValueError:
            raise BadValue(f"non-numeric cell {cell!r} in column {name!r} at data row {line}")
        if not math.isfinite(value):
            raise BadValue(f"non-finite cell {cell!r} in column {name!r} at data row {line}")
        return value

    n = len(body)
    a = np.empty(n)
    y = np.empty(n)
    c = np.empty((n, len(schema.confounders)))
    for i, record in enumerate(body):
        if len(record) != width:
            raise BadValue(f"row {i + 1} has {len(record)} cells, header has {width}")
        a[i] = parse(record[col[schema.treatment]], schema.treatment, i + 1)
        y[i] = parse(record[col[schema.outcome]], schema.outcome, i + 1)
        for j, name in enumerate(schema.confounders):
            c[i, j] = parse(record[col[name]], name, i + 1)
    return Dataset(a, y, c, schema)


def emit_csv(d: Dataset) -> str:
    """Serialize with 17 significant digits; absent cells become empty
    strings. Column order: treatment, outcome, confounders in schema order."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([d.schema.treatment, d.schema.outcome, *d.schema.confounders])
    j = d.schema.missing_index
    for i in range(d.n):
        cells = [f"{d.a[i]:.17g}", f"{d.y[i]:.17g}"]
        for k in range(d.c.shape[1]):
            if k == j and d.r[i] == 0:
                cells.append("")
            else:
                cells.append(f"{d.c[i, k]:.17g}")
        writer.writerow(cells)
    return out.getvalue()


def missingness_summary(d: Dataset) -> MissingnessSummary:
    """Counts and rates, overall and within each treatment arm."""
    miss = d.r == 0
    n1 = int((d.a == 1).sum())
    n0 = d.n - n1
    return MissingnessSummary(
        n=d.n,
        n_missing=int(miss.sum()),
        rate=float(miss.mean()),
        rate_treated=float(miss[d.a == 1].mean()) if n1 else float("nan"),
        rate_control=float(miss[d.a == 0].mean()) if n0 else float("nan"),
    )


def resample(n: int, seed) -> np.ndarray:
    """The row indices of one bootstrap resample of n rows: n draws i.i.d.
    with replacement, in draw order; deterministic per seed.

    A resample is not copied. The weighted and complete-case estimators
    read it as counts on the full-data Design, f = bincount(idx), each row
    counted as often as it was drawn (wee.Design.resampled). Multiple
    imputation alone copies it, d.subset(idx), in draw order, because its
    donor ranking, tie rule and random draws depend on row order."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, size=n)
