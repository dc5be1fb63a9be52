"""Dataset model: CSV ingestion/emission, missingness bookkeeping, and
bootstrap resampling.

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

    An empty cell or the literal "NA" in the designated missing column sets
    r=0; such cells elsewhere, and non-finite numbers anywhere, raise BadValue.
    """
    if isinstance(source, (str, bytes)):
        text = source.decode("utf-8") if isinstance(source, bytes) else source
        reader = csv.reader(io.StringIO(text))
    else:
        raw = source.read()
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        reader = csv.reader(io.StringIO(raw))
    rows = list(reader)
    if not rows:
        raise EmptyData("no header row")
    header = rows[0]
    for role in (schema.treatment, schema.outcome) + schema.confounders:
        if role not in header:
            raise SchemaMismatch(f"column {role!r} absent from header")
        if header.count(role) > 1:
            raise SchemaMismatch(
                f"column {role!r} appears {header.count(role)} times in the header")
    col = {name: header.index(name) for name in header}
    body = rows[1:]
    if not body:
        raise EmptyData("no data rows")

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
        if len(record) != len(header):
            raise BadValue(f"row {i + 1} has {len(record)} cells, header has {len(header)}")
        a[i] = parse(record[col[schema.treatment]], schema.treatment, i + 1)
        y[i] = parse(record[col[schema.outcome]], schema.outcome, i + 1)
        for j, name in enumerate(schema.confounders):
            c[i, j] = parse(record[col[name]], name, i + 1)
    if not np.isin(a, (0.0, 1.0)).all():
        raise BadValue("treatment values must be 0 or 1")
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


def resample(d: Dataset, seed) -> Dataset:
    """n rows drawn i.i.d. with replacement; deterministic per seed."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, d.n, size=d.n)
    return d.subset(idx)
