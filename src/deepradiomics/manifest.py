"""Cohort manifest CSV and run configuration JSON.

The manifest has one row per patient with paths to the four MRI volumes
and the ROI mask plus clinical and immune-marker columns.  Paths are
resolved relative to the manifest file.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ManifestInvalid, is_int_at_least, json_object, read_input

MANIFEST_COLUMNS = (
    "patient_id",
    "t1wi",
    "t1ce",
    "t2wi",
    "flair",
    "mask",
    "age",
    "gender",
    "os_months",
    "event",
    "macrophage_m1",
    "neutrophils",
    "tfh",
)

MODALITY_COLUMNS = ("t1wi", "t1ce", "t2wi", "flair")

FEATURE_SETS = ("R", "C", "I", "I+C", "R+C", "R+I", "R+C+I")

# target -> the manifest column (and PatientRecord field) its values come from
_TARGET_COLUMNS = {
    "m1": "macrophage_m1", "neutrophils": "neutrophils", "tfh": "tfh", "survival": "os_months"
}
TARGETS = tuple(_TARGET_COLUMNS)

# MAX_K bounds EM's (B, k, n) arrays.  MAX_TREES bounds one grid-search segment's
# generators and bootstrap rows, and keeps fold seeds disjoint under forest._FOLD_SEED_STRIDE
MAX_K = 16
MAX_TREES = 10_000  # 20x the paper's largest forest


@dataclass(frozen=True)
class PatientRecord:
    """One manifest row: imaging paths plus clinical/immune variables."""

    patient_id: str
    volumes: dict  # modality column -> resolved Path
    mask: Path
    age: float
    gender: int
    os_months: float
    event: int
    macrophage_m1: float
    neutrophils: float
    tfh: float

    def immune(self) -> tuple[float, float, float]:
        return (self.macrophage_m1, self.neutrophils, self.tfh)

    def clinical(self) -> tuple[float, float]:
        return (self.age, float(self.gender))


def _parse_float(row, col, problems, lo=None, hi=None):
    try:
        v = float(row[col])
    except ValueError:
        problems.append(f"{row['patient_id']}: {col}={row[col]!r} is not a number")
        return 0.0
    if not math.isfinite(v):
        problems.append(f"{row['patient_id']}: {col} must be finite")
    elif lo is not None and not (lo <= v <= (hi if hi is not None else math.inf)):
        problems.append(f"{row['patient_id']}: {col}={v} outside [{lo}, {hi}]")
    return v


def load_manifest(path) -> list[PatientRecord]:
    """Parse and validate a cohort manifest CSV; imaging paths are not opened here."""
    p = Path(path)
    base = p.parent
    problems: list[str] = []
    records: list[PatientRecord] = []
    seen: set[str] = set()

    text = read_input(p, "manifest", ManifestInvalid, newline="")
    try:
        rows = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as e:  # a field over csv's size limit
        raise ManifestInvalid(f"{p}: cannot read manifest: {e}") from e
    if not rows:
        raise ManifestInvalid(f"{p}: empty manifest")
    if tuple(h.strip() for h in rows[0]) != MANIFEST_COLUMNS:
        raise ManifestInvalid(f"{p}: header must be exactly {','.join(MANIFEST_COLUMNS)}")
    for line_no, raw in enumerate(rows[1:], start=2):
        if not raw or all(not c.strip() for c in raw):
            continue
        if len(raw) != len(MANIFEST_COLUMNS):
            problems.append(f"line {line_no}: expected {len(MANIFEST_COLUMNS)} columns")
            continue
        row = dict(zip(MANIFEST_COLUMNS, (c.strip() for c in raw)))
        pid = row["patient_id"]
        # features.csv is comma-separated and split into lines by str.splitlines,
        # so an id must hold no comma and no line break of any kind (and be nonempty)
        if "," in pid or pid.splitlines() != [pid]:
            problems.append(f"line {line_no}: bad patient_id {pid!r}")
            continue
        if pid in seen:
            problems.append(f"{pid}: duplicate patient_id")
            continue
        seen.add(pid)

        age = _parse_float(row, "age", problems, 0.0, 150.0)
        gender = _parse_float(row, "gender", problems)
        if gender not in (0.0, 1.0):
            problems.append(f"{pid}: gender must be 0 or 1, got {row['gender']}")
        os_months = _parse_float(row, "os_months", problems)
        if os_months <= 0:
            problems.append(f"{pid}: os_months must be > 0")
        event = _parse_float(row, "event", problems)
        if event not in (0.0, 1.0):
            problems.append(f"{pid}: event must be 0 or 1, got {row['event']}")
        m1 = _parse_float(row, "macrophage_m1", problems, 0.0, 1.0)
        neut = _parse_float(row, "neutrophils", problems, 0.0, 1.0)
        tfh = _parse_float(row, "tfh", problems, 0.0, 1.0)

        records.append(
            PatientRecord(
                patient_id=pid,
                volumes={col: base / row[col] for col in MODALITY_COLUMNS},
                mask=base / row["mask"],
                age=age,
                gender=int(gender),
                os_months=os_months,
                event=int(event),
                macrophage_m1=m1,
                neutrophils=neut,
                tfh=tfh,
            )
        )

    if not records:
        problems.append(f"{p}: no patient rows")
    if problems:
        raise ManifestInvalid("; ".join(problems))
    return records


@dataclass
class RunConfig:
    """Pipeline configuration with the defaults used throughout."""

    k: int = 2
    seed: int = 0
    grid: dict = field(
        default_factory=lambda: {"n_trees": [100, 300, 500], "min_leaf": [1, 3, 5]}
    )
    feature_sets: tuple[str, ...] = FEATURE_SETS

    def __post_init__(self):
        if not is_int_at_least(self.k, 1) or self.k > MAX_K:
            raise ManifestInvalid(f"config: k must be an integer in [1, {MAX_K}], got {self.k!r}")
        if not is_int_at_least(self.seed, 0):
            raise ManifestInvalid(f"config: seed must be an integer >= 0, got {self.seed!r}")
        if not isinstance(self.feature_sets, (list, tuple)):  # each entry is checked below
            raise ManifestInvalid(f"config: feature_sets must be a list of strings, got {self.feature_sets!r}")
        self.feature_sets = tuple(self.feature_sets)
        if not self.feature_sets:
            raise ManifestInvalid("config: feature_sets must be nonempty")
        for fs in self.feature_sets:
            if fs not in FEATURE_SETS:
                raise ManifestInvalid(
                    f"config: unknown feature set {fs!r}; valid: {', '.join(FEATURE_SETS)}"
                )
        if not isinstance(self.grid, dict):
            raise ManifestInvalid("config: grid needs nonempty n_trees and min_leaf lists")
        unknown = set(self.grid) - {"n_trees", "min_leaf"}
        if unknown:
            raise ManifestInvalid(f"config: unknown grid keys: {sorted(unknown)}")
        for key in ("n_trees", "min_leaf"):
            if not isinstance(self.grid.get(key), (list, tuple)) or not self.grid[key]:
                raise ManifestInvalid("config: grid needs nonempty n_trees and min_leaf lists")
            for v in self.grid[key]:
                if not is_int_at_least(v, 1):
                    raise ManifestInvalid(
                        f"config: grid {key} entries must be integers >= 1, got {v!r}"
                    )
                if key == "n_trees" and v > MAX_TREES:
                    raise ManifestInvalid(f"config: grid n_trees entries must be <= {MAX_TREES}, got {v}")


def load_config(path=None) -> RunConfig:
    """Read a RunConfig from JSON; None gives the defaults."""
    if path is None:
        return RunConfig()
    p = Path(path)
    raw = json_object(read_input(p, "config", ManifestInvalid), p, ManifestInvalid)
    unknown = set(raw) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ManifestInvalid(f"{p}: unknown config keys: {sorted(unknown)}")
    return RunConfig(**raw)
