"""The benchmark's workloads: inputs, CLI stages and output checks.

Each workload builds its inputs from the seed, then runs one or more
`radiomics` CLI stages in-process through `deepradiomics.cli.main`.  The
checks read only the files the CLI wrote.  README.md says why each
workload exists.
"""

from __future__ import annotations

import csv
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

from cohorts import feature_cohort, texture_cohort, write_config

# criterion 9 of the acceptance suite, and the smallest cohort of
# texture_cohort on which it holds for every seed tried (README.md)
SURVIVAL_GRID = {"n_trees": [60], "min_leaf": [2]}
SURVIVAL_CONFIG_SEED = 7
MIN_AUC = 0.8
MAX_P = 0.05
SIGNAL_MIN_N = 16
N_FEATURE_SETS = 7  # the default config's feature sets


@dataclass(frozen=True)
class Stage:
    name: str  # CLI subcommand
    threads: int  # RADIOMICS_THREADS while it runs
    argv: tuple[str, ...]


def _common(manifest: Path, config: Path, out: Path) -> tuple[str, ...]:
    return ("--manifest", str(manifest), "--config", str(config), "--out", str(out))


@dataclass(frozen=True)
class ClassifyGrid:
    """`classify --target m1` on R+C+I with the default 3x3 grid; no imaging."""

    n: int  # patients, one LOOCV fold each
    name = "classify-grid"
    threads = 1

    def setup(self, root: Path, seed: int) -> dict[str, Path]:
        features, manifest = feature_cohort(root, self.n, seed)
        config = write_config(root / "config.json", feature_sets=["R+C+I"])
        return {"features": features, "manifest": manifest, "config": config}

    def stages(self, inputs: dict, out: Path, threads: int | None = None) -> list[Stage]:
        argv = ("classify", "--features", str(inputs["features"]), "--target", "m1")
        argv += _common(inputs["manifest"], inputs["config"], out)
        return [Stage("classify", threads or self.threads, argv)]

    def check(self, out: Path) -> tuple[int, list[str]]:
        """(checks attempted, failure messages) for one run's output files."""
        return 1, _check_report(out, "m1", "R+C+I", self.n)

    def rates(self, stage_s: dict[str, float]) -> dict[str, float]:
        return {"folds_per_s": self.n / stage_s["classify_s"]}


@dataclass(frozen=True)
class PipelineSurvive:
    """`extract` on one-volume patients, then `survive` over every feature set."""

    n: int  # patients, one distinct volume each
    name = "pipeline-survive"
    threads = 1

    def setup(self, root: Path, seed: int) -> dict[str, Path]:
        manifest = texture_cohort(root, self.n, seed)
        config = write_config(root / "config.json", seed=SURVIVAL_CONFIG_SEED, grid=SURVIVAL_GRID)
        return {"manifest": manifest, "config": config, "weights": root / "weights.bin"}

    def stages(self, inputs: dict, out: Path, threads: int | None = None) -> list[Stage]:
        threads = threads or self.threads
        common = _common(inputs["manifest"], inputs["config"], out)
        extract = ("extract", "--weights", str(inputs["weights"])) + common
        survive = ("survive", "--features", str(out / "features.csv")) + common
        return [Stage("extract", threads, extract), Stage("survive", threads, survive)]

    def check(self, out: Path) -> tuple[int, list[str]]:
        # every patient is one extract operation; a failed one has no row
        attempted, problems = _check_features(out / "features.csv", self.n)
        more, survive_problems = _check_survive(out, self.n, self.n >= SIGNAL_MIN_N)
        return attempted + more, problems + survive_problems

    def rates(self, stage_s: dict[str, float]) -> dict[str, float]:
        return {
            "volumes_per_s": self.n / stage_s["extract_s"],
            "folds_per_s": self.n * N_FEATURE_SETS / stage_s["survive_s"],
        }


def _check_features(path: Path, n: int) -> tuple[int, list[str]]:
    """n patients and one finite-cells check: (attempted, failure messages)."""
    rows = []
    if path.exists():
        with open(path, newline="") as f:
            rows = list(csv.reader(f))[1:]
    problems = ["patient failed in extract"] * max(0, n - len(rows))
    if len(rows) > n:
        problems.append(f"features.csv has {len(rows)} rows, expected {n}")
    if not all(math.isfinite(float(c)) for row in rows for c in row[1:]):
        problems.append("features.csv holds a non-finite cell")
    return n + 1, problems


def _check_report(out: Path, target: str, fs: str, n: int) -> list[str]:
    report = out / f"report_{target}_{fs}.json"
    roc = out / f"roc_{target}_{fs}.csv"
    if not report.exists() or not roc.exists():
        return [f"report or ROC for {target} [{fs}] missing"]
    scores = json.loads(report.read_text())["scores"]
    problems = []
    if len(scores) != n or len({pid for pid, _, _ in scores}) != n:
        problems.append(f"{target} [{fs}]: {len(scores)} folds for {n} patients")
    if not all(0.0 <= s <= 1.0 for _, s, _ in scores):
        problems.append(f"{target} [{fs}]: score outside [0, 1]")
    points = [tuple(map(float, line.split(","))) for line in roc.read_text().splitlines()[1:]]
    if not points or points[0] != (0.0, 0.0) or points[-1] != (1.0, 1.0):
        problems.append(f"{target} [{fs}]: ROC does not run from (0,0) to (1,1)")
    return problems


def _check_survive(out: Path, n: int, check_signal: bool) -> tuple[int, list[str]]:
    report = out / "survival_report.csv"
    if not report.exists():
        return 1, ["survival_report.csv missing"]
    problems = []
    with open(report, newline="") as f:
        table = {row["feature_set"]: row for row in csv.DictReader(f)}
    sets = sorted(table)
    for fs in sets:
        problems += _check_report(out, "survival", fs, n)
    svgs = sorted(out.glob("km_*.svg"))
    for svg in svgs:
        try:
            ET.parse(svg)
        except ET.ParseError as e:
            problems.append(f"{svg.name} is not XML: {e}")
    attempted = len(sets) + len(svgs) + 1
    if len(sets) != N_FEATURE_SETS:
        problems.append(f"survival_report.csv has {len(sets)} feature sets")
    if check_signal:
        attempted += 1
        r = table.get("R", {})
        auc = float(r.get("auc", "nan"))
        p = float(r.get("p_value", "nan"))
        if not (auc >= MIN_AUC and p < MAX_P):
            problems.append(f"feature set R: AUC {auc} (need >= {MIN_AUC}), p {p} (need < {MAX_P})")
    return attempted, problems


def workloads(scale: str) -> dict:
    """The workloads at the benchmark's size, or tiny for the self-test.

    classify-grid needs 14 patients so that every point of the grid grows
    trees: a fold's inner training set is then 11 rows, and a node is
    split only when it holds at least 2 * min_leaf = 10 of them.
    """
    full = scale == "full"
    return {
        "classify-grid": ClassifyGrid(14 if full else 5),
        "pipeline-survive": PipelineSurvive(SIGNAL_MIN_N if full else 4),
    }
