"""End-to-end pipeline: extract features, classify, and analyse survival.

These functions back the CLI one-to-one but are importable on their own;
each writes its report files into an output directory and returns the
in-memory results.  All emitted CSV/JSON is canonical (floats via repr,
sorted JSON keys) so reruns with identical inputs are byte-identical.
"""

from __future__ import annotations

import json
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from . import cnn, gmm, volume
from .errors import (
    BadMapIndex,
    DegenerateLabels,
    ManifestInvalid,
    MissingColumn,
    RadiomicsError,
    ShapeMismatch,
    UnknownPatient,
    UnwritableOutput,
    read_input,
    write_output,
)
from .forest import DECISION_THRESHOLD, Dataset, EvalReport, loocv, roc_points
from .manifest import _TARGET_COLUMNS, MODALITY_COLUMNS, TARGETS, PatientRecord, RunConfig
from .plots import histogram_svg, km_svg, write_pgm
from .survival import impute_censored, km_estimate, logrank_test, median_split

log = logging.getLogger("deepradiomics")


def thread_count() -> int:
    """Worker count for per-patient parallelism, capped by RADIOMICS_THREADS."""
    cap = os.environ.get("RADIOMICS_THREADS", "")
    if cap.strip():
        try:
            return max(1, int(cap))
        except ValueError:
            raise ManifestInvalid(f"RADIOMICS_THREADS must be an integer, got {cap!r}") from None
    return min(8, os.cpu_count() or 1)


# --------------------------------------------------------------------------
# canonical serialization
# --------------------------------------------------------------------------

def _output_dir(out_dir) -> Path:
    """`out_dir`, created if missing."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # a file, say
        raise UnwritableOutput(f"{out}: cannot create output directory: {e}") from e
    return out


def csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(csv_cell(c) for c in row) for row in rows]
    write_output(path, "\n".join(lines) + "\n", "CSV file")


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_json(path, obj) -> None:
    write_output(path, json.dumps(obj, indent=2, sort_keys=True) + "\n", "JSON file")


# --------------------------------------------------------------------------
# feature extraction
# --------------------------------------------------------------------------

def volume_features(vol_path, mask_path, weights: cnn.CnnWeights, k: int) -> gmm.FeatureVector:
    """Full single-volume pass: preprocess, run the network, fit mixtures."""
    acts = volume_activations(vol_path, mask_path, weights)
    return gmm.build_feature_vector(acts, k=k)


def volume_activations(vol_path, mask_path, weights: cnn.CnnWeights) -> cnn.ActivationSet:
    """Load, resample to 1 mm, standardise, crop to 64^3 and run the network."""
    vol = volume.load_volume(vol_path)
    mask_hdr = volume.read_header(mask_path)
    if tuple(mask_hdr["dims"]) != vol.dims:
        raise ShapeMismatch(
            f"mask dims {tuple(mask_hdr['dims'])} != volume dims {vol.dims}"
        )
    if not np.allclose(mask_hdr["spacing_mm"], vol.spacing, rtol=1e-9, atol=0):
        raise ShapeMismatch(
            f"mask spacing {mask_hdr['spacing_mm']} != volume spacing {list(vol.spacing)}"
        )
    mask = volume.load_mask(mask_path)

    iso = volume.resample_isotropic(vol)
    iso_mask = volume.resample_mask(mask, vol.spacing)
    std = volume.standardize_intensity(iso)
    input64, mask64 = volume.extract_cnn_input(std, iso_mask)
    return cnn.forward(input64, mask64, weights)


def patient_features(
    record: PatientRecord, weights: cnn.CnnWeights, config: RunConfig
) -> tuple[gmm.FeatureVector, list[tuple[str, tuple[int, ...]]]]:
    """Per-modality feature vectors reduced to one vector per patient.

    Identical volume paths within a patient are computed once and reused.
    Also returns (modality, maps) for each computed volume whose mixture
    fits stopped at the iteration cap, so the caller can report them.
    """
    cache: dict[str, gmm.FeatureVector] = {}
    vectors = []
    nonconverged = []
    for col in MODALITY_COLUMNS:
        key = str(record.volumes[col])
        if key not in cache:
            cache[key] = volume_features(record.volumes[col], record.mask, weights, config.k)
            if cache[key].nonconverged:
                nonconverged.append((col, cache[key].nonconverged))
        vectors.append(cache[key])
    return gmm.reduce_modalities(vectors), nonconverged


@dataclass(frozen=True)
class ExtractResult:
    features_path: Path
    n_ok: int
    failures: tuple[tuple[str, str], ...]  # (patient_id, reason)


def cmd_extract(records, weights_path, config: RunConfig, out_dir) -> ExtractResult:
    """Compute the feature matrix for a cohort and write features.csv."""
    out = _output_dir(out_dir)
    weights = cnn.load_weights(weights_path)

    def one(record):
        try:
            return *patient_features(record, weights, config), None
        except (RadiomicsError, ValueError) as e:
            return None, [], f"{type(e).__name__}: {e}"

    with ThreadPoolExecutor(max_workers=thread_count()) as pool:
        results = list(pool.map(one, records))

    rows = []
    failures = []
    # logged here, not in the workers, so the warnings follow manifest order
    for record, (fv, nonconverged, err) in zip(records, results):
        for col, maps in nonconverged:
            log.warning(
                "%s %s: EM stopped at its iteration cap without converging for maps %s",
                record.patient_id,
                col,
                ", ".join(map(str, maps)),
            )
        if fv is None:
            log.warning("skipping %s: %s", record.patient_id, err)
            failures.append((record.patient_id, err))
        else:
            rows.append([record.patient_id] + [float(v) for v in fv.values])

    features_path = out / "features.csv"
    write_csv(features_path, ["patient_id"] + gmm.feature_names(config.k), rows)
    return ExtractResult(
        features_path=features_path, n_ok=len(rows), failures=tuple(failures)
    )


def load_features_csv(path) -> tuple[list[str], list[str], np.ndarray]:
    """Returns (patient_ids, column_names, matrix) from a features.csv.

    The file needs at least one feature column, at least one patient row
    and unique patient ids, and every feature cell must be a finite number;
    anything else raises ManifestInvalid naming the file (and the patient
    and column).
    """
    p = Path(path)
    lines = read_input(p, "features file", ManifestInvalid).splitlines()
    if not lines or lines[0].split(",")[0] != "patient_id":
        raise ManifestInvalid(f"{p}: not a feature matrix (missing header)")
    names = lines[0].split(",")[1:]
    if not names:
        raise ManifestInvalid(f"{p}: no feature columns")
    ids, rows = [], []
    for ln in lines[1:]:
        if not ln.strip():
            continue
        cells = ln.split(",")
        if len(cells) != len(names) + 1:
            raise ManifestInvalid(f"{p}: row for {cells[0]!r} has wrong column count")
        if cells[0] in ids:
            raise ManifestInvalid(f"{p}: duplicate patient_id {cells[0]!r}")
        ids.append(cells[0])
        row = []
        for name, cell in zip(names, cells[1:]):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise ManifestInvalid(
                    f"{p}: patient {cells[0]!r}, column {name!r}: {cell!r} is not a finite number"
                )
            row.append(value)
        rows.append(row)
    if not rows:
        raise ManifestInvalid(f"{p}: no patient rows")
    return ids, names, np.array(rows, dtype=np.float64)


# --------------------------------------------------------------------------
# classification
# --------------------------------------------------------------------------

def _target_values(records: list[PatientRecord], target: str) -> np.ndarray:
    values = np.array([getattr(r, _TARGET_COLUMNS[target]) for r in records])
    if target == "survival":
        return impute_censored(values, np.array([r.event for r in records]))
    return values


def _design_matrix(
    feature_set: str, radiomic: np.ndarray, records: list[PatientRecord]
) -> np.ndarray:
    """Column-concatenated design matrix in canonical R, C, I block order."""
    blocks = []
    wanted = set(feature_set.split("+"))
    if "R" in wanted:
        blocks.append(radiomic)
    if "C" in wanted:
        blocks.append(np.array([r.clinical() for r in records]))
    if "I" in wanted:
        blocks.append(np.array([list(r.immune()) for r in records]))
    return np.concatenate(blocks, axis=1)


def _aligned_records(ids, records) -> list[PatientRecord]:
    by_id = {r.patient_id: r for r in records}
    missing = [i for i in ids if i not in by_id]
    if missing:
        raise ManifestInvalid(f"feature rows without manifest entries: {missing}")
    return [by_id[i] for i in ids]


def classify_feature_sets(
    features_path, records, target: str, config: RunConfig
) -> dict[str, EvalReport]:
    """LOOCV per configured feature set; returns reports keyed by set name."""
    if target not in TARGETS:
        raise MissingColumn(f"unknown target {target!r}; valid: {', '.join(TARGETS)}")
    ids, _, radiomic = load_features_csv(features_path)
    rows = _aligned_records(ids, records)
    if len(ids) < len(records):
        dropped = sorted(set(r.patient_id for r in records) - set(ids))
        log.warning("manifest patients absent from features.csv: %s", dropped)

    labels = median_split(_target_values(rows, target))
    if len(np.unique(labels)) < 2:
        raise DegenerateLabels(f"median split of {target} leaves a single class")

    reports = {}
    for fs in config.feature_sets:
        X = _design_matrix(fs, radiomic, rows)
        data = Dataset(ids=tuple(ids), X=X, y=labels)
        reports[fs] = loocv(data, config.grid, config.seed)
    return reports


def _report_json(report: EvalReport) -> dict:
    return {
        "auc": report.auc,
        "accuracy": report.accuracy,
        "confusion": report.confusion.tolist(),
        "scores": [[pid, score, label] for pid, score, label in report.per_patient_scores],
    }


def cmd_classify(
    features_path, records, target: str, config: RunConfig, out_dir
) -> dict[str, EvalReport]:
    """Write report_<target>_<set>.json and roc_<target>_<set>.csv per set."""
    out = _output_dir(out_dir)
    reports = classify_feature_sets(features_path, records, target, config)
    for fs, report in reports.items():
        write_json(out / f"report_{target}_{fs}.json", _report_json(report))
        scores = [s for _, s, _ in report.per_patient_scores]
        labels = [l for _, _, l in report.per_patient_scores]
        write_csv(
            out / f"roc_{target}_{fs}.csv",
            ["fpr", "tpr"],
            [[float(a), float(b)] for a, b in roc_points(scores, labels)],
        )
    return reports


# --------------------------------------------------------------------------
# survival analysis of predicted groups
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SurvivalRow:
    feature_set: str
    median_short: float | None
    median_long: float | None
    hazard_ratio: float | None
    ci_low: float
    ci_high: float
    p_value: float | None
    auc: float


def cmd_survive(features_path, records, config: RunConfig, out_dir) -> list[SurvivalRow]:
    """KM/log-rank analysis of RF-predicted survival groups per feature set.

    Runs the survival-target LOOCV (writing the same reports cmd_classify
    would), splits patients into predicted short/long groups at
    DECISION_THRESHOLD, and compares the groups' observed survival.  One
    Kaplan-Meier curve per group gives its median, its CSV and its plot.
    """
    out = _output_dir(out_dir)
    reports = cmd_classify(features_path, records, "survival", config, out)
    # every report lists the patients in features.csv row order
    first = next(iter(reports.values()))
    rows = _aligned_records([pid for pid, _, _ in first.per_patient_scores], records)
    times = np.array([r.os_months for r in rows])
    events = np.array([r.event for r in rows])

    table: list[SurvivalRow] = []
    for fs, report in reports.items():
        scores = np.array([s for _, s, _ in report.per_patient_scores])
        predicted_long = scores >= DECISION_THRESHOLD
        if predicted_long.all() or (~predicted_long).all():
            log.warning("feature set %s: all patients predicted in one group", fs)
            chi2 = None
            row = SurvivalRow(fs, None, None, None, math.nan, math.nan, None, report.auc)
        else:
            short = ~predicted_long
            groups = {"short": short, "long": predicted_long}
            curves = {name: km_estimate(times[g], events[g]) for name, g in groups.items()}
            result = logrank_test(times[short], events[short], times[~short], events[~short])
            chi2 = result.chi2
            medians = (curves["short"].median_survival, curves["long"].median_survival)
            row = SurvivalRow(
                fs, *medians, result.hazard_ratio, *result.ci95, result.p_value, report.auc
            )
            for name, curve in curves.items():
                header = ["time", "at_risk", "deaths", "survival"]
                write_csv(out / f"km_{name}_{fs}.csv", header, map(astuple, curve.steps))
            plotted = [(f"predicted {name}", list(curve.steps)) for name, curve in curves.items()]
            svg = km_svg(plotted, f"Predicted survival groups ({fs})")
            write_output(out / f"km_{fs}.svg", svg, "SVG plot")
        payload = {
            "chi2": chi2,
            "p": row.p_value,
            "hr": row.hazard_ratio,
            "ci_low": row.ci_low,
            "ci_high": row.ci_high,
            "median_short": row.median_short,
            "median_long": row.median_long,
        }
        write_json(out / f"logrank_{fs}.json", {k: _jsonable(v) for k, v in payload.items()})
        table.append(row)

    def cell(v):
        return float("nan") if v is None else float(v)

    write_csv(
        out / "survival_report.csv",
        ["feature_set", "median_short", "median_long", "hr", "ci_low", "ci_high", "p_value", "auc"],
        [[r.feature_set] + [cell(v) for v in astuple(r)[1:]] for r in table],
    )
    return table


# --------------------------------------------------------------------------
# single-map inspection
# --------------------------------------------------------------------------

def cmd_inspect(
    records,
    patient_id: str,
    map_index: int,
    weights_path,
    config: RunConfig,
    out_dir,
    modality: str = "t1ce",
) -> tuple[Path, Path]:
    """Histogram + fitted mixture (SVG) and central axial slice (PGM)."""
    out = _output_dir(out_dir)
    record = next((r for r in records if r.patient_id == patient_id), None)
    if record is None:
        raise UnknownPatient(f"patient {patient_id!r} not in manifest")
    if not isinstance(map_index, int) or not (0 <= map_index < cnn.N_MAPS):
        raise BadMapIndex(f"map index must be in [0, {cnn.N_MAPS - 1}], got {map_index}")
    if modality not in MODALITY_COLUMNS:
        raise MissingColumn(f"modality must be one of {MODALITY_COLUMNS}, got {modality!r}")
    weights = cnn.load_weights(weights_path)

    acts = volume_activations(record.volumes[modality], record.mask, weights)
    vol, mask = acts.maps_with_masks()[map_index]
    samples = gmm.collect_samples(vol, mask)
    counts, edges = np.histogram(samples, bins=64)
    fit = gmm.em_fit(samples, config.k)
    xs = np.linspace(edges[0], edges[-1], 256)
    bin_w = edges[1] - edges[0]
    curve = fit.density(xs) * samples.size * bin_w

    svg_path = out / f"inspect_{patient_id}_map{map_index:02d}.svg"
    title = f"{patient_id} map {map_index} ({modality}) in-ROI histogram"
    write_output(svg_path, histogram_svg(counts, edges, list(xs), list(curve), title), "SVG plot")
    nz = vol.dims[2]
    pgm_path = out / f"slice_{patient_id}_map{map_index:02d}.pgm"
    write_pgm(pgm_path, np.asarray(vol.data)[:, :, nz // 2].T)
    return svg_path, pgm_path
