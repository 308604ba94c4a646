"""Manifest/config handling, pipeline commands and the radiomics CLI."""

import dataclasses
import hashlib
import json
import logging
import math
import os
import re
import shutil
import subprocess
import sys
import textwrap
import threading
import weakref
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from conftest import build_texture_cohort, run_memory_limited, write_bare_manifest, write_feature_csv
from hypothesis import given, settings
from hypothesis import strategies as st

import deepradiomics as dr
from deepradiomics import cnn, gmm, pipeline, survival, volume
from deepradiomics.cli import main
from deepradiomics.errors import (
    BadMapIndex,
    DegenerateLabels,
    DegenerateOutput,
    MalformedHeader,
    MalformedWeights,
    ManifestInvalid,
    MissingColumn,
    RadiomicsError,
    UnknownPatient,
    WeightsMissing,
)
from deepradiomics.forest import DECISION_THRESHOLD, expand_grid
from deepradiomics.manifest import FEATURE_SETS, RunConfig, load_config, load_manifest
from deepradiomics.pipeline import (
    SurvivalRow,
    _design_matrix,
    cmd_classify,
    cmd_extract,
    cmd_inspect,
    cmd_survive,
    load_features_csv,
    write_csv,
)


def parse_cell(cell: str):
    try:
        return int(cell)
    except ValueError:
        try:
            return float(cell)
        except ValueError:
            return cell


def assert_csv_roundtrips(path, tmp_path):
    lines = path.read_text().splitlines()
    rows = [[parse_cell(c) for c in ln.split(",")] for ln in lines[1:]]
    out = tmp_path / f"rt_{path.name}"
    write_csv(out, lines[0].split(","), rows)
    assert out.read_bytes() == path.read_bytes()


# --------------------------------------------------------------------------
# manifest and config
# --------------------------------------------------------------------------

class TestManifest:
    def test_loads_cohort(self, small_cohort):
        records = load_manifest(small_cohort)
        assert len(records) == 5
        assert records[0].patient_id == "S00"
        base = small_cohort.parent  # paths resolve against the manifest's directory
        assert records[0].volumes == {
            "t1wi": base / "S00_a.vol.json", "t1ce": base / "S00_b.vol.json",
            "t2wi": base / "S00_b.vol.json", "flair": base / "S00_b.vol.json",
        }
        assert records[0].mask == base / "S00_mask.vol.json"

    def test_duplicate_ids_rejected(self, tmp_path):
        rows = [
            {"patient_id": "A", "os_months": 5.0, "event": 1},
            {"patient_id": "A", "os_months": 6.0, "event": 1},
        ]
        path = write_bare_manifest(tmp_path / "m.csv", rows)
        with pytest.raises(ManifestInvalid, match="duplicate"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "field,value,match",
        [
            ("macrophage_m1", 1.5, "outside"),
            ("gender", 2, "gender"),
            ("os_months", -1.0, "os_months"),
            ("event", 3, "event"),
        ],
    )
    def test_bad_values_rejected(self, tmp_path, field, value, match):
        row = {"patient_id": "A", "os_months": 5.0, "event": 1}
        row[field] = value
        path = write_bare_manifest(tmp_path / "m.csv", [row])
        with pytest.raises(ManifestInvalid, match=match):
            load_manifest(path)

    def test_wrong_header_rejected(self, tmp_path):
        (tmp_path / "m.csv").write_text("patient,columns\nA,1\n")
        with pytest.raises(ManifestInvalid, match="header"):
            load_manifest(tmp_path / "m.csv")

    def test_empty_rejected(self, tmp_path):
        (tmp_path / "m.csv").write_text("")
        with pytest.raises(ManifestInvalid):
            load_manifest(tmp_path / "m.csv")


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
JSON_VALUES = JSON_SCALARS | st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def config_documents(draw):
    """Config documents with arbitrary JSON at random places.

    Each known key, at the top and in `grid`, is absent, valid or arbitrary
    JSON, and unknown keys join both levels now and then; mostly valid
    documents let draws reach the checks behind the first one that fails.
    """

    def fill(valid):
        doc = {}
        for key, strategy in valid.items():
            how = draw(st.sampled_from(["absent", "valid", "valid", "any"]))
            if how != "absent":
                doc[key] = draw(strategy if how == "valid" else JSON_VALUES)
        if draw(st.integers(0, 3)) == 0:
            doc.update(draw(st.dictionaries(st.text(max_size=6), JSON_VALUES, min_size=1, max_size=2)))
        return doc

    entries = st.lists(st.integers(1, 3), min_size=1, max_size=3)
    grid = fill({"n_trees": entries, "min_leaf": entries})
    doc = fill(
        {
            "k": st.integers(1, 3),
            "seed": st.integers(0, 3),
            "grid": st.just(grid),
            "feature_sets": st.lists(st.sampled_from(FEATURE_SETS), min_size=1, max_size=3),
        }
    )
    return doc if draw(st.integers(0, 9)) else draw(JSON_VALUES)


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.k == 2
        assert cfg.feature_sets == FEATURE_SETS
        assert cfg.grid["n_trees"] == [100, 300, 500]

    def test_from_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"k": 3, "seed": 9, "feature_sets": ["R", "I+C"]}))
        cfg = load_config(p)
        assert cfg.k == 3
        assert cfg.seed == 9
        assert cfg.feature_sets == ("R", "I+C")

    @pytest.mark.parametrize(
        "raw",
        [
            {"k": 0},
            {"k": 17},
            {"k": 2.5},
            {"k": True},
            {"seed": -1},
            {"seed": 1.5},
            {"feature_sets": []},
            {"feature_sets": ["R", "X"]},
            {"modality_reduction": "median"},
            {"grid": {"n_trees": []}},
            {"grid": {"n_trees": 5, "min_leaf": [1]}},
            {"bogus": 1},
            {"output_dir": "out"},
            {"feature_sets": 5},
            {"feature_sets": "R+C"},
            {"feature_sets": "R"},
            {"feature_sets": ["R", 5]},
            {"feature_sets": {"R": 1}},
            {"modality_reduction": "mean"},
        ],
    )
    def test_invalid_configs(self, tmp_path, raw):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(ManifestInvalid):
            load_config(p)

    @pytest.mark.parametrize(
        "grid",
        [
            {"n_trees": [0], "min_leaf": [1]},
            {"n_trees": ["a"], "min_leaf": [1]},
            {"n_trees": [10.5], "min_leaf": [1]},
            {"n_trees": [True], "min_leaf": [1]},
            {"n_trees": [10], "min_leaf": [-1]},
            {"n_trees": [10, 10_001], "min_leaf": [1]},
        ],
        ids=["zero", "string", "float", "bool", "negative-leaf", "past-tree-cap"],
    )
    def test_invalid_grid_entries(self, tmp_path, grid):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"grid": grid}))
        with pytest.raises(ManifestInvalid, match="grid"):
            load_config(p)

    @pytest.mark.parametrize(
        "doc", ["[" * 100_000, '{"k": ' + "[" * 100_000], ids=["document", "value"]
    )
    def test_deeply_nested_json_is_invalid(self, tmp_path, doc):
        p = tmp_path / "c.json"
        p.write_text(doc)
        with pytest.raises(ManifestInvalid, match="c.json: bad JSON"):
            load_config(p)

    def test_unknown_grid_key_is_named(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"grid": {"n_trees": [10], "min_leaf": [1], "mtry": [2]}}))
        with pytest.raises(ManifestInvalid, match="unknown grid keys: \\['mtry'\\]"):
            load_config(p)

    @settings(max_examples=500, deadline=None)
    @given(config_documents())
    def test_any_json_loads_or_is_invalid(self, tmp_path_factory, doc):
        p = tmp_path_factory.getbasetemp() / "fuzz_config.json"
        p.write_text(json.dumps(doc))
        try:
            cfg = load_config(p)
        except ManifestInvalid:
            return
        # an accepted config is one the pipeline can run
        assert set(cfg.feature_sets) <= set(FEATURE_SETS)
        assert expand_grid(cfg.grid)

    @pytest.mark.parametrize("sets", [5, "R", None])
    def test_run_config_checks_feature_sets(self, sets):
        with pytest.raises(ManifestInvalid, match="feature_sets must be a list of strings"):
            RunConfig(feature_sets=sets)

    def test_run_config_holds_feature_sets_as_a_tuple(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"feature_sets": ["R"]}))
        assert RunConfig(feature_sets=["R"]) == load_config(p) == RunConfig(feature_sets=("R",))

    def test_size_bounds_are_inclusive(self):
        assert RunConfig(k=16, grid={"n_trees": [10_000], "min_leaf": [1]}).k == 16

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"k": 10**8}, "k must be an integer in [1, 16], got 100000000"),
            ({"grid": {"n_trees": [10**9], "min_leaf": [1]}},
             "grid n_trees entries must be <= 10000, got 1000000000"),
        ],
        ids=["k", "n_trees"],
    )
    def test_size_bound_is_one_clean_cli_error(self, tmp_path, capsys, raw, message):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(raw))
        manifest = write_bare_manifest(tmp_path / "m.csv", [{"patient_id": "a", "os_months": 9, "event": 1}])
        code = main(["classify", "--manifest", str(manifest), "--features", "f.csv",
                     "--target", "m1", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: config: {message}\n"

    def test_bad_feature_sets_is_a_clean_cli_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"feature_sets": 5}))
        manifest = write_bare_manifest(tmp_path / "m.csv", [{"patient_id": "a", "os_months": 9, "event": 1}])
        code = main(["classify", "--manifest", str(manifest), "--features", "f.csv",
                     "--target", "m1", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "feature_sets" in err and err.count("\n") == 1

    def test_modality_reduction_is_an_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"modality_reduction": "mean"}))
        manifest = write_bare_manifest(tmp_path / "m.csv", [{"patient_id": "a", "os_months": 9, "event": 1}])
        code = main(["classify", "--manifest", str(manifest), "--features", "f.csv",
                     "--target", "m1", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {cfg}: unknown config keys: ['modality_reduction']\n"


# --------------------------------------------------------------------------
# input files that cannot be read or decoded
# --------------------------------------------------------------------------

LOADERS = {
    "config": (load_config, ManifestInvalid),
    "manifest": (load_manifest, ManifestInvalid),
    "features": (load_features_csv, ManifestInvalid),
    "weights": (dr.load_weights, MalformedWeights),
}


@st.composite
def byte_mutations(draw, data: bytes):
    """`data` after 1-6 random byte replacements, insertions or deletions."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 6))):
        i = draw(st.integers(0, len(out)))
        chunk = draw(st.binary(min_size=1, max_size=4))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        if op == "delete":
            del out[i : i + len(chunk)]
        else:
            out[i : i + len(chunk) * (op == "replace")] = chunk
    return bytes(out)


class TestUnreadableInputs:
    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    @pytest.mark.parametrize("loader", sorted(LOADERS))
    def test_is_a_clean_error_naming_the_path(self, tmp_path, loader, kind):
        load, error = LOADERS[loader]
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"patient_id,\xff\xfe\n\x80,1\n")
        with pytest.raises(error) as info:
            load(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("first", ["patient_idx", "patient_id2"])
    def test_features_header_must_open_with_the_patient_id_cell(self, tmp_path, first):
        path = tmp_path / "features.csv"
        path.write_text(f"{first},a,b\nP0,1,2\n")
        with pytest.raises(ManifestInvalid, match="missing header"):
            load_features_csv(path)
        path.write_text("patient_id,a,b\nP0,1,2\n")
        assert load_features_csv(path)[:2] == (["P0"], ["a", "b"])

    def test_directory_manifest_is_a_clean_cli_error(self, tmp_path, capsys):
        code = main(["survive", "--manifest", str(tmp_path), "--features", "f.csv",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path}: ") and err.count("\n") == 1

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_mutated_file_loads_or_is_invalid(self, tmp_path_factory, data):
        root = tmp_path_factory.getbasetemp()
        rows = [{"patient_id": f"P{i}", "os_months": 5.5 + i, "event": i % 2} for i in range(3)]
        valid = {
            "manifest": write_bare_manifest(root / "valid_manifest.csv", rows),
            "features": write_feature_csv(
                root / "valid_features.csv", ["P0", "P1", "P2"], np.arange(189.0).reshape(3, 63) / 7, k=1
            ),
        }
        kind = data.draw(st.sampled_from(sorted(valid)))
        path = root / f"mutated_{kind}.csv"
        path.write_bytes(data.draw(byte_mutations(valid[kind].read_bytes())))
        try:
            if kind == "manifest":
                load_manifest(path)
            else:
                load_features_csv(path)
        except RadiomicsError:
            pass


IDS = [f"P{i}" for i in range(6)]

# case -> (command, manifest patient ids, features.csv patient ids, mixture components k
#          of features.csv (0 writes no feature columns), what --out already is (a
#          file, a directory, or a directory at this path under it), text of the error line)
MALFORMED_INPUTS = {
    "header-only features.csv, classify": (
        "classify", IDS, [], 2, None, "features.csv: no patient rows"
    ),
    "header-only features.csv, survive": (
        "survive", IDS, [], 2, None, "features.csv: no patient rows"
    ),
    "features.csv without feature columns, classify": (
        "classify", IDS, IDS, 0, None, "features.csv: no feature columns"
    ),
    "features.csv without feature columns, survive": (
        "survive", IDS, IDS, 0, None, "features.csv: no feature columns"
    ),
    "repeated id in features.csv": (
        "survive", IDS, IDS + ["P0"], 2, None, "features.csv: duplicate patient_id 'P0'"
    ),
    "quoted line break in a manifest id": (
        "classify", ['"P000\nZ"'] + IDS, IDS, 2, None, r"bad patient_id 'P000\nZ'"
    ),
    "NEL in a manifest id": (
        "classify", ["P000\x85Z"] + IDS, IDS, 2, None, r"bad patient_id 'P000\x85Z'"
    ),
    "manifest field over csv's size limit": (
        "classify", ["P" * 140_000] + IDS, IDS, 2, None, "manifest.csv: cannot read manifest"
    ),
    "--out names a file": ("classify", IDS, IDS, 2, "file", "out: cannot create output directory"),
    "gen-weights --out names a directory": (
        "gen-weights", IDS, IDS, 2, "directory", "out: cannot write weights file"
    ),
    "features.csv is a directory, extract": (
        "extract", IDS, IDS, 2, "features.csv", "out/features.csv: cannot write CSV file"
    ),
    "a report is a directory, classify": (
        "classify", IDS, IDS, 2, "report_m1_R.json", "out/report_m1_R.json: cannot write JSON file"
    ),
    "the KM plot is a directory, survive": (
        "survive", IDS, IDS, 2, "km_R.svg", "out/km_R.svg: cannot write SVG plot"
    ),
    "survival_report.csv is a directory, survive": (
        "survive", IDS, IDS, 2, "survival_report.csv", "out/survival_report.csv: cannot write CSV file"
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_is_one_clean_error_line(tmp_path, capsys, case):
    command, manifest_ids, feature_ids, k, existing_out, expected = MALFORMED_INPUTS[case]
    rows = [
        {"patient_id": pid, "os_months": 5.0 + i, "event": 1, "macrophage_m1": i / 10}
        for i, pid in enumerate(manifest_ids)
    ]
    manifest = write_bare_manifest(tmp_path / "manifest.csv", rows)
    matrix = np.random.default_rng(0).standard_normal((len(feature_ids), 63 * k))
    features = write_feature_csv(tmp_path / "features.csv", feature_ids, matrix, k=k)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid": {"n_trees": [5], "min_leaf": [1]}, "feature_sets": ["R"]}))
    out = tmp_path / "out"
    if existing_out == "file":
        out.write_text("")
    elif existing_out == "directory":
        out.mkdir()
    elif existing_out:
        (out / existing_out).mkdir(parents=True)
    argv = [command, "--manifest", str(manifest), "--features", str(features),
            "--config", str(config), "--out", str(out)]
    if command == "classify":
        argv += ["--target", "m1"]
    elif command == "gen-weights":
        argv = [command, "--seed", "1", "--out", str(out)]
    elif command == "extract":  # every patient fails, as its volumes do not exist
        dr.save_weights(dr.generate_test_weights(1), tmp_path / "w.bin")
        argv = [command, "--manifest", str(manifest), "--weights", str(tmp_path / "w.bin"),
                "--config", str(config), "--out", str(out)]
    code = main(argv)
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert code == 1 and len(errors) == 1 and "Traceback" not in err
    assert expected in errors[0]


# --------------------------------------------------------------------------
# extract
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def extracted(small_cohort, tmp_path_factory):
    out = tmp_path_factory.mktemp("extract_out")
    records = load_manifest(small_cohort)
    cfg = RunConfig(seed=3, grid={"n_trees": [25], "min_leaf": [1]}, feature_sets=("R",))
    result = cmd_extract(records, small_cohort.parent / "weights.bin", cfg, out)
    return small_cohort, cfg, result


class TestExtract:
    def test_shape_contract(self, extracted):
        _, _, result = extracted
        assert result.n_ok == 5
        assert not result.failures
        ids, names, matrix = load_features_csv(result.features_path)
        assert len(ids) == 5
        assert matrix.shape == (5, 126)
        assert names[0] == "f000_mu1"

    def test_rerun_is_byte_identical(self, extracted, tmp_path):
        manifest, cfg, result = extracted
        records = load_manifest(manifest)
        again = cmd_extract(records, manifest.parent / "weights.bin", cfg, tmp_path)
        assert again.features_path.read_bytes() == result.features_path.read_bytes()

    def test_thread_cap_does_not_change_output(self, extracted, tmp_path, monkeypatch):
        manifest, cfg, result = extracted
        records = load_manifest(manifest)
        monkeypatch.setenv("RADIOMICS_THREADS", "1")
        serial = cmd_extract(records, manifest.parent / "weights.bin", cfg, tmp_path)
        assert serial.features_path.read_bytes() == result.features_path.read_bytes()

    @pytest.mark.parametrize("threads, patients", [("1", 5), ("2", 1)])
    def test_one_worker_runs_on_the_calling_thread(
        self, extracted, tmp_path, monkeypatch, threads, patients
    ):
        manifest, cfg, _ = extracted
        records = load_manifest(manifest)[:patients]
        monkeypatch.setenv("RADIOMICS_THREADS", threads)
        ran_on = []

        def record_thread(record, *args):
            ran_on.append(threading.current_thread())
            return gmm.FeatureVector(values=np.zeros(len(gmm.feature_names(cfg.k)))), []

        monkeypatch.setattr(pipeline, "patient_features", record_thread)
        result = cmd_extract(records, manifest.parent / "weights.bin", cfg, tmp_path)
        assert result.n_ok == patients
        assert ran_on == [threading.current_thread()] * patients

    def test_worker_count_is_capped_by_the_patients(self, monkeypatch):
        # the sizing alone: no pool is started
        monkeypatch.setenv("RADIOMICS_THREADS", "64")
        assert [pipeline.worker_count(n) for n in (0, 1, 3, 64, 100)] == [0, 1, 3, 64, 64]
        monkeypatch.setenv("RADIOMICS_THREADS", "1")
        assert pipeline.worker_count(5) == 1

    def test_no_whole_grid_array_outlives_its_step(self, extracted, monkeypatch):
        # the loaded, resampled and standardised grids are gone by the forward
        # pass, and the activation maps by the time EM starts
        manifest, cfg, _ = extracted
        record = load_manifest(manifest)[0]
        made = []

        def keep_ref(fn):
            def wrapped(*args):
                out = fn(*args)
                made.append(weakref.ref(out))
                return out
            return wrapped

        def check_freed(fn, expected):
            def wrapped(*args):
                assert len(made) == expected and all(ref() is None for ref in made)
                return fn(*args)
            return wrapped

        steps = ("load_volume", "load_mask", "resample_mask", "resample_isotropic", "standardize_intensity")
        for name in steps:
            monkeypatch.setattr(volume, name, keep_ref(getattr(volume, name)))
        monkeypatch.setattr(cnn, "forward", check_freed(cnn.forward, len(steps)))
        monkeypatch.setattr(pipeline, "volume_activations", keep_ref(pipeline.volume_activations))
        monkeypatch.setattr(gmm, "fit_roi_samples", check_freed(gmm.fit_roi_samples, len(steps) + 1))
        weights = dr.load_weights(manifest.parent / "weights.bin")
        fv = pipeline.volume_features(record.volumes["t1wi"], record.mask, weights, cfg.k)
        assert len(fv) == len(gmm.feature_names(cfg.k))

    def test_broken_patient_skipped(self, extracted, tmp_path):
        manifest, cfg, _ = extracted
        text = manifest.read_text().splitlines()
        text[1] = text[1].replace("S00_mask.vol.json", "nonexistent.vol.json")
        # keep the broken manifest in the cohort dir so relative paths resolve
        broken = manifest.parent / "broken.csv"
        broken.write_text("\n".join(text) + "\n")
        records = load_manifest(broken)
        result = cmd_extract(records, manifest.parent / "weights.bin", cfg, tmp_path)
        assert result.n_ok == 4
        assert result.failures[0][0] == "S00"
        ids, _, _ = load_features_csv(result.features_path)
        assert "S00" not in ids

    def test_missing_weights(self, extracted, tmp_path):
        manifest, cfg, _ = extracted
        records = load_manifest(manifest)
        with pytest.raises(WeightsMissing):
            cmd_extract(records, tmp_path / "no_weights.bin", cfg, tmp_path)

    def test_features_csv_roundtrips(self, extracted, tmp_path):
        _, _, result = extracted
        assert_csv_roundtrips(result.features_path, tmp_path)

    def test_nonconvergence_is_logged(self, extracted, tmp_path, monkeypatch, caplog):
        manifest, cfg, _ = extracted
        # a one-iteration cap leaves at least the input map of every volume unconverged
        monkeypatch.setattr(gmm, "EM_MAX_ITER", 1)
        with caplog.at_level(logging.WARNING, logger="deepradiomics"):
            result = cmd_extract(load_manifest(manifest), manifest.parent / "weights.bin", cfg, tmp_path)
        assert result.n_ok == 5
        warned = set()
        for rec in caplog.records:
            m = re.fullmatch(r"(S\d\d) (\w+): EM stopped .* for maps ([\d, ]+)", rec.getMessage())
            assert rec.levelno == logging.WARNING and m, rec.getMessage()
            maps = [int(i) for i in m.group(3).split(", ")]
            assert maps[0] == 0 and maps == sorted(set(maps)) and maps[-1] <= 20
            warned.add((m.group(1), m.group(2)))
        # one warning per distinct volume: t1wi is volume a, t1ce..flair share volume b
        assert warned == {(f"S{i:02d}", col) for i in range(5) for col in ("t1wi", "t1ce")}
        assert len(caplog.records) == 10
        assert sorted(p.name for p in tmp_path.iterdir()) == ["features.csv"]

    def test_nonconvergence_warnings_follow_manifest_order(
        self, extracted, tmp_path, monkeypatch, caplog
    ):
        manifest, cfg, _ = extracted
        monkeypatch.setattr(gmm, "EM_MAX_ITER", 1)
        monkeypatch.setenv("RADIOMICS_THREADS", "2")
        # S00 starts only once S01 has finished, so the workers finish out of manifest order
        s01_done = threading.Event()
        real = pipeline.patient_features

        def s01_first(record, *args):
            if record.patient_id == "S00":
                s01_done.wait(timeout=120)
            try:
                return real(record, *args)
            finally:
                if record.patient_id == "S01":
                    s01_done.set()

        monkeypatch.setattr(pipeline, "patient_features", s01_first)
        with caplog.at_level(logging.WARNING, logger="deepradiomics"):
            result = cmd_extract(load_manifest(manifest), manifest.parent / "weights.bin", cfg, tmp_path)
        assert result.n_ok == 5 and s01_done.is_set()
        logged = [rec.getMessage().split(":")[0] for rec in caplog.records]
        assert logged == [f"S{i:02d} {col}" for i in range(5) for col in ("t1wi", "t1ce")]


# --------------------------------------------------------------------------
# classify
# --------------------------------------------------------------------------

def planted_cohort(tmp_path, n=20, seed=0):
    """Synthetic feature matrix whose first column determines the m1 marker.

    The same pattern is echoed (with jitter) into every sixth column so the
    sqrt(d) feature subsampling cannot hide it from most trees.
    """
    rng = np.random.default_rng(seed)
    ids = [f"P{i:02d}" for i in range(n)]
    matrix = rng.standard_normal((n, 126))
    matrix[:, 0] = np.linspace(0.0, 1.0, n)
    for col in range(6, 126, 6):
        matrix[:, col] = matrix[:, 0] + rng.normal(0.0, 0.02, n)
    features = write_feature_csv(tmp_path / "features.csv", ids, matrix)
    rows = [
        {
            "patient_id": pid,
            "os_months": float(5 + i),
            "event": 1,
            "macrophage_m1": round(matrix[i, 0], 6),
        }
        for i, pid in enumerate(ids)
    ]
    manifest = write_bare_manifest(tmp_path / "manifest.csv", rows)
    return features, load_manifest(manifest)


class TestClassify:
    def test_planted_signal_gives_perfect_auc(self, tmp_path):
        features, records = planted_cohort(tmp_path)
        cfg = RunConfig(seed=1, grid={"n_trees": [25], "min_leaf": [1]}, feature_sets=("R",))
        reports = cmd_classify(features, records, "m1", cfg, tmp_path / "out")
        assert reports["R"].auc >= 0.99

    def test_emits_all_seven_feature_set_reports(self, tmp_path):
        features, records = planted_cohort(tmp_path, n=12, seed=1)
        cfg = RunConfig(seed=2, grid={"n_trees": [10], "min_leaf": [2]})
        out = tmp_path / "out"
        reports = cmd_classify(features, records, "m1", cfg, out)
        assert tuple(reports) == FEATURE_SETS
        for fs in FEATURE_SETS:
            assert (out / f"report_m1_{fs}.json").exists()
            assert (out / f"roc_m1_{fs}.csv").exists()
        payload = json.loads((out / "report_m1_R.json").read_text())
        assert set(payload) == {"auc", "accuracy", "confusion", "scores"}
        assert len(payload["scores"]) == 12

    def test_design_matrix_algebra(self, tmp_path):
        features, records = planted_cohort(tmp_path, n=6, seed=2)
        _, _, radiomic = load_features_csv(features)
        for fs, width in [
            ("R", 126),
            ("C", 2),
            ("I", 3),
            ("I+C", 5),
            ("R+C", 128),
            ("R+I", 129),
            ("R+C+I", 131),
        ]:
            X = _design_matrix(fs, radiomic, records)
            assert X.shape == (6, width)

    def test_degenerate_labels(self, tmp_path):
        rng = np.random.default_rng(3)
        ids = [f"P{i}" for i in range(6)]
        features = write_feature_csv(tmp_path / "f.csv", ids, rng.standard_normal((6, 126)))
        rows = [
            {"patient_id": pid, "os_months": 10.0, "event": 1, "neutrophils": 0.4}
            for pid in ids
        ]
        records = load_manifest(write_bare_manifest(tmp_path / "m.csv", rows))
        cfg = RunConfig(grid={"n_trees": [5], "min_leaf": [1]}, feature_sets=("R",))
        with pytest.raises(DegenerateLabels):
            cmd_classify(features, records, "neutrophils", cfg, tmp_path / "out")

    @pytest.mark.parametrize("cell", ["abc", "", "nan", "inf", "-inf"])
    def test_bad_feature_cell_is_a_clean_error(self, tmp_path, capsys, cell):
        features, _ = planted_cohort(tmp_path, n=6, seed=4)
        lines = features.read_text().splitlines()
        cells = lines[3].split(",")
        cells[5] = cell
        lines[3] = ",".join(cells)
        features.write_text("\n".join(lines) + "\n")
        with pytest.raises(ManifestInvalid, match=r"patient 'P02', column 'f000_s2'"):
            load_features_csv(features)
        code = main(["classify", "--features", str(features), "--manifest",
                     str(tmp_path / "manifest.csv"), "--target", "m1",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(features) in err and "P02" in err and "f000_s2" in err

    def test_scipy_is_never_imported(self, tmp_path):
        # the package runs on numpy alone; scipy would add about 26 MB of
        # resident memory to every run, and 44 MB more with scipy.stats
        manifest = build_texture_cohort(tmp_path / "cohort", n=3, seed=4)
        features, _ = planted_cohort(tmp_path, n=8, seed=5)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"grid": {"n_trees": [5], "min_leaf": [1]}, "feature_sets": ["R"]}))
        extract = ["extract", "--manifest", str(manifest), "--weights",
                   str(manifest.parent / "weights.bin"), "--out", str(tmp_path / "extracted")]
        classify = ["classify", "--features", str(features), "--manifest", str(tmp_path / "manifest.csv"),
                    "--target", "m1", "--config", str(cfg), "--out", str(tmp_path / "out")]
        script = textwrap.dedent(f"""
            import sys
            def scipy_modules():
                return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
            import deepradiomics
            assert not scipy_modules(), f"imported by deepradiomics: {{scipy_modules()}}"
            from deepradiomics.cli import main
            assert main({extract!r}) == 0
            assert not scipy_modules(), f"imported by extract: {{scipy_modules()}}"
            assert main({classify!r}) == 0
            assert not scipy_modules(), f"imported by classify: {{scipy_modules()}}"
        """)
        src = str(Path(dr.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-3000:]
        assert len(load_features_csv(tmp_path / "extracted" / "features.csv")[0]) == 3
        assert (tmp_path / "out" / "report_m1_R.json").exists()

    def test_unknown_target(self, tmp_path):
        features, records = planted_cohort(tmp_path, n=6, seed=4)
        cfg = RunConfig(grid={"n_trees": [5], "min_leaf": [1]}, feature_sets=("R",))
        with pytest.raises(MissingColumn):
            cmd_classify(features, records, "bogus", cfg, tmp_path / "out")

    def test_shuffled_labels_near_chance(self, tmp_path):
        rng = np.random.default_rng(12)
        n = 40
        ids = [f"P{i:02d}" for i in range(n)]
        features = write_feature_csv(tmp_path / "f.csv", ids, rng.standard_normal((n, 126)))
        rows = [
            {"patient_id": pid, "os_months": 5.0 + i, "event": 1, "tfh": float(rng.random())}
            for i, pid in enumerate(ids)
        ]
        records = load_manifest(write_bare_manifest(tmp_path / "m.csv", rows))
        cfg = RunConfig(seed=5, grid={"n_trees": [15], "min_leaf": [3]}, feature_sets=("R",))
        reports = cmd_classify(features, records, "tfh", cfg, tmp_path / "out")
        assert 0.2 <= reports["R"].auc <= 0.8


# --------------------------------------------------------------------------
# survive
# --------------------------------------------------------------------------

def survival_cohort(tmp_path, n=24, seed=6):
    rng = np.random.default_rng(seed)
    ids = [f"P{i:02d}" for i in range(n)]
    matrix = rng.standard_normal((n, 126))
    long_lived = np.arange(n) % 2 == 1
    for col in range(0, 126, 6):
        matrix[:, col] = long_lived * 2.0 + rng.normal(0, 0.1, n)
    features = write_feature_csv(tmp_path / "features.csv", ids, matrix)
    rows = []
    for i, pid in enumerate(ids):
        t = float(rng.uniform(25, 40)) if long_lived[i] else float(rng.uniform(3, 10))
        rows.append(
            {"patient_id": pid, "os_months": round(t, 3), "event": int(rng.random() > 0.15)}
        )
    manifest = write_bare_manifest(tmp_path / "manifest.csv", rows)
    return features, load_manifest(manifest)


class TestSurvive:
    def test_planted_hazard_detected(self, tmp_path):
        features, records = survival_cohort(tmp_path)
        cfg = RunConfig(seed=7, grid={"n_trees": [25], "min_leaf": [1]}, feature_sets=("R",))
        out = tmp_path / "out"
        table = cmd_survive(features, records, cfg, out)
        row = table[0]
        assert row.feature_set == "R"
        assert row.p_value is not None and row.p_value < 0.05
        assert row.median_short is not None and row.median_long is not None
        assert row.median_short < row.median_long
        for name in (
            "survival_report.csv",
            "km_R.svg",
            "km_short_R.csv",
            "km_long_R.csv",
            "logrank_R.json",
            "report_survival_R.json",
            "roc_survival_R.csv",
        ):
            assert (out / name).exists(), name
        payload = json.loads((out / "logrank_R.json").read_text())
        assert payload["p"] == row.p_value
        assert payload["hr"] is not None and payload["hr"] > 1.0

    def test_logrank_json_medians_are_each_groups_km_median(self, tmp_path):
        features, records = survival_cohort(tmp_path)
        cfg = RunConfig(seed=7, grid={"n_trees": [25], "min_leaf": [1]}, feature_sets=("R",))
        out = tmp_path / "out"
        cmd_survive(features, records, cfg, out)
        by_id = {r.patient_id: r for r in records}
        scores = json.loads((out / "report_survival_R.json").read_text())["scores"]
        payload = json.loads((out / "logrank_R.json").read_text())
        for name, predicted_long in (("short", False), ("long", True)):
            group = [by_id[pid] for pid, s, _ in scores if (s >= DECISION_THRESHOLD) == predicted_long]
            curve = dr.km_estimate([r.os_months for r in group], [r.event for r in group])
            assert curve.median_survival is not None
            assert payload[f"median_{name}"] == curve.median_survival

    @pytest.mark.parametrize(
        "score, calls", [(None, 2), (0.75, 0)], ids=["two-groups", "one-group"]
    )
    def test_each_group_curve_is_built_once(self, tmp_path, monkeypatch, score, calls):
        features, records = survival_cohort(tmp_path, seed=8)
        if score is not None:
            self.pin_scores(monkeypatch, lambda y: score)
        sizes = []
        km_estimate = survival.km_estimate

        def counting_km_estimate(times, events):
            sizes.append(len(times))
            return km_estimate(times, events)

        # logrank_test's own calls would land in the survival module's name
        monkeypatch.setattr(pipeline, "km_estimate", counting_km_estimate)
        monkeypatch.setattr(survival, "km_estimate", counting_km_estimate)
        cfg = RunConfig(seed=8, grid={"n_trees": [10], "min_leaf": [2]}, feature_sets=("R",))
        cmd_survive(features, records, cfg, tmp_path / "out")
        assert len(sizes) == calls and sum(sizes) == (len(records) if calls else 0)

    def test_emitted_csvs_roundtrip(self, tmp_path):
        features, records = survival_cohort(tmp_path, seed=8)
        cfg = RunConfig(seed=8, grid={"n_trees": [10], "min_leaf": [2]}, feature_sets=("R",))
        out = tmp_path / "out"
        cmd_survive(features, records, cfg, out)
        for path in sorted(out.glob("*.csv")):
            assert_csv_roundtrips(path, tmp_path)

    def test_km_svg_is_valid_xml(self, tmp_path):
        features, records = survival_cohort(tmp_path, seed=9)
        cfg = RunConfig(seed=9, grid={"n_trees": [10], "min_leaf": [2]}, feature_sets=("R",))
        out = tmp_path / "out"
        cmd_survive(features, records, cfg, out)
        root = ET.fromstring((out / "km_R.svg").read_text())
        assert root.tag.endswith("svg")

    @staticmethod
    def pin_scores(monkeypatch, score_of_label):
        """Replace each LOOCV score by score_of_label(true label); AUC stays real."""
        real_loocv = pipeline.loocv

        def pinned(data, grid, seed):
            report = real_loocv(data, grid, seed)
            scores = tuple((pid, score_of_label(y), y) for pid, _, y in report.per_patient_scores)
            return dataclasses.replace(report, per_patient_scores=scores)

        monkeypatch.setattr(pipeline, "loocv", pinned)

    @pytest.mark.parametrize("score", [0.75, 0.25], ids=["all-long", "all-short"])
    def test_one_predicted_group_writes_null_record(self, tmp_path, monkeypatch, caplog, score):
        features, records = survival_cohort(tmp_path, seed=10)
        self.pin_scores(monkeypatch, lambda y: score)
        cfg = RunConfig(seed=10, grid={"n_trees": [10], "min_leaf": [2]}, feature_sets=("R",))
        out = tmp_path / "out"
        with caplog.at_level(logging.WARNING, logger="deepradiomics"):
            (row,) = cmd_survive(features, records, cfg, out)
        assert caplog.messages == ["feature set R: all patients predicted in one group"]
        keys = ["chi2", "p", "hr", "ci_low", "ci_high", "median_short", "median_long"]
        assert json.loads((out / "logrank_R.json").read_text()) == dict.fromkeys(keys, None)
        assert not list(out.glob("km_*"))
        assert repr(row) == repr(SurvivalRow("R", None, None, None, np.nan, np.nan, None, row.auc))
        report = (out / "survival_report.csv").read_text().splitlines()
        assert report[1] == f"R,nan,nan,nan,nan,nan,nan,{row.auc!r}"

    def test_infinite_hazard_ratio_is_null_in_json_and_inf_in_csv(self, tmp_path, monkeypatch):
        # long survivors all censored and predicted exactly: the long group sees no deaths
        features, records = survival_cohort(tmp_path, seed=11)
        records = [dataclasses.replace(r, event=int(r.os_months < 20)) for r in records]
        self.pin_scores(monkeypatch, lambda y: 0.9 if y else 0.1)
        cfg = RunConfig(seed=11, grid={"n_trees": [10], "min_leaf": [2]}, feature_sets=("R",))
        out = tmp_path / "out"
        (row,) = cmd_survive(features, records, cfg, out)
        assert row.hazard_ratio == math.inf and row.median_long is None
        payload = json.loads((out / "logrank_R.json").read_text())
        assert payload["hr"] is None and payload["ci_low"] is None and payload["chi2"] > 0
        assert payload["p"] == row.p_value and payload["median_short"] == row.median_short
        cells = (out / "survival_report.csv").read_text().splitlines()[1].split(",")
        assert cells[:5] == ["R", repr(row.median_short), "nan", "inf", "nan"]
        # the censored long group never steps; the short group starts with all 12 at risk
        assert (out / "km_long_R.csv").read_text() == "time,at_risk,deaths,survival\n"
        assert (out / "km_short_R.csv").read_text().splitlines()[1].split(",")[1] == "12"


# --------------------------------------------------------------------------
# inspect
# --------------------------------------------------------------------------

class TestInspect:
    def test_outputs(self, small_cohort, tmp_path):
        records = load_manifest(small_cohort)
        cfg = RunConfig(feature_sets=("R",))
        svg, pgm = cmd_inspect(
            records, "S01", 1, small_cohort.parent / "weights.bin", cfg, tmp_path, modality="t1ce"
        )
        root = ET.fromstring(svg.read_text())
        assert root.tag.endswith("svg")
        raw = pgm.read_bytes()
        assert raw.startswith(b"P5\n32 32\n255\n")
        assert len(raw) == len(b"P5\n32 32\n255\n") + 32 * 32

    def test_svg_text_is_escaped(self, small_cohort, tmp_path):
        lines = small_cohort.read_text().splitlines()
        lines[1] = lines[1].replace("S00,", "S&<00,", 1)
        odd = small_cohort.parent / "odd_id.csv"
        odd.write_text("\n".join(lines) + "\n")
        records = load_manifest(odd)
        svg, _ = cmd_inspect(
            records, "S&<00", 3, small_cohort.parent / "weights.bin", RunConfig(), tmp_path, modality="t1ce"
        )
        root = ET.parse(svg).getroot()
        texts = [el.text for el in root.iter() if el.tag.endswith("text")]
        assert texts[0] == "S&<00 map 3 (t1ce) in-ROI histogram"

    def test_map_zero_uses_input_resolution(self, small_cohort, tmp_path):
        records = load_manifest(small_cohort)
        cfg = RunConfig(feature_sets=("R",))
        _, pgm = cmd_inspect(
            records, "S02", 0, small_cohort.parent / "weights.bin", cfg, tmp_path, modality="t1ce"
        )
        assert pgm.read_bytes().startswith(b"P5\n64 64\n255\n")

    def test_bad_map_index(self, small_cohort, tmp_path):
        records = load_manifest(small_cohort)
        cfg = RunConfig()
        for bad in (-1, 21, 99):
            with pytest.raises(BadMapIndex):
                cmd_inspect(records, "S00", bad, small_cohort.parent / "weights.bin", cfg, tmp_path, modality="t1ce")

    def test_unknown_patient(self, small_cohort, tmp_path):
        records = load_manifest(small_cohort)
        with pytest.raises(UnknownPatient):
            cmd_inspect(
                records, "NOPE", 0, small_cohort.parent / "weights.bin", RunConfig(), tmp_path, modality="t1ce"
            )


# --------------------------------------------------------------------------
# command-line entry point
# --------------------------------------------------------------------------

class TestMain:
    def test_full_cli_session(self, small_cohort, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"seed": 3, "grid": {"n_trees": [25], "min_leaf": [1]}, "feature_sets": ["R"]}
            )
        )
        weights = str(small_cohort.parent / "weights.bin")
        manifest = str(small_cohort)
        assert main(["extract", "--manifest", manifest, "--weights", weights,
                     "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["classify", "--features", str(out / "features.csv"), "--manifest", manifest,
                     "--target", "neutrophils", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["survive", "--features", str(out / "features.csv"), "--manifest", manifest,
                     "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["inspect", "--manifest", manifest, "--weights", weights, "--patient", "S00",
                     "--map", "0", "--config", str(cfg), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "extracted 5/5" in captured.out
        assert (out / "survival_report.csv").exists()

    def test_gen_weights_roundtrip(self, tmp_path):
        target = tmp_path / "w.bin"
        assert main(["gen-weights", "--seed", "42", "--out", str(target)]) == 0
        # the header and payload order fix the file layout; changing either breaks
        # every weights file already written
        assert target.read_bytes().split(b"\n", 1)[0] == (
            b'{"bias1": [10], "bias2": [10], "conv1": [10, 2, 2, 2, 1], "conv2": [10, 2, 2, 2, 10], '
            b'"provenance": "seed:42", "version": 1}'
        )
        assert hashlib.sha256(target.read_bytes()).hexdigest() == (
            "47b6f16c69236f449dab2c7357c2da5e4d15124ba3c465ddfe2e7d3e3ff3632d"
        )
        loaded = dr.load_weights(target)
        expected = dr.generate_test_weights(42)
        np.testing.assert_array_equal(loaded.conv1, expected.conv1.astype(np.float32))

    def test_partial_failure_exit_code(self, small_cohort, tmp_path):
        text = small_cohort.read_text().splitlines()
        text[1] = text[1].replace("S00_mask.vol.json", "gone.vol.json")
        broken = small_cohort.parent / "broken_main.csv"
        broken.write_text("\n".join(text) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"n_trees": [5], "min_leaf": [1]}, "feature_sets": ["R"]}))
        code = main(["extract", "--manifest", str(broken), "--weights",
                     str(small_cohort.parent / "weights.bin"), "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    @staticmethod
    def assert_sidecar_skips_s00(small_cohort, tmp_path, capsys, docs, error=MalformedHeader,
                                 detail="S00_a.vol.json", memory_limited=False):
        """Extract on a cohort whose S00 sidecars are rewritten to `docs` (file name ->
        text) skips S00 with `error`, whose message holds `detail`, and no traceback.
        With `memory_limited`, extract runs in a child process under run_memory_limited."""
        cohort = tmp_path / "cohort"
        shutil.copytree(small_cohort.parent, cohort)
        for name, doc in docs.items():
            (cohort / name).write_text(doc)
        argv = ["extract", "--manifest", str(cohort / small_cohort.name),
                "--weights", str(cohort / "weights.bin"), "--out", str(tmp_path / "out")]
        if memory_limited:
            proc = run_memory_limited(f"from deepradiomics.cli import main\nraise SystemExit(main({argv!r}))")
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        else:
            code = main(argv)
            out, err = capsys.readouterr()
        assert code == 2, err[-3000:]
        assert "extracted 4/5" in out
        assert f"failed S00: {error.__name__}:" in err
        assert detail in err and "Traceback" not in err
        ids, _, _ = load_features_csv(tmp_path / "out" / "features.csv")
        assert "S00" not in ids

    def test_bad_sidecar_skips_patient(self, small_cohort, tmp_path, capsys):
        self.assert_sidecar_skips_s00(small_cohort, tmp_path, capsys, {"S00_a.vol.json": "[1, 2, 3]"})

    def test_deeply_nested_sidecar_skips_patient(self, small_cohort, tmp_path, capsys):
        self.assert_sidecar_skips_s00(small_cohort, tmp_path, capsys, {"S00_a.vol.json": "[" * 100_000})

    def test_list_dtype_sidecar_skips_patient(self, small_cohort, tmp_path, capsys):
        doc = {"dims": [20, 18, 16], "spacing_mm": [1.5, 1.25, 1.0], "dtype": ["f32le"]}
        self.assert_sidecar_skips_s00(small_cohort, tmp_path, capsys, {"S00_a.vol.json": json.dumps(doc)})

    def test_overflowing_spacing_skips_patient(self, small_cohort, tmp_path, capsys):
        # 20 voxels x 1e308 mm is inf mm; the mask shares the spacing, so the
        # mask-spacing check passes and resampling must reject it
        header = {"dims": [20, 18, 16], "spacing_mm": [1e308, 1, 1], "modality": "T1CE"}
        docs = {"S00_a.vol.json": json.dumps({**header, "dtype": "f32le"}),
                "S00_mask.vol.json": json.dumps({**header, "dtype": "u8"})}
        self.assert_sidecar_skips_s00(small_cohort, tmp_path, capsys, docs, DegenerateOutput,
                                      "at spacing (1e+308, 1.0, 1.0)")

    def test_spacing_past_the_voxel_cap_skips_patient(self, small_cohort, tmp_path, capsys):
        # a finite spacing of 1 m sizes a 20000 x 18000 x 16000 grid; without the
        # voxel cap, the child's address-space limit turns its allocation into a MemoryError
        header = {"dims": [20, 18, 16], "spacing_mm": [1000, 1000, 1000], "modality": "T1CE"}
        docs = {"S00_a.vol.json": json.dumps({**header, "dtype": "f32le"}),
                "S00_mask.vol.json": json.dumps({**header, "dtype": "u8"})}
        self.assert_sidecar_skips_s00(small_cohort, tmp_path, capsys, docs, DegenerateOutput,
                                      "more than the cap of 134217728", memory_limited=True)

    def test_negative_weights_seed_is_a_clean_error(self, tmp_path, capsys):
        code = main(["gen-weights", "--seed", "-1", "--out", str(tmp_path / "w.bin")])
        assert code == 1
        assert capsys.readouterr().err == "error: weights seed must be an integer >= 0, got -1\n"
        assert not (tmp_path / "w.bin").exists()

    def test_only_errors_module_touches_files(self):
        # read_input, json_object and write_output in errors.py own every file
        # read and write, so their failure policy has one place to change
        touch = re.compile(r"\bopen\(|\.(read|write)_(text|bytes)\(|json\.(load|loads|dump)\(")
        found, exists = [], []
        for path in sorted(Path(dr.__file__).resolve().parent.glob("*.py")):
            for n, line in enumerate(path.read_text().splitlines(), start=1):
                if touch.search(line) and path.name != "errors.py":
                    found.append(f"{path.name}:{n}: {line.strip()}")
                if ".exists(" in line:
                    exists.append(line.strip())
        assert not found
        # no read is preceded by an exists() check: a missing file fails at its read
        assert exists == []

    def test_no_module_imports_scipy(self):
        # scipy is a test oracle only; pyproject.toml lists numpy alone at run time
        imports = re.compile(r"^\s*(import|from)\s+scipy\b|import_module\(\s*[\"']scipy")
        found = []
        for path in sorted(Path(dr.__file__).resolve().parent.glob("*.py")):
            for n, line in enumerate(path.read_text().splitlines(), start=1):
                if imports.search(line):
                    found.append(f"{path.name}:{n}: {line.strip()}")
        assert not found

    # each cohort-reading subcommand with every required flag
    STAGE_ARGV = {
        "extract": ["--manifest", "m.csv", "--weights", "w.bin", "--out", "o"],
        "classify": ["--manifest", "m.csv", "--features", "f.csv", "--target", "m1", "--out", "o"],
        "survive": ["--manifest", "m.csv", "--features", "f.csv", "--out", "o"],
        "inspect": ["--manifest", "m.csv", "--weights", "w.bin", "--patient", "P", "--map", "0", "--out", "o"],
    }

    @pytest.mark.parametrize("flag", ["--manifest", "--out"])
    @pytest.mark.parametrize("command", list(STAGE_ARGV))
    def test_missing_shared_flag_is_a_usage_error(self, command, flag, capsys):
        argv = self.STAGE_ARGV[command]
        i = argv.index(flag)
        with pytest.raises(SystemExit) as exit_:
            main([command, *argv[:i], *argv[i + 2:]])
        assert exit_.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: radiomics {command} ")
        assert err.endswith(f"error: the following arguments are required: {flag}\n")

    @pytest.mark.parametrize("command", list(STAGE_ARGV))
    def test_help_lists_the_shared_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        assert all(f"{flag} " in out for flag in ("--manifest", "--config", "--out"))

    def test_fatal_error_exit_code(self, tmp_path):
        code = main(["extract", "--manifest", str(tmp_path / "none.csv"),
                     "--weights", "w.bin", "--out", str(tmp_path)])
        assert code == 1

    def test_bad_thread_cap_is_a_clean_error(self, small_cohort, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RADIOMICS_THREADS", "abc")
        code = main(["extract", "--manifest", str(small_cohort),
                     "--weights", str(small_cohort.parent / "weights.bin"),
                     "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: RADIOMICS_THREADS") and err.count("\n") == 1
