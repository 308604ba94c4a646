"""Shared synthetic-cohort builders for pipeline-level tests."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

import deepradiomics as dr
from deepradiomics.cnn import generate_test_weights, save_weights

ADDRESS_SPACE_LIMIT = 3 << 29  # 1.5 GiB


def run_memory_limited(script: str) -> subprocess.CompletedProcess:
    """Run `script` in a fresh interpreter whose address space is capped at
    ADDRESS_SPACE_LIMIT, so that an unbounded allocation fails in the child
    with a MemoryError instead of taking the host's memory."""
    prelude = (
        "import resource\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE_LIMIT}, {ADDRESS_SPACE_LIMIT}))\n"
    )
    src = str(Path(dr.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "RADIOMICS_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", prelude + textwrap.dedent(script)],
                          env=env, capture_output=True, text=True)


MANIFEST_HEADER = (
    "patient_id,t1wi,t1ce,t2wi,flair,mask,age,gender,os_months,event,"
    "macrophage_m1,neutrophils,tfh"
)


def textured_volume(rng, coarse: bool, dims=(32, 36, 28), spacing=(1.25, 1.0, 1.5)):
    """Smoothed-noise volume; `coarse` controls the correlation length."""
    sigma = 2.2 if coarse else 0.6
    data = gaussian_filter(rng.standard_normal(dims), sigma)
    return dr.Volume3D(data=data, spacing=spacing, modality="T1CE")


def ellipsoid_mask(rng, dims, semi=(13.0, 6.0, 4.0), jitter=True):
    """Elongated ellipsoid ROI, optionally jittered per patient."""
    cx, cy, cz = (d / 2 + (rng.uniform(-2, 2) if jitter else 0.0) for d in dims)
    a, b, c = semi
    if jitter:
        a += rng.uniform(-2, 2)
        b += rng.uniform(-1, 1)
        c += rng.uniform(-1, 1)
    x, y, z = np.mgrid[: dims[0], : dims[1], : dims[2]]
    vox = (((x - cx) / a) ** 2 + ((y - cy) / b) ** 2 + ((z - cz) / c) ** 2 <= 1).astype(
        np.uint8
    )
    return dr.RoiMask(voxels=vox)


def build_texture_cohort(
    root: Path,
    n: int = 40,
    seed: int = 11,
    dims=(32, 36, 28),
    spacing=(1.25, 1.0, 1.5),
    distinct_modalities: bool = False,
) -> Path:
    """Cohort whose survival is planted as a function of tumour texture.

    Even-indexed patients get coarse texture and long survival, odd ones
    fine texture and short survival; ~20% of patients are censored.
    Returns the manifest path; weights (seed 42) land next to it.
    """
    rng = np.random.default_rng(seed)
    root.mkdir(parents=True, exist_ok=True)
    save_weights(generate_test_weights(42), root / "weights.bin")
    lines = [MANIFEST_HEADER]
    for i in range(n):
        pid = f"P{i:03d}"
        coarse = i % 2 == 0
        mods = []
        n_vols = 4 if distinct_modalities else 1
        for v in range(n_vols):
            vol = textured_volume(rng, coarse, dims, spacing)
            dr.save_volume(vol, root / f"{pid}_m{v}")
            mods.append(f"{pid}_m{v}.vol.json")
        while len(mods) < 4:
            mods.append(mods[0])
        mask = ellipsoid_mask(rng, dims)
        dr.save_mask(mask, root / f"{pid}_mask", spacing=spacing)

        base = 30.0 if coarse else 8.0
        t = float(base * rng.lognormal(0.0, 0.3))
        event = 1 if rng.random() > 0.2 else 0
        if event == 0:
            t = max(0.5, t * rng.uniform(0.3, 0.9))
        lines.append(
            f"{pid},{mods[0]},{mods[1]},{mods[2]},{mods[3]},{pid}_mask.vol.json,"
            f"{50 + int(rng.integers(-20, 20))},{i % 2},{t:.4f},{event},"
            f"{rng.uniform(0, 1):.4f},{rng.uniform(0, 1):.4f},{rng.uniform(0, 1):.4f}"
        )
    manifest = root / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def write_feature_csv(path: Path, ids, matrix: np.ndarray, k: int = 2) -> Path:
    """Hand-built features.csv for classifier-level tests (no imaging)."""
    from deepradiomics.gmm import feature_names
    from deepradiomics.pipeline import write_csv

    names = feature_names(k)
    assert matrix.shape[1] == len(names)
    rows = [[pid] + [float(v) for v in row] for pid, row in zip(ids, matrix)]
    write_csv(path, ["patient_id"] + names, rows)
    return path


def write_bare_manifest(path: Path, rows: list[dict]) -> Path:
    """Manifest whose imaging paths are never dereferenced."""
    lines = [MANIFEST_HEADER]
    for r in rows:
        lines.append(
            f"{r['patient_id']},x.vol.json,x.vol.json,x.vol.json,x.vol.json,m.vol.json,"
            f"{r.get('age', 60)},{r.get('gender', 0)},{r['os_months']},{r['event']},"
            f"{r.get('macrophage_m1', 0.5)},{r.get('neutrophils', 0.5)},{r.get('tfh', 0.5)}"
        )
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="session")
def small_cohort(tmp_path_factory):
    """Five patients, two distinct volumes each, for CLI round trips."""
    root = tmp_path_factory.mktemp("small_cohort")
    rng = np.random.default_rng(5)
    save_weights(generate_test_weights(42), root / "weights.bin")
    dims, spacing = (20, 18, 16), (1.5, 1.25, 1.0)
    lines = [MANIFEST_HEADER]
    times = [5.0, 9.0, 18.0, 27.0, 40.0]
    events = [1, 1, 1, 0, 1]
    for i in range(5):
        pid = f"S{i:02d}"
        coarse = i >= 2
        for tag in ("a", "b"):
            vol = textured_volume(rng, coarse, dims, spacing)
            dr.save_volume(vol, root / f"{pid}_{tag}")
        mask = ellipsoid_mask(rng, dims, semi=(7.0, 4.0, 3.0))
        dr.save_mask(mask, root / f"{pid}_mask", spacing=spacing)
        lines.append(
            f"{pid},{pid}_a.vol.json,{pid}_b.vol.json,{pid}_b.vol.json,{pid}_b.vol.json,"
            f"{pid}_mask.vol.json,{55 + 3 * i},{i % 2},{times[i]},{events[i]},"
            f"0.{i + 1},0.{9 - i},0.5"
        )
    manifest = root / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest
