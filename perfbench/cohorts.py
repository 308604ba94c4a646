"""Seeded synthetic inputs for the benchmark workloads.

Each function here writes only the files the `radiomics` CLI reads: volumes,
masks, weights, a manifest, a config, or a features.csv.  The same
(size, seed) always writes the same bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

import deepradiomics as dr

MANIFEST_HEADER = (
    "patient_id,t1wi,t1ce,t2wi,flair,mask,age,gender,os_months,event,"
    "macrophage_m1,neutrophils,tfh"
)
DIMS = (32, 36, 28)
SPACING = (1.25, 1.0, 1.5)
WEIGHTS_SEED = 42


def _textured_volume(rng, coarse: bool):
    sigma = 2.2 if coarse else 0.6
    return dr.Volume3D(
        data=gaussian_filter(rng.standard_normal(DIMS), sigma), spacing=SPACING, modality="T1CE"
    )


def _ellipsoid_mask():
    a, b, c = 13.0, 6.0, 4.0
    x, y, z = np.mgrid[: DIMS[0], : DIMS[1], : DIMS[2]]
    cx, cy, cz = (d / 2 for d in DIMS)
    inside = ((x - cx) / a) ** 2 + ((y - cy) / b) ** 2 + ((z - cz) / c) ** 2 <= 1
    return dr.RoiMask(voxels=inside.astype(np.uint8))


def texture_cohort(root: Path, n: int, seed: int) -> Path:
    """Cohort whose survival is planted as a function of tumour texture.

    Even-indexed patients get coarse texture and long survival, odd ones
    fine texture and short survival.  About 25% of the long survivors are
    censored late in their follow-up, as patients still alive when a
    study ends are.  Every patient has the same centred ellipsoid ROI: it
    sets how many samples each mixture fit sees, so it is the workload's
    input size, and the seed draws only textures, survival and clinical
    values.  (The test suite's cohort jitters each ROI from the seed and
    censors short survivors too; both blur the planted signal enough that
    criterion 9's thresholds fail for some seeds at these sizes.)

    Each patient has one volume, named in all four modality columns.
    Returns the manifest path; the weights file lands next to it.
    """
    rng = np.random.default_rng(seed)
    root.mkdir(parents=True, exist_ok=True)
    dr.save_weights(dr.generate_test_weights(WEIGHTS_SEED), root / "weights.bin")
    mask = _ellipsoid_mask()
    lines = [MANIFEST_HEADER]
    for i in range(n):
        pid = f"P{i:03d}"
        coarse = i % 2 == 0
        dr.save_volume(_textured_volume(rng, coarse), root / pid)
        dr.save_mask(mask, root / f"{pid}_mask", spacing=SPACING)
        # lognormal spread cut at two sigma, so the groups never overlap
        t = (30.0 if coarse else 8.0) * float(np.clip(rng.lognormal(0.0, 0.3), 0.55, 1.8))
        event = 1
        if coarse and rng.random() < 0.25:  # alive at the end of follow-up
            event = 0
            t *= rng.uniform(0.8, 1.0)
        lines.append(
            f"{pid},{','.join([f'{pid}.vol.json'] * 4)},{pid}_mask.vol.json,"
            f"{50 + int(rng.integers(-20, 20))},{i % 2},{t:.4f},{event},"
            f"{rng.uniform(0, 1):.4f},{rng.uniform(0, 1):.4f},{rng.uniform(0, 1):.4f}"
        )
    manifest = root / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def feature_cohort(root: Path, n: int, seed: int, k: int = 2) -> tuple[Path, Path]:
    """A features.csv with weak planted m1 signal, and a bare manifest.

    Every radiomic column is noise; eight of them are shifted by half a
    standard deviation towards the patient's m1 class, so the signal is
    real but weak and the trees grow deep.  The manifest's imaging paths
    are never read.  Returns (features_path, manifest_path).
    """
    rng = np.random.default_rng(seed)
    root.mkdir(parents=True, exist_ok=True)
    names = dr.feature_names(k)
    m1 = np.round(rng.uniform(0, 1, n), 4)
    high = (m1 > np.median(m1)).astype(np.float64)
    X = rng.standard_normal((n, len(names)))
    signal = rng.choice(len(names), size=8, replace=False)
    X[:, signal] += 0.5 * (2.0 * high[:, None] - 1.0)
    ids = [f"F{i:03d}" for i in range(n)]
    rows = [",".join([pid] + [repr(float(v)) for v in row]) for pid, row in zip(ids, X)]
    features = root / "features.csv"
    features.write_text("\n".join([",".join(["patient_id"] + names)] + rows) + "\n")
    lines = [MANIFEST_HEADER]
    for i, pid in enumerate(ids):
        lines.append(
            f"{pid},x.vol.json,x.vol.json,x.vol.json,x.vol.json,m.vol.json,"
            f"{50 + int(rng.integers(-20, 20))},{i % 2},{rng.uniform(2, 40):.4f},1,"
            f"{m1[i]:.4f},{rng.uniform(0, 1):.4f},{rng.uniform(0, 1):.4f}"
        )
    manifest = root / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    return features, manifest


def write_config(path: Path, **overrides) -> Path:
    path.write_text(json.dumps(overrides, sort_keys=True) + "\n")
    return path
