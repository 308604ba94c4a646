"""
The full pipeline on a synthetic cohort
=======================================

Builds a 12-patient cohort on disk whose survival is planted as a function
of tumour texture (coarse vs fine), then runs the same three stages the
`radiomics` CLI exposes: extract -> classify -> survive.  The texture
signal travels through CNN activations and mixture descriptors into the
forest, and the predicted groups separate on the KM curves.

Equivalent shell session:

    radiomics gen-weights --seed 42 --out w.bin
    radiomics extract  --manifest manifest.csv --weights w.bin --config c.json --out out/
    radiomics classify --features out/features.csv --manifest manifest.csv \
                       --target survival --config c.json --out out/
    radiomics survive  --features out/features.csv --manifest manifest.csv \
                       --config c.json --out out/
"""

import tempfile
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

import deepradiomics as dr
from deepradiomics.manifest import RunConfig, load_manifest
from deepradiomics.pipeline import cmd_extract, cmd_survive

tmp = tempfile.TemporaryDirectory(prefix="radiomics_demo_")  # removed at the end
root = Path(tmp.name)
print(f"cohort directory: {root}\n")

# -- synthesize volumes, masks and the manifest -------------------------------
rng = np.random.default_rng(9)
dims, spacing = (28, 30, 24), (1.25, 1.0, 1.5)
header = ("patient_id,t1wi,t1ce,t2wi,flair,mask,age,gender,os_months,event,"
          "macrophage_m1,neutrophils,tfh")
lines = [header]
for i in range(12):
    pid = f"D{i:02d}"
    coarse = i % 2 == 0  # coarse texture <=> long survival
    data = gaussian_filter(rng.standard_normal(dims), 2.2 if coarse else 0.6)
    dr.save_volume(dr.Volume3D(data=data, spacing=spacing, modality="T1CE"), root / pid)
    x, y, z = np.mgrid[: dims[0], : dims[1], : dims[2]]
    vox = (((x - dims[0] / 2) / 11) ** 2 + ((y - dims[1] / 2) / 6) ** 2
           + ((z - dims[2] / 2) / 4) ** 2 <= 1).astype(np.uint8)
    dr.save_mask(dr.RoiMask(voxels=vox), root / f"{pid}_mask", spacing=spacing)
    months = (30 if coarse else 7) * rng.lognormal(0, 0.25)
    vol_ref = f"{pid}.vol.json"
    lines.append(f"{pid},{vol_ref},{vol_ref},{vol_ref},{vol_ref},{pid}_mask.vol.json,"
                 f"{50 + i},{i % 2},{months:.2f},1,0.4,0.5,0.6")
(root / "manifest.csv").write_text("\n".join(lines) + "\n")
dr.save_weights(dr.generate_test_weights(42), root / "w.bin")

# -- stage 1: feature extraction ------------------------------------------------
records = load_manifest(root / "manifest.csv")
config = RunConfig(k=2, seed=1, grid={"n_trees": [50], "min_leaf": [1]}, feature_sets=("R",))
result = cmd_extract(records, root / "w.bin", config, root / "out")
print(f"extracted {result.n_ok} patients -> {result.features_path.name} "
      f"(126 features each)\n")

# -- stages 2+3: survival classification and KM/log-rank -------------------------
table = cmd_survive(result.features_path, records, config, root / "out")
for row in table:
    print(f"feature set {row.feature_set}: LOOCV AUC {row.auc:.3f}")
    print(f"  predicted-group medians: short {row.median_short:.1f} / long {row.median_long:.1f} months")
    print(f"  log-rank p = {row.p_value:.3e}, HR = {row.hazard_ratio:.2f}")

print(f"\nreports written to {root / 'out'} (removed when the demo ends):")
for path in sorted((root / "out").iterdir()):
    print(f"  {path.name}")

tmp.cleanup()
