"""
Volumes, masks and preprocessing
================================

Build a synthetic tumour volume, push it through the preprocessing chain
(resample to 1 mm, standardise to [0, 255], crop the ROI into the 64^3
network input) and save/load it in the sidecar+raw file format.
"""

import tempfile
from pathlib import Path

import numpy as np

import deepradiomics as dr

# -- a 40x32x24 volume at anisotropic spacing with an ellipsoid "tumour" ----
rng = np.random.default_rng(0)
dims, spacing = (40, 32, 24), (1.0, 1.25, 2.0)
x, y, z = np.mgrid[: dims[0], : dims[1], : dims[2]]
inside = ((x - 20) / 10.0) ** 2 + ((y - 16) / 6.0) ** 2 + ((z - 12) / 4.0) ** 2 <= 1
data = rng.normal(100.0, 10.0, dims) + inside * 80.0

vol = dr.Volume3D(data=data, spacing=spacing, modality="T1CE")
mask = dr.RoiMask(voxels=inside.astype(np.uint8))
print(f"volume dims {vol.dims}, spacing {vol.spacing} mm, ROI voxels {mask.count}")

# -- round-trip through the on-disk format, in a directory removed afterwards --
with tempfile.TemporaryDirectory(prefix="radiomics_demo_") as tmp:
    out = Path(tmp)
    print(f"\nwriting into {out}")
    dr.save_volume(vol, out / "tumour")
    dr.save_mask(mask, out / "tumour_mask", spacing=spacing)
    reloaded = dr.load_volume(out / "tumour.vol.json")
    reloaded_mask = dr.load_mask(out / "tumour_mask.vol.json")
print(f"round-trip intact: {np.allclose(reloaded.data, vol.data.astype(np.float32))}\n")

# -- resample both onto the isotropic 1 mm grid ------------------------------
iso = dr.resample_isotropic(reloaded)
iso_mask = dr.resample_mask(reloaded_mask, spacing)
print(f"after resampling: dims {iso.dims}, ROI voxels {iso_mask.count}")

# -- intensity standardisation ------------------------------------------------
std = dr.standardize_intensity(iso)
print(f"intensity range after standardisation: [{std.data.min():.1f}, {std.data.max():.1f}]")

# -- fixed-size network input -------------------------------------------------
input64, mask64 = dr.extract_cnn_input(std, iso_mask)
print(f"network input dims {input64.dims}, in-ROI voxels at 64^3: {mask64.count}")
print("the ROI bounding box was scaled (aspect preserved) and centred with zero padding")
