"""
The fixed 3D network and its 21 activation maps
===============================================

Run the two-layer 3D CNN on a synthetic input and look at what comes out:
one 64^3 input map, ten 32^3 maps from layer 1 and ten 16^3 maps from
layer 2, each paired with the ROI mask at its own resolution.
"""

import tempfile
from pathlib import Path

import numpy as np

import deepradiomics as dr
from deepradiomics.plots import write_pgm

# -- deterministic weights: same seed, same network everywhere ---------------
weights = dr.generate_test_weights(42)
print(f"weights provenance: {weights.provenance}")
print(f"layer 1 filters {weights.conv1.shape}, layer 2 filters {weights.conv2.shape}")

# -- a textured sphere as input ----------------------------------------------
rng = np.random.default_rng(1)
x, y, z = np.mgrid[:64, :64, :64]
inside = (x - 32) ** 2 + (y - 32) ** 2 + (z - 32) ** 2 <= 24**2
vol = dr.Volume3D(data=(rng.random((64, 64, 64)) * 255) * inside, spacing=(1, 1, 1))
mask = dr.RoiMask(voxels=inside.astype(np.uint8))

acts = dr.forward(vol, mask, weights)
print(f"\nforward pass produced {acts.n_maps} maps")
for idx, (m, roi) in enumerate(acts.maps_with_masks()):
    if idx in (0, 1, 11):
        print(f"  map {idx:2d}: dims {m.dims}, in-ROI voxels {roi.count}, "
              f"value range [{m.data.min():.2f}, {m.data.max():.2f}]")

# ReLU guarantees the convolutional maps are nonnegative
assert all(m.data.min() >= 0 for m in acts.layer1_maps + acts.layer2_maps)
print("\nall convolutional activations are >= 0 (ReLU)")

# -- dump a central slice of the first layer-1 map, in a directory removed afterwards
with tempfile.TemporaryDirectory(prefix="radiomics_demo_") as tmp:
    pgm = Path(tmp) / "layer1_map0_slice.pgm"
    write_pgm(pgm, acts.layer1_maps[0].data[:, :, 16].T)
    print(f"wrote {pgm} ({pgm.stat().st_size} bytes)")
