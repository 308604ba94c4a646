"""
Gaussian-mixture descriptors of activation histograms
=====================================================

The descriptors are the (mean, variance, weight) triples of a k-component
1-D Gaussian mixture fitted by EM to the in-ROI values of each activation
map.  First watch EM recover a known mixture, then build the full
126-dimensional vector (21 maps x 2 components x 3 parameters).
"""

import numpy as np

import deepradiomics as dr
from deepradiomics.gmm import em_fit

# -- EM on a known two-component mixture --------------------------------------
rng = np.random.default_rng(7)
samples = np.concatenate([rng.normal(0, 1, 10000), rng.normal(10, 1, 10000)])
fit = em_fit(samples, k=2)
print("true mixture: 0.5*N(0,1) + 0.5*N(10,1)")
for i, c in enumerate(fit.components, 1):
    print(f"  component {i}: mu={c.mu:7.3f}  var={c.sigma2:5.3f}  weight={c.omega:.3f}")
print(f"converged after {fit.iterations} iterations; "
      f"log-likelihood is monotone: {bool((np.diff(fit.ll_trace) >= -1e-10).all())}")

# -- the deterministic quantile initialiser makes runs reproducible ----------
again = em_fit(samples, k=2)
print(f"identical refit: {fit.components == again.components}")

# -- full descriptor from a forward pass --------------------------------------
x, y, z = np.mgrid[:64, :64, :64]
inside = (x - 32) ** 2 + (y - 32) ** 2 + (z - 32) ** 2 <= 20**2
vol = dr.Volume3D(data=rng.random((64, 64, 64)) * 255 * inside, spacing=(1, 1, 1))
acts = dr.forward(vol, dr.RoiMask(voxels=inside.astype(np.uint8)), dr.generate_test_weights(42))

for k in (1, 2, 3):
    fv = dr.build_feature_vector(acts, k=k)
    print(f"k={k}: feature vector length {len(fv)}")

names = dr.feature_names(k=2)
fv = dr.build_feature_vector(acts, k=2)
print("\nfirst map's triples:")
for name, value in zip(names[:6], fv.values[:6]):
    print(f"  {name} = {value:.4f}")

# -- four MRI sequences reduce to one vector ----------------------------------
merged = dr.reduce_modalities([fv, fv, fv, fv])
print(f"\nmean reduction of four identical sequences keeps {len(merged)} features")
