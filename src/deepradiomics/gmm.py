"""Gaussian-mixture summaries of activation maps.

Each of the 21 activation volumes is reduced to the parameters of a
k-component 1-D Gaussian mixture fitted by EM to the activation values
inside the ROI.  Per map the descriptor is [mu_1, var_1, w_1, ...,
mu_k, var_k, w_k] with components sorted by ascending mean, giving a
3*k*21-dimensional vector per volume (126 at k=2).

The fit is fully deterministic: initial means sit at the (j-0.5)/k sample
quantiles, initial variances equal the sample variance and weights are
uniform.  Responsibilities are accumulated with numpy's pairwise
summation, so identical samples give identical fits on every run and at
every thread count.  Across machines the bytes also need the same CPU
kernels: an FMA OpenBLAS kernel (Haswell or newer) for the E-step's
matrix product, where a Sandybridge kernel gives other last bits, and
numpy's AVX-512 float64 exp and log (dispatch group X86_V4), which
round some values unlike its other code paths.

When EM does not converge, a map's deep radiomic features (DRFs) are by
definition the 500th EM iterate from the quantile start, which on a flat
likelihood can lie far from the maximum-likelihood fit.  On a 1 mm noise
texture with a 25 mm ellipsoid ROI (140,152 samples) EM converged after
9,940 iterations; at the cap its parameters were 11-311% away (weight
0.465 against 0.113) but the log-likelihood only 22.4 of 648,204.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cnn import N_MAPS, ActivationSet
from .errors import EmptyMask, EmptySamples, InvalidK, LengthMismatch, ShapeMismatch
from .volume import RoiMask, Volume3D

EM_TOL = 1e-8
EM_MAX_ITER = 500
SURPLUS_WEIGHT = 1e-6

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GmmComponent:
    mu: float
    sigma2: float
    omega: float


@dataclass(frozen=True)
class GmmFit:
    """EM result; components are sorted by ascending mean (ties: heavier first)."""

    components: tuple[GmmComponent, ...]
    log_likelihood: float
    iterations: int
    converged: bool
    ll_trace: np.ndarray  # total log-likelihood after each EM iteration

    @property
    def k(self) -> int:
        return len(self.components)

    def as_triples(self) -> np.ndarray:
        return np.array(
            [v for c in self.components for v in (c.mu, c.sigma2, c.omega)], dtype=np.float64
        )

    def density(self, x: np.ndarray) -> np.ndarray:
        """Mixture pdf evaluated at x."""
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros_like(x)
        for c in self.components:
            out += (
                c.omega
                * np.exp(-0.5 * (x - c.mu) ** 2 / c.sigma2)
                / math.sqrt(2.0 * math.pi * c.sigma2)
            )
        return out


@dataclass(frozen=True)
class FeatureVector:
    """Per-patient deep radiomic descriptor in map-major component order."""

    values: np.ndarray
    nonconverged: tuple[int, ...] = ()  # maps whose EM fit stopped at EM_MAX_ITER

    def __post_init__(self):
        if not np.isfinite(self.values).all():
            raise ValueError("feature vector contains NaN or Inf")

    def __len__(self) -> int:
        return len(self.values)


def variance_floor(samples: np.ndarray) -> float:
    """Smallest admissible component variance for this sample set."""
    spread = float(samples.max() - samples.min())
    return max(1e-6 * spread * spread, 1e-12)


def collect_samples(vol: Volume3D, mask: RoiMask) -> np.ndarray:
    """Activation values at in-ROI voxels, as a flat float64 array."""
    if vol.dims != mask.dims:
        raise ShapeMismatch(f"map dims {vol.dims} != mask dims {mask.dims}")
    if mask.count == 0:
        raise EmptyMask("mask selects no voxels")
    return np.asarray(vol.data, dtype=np.float64)[mask.voxels == 1]


def _estep(powers, mu, var, w):
    """Responsibilities (B, k, n) and per-row log-likelihoods (B,) of a row batch.

    The log joint per component is quadratic in x, so each row evaluates
    it as one (k, 3) @ (3, n) product against its precomputed [1, x, x^2]
    rows; normalisation uses the max-subtraction log-sum-exp form.
    """
    inv2v = 0.5 / var
    coeffs = np.stack(
        [
            np.log(w) - 0.5 * (_LOG_2PI + np.log(var)) - inv2v * mu * mu,
            2.0 * inv2v * mu,
            -inv2v,
        ],
        axis=2,
    )
    log_joint = coeffs @ powers
    top = np.maximum.reduce(log_joint, axis=1)
    log_joint -= top[:, None]
    np.exp(log_joint, out=log_joint)
    total = log_joint.sum(axis=1)
    ll = (top + np.log(total)).sum(axis=1)
    log_joint /= total[:, None]
    return log_joint, ll


def _fit_result(mu, var, w, trace: list, iterations: int, converged: bool) -> GmmFit:
    order = np.lexsort((-w, mu))
    comps = tuple(
        GmmComponent(float(mu[j]), float(var[j]), float(w[j])) for j in order
    )
    return GmmFit(
        components=comps,
        log_likelihood=trace[-1],
        iterations=iterations,
        converged=converged,
        ll_trace=np.asarray(trace),
    )


def _em_rows(x, mu, var, w, floor) -> list[GmmFit]:
    """EM on every row of x (B, n), each from its own start (B, k) parameters.

    The rows step in lockstep and a row leaves the batch at the iteration
    where it would have stopped alone.  Every reduction over samples runs
    along a row's contiguous axis, so numpy's pairwise summation, and with
    it each row's result, is the same as in a one-row batch.
    """
    n = x.shape[1]
    powers = np.stack([np.ones_like(x), x, x * x], axis=1)
    resp, ll = _estep(powers, mu, var, w)
    traces = [[v] for v in ll.tolist()]
    live = np.arange(len(x))
    fits: list[GmmFit | None] = [None] * len(x)
    iterations = 0
    while live.size:
        if iterations == EM_MAX_ITER:
            for j, r in enumerate(live):
                fits[r] = _fit_result(mu[j], var[j], w[j], traces[r], iterations, False)
            break
        nj = np.maximum(resp.sum(axis=2), 1e-300)
        w = nj / n
        mu = (resp * powers[:, 1, None]).sum(axis=2) / nj
        ex2 = (resp * powers[:, 2, None]).sum(axis=2) / nj
        var = np.maximum(ex2 - mu * mu, floor[:, None])
        iterations += 1

        resp, ll_new = _estep(powers, mu, var, w)
        for r, v in zip(live, ll_new.tolist()):
            traces[r].append(v)
        done = ll_new - ll < EM_TOL
        ll = ll_new
        if done.any():
            for j in np.flatnonzero(done):
                r = live[j]
                fits[r] = _fit_result(mu[j], var[j], w[j], traces[r], iterations, True)
            keep = ~done
            live, powers, resp, ll = live[keep], powers[keep], resp[keep], ll[keep]
            mu, var, w, floor = mu[keep], var[keep], w[keep], floor[keep]
    return fits


def em_fit_rows(rows, k: int) -> list[GmmFit]:
    """Fit a k-component 1-D Gaussian mixture by EM to each row of (B, n) samples.

    Each row starts from its quantile means (see the module docstring).
    The rows are fitted as one batch; each result equals, bit for bit, a
    separate `em_fit` of that row.

    If a row holds fewer than k distinct values, the surplus components
    are emitted as floored-variance duplicates at the row maximum with
    near-zero weight.
    """
    X = np.asarray(rows, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeMismatch(f"expected a (rows, samples) array, got shape {X.shape}")
    if X.shape[1] == 0:
        raise EmptySamples("cannot fit mixture to zero samples")
    if k < 1:
        raise InvalidK(f"k must be >= 1, got {k}")

    floor = np.array([variance_floor(x) for x in X])
    fit_k = np.array([min(k, len(np.unique(x))) for x in X])
    fits: list[GmmFit | None] = [None] * len(X)
    for kk in np.unique(fit_k).tolist():
        idx = np.flatnonzero(fit_k == kk)
        sub = X[idx]
        mu = np.quantile(sub, (np.arange(kk) + 0.5) / kk, axis=1).T
        var = np.repeat(np.maximum(sub.var(axis=1), floor[idx])[:, None], kk, axis=1)
        w = np.full((len(idx), kk), 1.0 / kk)
        batch = _em_rows(sub, mu, var, w, floor[idx])
        for i, fit in zip(idx, batch):
            fits[i] = fit if kk == k else _with_surplus(fit, k, float(X[i].max()), floor[i])
    return fits


def _with_surplus(base: GmmFit, k: int, top: float, floor: float) -> GmmFit:
    """Pad a fit to k components with near-zero-weight duplicates at `top`."""
    pad = k - base.k
    mu = [c.mu for c in base.components] + [top] * pad
    var = [c.sigma2 for c in base.components] + [floor] * pad
    w = [c.omega for c in base.components] + [SURPLUS_WEIGHT] * pad
    w = np.array(w) / sum(w)
    trace = base.ll_trace.tolist()
    return _fit_result(np.array(mu), np.array(var), w, trace, base.iterations, base.converged)


def em_fit(samples, k: int) -> GmmFit:
    """Fit a k-component 1-D Gaussian mixture by EM: `em_fit_rows` on one row."""
    x = np.asarray(samples, dtype=np.float64).reshape(1, -1)
    return em_fit_rows(x, k)[0]


# --------------------------------------------------------------------------
# feature vector assembly
# --------------------------------------------------------------------------

def roi_samples(acts: ActivationSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The in-ROI values of the 21 maps, gathered per resolution.

    Returns the input map's samples (n64,) and each layer's (10, n) row
    batch; the maps of one resolution share its mask and so its sample
    count.  The result holds copies of the samples only, so the maps can
    be freed before they are fitted.
    """
    return (
        collect_samples(acts.input_map, acts.mask64),
        np.stack([collect_samples(m, acts.mask32) for m in acts.layer1_maps]),
        np.stack([collect_samples(m, acts.mask16) for m in acts.layer2_maps]),
    )


def fit_roi_samples(samples, k: int) -> FeatureVector:
    """Fit `roi_samples`' output and concatenate the 21 maps' triples.

    Holds the samples and one fit's working arrays at a time.  The input
    map is one `em_fit`, and each layer's 10 rows are one batch of
    `em_fit_rows`, which gives exactly the per-map fits.
    """
    first, *layers = samples
    fits = [em_fit(first, k)]
    for rows in layers:
        fits += em_fit_rows(rows, k)
    return FeatureVector(
        values=np.concatenate([f.as_triples() for f in fits]),
        nonconverged=tuple(i for i, f in enumerate(fits) if not f.converged),
    )


def build_feature_vector(acts: ActivationSet, k: int) -> FeatureVector:
    """Fit each of the 21 maps inside its ROI and concatenate the triples."""
    return fit_roi_samples(roi_samples(acts), k)


def feature_names(k: int) -> list[str]:
    """CSV column names: f<map>_mu1, f<map>_s1, f<map>_w1, f<map>_mu2, ..."""
    names = []
    for m in range(N_MAPS):
        for j in range(1, k + 1):
            names += [f"f{m:03d}_mu{j}", f"f{m:03d}_s{j}", f"f{m:03d}_w{j}"]
    return names


def reduce_modalities(vectors: list[FeatureVector]) -> FeatureVector:
    """Collapse per-modality vectors into one by elementwise mean."""
    if not vectors:
        raise LengthMismatch("no feature vectors to reduce")
    length = len(vectors[0])
    if any(len(v) != length for v in vectors):
        raise LengthMismatch(f"feature vectors differ in length: {[len(v) for v in vectors]}")
    return FeatureVector(values=np.mean([v.values for v in vectors], axis=0))
