"""EM mixture fitting and feature-vector assembly."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deepradiomics as dr
from deepradiomics import gmm
from deepradiomics.cnn import CnnWeights
from deepradiomics.errors import EmptyMask, EmptySamples, InvalidK, LengthMismatch, ShapeMismatch
from deepradiomics.gmm import SURPLUS_WEIGHT, GmmComponent, GmmFit, em_fit, em_fit_rows, variance_floor
from deepradiomics.manifest import MAX_K


def two_gaussians(n=20000, mu=(0.0, 10.0), sigma=(1.0, 1.0), seed=7):
    rng = np.random.default_rng(seed)
    half = n // 2
    return np.concatenate(
        [rng.normal(mu[0], sigma[0], half), rng.normal(mu[1], sigma[1], n - half)]
    )


class TestCollectSamples:
    def test_full_mask(self):
        vol = dr.Volume3D(data=np.arange(8.0).reshape(2, 2, 2), spacing=(1, 1, 1))
        mask = dr.RoiMask(voxels=np.ones((2, 2, 2), dtype=np.uint8))
        assert sorted(dr.collect_samples(vol, mask)) == list(range(8))

    def test_single_voxel(self):
        vol = dr.Volume3D(data=np.arange(8.0).reshape(2, 2, 2), spacing=(1, 1, 1))
        vox = np.zeros((2, 2, 2), dtype=np.uint8)
        vox[1, 0, 1] = 1
        samples = dr.collect_samples(vol, dr.RoiMask(voxels=vox))
        assert samples.tolist() == [vol.data[1, 0, 1]]

    def test_checkerboard_enumeration(self):
        rng = np.random.default_rng(0)
        data = rng.random((4, 4, 4))
        x, y, z = np.mgrid[:4, :4, :4]
        vox = ((x + y + z) % 2 == 0).astype(np.uint8)
        got = dr.collect_samples(
            dr.Volume3D(data=data, spacing=(1, 1, 1)), dr.RoiMask(voxels=vox)
        )
        expected = []
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    if (i + j + k) % 2 == 0:
                        expected.append(data[i, j, k])
        assert sorted(got) == sorted(expected)

    def test_errors(self):
        vol = dr.Volume3D(data=np.zeros((2, 2, 2)), spacing=(1, 1, 1))
        with pytest.raises(EmptyMask):
            dr.collect_samples(vol, dr.RoiMask(voxels=np.zeros((2, 2, 2), dtype=np.uint8)))
        with pytest.raises(ShapeMismatch):
            dr.collect_samples(vol, dr.RoiMask(voxels=np.ones((3, 2, 2), dtype=np.uint8)))


class TestEmFit:
    def test_point_mass_k1(self):
        fit = em_fit(np.full(50, 7.0), 1)
        c = fit.components[0]
        assert c.mu == 7.0
        assert c.sigma2 == 1e-12  # absolute variance floor
        assert c.omega == 1.0

    def test_k1_closed_form(self):
        x = np.array([1.0, 2.0, 3.0, 6.0])
        fit = em_fit(x, 1)
        c = fit.components[0]
        np.testing.assert_allclose(c.mu, x.mean(), rtol=1e-12)
        np.testing.assert_allclose(c.sigma2, max(x.var(), variance_floor(x)), rtol=1e-9)
        assert c.omega == 1.0
        assert fit.converged

    def test_point_mass_k2_surplus_rule(self):
        fit = em_fit(np.full(10, 3.0), 2)
        assert fit.k == 2
        assert all(c.mu == 3.0 for c in fit.components)
        assert all(c.sigma2 == 1e-12 for c in fit.components)
        weights = [c.omega for c in fit.components]
        np.testing.assert_allclose(sum(weights), 1.0, atol=1e-12)
        assert weights[0] > weights[1]
        assert weights[1] == pytest.approx(1e-6, rel=1e-3)

    def test_two_component_recovery(self):
        fit = em_fit(two_gaussians(), 2)
        mus = [c.mu for c in fit.components]
        ws = [c.omega for c in fit.components]
        assert abs(mus[0] - 0.0) < 0.1
        assert abs(mus[1] - 10.0) < 0.1
        assert abs(ws[0] - 0.5) < 0.05
        assert abs(ws[1] - 0.5) < 0.05

    def test_loglik_monotone_100_seeded_runs(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            mu0 = rng.uniform(-5, 0)
            mu1 = mu0 + rng.uniform(1, 10)
            w0 = rng.uniform(0.2, 0.8)
            n0 = int(300 * w0)
            x = np.concatenate(
                [
                    rng.normal(mu0, rng.uniform(0.5, 2.0), n0),
                    rng.normal(mu1, rng.uniform(0.5, 2.0), 300 - n0),
                ]
            )
            fit = em_fit(x, 2)
            assert (np.diff(fit.ll_trace) >= -1e-10).all(), f"seed {seed} not monotone"

    @pytest.mark.parametrize("iters", [1, 2, 3, 5, 10])
    def test_weights_normalised_after_every_m_step(self, iters, monkeypatch):
        monkeypatch.setattr(gmm, "EM_MAX_ITER", iters)
        x = two_gaussians(n=500, seed=3)
        fit = em_fit(x, 2)
        total = sum(c.omega for c in fit.components)
        np.testing.assert_allclose(total, 1.0, atol=1e-9)

    def test_sorted_by_ascending_mean(self):
        fit = em_fit(two_gaussians(n=1000, mu=(5.0, -5.0), seed=2), 2)
        mus = [c.mu for c in fit.components]
        assert mus == sorted(mus)

    def test_shift_equivariance(self):
        x = two_gaussians(n=2000, seed=6)
        fa = em_fit(x, 2)
        fb = em_fit(x + 100.0, 2)
        for ca, cb in zip(fa.components, fb.components):
            assert cb.mu - ca.mu == pytest.approx(100.0, abs=1e-6)
            assert cb.sigma2 == pytest.approx(ca.sigma2, abs=1e-6)
            assert cb.omega == pytest.approx(ca.omega, abs=1e-6)

    def test_determinism(self):
        x = two_gaussians(n=1500, seed=8)
        fa, fb = em_fit(x, 2), em_fit(x, 2)
        assert fa.components == fb.components
        assert fa.log_likelihood == fb.log_likelihood

    def test_errors(self):
        with pytest.raises(EmptySamples):
            em_fit(np.array([]), 2)
        with pytest.raises(InvalidK):
            em_fit(np.ones(5), 0)

    def test_more_components_than_distinct_values(self):
        fit = em_fit(np.array([1.0, 1.0, 2.0]), 3)
        assert fit.k == 3
        assert sum(c.omega for c in fit.components) == pytest.approx(1.0, abs=1e-12)
        assert fit.components[-1].mu == 2.0  # surplus parked at the maximum


# --------------------------------------------------------------------------
# row-batched EM against the one-map EM loop it replaced
# --------------------------------------------------------------------------

def reference_em_fit(x, k, tol=1e-8, max_iter=500):
    """The per-map EM loop used before row batching, kept as the reference.

    Returns (components as (mu, sigma2, omega) tuples, iterations,
    converged, ll_trace).
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    floor = variance_floor(x)
    n_distinct = len(np.unique(x))
    if n_distinct < k:
        comps, iterations, converged, trace = reference_em_fit(x, n_distinct, tol, max_iter)
        comps = comps + [(float(x.max()), floor, SURPLUS_WEIGHT)] * (k - n_distinct)
        total = sum(c[2] for c in comps)
        comps = sorted(((m, v, w / total) for m, v, w in comps), key=lambda c: (c[0], -c[2]))
        return comps, iterations, converged, trace

    mu = np.quantile(x, (np.arange(k) + 0.5) / k)
    var = np.full(k, max(float(x.var()), floor))
    w = np.full(k, 1.0 / k)

    def estep(mu, var, w):
        inv2v = 0.5 / var
        coeffs = np.stack(
            [np.log(w) - 0.5 * (math.log(2.0 * math.pi) + np.log(var)) - inv2v * mu * mu,
             2.0 * inv2v * mu,
             -inv2v],
            axis=1,
        )
        log_joint = coeffs @ powers
        top = np.maximum.reduce(log_joint, axis=0)
        log_joint -= top
        np.exp(log_joint, out=log_joint)
        total = log_joint.sum(axis=0)
        ll = float((top + np.log(total)).sum())
        log_joint /= total
        return log_joint, ll

    x2 = x * x
    powers = np.stack([np.ones_like(x), x, x2])
    resp, ll = estep(mu, var, w)
    trace = [ll]
    converged = False
    iterations = 0
    while iterations < max_iter:
        nj = np.maximum(resp.sum(axis=1), 1e-300)
        w = nj / x.size
        mu = (resp * x).sum(axis=1) / nj
        ex2 = (resp * x2).sum(axis=1) / nj
        var = np.maximum(ex2 - mu * mu, floor)
        iterations += 1
        resp, ll_new = estep(mu, var, w)
        trace.append(ll_new)
        improvement = ll_new - ll
        ll = ll_new
        if improvement < tol:
            converged = True
            break
    order = np.lexsort((-w, mu))
    comps = [(float(mu[j]), float(var[j]), float(w[j])) for j in order]
    return comps, iterations, converged, np.asarray(trace)


def frozen_with_surplus(base, k, top, floor):
    """gmm._with_surplus as it was before it built its fit through _fit_result,
    kept as the reference for the surplus components' order and weights."""
    comps = list(base.components)
    comps += [GmmComponent(top, float(floor), SURPLUS_WEIGHT)] * (k - base.k)
    total = sum(c.omega for c in comps)
    comps = [GmmComponent(c.mu, c.sigma2, c.omega / total) for c in comps]
    comps.sort(key=lambda c: (c.mu, -c.omega))
    return GmmFit(
        components=tuple(comps),
        log_likelihood=base.log_likelihood,
        iterations=base.iterations,
        converged=base.converged,
        ll_trace=base.ll_trace,
    )


def assert_same_fit(fit, ref):
    comps, iterations, converged, trace = ref
    got = np.array([(c.mu, c.sigma2, c.omega) for c in fit.components])
    assert got.tobytes() == np.array(comps).tobytes()
    assert (fit.iterations, fit.converged) == (iterations, converged)
    assert fit.ll_trace.tobytes() == trace.tobytes()
    assert fit.log_likelihood == trace[-1]


# kinds of sample rows: fast (well separated), slow (overlapping), few
# distinct values, constant, and ReLU-like with a point mass at zero
ROW_KINDS = ("separated", "overlapping", "few-distinct", "constant", "relu")


def sample_row(rng, kind, n):
    if kind == "separated":
        return np.where(rng.random(n) < 0.4, rng.normal(0.0, 1.0, n), rng.normal(12.0, 1.0, n))
    if kind == "overlapping":
        return np.where(rng.random(n) < 0.5, rng.normal(0.0, 1.0, n), rng.normal(1.0, 1.3, n))
    if kind == "few-distinct":
        return rng.integers(0, 2, n).astype(np.float64) * 3.5
    if kind == "constant":
        return np.full(n, rng.normal())
    return np.maximum(rng.normal(-0.3, 1.0, n), 0.0)


class TestEmFitRows:
    @settings(max_examples=120, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=6),
        n=st.integers(1, 400),
        k=st.integers(1, 3),
        max_iter=st.sampled_from([0, 1, 2, 7, 40, 500]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_equals_one_map_fits_bit_for_bit(self, kinds, n, k, max_iter, seed):
        rng = np.random.default_rng(seed)
        rows = np.stack([sample_row(rng, kind, n) for kind in kinds])
        with mock.patch.object(gmm, "EM_MAX_ITER", max_iter):
            fits = em_fit_rows(rows, k)
            assert len(fits) == len(rows)
            for row, fit in zip(rows, fits):
                ref = reference_em_fit(row, k, max_iter=max_iter)
                assert_same_fit(fit, ref)
                assert_same_fit(em_fit(row, k), ref)

    def test_rows_stop_at_their_own_iteration(self, monkeypatch):
        monkeypatch.setattr(gmm, "EM_MAX_ITER", 60)
        rng = np.random.default_rng(3)
        rows = np.stack([sample_row(rng, kind, 300) for kind in ROW_KINDS])
        fits = em_fit_rows(rows, 2)
        iterations = [f.iterations for f in fits]
        assert len(set(iterations)) > 2  # rows left the batch at different steps
        assert not all(f.converged for f in fits) and any(f.converged for f in fits)
        for row, fit in zip(rows, fits):
            assert_same_fit(fit, reference_em_fit(row, 2, max_iter=60))

    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(2, MAX_K), data=st.data())
    def test_surplus_padding_matches_frozen_reference(self, k, data):
        # rows with fewer distinct values than k, batched together
        values = st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=k - 1, unique=True)
        rows = []
        for row_values in data.draw(st.lists(values, min_size=1, max_size=4)):
            picks = st.lists(st.sampled_from(row_values), min_size=20, max_size=20)
            rows.append(data.draw(picks))
        rows = np.array(rows)
        for row, fit in zip(rows, em_fit_rows(rows, k)):
            base = em_fit(row, len(np.unique(row)))
            ref = frozen_with_surplus(base, k, float(row.max()), variance_floor(row))
            assert fit.as_triples().tobytes() == ref.as_triples().tobytes()
            assert fit.ll_trace.tobytes() == ref.ll_trace.tobytes()
            assert (fit.log_likelihood, fit.iterations, fit.converged) == (
                ref.log_likelihood, ref.iterations, ref.converged
            )

    def test_errors(self):
        with pytest.raises(EmptySamples):
            em_fit_rows(np.empty((2, 0)), 2)
        with pytest.raises(InvalidK):
            em_fit_rows(np.ones((2, 5)), 0)
        with pytest.raises(ShapeMismatch):
            em_fit_rows(np.ones(5), 2)


def zero_activations():
    w0 = dr.generate_test_weights(0)
    w = CnnWeights(conv1=w0.conv1, bias1=np.zeros(10), conv2=w0.conv2, bias2=np.zeros(10))
    vol = dr.Volume3D(data=np.zeros((64, 64, 64)), spacing=(1, 1, 1))
    mask = dr.RoiMask(voxels=np.ones((64, 64, 64), dtype=np.uint8))
    return dr.forward(vol, mask, w)


@pytest.fixture(scope="module")
def acts():
    x, y, z = np.mgrid[:64, :64, :64]
    inside = ((x - 32) ** 2 + (y - 32) ** 2 + (z - 32) ** 2) <= 20**2
    rng = np.random.default_rng(11)
    vol = dr.Volume3D(data=rng.random((64, 64, 64)) * inside, spacing=(1, 1, 1))
    return dr.forward(vol, dr.RoiMask(voxels=inside.astype(np.uint8)), dr.generate_test_weights(42))


class TestFeatureVector:
    def test_matches_per_map_fits(self, acts):
        for k in (1, 2, 3):
            fv = dr.build_feature_vector(acts, k=k)
            per_map = [
                em_fit(dr.collect_samples(vol, mask), k) for vol, mask in acts.maps_with_masks()
            ]
            expected = np.concatenate([f.as_triples() for f in per_map])
            assert fv.values.tobytes() == expected.tobytes()
            assert fv.nonconverged == tuple(i for i, f in enumerate(per_map) if not f.converged)

    @pytest.mark.parametrize("k,length", [(1, 63), (2, 126), (3, 189)])
    def test_vector_length(self, acts, k, length):
        fv = dr.build_feature_vector(acts, k=k)
        assert len(fv) == length
        assert np.isfinite(fv.values).all()

    def test_all_zero_maps_degenerate(self):
        fv = dr.build_feature_vector(zero_activations(), k=2)
        values = fv.values.reshape(21, 2, 3)
        mus = values[:, :, 0]
        sigmas = values[:, :, 1]
        weights = values[:, :, 2]
        assert np.all(mus == 0.0)
        assert np.all(sigmas == 1e-12)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(weights[:, 1] < 2e-6)

    def test_layout_matches_component_order(self, acts):
        fv = dr.build_feature_vector(acts, k=2)
        triples = fv.values.reshape(21, 6)
        # per map: mu1 <= mu2 and weights sum to 1
        assert np.all(triples[:, 0] <= triples[:, 3])
        np.testing.assert_allclose(triples[:, 2] + triples[:, 5], 1.0, atol=1e-9)

    def test_feature_names_shape(self):
        names = dr.feature_names(k=2)
        assert len(names) == 126
        assert names[:3] == ["f000_mu1", "f000_s1", "f000_w1"]
        assert names[3] == "f000_mu2"
        assert names[-1] == "f020_w2"


class TestReduceModalities:
    def test_single_vector_mean_is_identity(self):
        v = dr.FeatureVector(values=np.arange(6.0))
        out = dr.reduce_modalities([v])
        np.testing.assert_array_equal(out.values, v.values)

    def test_identical_vectors_mean(self):
        v = dr.FeatureVector(values=np.arange(6.0))
        out = dr.reduce_modalities([v, v])
        np.testing.assert_array_equal(out.values, v.values)

    def test_opposite_vectors_cancel(self):
        v = np.linspace(-3, 3, 12)
        out = dr.reduce_modalities(
            [dr.FeatureVector(values=v), dr.FeatureVector(values=-v)]
        )
        np.testing.assert_allclose(out.values, 0.0, atol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            dr.reduce_modalities(
                [dr.FeatureVector(values=np.ones(3)), dr.FeatureVector(values=np.ones(4))]
            )
        with pytest.raises(LengthMismatch):
            dr.reduce_modalities([])
