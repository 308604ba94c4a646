"""Convolution engine against brute-force oracles; weights I/O; forward pass."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deepradiomics as dr
from deepradiomics import cnn
from deepradiomics.cnn import (
    CONV1_SHAPE,
    CONV2_SHAPE,
    CnnWeights,
    downsample_mask,
    forward,
    load_weights,
    save_weights,
)
from deepradiomics.errors import (
    IndivisibleDims,
    MalformedWeights,
    MissingFile,
    NonFiniteWeights,
    ShapeMismatch,
)
from deepradiomics.volume import extract_cnn_input


# --------------------------------------------------------------------------
# oracles: direct summation at every output position, written before the
# shifted-slice kernel and kept deliberately dumb
# --------------------------------------------------------------------------

def conv3d_ref(x, w, b, stride, padding):
    c_out, kx, ky, kz, c_in = w.shape
    dims = x.shape[1:]
    if padding == "same":
        outs = [-(-n // stride) for n in dims]
        pads = []
        for n, k, out in zip(dims, (kx, ky, kz), outs):
            needed = max(0, (out - 1) * stride + k - n)
            pads.append((needed // 2, needed - needed // 2))
    else:
        outs = [(n - k) // stride + 1 for n, k in zip(dims, (kx, ky, kz))]
        pads = [(0, 0)] * 3
    xp = np.pad(x, [(0, 0)] + pads)
    out = np.empty((c_out, *outs))
    for ox in range(outs[0]):
        for oy in range(outs[1]):
            for oz in range(outs[2]):
                block = xp[
                    :,
                    ox * stride : ox * stride + kx,
                    oy * stride : oy * stride + ky,
                    oz * stride : oz * stride + kz,
                ]
                out[:, ox, oy, oz] = b + np.einsum("oxyzc,cxyz->o", w, block)
    return out


def maxpool_ref(x):
    c, nx, ny, nz = x.shape
    out = np.empty((c, nx // 2, ny // 2, nz // 2))
    for ch in range(c):
        for i in range(nx // 2):
            for j in range(ny // 2):
                for k in range(nz // 2):
                    out[ch, i, j, k] = x[
                        ch, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2, 2 * k : 2 * k + 2
                    ].max()
    return out


def downsample_mask_ref(vox):
    """downsample_mask's reshape-max form before the pairwise maximum."""
    nx, ny, nz = vox.shape
    return vox.reshape(nx // 2, 2, ny // 2, 2, nz // 2, 2).max(axis=(1, 3, 5))


# --------------------------------------------------------------------------
# convolution
# --------------------------------------------------------------------------

class TestConv3d:
    def test_zero_filters_give_bias(self):
        rng = np.random.default_rng(0)
        x = rng.random((3, 5, 5, 5))
        w = np.zeros((4, 2, 2, 2, 3))
        b = np.array([1.0, -2.0, 0.5, 3.0])
        out = dr.conv3d(x, w, b, stride=1, padding="valid")
        for o in range(4):
            assert np.all(out[o] == b[o])

    def test_delta_kernel_is_shifted_crop(self):
        rng = np.random.default_rng(1)
        x = rng.random((1, 6, 6, 6))
        w = np.zeros((1, 2, 2, 2, 1))
        w[0, 0, 0, 0, 0] = 1.0
        out = dr.conv3d(x, w, np.zeros(1), stride=1, padding="valid")
        np.testing.assert_array_equal(out[0], x[0, :5, :5, :5])

    def test_matches_oracle_50_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            dims = tuple(rng.integers(2, 9, size=3))
            c_in = int(rng.integers(1, 5))
            c_out = int(rng.integers(1, 5))
            stride = int(rng.integers(1, 3))
            padding = ["valid", "same"][int(rng.integers(0, 2))]
            x = rng.standard_normal((c_in, *dims))
            w = rng.standard_normal((c_out, 2, 2, 2, c_in))
            b = rng.standard_normal(c_out)
            got = dr.conv3d(x, w, b, stride=stride, padding=padding)
            ref = conv3d_ref(x, w, b, stride, padding)
            np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-10)

    def test_same_padding_preserves_dims_at_stride_1(self):
        x = np.zeros((2, 7, 8, 9))
        out = dr.conv3d(x, np.zeros((3, 2, 2, 2, 2)), np.zeros(3), stride=1, padding="same")
        assert out.shape == (3, 7, 8, 9)

    def test_shape_errors(self):
        x = np.zeros((2, 4, 4, 4))
        with pytest.raises(ShapeMismatch):
            dr.conv3d(x, np.zeros((1, 2, 2, 2, 3)), np.zeros(1))
        with pytest.raises(ShapeMismatch):
            dr.conv3d(np.zeros((1, 1, 4, 4)), np.zeros((1, 2, 2, 2, 1)), np.zeros(1), padding="valid")


class TestMaxpoolRelu:
    def test_constant_input(self):
        out = dr.maxpool3d(np.full((2, 4, 4, 4), 3.5))
        assert out.shape == (2, 2, 2, 2)
        assert np.all(out == 3.5)

    def test_full_window_max(self):
        x = np.arange(8, dtype=float).reshape(1, 2, 2, 2)
        out = dr.maxpool3d(x)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 7.0

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.standard_normal((int(rng.integers(1, 4)), 4, 6, 8))
            np.testing.assert_array_equal(dr.maxpool3d(x), maxpool_ref(x))

    def test_indivisible_dims(self):
        with pytest.raises(IndivisibleDims):
            dr.maxpool3d(np.zeros((1, 3, 4, 4)))

    def test_relu_definition(self):
        np.testing.assert_array_equal(dr.relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])
        assert np.all(dr.relu(-np.ones(5)) == 0.0)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
    def test_relu_idempotent(self, values):
        x = np.array(values)
        np.testing.assert_array_equal(dr.relu(dr.relu(x)), dr.relu(x))


# --------------------------------------------------------------------------
# weights I/O
# --------------------------------------------------------------------------

class TestWeights:
    def test_generated_file_has_expected_payload(self, tmp_path):
        w = dr.generate_test_weights(7)
        save_weights(w, tmp_path / "w.bin")
        raw = (tmp_path / "w.bin").read_bytes()
        header, payload = raw.split(b"\n", 1)
        # layer1: 10*(2*2*2*1)+10, layer2: 10*(2*2*2*10)+10 -> 900 floats
        assert len(payload) == 4 * (10 * 8 + 10 + 10 * 80 + 10)
        loaded = load_weights(tmp_path / "w.bin")
        assert loaded.conv1.shape == CONV1_SHAPE
        assert loaded.conv2.shape == CONV2_SHAPE
        np.testing.assert_array_equal(loaded.conv1, w.conv1.astype(np.float32))
        np.testing.assert_array_equal(loaded.bias2, w.bias2.astype(np.float32))

    def test_seed_determinism(self, tmp_path):
        save_weights(dr.generate_test_weights(42), tmp_path / "a.bin")
        save_weights(dr.generate_test_weights(42), tmp_path / "b.bin")
        save_weights(dr.generate_test_weights(43), tmp_path / "c.bin")
        a = (tmp_path / "a.bin").read_bytes()
        assert a == (tmp_path / "b.bin").read_bytes()
        assert a != (tmp_path / "c.bin").read_bytes()

    @pytest.mark.parametrize("seed", [0, 1, 999])
    def test_value_range(self, seed):
        w = dr.generate_test_weights(seed)
        for arr in (w.conv1, w.bias1, w.conv2, w.bias2):
            assert arr.min() > -0.5
            assert arr.max() < 0.5

    def test_truncated_file_rejected(self, tmp_path):
        save_weights(dr.generate_test_weights(1), tmp_path / "w.bin")
        raw = (tmp_path / "w.bin").read_bytes()
        (tmp_path / "w.bin").write_bytes(raw[:-4])
        with pytest.raises(MalformedWeights):
            load_weights(tmp_path / "w.bin")

    def test_nonfinite_rejected(self, tmp_path):
        save_weights(dr.generate_test_weights(1), tmp_path / "w.bin")
        raw = bytearray((tmp_path / "w.bin").read_bytes())
        inf = np.array([np.inf], "<f4").tobytes()
        raw[-4:] = inf
        (tmp_path / "w.bin").write_bytes(bytes(raw))
        with pytest.raises(NonFiniteWeights):
            load_weights(tmp_path / "w.bin")

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            load_weights(tmp_path / "nope.bin")

    @pytest.mark.parametrize(
        "header,match",
        [
            ([1, 2], "JSON object"),
            ({"conv1": [10, 2, 2, 2, "a"]}, "conv1"),
            ({"conv1": [-10, 2, 2, 2, -1]}, "conv1"),
            ({"fc_w": 5}, "fc_w"),
            ({"bias1": [True, 10]}, "bias1"),
            ({"fc_w": [0, 10**30], "fc_b": [0]}, "fc_w"),
        ],
        ids=["not-object", "string-dim", "negative-dims", "scalar-shape", "bool-dim", "huge-empty"],
    )
    def test_malformed_header_rejected(self, tmp_path, header, match):
        save_weights(dr.generate_test_weights(1), tmp_path / "w.bin")
        head, payload = (tmp_path / "w.bin").read_bytes().split(b"\n", 1)
        if isinstance(header, dict):
            header = {**json.loads(head), **header}
        (tmp_path / "w.bin").write_bytes(json.dumps(header).encode() + b"\n" + payload)
        with pytest.raises(MalformedWeights, match=match):
            load_weights(tmp_path / "w.bin")

    def test_deeply_nested_header_rejected(self, tmp_path):
        save_weights(dr.generate_test_weights(1), tmp_path / "w.bin")
        payload = (tmp_path / "w.bin").read_bytes().split(b"\n", 1)[1]
        (tmp_path / "w.bin").write_bytes(b"[" * 100_000 + b"\n" + payload)
        with pytest.raises(MalformedWeights, match="w.bin: bad JSON: maximum recursion depth"):
            load_weights(tmp_path / "w.bin")

    def test_wrong_shape_rejected(self):
        with pytest.raises(MalformedWeights):
            CnnWeights(
                conv1=np.zeros((9, 2, 2, 2, 1)),
                bias1=np.zeros(9),
                conv2=np.zeros(CONV2_SHAPE),
                bias2=np.zeros(10),
            )

    def test_arrays_become_float64_or_malformed(self):
        w = dr.generate_test_weights(2)
        ints = CnnWeights(conv1=np.ones(CONV1_SHAPE, int), bias1=w.bias1, conv2=w.conv2, bias2=w.bias2)
        assert ints.conv1.dtype == np.float64
        with pytest.raises(MalformedWeights, match="conv1"):
            CnnWeights(conv1=np.full(CONV1_SHAPE, "a"), bias1=w.bias1, conv2=w.conv2, bias2=w.bias2)

    def test_legacy_header_with_null_fc_softmax_loads(self, tmp_path):
        # the header as files written before fc/softmax left the format spell it
        legacy = (
            b'{"bias1": [10], "bias2": [10], "conv1": [10, 2, 2, 2, 1], "conv2": [10, 2, 2, 2, 10], '
            b'"fc_b": null, "fc_w": null, "provenance": "seed:42", "softmax_b": null, '
            b'"softmax_w": null, "version": 1}\n'
        )
        save_weights(dr.generate_test_weights(42), tmp_path / "w.bin")
        payload = (tmp_path / "w.bin").read_bytes().split(b"\n", 1)[1]
        (tmp_path / "legacy.bin").write_bytes(legacy + payload)
        assert hashlib.sha256(legacy + payload).hexdigest() == (
            "b3e5794b3ea8d287629060305b489be13e433a091cf4ee2b80fc51cf0bcbc4ea"
        )
        old, new = load_weights(tmp_path / "legacy.bin"), load_weights(tmp_path / "w.bin")
        assert old.provenance == new.provenance == "seed:42"
        for name in ("conv1", "bias1", "conv2", "bias2"):
            np.testing.assert_array_equal(getattr(old, name), getattr(new, name))

    def test_declared_fc_segment_rejected(self, tmp_path):
        save_weights(dr.generate_test_weights(3), tmp_path / "w.bin")
        head, payload = (tmp_path / "w.bin").read_bytes().split(b"\n", 1)
        header = {**json.loads(head), "fc_w": [8, 16], "fc_b": [8], "softmax_w": None}
        fc = np.random.default_rng(0).random(8 * 16 + 8).astype("<f4").tobytes()
        (tmp_path / "w.bin").write_bytes(json.dumps(header).encode() + b"\n" + payload + fc)
        with pytest.raises(MalformedWeights, match="does not hold: fc_b, fc_w$"):
            load_weights(tmp_path / "w.bin")


_NESTED_WEIGHTS = {n: getattr(dr.generate_test_weights(4), n).tolist() for n in ("conv1", "bias1", "conv2", "bias2")}


@pytest.mark.parametrize(
    "cls, kwargs, field",
    [
        (CnnWeights, _NESTED_WEIGHTS, "conv1"),
        (dr.Volume3D, {"data": [[[1.0, 2.0]]], "spacing": (1.0, 1.0, 1.0)}, "data"),
        (dr.RoiMask, {"voxels": [[[1, 0]]]}, "voxels"),
    ],
    ids=["weights", "volume", "mask"],
)
def test_nested_lists_are_held_as_arrays(cls, kwargs, field):
    held = getattr(cls(**kwargs), field)
    assert isinstance(held, np.ndarray)
    np.testing.assert_array_equal(held, kwargs[field])


# --------------------------------------------------------------------------
# forward pass
# --------------------------------------------------------------------------

def sphere_input(radius=24.0):
    x, y, z = np.mgrid[:64, :64, :64]
    inside = ((x - 32.0) ** 2 + (y - 32.0) ** 2 + (z - 32.0) ** 2) <= radius**2
    vol = dr.Volume3D(data=inside * 200.0, spacing=(1.0, 1.0, 1.0))
    return vol, dr.RoiMask(voxels=inside.astype(np.uint8))


def forward_ref(x, w):
    """forward's whole-volume composition before it ran in two-plane slabs."""
    a1 = dr.maxpool3d(dr.relu(dr.conv3d(x[None], w.conv1, w.bias1, padding="same")))
    a2 = dr.maxpool3d(dr.relu(dr.conv3d(a1, w.conv2, w.bias2, padding="same")))
    return a1, a2


@st.composite
def network_inputs(draw):
    """64^3 inputs: raw values of either sign, or a zero-padded ROI crop."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        scale = draw(st.sampled_from([1e-3, 1.0, 255.0, 1e4]))
        return rng.standard_normal((64, 64, 64)) * scale
    dims = tuple(int(n) for n in rng.integers(6, 40, size=3))
    lo = [int(rng.integers(0, n // 2)) for n in dims]
    hi = [int(rng.integers(a + 1, n + 1)) for a, n in zip(lo, dims)]
    vox = np.zeros(dims, dtype=np.uint8)
    vox[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]] = 1
    vol = dr.Volume3D(data=rng.uniform(0.0, 255.0, dims), spacing=(1, 1, 1))
    return extract_cnn_input(vol, dr.RoiMask(voxels=vox))[0].data


@st.composite
def boxed_inputs(draw):
    """64^3 inputs that are zero outside a box: any box, one touching a face,
    a single voxel, an empty box or the whole cube."""
    kind = draw(st.sampled_from(["box", "face", "voxel", "empty", "full"]))
    lo = [draw(st.integers(0, 63)) for _ in range(3)]
    hi = [draw(st.integers(a + 1, 64)) for a in lo]
    if kind == "face":
        axis = draw(st.integers(0, 2))
        lo[axis], hi[axis] = draw(st.sampled_from([(0, hi[axis]), (lo[axis], 64)]))
    elif kind == "voxel":
        hi = [a + 1 for a in lo]
    elif kind == "empty":
        hi = lo
    elif kind == "full":
        lo, hi = [0] * 3, [64] * 3
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 255.0]))
    x = np.zeros((64, 64, 64))
    box = tuple(slice(a, b) for a, b in zip(lo, hi))
    x[box] = rng.standard_normal(x[box].shape) * scale
    return x


class TestForward:
    def test_shape_contract(self):
        vol, mask = sphere_input()
        acts = forward(vol, mask, dr.generate_test_weights(42))
        assert acts.n_maps == 21
        assert acts.input_map.dims == (64, 64, 64)
        assert all(m.dims == (32, 32, 32) for m in acts.layer1_maps)
        assert all(m.dims == (16, 16, 16) for m in acts.layer2_maps)
        assert acts.mask32.dims == (32, 32, 32)
        assert acts.mask16.dims == (16, 16, 16)

    def test_relu_nonnegativity(self):
        vol, mask = sphere_input()
        acts = forward(vol, mask, dr.generate_test_weights(1))
        for m in acts.layer1_maps + acts.layer2_maps:
            assert m.data.min() >= 0.0

    def test_zero_input_zero_bias_gives_zero_maps(self):
        w0 = dr.generate_test_weights(0)
        w = CnnWeights(
            conv1=w0.conv1, bias1=np.zeros(10), conv2=w0.conv2, bias2=np.zeros(10)
        )
        vol = dr.Volume3D(data=np.zeros((64, 64, 64)), spacing=(1, 1, 1))
        mask = dr.RoiMask(voxels=np.ones((64, 64, 64), dtype=np.uint8))
        acts = forward(vol, mask, w)
        for m in acts.layer1_maps + acts.layer2_maps:
            assert np.all(m.data == 0.0)

    def test_determinism(self):
        vol, mask = sphere_input()
        w = dr.generate_test_weights(42)
        a = forward(vol, mask, w)
        b = forward(vol, mask, w)
        assert np.array_equal(a.input_map.data, b.input_map.data)
        for ma, mb in zip(a.layer1_maps + a.layer2_maps, b.layer1_maps + b.layer2_maps):
            assert np.array_equal(ma.data, mb.data)

    def test_matches_straight_line_reference(self):
        vol, mask = sphere_input()
        w = dr.generate_test_weights(42)
        acts = forward(vol, mask, w)
        a1_ref = maxpool_ref(
            np.maximum(conv3d_ref(vol.data[None], w.conv1, w.bias1, 1, "same"), 0.0)
        )
        a2_ref = maxpool_ref(
            np.maximum(conv3d_ref(a1_ref, w.conv2, w.bias2, 1, "same"), 0.0)
        )
        got1 = np.stack([m.data for m in acts.layer1_maps])
        got2 = np.stack([m.data for m in acts.layer2_maps])
        np.testing.assert_allclose(got1, a1_ref, rtol=1e-5, atol=1e-10)
        np.testing.assert_allclose(got2, a2_ref, rtol=1e-5, atol=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(x=network_inputs(), weight_seed=st.integers(0, 2**16), zero_bias=st.booleans())
    def test_bit_identical_to_whole_volume_composition(self, x, weight_seed, zero_bias):
        w = dr.generate_test_weights(weight_seed)
        if zero_bias:
            w = CnnWeights(conv1=w.conv1, bias1=np.zeros(10), conv2=w.conv2, bias2=np.zeros(10))
        vol = dr.Volume3D(data=x, spacing=(1, 1, 1))
        acts = forward(vol, dr.RoiMask(voxels=np.ones(x.shape, np.uint8)), w)
        a1, a2 = forward_ref(x, w)
        for i in range(10):
            assert np.array_equal(acts.layer1_maps[i].data, a1[i])
            assert np.array_equal(acts.layer2_maps[i].data, a2[i])

    @settings(max_examples=40, deadline=None)
    @given(x=boxed_inputs(), weight_seed=st.integers(0, 2**16), zero_bias=st.booleans())
    def test_box_inputs_match_whole_volume_composition_byte_for_byte(self, x, weight_seed, zero_bias):
        # outside the box every layer fills in its background output; the
        # bytes, signed zeros included, must be the whole volume's
        w = dr.generate_test_weights(weight_seed)
        if zero_bias:
            w = CnnWeights(conv1=w.conv1, bias1=np.zeros(10), conv2=w.conv2, bias2=np.zeros(10))
        acts = forward(dr.Volume3D(data=x, spacing=(1, 1, 1)), dr.RoiMask(voxels=np.ones(x.shape, np.uint8)), w)
        a1, a2 = forward_ref(x, w)
        assert np.stack([m.data for m in acts.layer1_maps]).tobytes() == a1.tobytes()
        assert np.stack([m.data for m in acts.layer2_maps]).tobytes() == a2.tobytes()

    @pytest.mark.parametrize("kind", ["ellipsoid", "no background"])
    def test_macs_skip_the_background(self, kind, monkeypatch):
        # counted as perfbench/tracing.py counts cnn.macs; the dense pass is
        # 10*64^3*8*1 + 10*32^3*8*10 multiply-adds
        macs, conv3d = [], cnn.conv3d

        def counted(x, filters, bias, *args, **kw):
            out = conv3d(x, filters, bias, *args, **kw)
            macs.append(out.size * 8 * np.shape(filters)[-1])
            return out

        monkeypatch.setattr(cnn, "conv3d", counted)
        rng = np.random.default_rng(5)
        if kind == "ellipsoid":  # an elongated ROI: its box fills 64x31x21 voxels of the cube
            x, y, z = np.mgrid[:27, :13, :9]
            inside = ((x - 13) / 13) ** 2 + ((y - 6) / 6) ** 2 + ((z - 4) / 4) ** 2 <= 1
            vol = dr.Volume3D(data=rng.uniform(0.0, 255.0, inside.shape), spacing=(1, 1, 1))
            vol, mask = extract_cnn_input(vol, dr.RoiMask(voxels=inside.astype(np.uint8)))
        else:
            vol = dr.Volume3D(data=rng.uniform(1.0, 2.0, (64, 64, 64)), spacing=(1, 1, 1))
            mask = dr.RoiMask(voxels=np.ones((64, 64, 64), np.uint8))
        forward(vol, mask, dr.generate_test_weights(42))
        dense = 47_185_920
        if kind == "ellipsoid":
            assert sum(macs) * 2.5 <= dense
        else:
            assert sum(macs) == dense

    def test_peak_memory_bound(self):
        # both layers' outputs, one slab's padded input planes and its conv,
        # ReLU and pooling temporaries: about 4.6 MiB, all of fixed size
        vol, mask = sphere_input()
        w = dr.generate_test_weights(42)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            forward(vol, mask, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 6 * 2**20

    def test_mask_downsampling_definition(self):
        rng = np.random.default_rng(9)
        vox = (rng.random((8, 8, 8)) > 0.8).astype(np.uint8)
        vox[0, 0, 0] = 1
        coarse = downsample_mask(dr.RoiMask(voxels=vox))
        # every fine in-ROI voxel implies its parent is in-ROI, and parents
        # without any in-ROI child stay out
        for i in range(8):
            for j in range(8):
                for k in range(8):
                    if vox[i, j, k]:
                        assert coarse.voxels[i // 2, j // 2, k // 2] == 1
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    child = vox[2 * i : 2 * i + 2, 2 * j : 2 * j + 2, 2 * k : 2 * k + 2]
                    assert coarse.voxels[i, j, k] == (1 if child.any() else 0)

    @settings(max_examples=60, deadline=None)
    @given(
        half=st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8)),
        density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mask_downsampling_matches_reshape_max(self, half, density, seed):
        rng = np.random.default_rng(seed)
        vox = (rng.random(tuple(2 * h for h in half)) < density).astype(np.uint8)
        got = downsample_mask(dr.RoiMask(voxels=vox)).voxels
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, downsample_mask_ref(vox))

    def test_mask_downsampling_indivisible(self):
        with pytest.raises(IndivisibleDims):
            downsample_mask(dr.RoiMask(voxels=np.ones((4, 3, 4), dtype=np.uint8)))

    def test_wrong_input_size(self):
        vol = dr.Volume3D(data=np.zeros((32, 32, 32)), spacing=(1, 1, 1))
        mask = dr.RoiMask(voxels=np.ones((32, 32, 32), dtype=np.uint8))
        with pytest.raises(ShapeMismatch):
            forward(vol, mask, dr.generate_test_weights(0))
