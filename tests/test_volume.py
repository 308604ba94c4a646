"""Volume I/O, resampling, intensity standardisation and ROI extraction."""

import json
import math
import re
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from conftest import run_memory_limited
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import label, map_coordinates

import deepradiomics as dr
from deepradiomics import volume
from deepradiomics.errors import (
    DegenerateOutput,
    EmptyMask,
    MalformedHeader,
    MissingFile,
    NonFiniteData,
    ShapeMismatch,
)
from deepradiomics.pipeline import volume_features
from deepradiomics.volume import (
    MAX_VOXELS,
    _iso_grid,
    _trilinear_grid,
    extract_cnn_input,
    read_header,
    resample_mask,
)


# --------------------------------------------------------------------------
# independent trilinear oracle: direct 8-corner evaluation per output voxel
# --------------------------------------------------------------------------

def trilinear_at(data, cx, cy, cz):
    nx, ny, nz = data.shape
    cx = min(max(cx, 0.0), nx - 1.0)
    cy = min(max(cy, 0.0), ny - 1.0)
    cz = min(max(cz, 0.0), nz - 1.0)
    x0, y0, z0 = int(math.floor(cx)), int(math.floor(cy)), int(math.floor(cz))
    x1, y1, z1 = min(x0 + 1, nx - 1), min(y0 + 1, ny - 1), min(z0 + 1, nz - 1)
    tx, ty, tz = cx - x0, cy - y0, cz - z0
    acc = 0.0
    for ix, wx in ((x0, 1 - tx), (x1, tx)):
        for iy, wy in ((y0, 1 - ty), (y1, ty)):
            for iz, wz in ((z0, 1 - tz), (z1, tz)):
                acc += wx * wy * wz * data[ix, iy, iz]
    return acc


def resample_ref(data, spacing, target):
    out_dims = tuple(
        int(math.floor(n * s / target + 0.5)) for n, s in zip(data.shape, spacing)
    )
    out = np.empty(out_dims)
    for i in range(out_dims[0]):
        for j in range(out_dims[1]):
            for k in range(out_dims[2]):
                out[i, j, k] = trilinear_at(
                    data, i * target / spacing[0], j * target / spacing[1], k * target / spacing[2]
                )
    return out


def align_corners_coords(in_dims, out_dims):
    coords = []
    for n_in, n_out in zip(in_dims, out_dims):
        if n_out == 1:
            coords.append([(n_in - 1) / 2.0])
        else:
            coords.append([j * (n_in - 1) / (n_out - 1) for j in range(n_out)])
    return coords


def resize_ref(data, out_dims):
    coords = align_corners_coords(data.shape, out_dims)
    out = np.empty(out_dims)
    for i, cx in enumerate(coords[0]):
        for j, cy in enumerate(coords[1]):
            for k, cz in enumerate(coords[2]):
                out[i, j, k] = trilinear_at(data, cx, cy, cz)
    return out


def resample_mask_ref(mask, spacing):
    """resample_mask as a whole-grid pass, before it was limited to the support."""
    out_dims, coords = _iso_grid(mask.dims, spacing)
    voxels = (_trilinear_grid(mask.voxels, coords) > 0.5).view(np.uint8)
    if mask.count > 0 and voxels.sum() == 0:
        centroid = [float(c.mean()) for c in np.nonzero(mask.voxels)]
        idx = tuple(
            min(out_dims[a] - 1, max(0, int(math.floor(centroid[a] * spacing[a] + 0.5))))
            for a in range(3)
        )
        voxels[idx] = 1
    return voxels


def write_raw_volume(tmp_path, name, values, dims, spacing, dtype="f32le", modality="T1WI"):
    """Build sidecar + payload by hand, independent of save_volume."""
    side = tmp_path / f"{name}.vol.json"
    raw = tmp_path / f"{name}.vol.raw"
    side.write_text(
        json.dumps({"dims": list(dims), "spacing_mm": list(spacing), "dtype": dtype, "modality": modality})
    )
    raw.write_bytes(np.asarray(values, dtype="<f4").tobytes())
    return side


# --------------------------------------------------------------------------
# file format
# --------------------------------------------------------------------------

class TestVolumeIO:
    def test_smallest_wellformed_file(self, tmp_path):
        values = np.arange(8, dtype=np.float32)
        path = write_raw_volume(tmp_path, "v", values, (2, 2, 2), (1, 1, 1))
        vol = dr.load_volume(path)
        assert vol.dims == (2, 2, 2)
        assert vol.spacing == (1.0, 1.0, 1.0)
        assert vol.modality == "T1WI"
        # payload is x-fastest
        assert vol.data[1, 0, 0] == 1.0
        assert vol.data[0, 1, 0] == 2.0
        assert vol.data[0, 0, 1] == 4.0

    def test_payload_length_mismatch(self, tmp_path):
        path = write_raw_volume(tmp_path, "v", np.zeros(7, np.float32), (2, 2, 2), (1, 1, 1))
        with pytest.raises(MalformedHeader):
            dr.load_volume(path)

    def test_nan_payload_rejected(self, tmp_path):
        values = np.zeros(8, np.float32)
        values[3] = np.nan
        path = write_raw_volume(tmp_path, "v", values, (2, 2, 2), (1, 1, 1))
        with pytest.raises(NonFiniteData):
            dr.load_volume(path)

    @pytest.mark.parametrize(
        "patch, error", [({"modality": "PET"}, MalformedHeader), ({}, NonFiniteData)], ids=["modality", "nan"]
    )
    def test_volume_errors_name_the_sidecar(self, tmp_path, patch, error):
        values = np.zeros(8, np.float32)
        values[3] = np.nan if error is NonFiniteData else 0.0
        path = write_raw_volume(tmp_path, "v", values, (2, 2, 2), (1, 1, 1), **patch)
        with pytest.raises(error, match=r"^\S*v\.vol\.json: "):
            dr.load_volume(path)

    def test_load_checks_the_payload_once(self, tmp_path, monkeypatch):
        # Volume3D owns the finiteness check; load_volume adds no second pass
        path = write_raw_volume(tmp_path, "v", np.zeros(8, np.float32), (2, 2, 2), (1, 1, 1))
        seen, isfinite = [], np.isfinite

        def counted(a, *args, **kw):
            seen.append(np.size(a))
            return isfinite(a, *args, **kw)

        monkeypatch.setattr(np, "isfinite", counted)
        dr.load_volume(path)
        assert seen.count(8) == 1

    def test_volume_features_checks_the_payload_alone(self, tmp_path, monkeypatch):
        # the resampled grid, its standardised copy, the 64^3 cube and the
        # 20 activation maps are computed from the checked payload, so the
        # payload is the only grid that one volume_features call checks
        dims, spacing = (24, 24, 8), (0.94, 0.94, 5.0)
        x, y, z = np.mgrid[:24, :24, :8]
        inside = ((x - 11.5) / 8) ** 2 + ((y - 11.5) / 6) ** 2 + ((z - 3.5) / 3) ** 2 <= 1
        data = np.random.default_rng(3).uniform(0.0, 100.0, dims)
        dr.save_volume(dr.Volume3D(data=data, spacing=spacing, modality="T1WI"), tmp_path / "v")
        dr.save_mask(dr.RoiMask(voxels=inside.astype(np.uint8)), tmp_path / "m", spacing)
        weights = dr.generate_test_weights(0)
        seen, isfinite = [], np.isfinite

        def counted(a, *args, **kw):
            seen.append(np.size(a))
            return isfinite(a, *args, **kw)

        monkeypatch.setattr(np, "isfinite", counted)
        volume_features(tmp_path / "v", tmp_path / "m", weights, 2)
        assert [n for n in seen if n > 1000] == [math.prod(dims)]  # 24 passes before

    def test_missing_files(self, tmp_path):
        with pytest.raises(MissingFile):
            dr.load_volume(tmp_path / "absent.vol.json")
        # sidecar without payload
        (tmp_path / "v.vol.json").write_text(
            json.dumps({"dims": [1, 1, 1], "spacing_mm": [1, 1, 1], "dtype": "f32le"})
        )
        with pytest.raises(MissingFile):
            dr.load_volume(tmp_path / "v.vol.json")

    @pytest.mark.parametrize(
        "patch",
        [
            {"dims": [2, 2]},
            {"dims": [2, 2, 0]},
            {"spacing_mm": [1, 1, -1]},
            {"spacing_mm": [1, 1]},
            {"dtype": "f64"},
            {"modality": "PET"},
        ],
    )
    def test_bad_headers(self, tmp_path, patch):
        hdr = {"dims": [2, 2, 2], "spacing_mm": [1, 1, 1], "dtype": "f32le", "modality": "T1WI"}
        hdr.update(patch)
        (tmp_path / "v.vol.json").write_text(json.dumps(hdr))
        (tmp_path / "v.vol.raw").write_bytes(np.zeros(8, "<f4").tobytes())
        with pytest.raises(MalformedHeader):
            dr.load_volume(tmp_path / "v.vol.json")

    def test_unparseable_header(self, tmp_path):
        (tmp_path / "v.vol.json").write_text("{not json")
        (tmp_path / "v.vol.raw").write_bytes(b"")
        with pytest.raises(MalformedHeader):
            dr.load_volume(tmp_path / "v.vol.json")

    @pytest.mark.parametrize(
        "patch",
        [
            {"dims": [True, True, True]},
            {"dims": [2, 2, 2.0]},
            {"spacing_mm": [True, 1, 1]},
            {"spacing_mm": [1, 1, 10**400]},
            {"spacing_mm": [1, 1, "1"]},
            {"dtype": ["u8"]},
        ],
        ids=["bool-dims", "float-dim", "bool-spacing", "huge-int-spacing", "string-spacing", "list-dtype"],
    )
    def test_non_numeric_header_values(self, tmp_path, patch):
        hdr = {"dims": [1, 1, 1], "spacing_mm": [1, 1, 1], "dtype": "u8", "modality": "DERIVED"}
        hdr.update(patch)
        (tmp_path / "v.vol.json").write_text(json.dumps(hdr))
        (tmp_path / "v.vol.raw").write_bytes(b"\x01")
        key = next(iter(patch))
        with pytest.raises(MalformedHeader, match=f"v.vol.json: bad {key}"):
            read_header(tmp_path / "v.vol.json")
        with pytest.raises(MalformedHeader, match=f"v.vol.json: bad {key}"):
            dr.load_mask(tmp_path / "v.vol.json")

    @pytest.mark.parametrize("doc", ["[1, 2, 3]", '"dims"', "null", "7"])
    def test_header_must_be_an_object(self, tmp_path, doc):
        (tmp_path / "v.vol.json").write_text(doc)
        (tmp_path / "v.vol.raw").write_bytes(b"")
        with pytest.raises(MalformedHeader, match="v.vol.json: must be a JSON object"):
            read_header(tmp_path / "v.vol.json")
        with pytest.raises(MalformedHeader, match="v.vol.json: must be a JSON object"):
            dr.load_volume(tmp_path / "v.vol.json")

    def test_deeply_nested_sidecar(self, tmp_path):
        (tmp_path / "v.vol.json").write_text("[" * 100_000)
        (tmp_path / "v.vol.raw").write_bytes(b"")
        for load in (read_header, dr.load_volume, dr.load_mask):
            with pytest.raises(MalformedHeader, match="v.vol.json: bad JSON: maximum recursion depth"):
                load(tmp_path / "v.vol.json")

    def test_directory_sidecar(self, tmp_path):
        (tmp_path / "v.vol.json").mkdir()
        (tmp_path / "v.vol.raw").write_bytes(np.zeros(1, "<f4").tobytes())
        for load in (read_header, dr.load_volume, dr.load_mask):
            with pytest.raises(MalformedHeader, match="v.vol.json"):
                load(tmp_path / "v.vol.json")

    def test_directory_payload(self, tmp_path):
        hdr = {"dims": [1, 1, 1], "spacing_mm": [1, 1, 1], "dtype": "f32le"}
        (tmp_path / "v.vol.json").write_text(json.dumps(hdr))
        (tmp_path / "v.vol.raw").mkdir()
        with pytest.raises(MalformedHeader, match="v.vol.raw: cannot read payload"):
            dr.load_volume(tmp_path / "v.vol.json")
        (tmp_path / "v.vol.json").write_text(json.dumps({**hdr, "dtype": "u8"}))
        with pytest.raises(MalformedHeader, match="v.vol.raw: cannot read payload"):
            dr.load_mask(tmp_path / "v.vol.json")

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((5, 4, 3)).astype(np.float32)
        vol = dr.Volume3D(data=data, spacing=(0.7, 1.1, 2.0), modality="FLAIR")
        dr.save_volume(vol, tmp_path / "a")
        loaded = dr.load_volume(tmp_path / "a.vol.json")
        dr.save_volume(loaded, tmp_path / "b")
        assert (tmp_path / "a.vol.raw").read_bytes() == (tmp_path / "b.vol.raw").read_bytes()
        assert (tmp_path / "a.vol.json").read_text() == (tmp_path / "b.vol.json").read_text()
        assert loaded.spacing == vol.spacing
        assert loaded.modality == "FLAIR"

    def test_mask_roundtrip_and_validation(self, tmp_path):
        rng = np.random.default_rng(4)
        vox = (rng.random((4, 3, 5)) > 0.5).astype(np.uint8)
        dr.save_mask(dr.RoiMask(voxels=vox), tmp_path / "m", spacing=(2, 2, 2))
        mask = dr.load_mask(tmp_path / "m.vol.json")
        assert np.array_equal(mask.voxels, vox)
        assert read_header(tmp_path / "m.vol.json")["spacing_mm"] == [2, 2, 2]
        # nonbinary payload rejected
        raw = bytearray((tmp_path / "m.vol.raw").read_bytes())
        raw[0] = 2
        (tmp_path / "m.vol.raw").write_bytes(bytes(raw))
        with pytest.raises(MalformedHeader):
            dr.load_mask(tmp_path / "m.vol.json")

    @pytest.mark.parametrize(
        "voxels, ok",
        [
            (np.array([0, 1], np.uint16), True),
            (np.array([0, 2], np.uint16), False),
            (np.array([True, False]), True),
            (np.array([0, 1], np.int8), True),
            (np.array([-1, 1], np.int8), False),
            (np.array([0.0, 0.5]), False),
            (np.zeros(0, np.uint8), True),
        ],
        ids=["u16", "u16-two", "bool", "i8", "i8-negative", "float-half", "empty"],
    )
    def test_mask_values_are_zero_or_one(self, voxels, ok):
        if ok:
            assert dr.RoiMask(voxels=voxels.reshape(-1, 1, 1)).dims == (voxels.size, 1, 1)
        else:
            with pytest.raises(MalformedHeader, match="must be 0 or 1"):
                dr.RoiMask(voxels=voxels.reshape(-1, 1, 1))

    def test_mask_check_allocates_no_whole_grid_temporaries(self):
        # the peak holds the voxels themselves; each bool temporary of an
        # elementwise {0, 1} test would add as many bytes again
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            mask = dr.RoiMask(np.zeros((241, 241, 160), np.uint8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 1.1 * mask.voxels.nbytes

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: dr.Volume3D(data=np.full((1, 1, 1), "a"), spacing=(1, 1, 1)), "volume data"),
            (lambda: dr.Volume3D(data=[[[1.0], [1.0, 0.0]]], spacing=(1, 1, 1)), "volume data"),
            (lambda: dr.RoiMask(voxels=[[[1], [1, 0]]]), "mask voxels"),
            (lambda: dr.Volume3D(data=np.ones((1, 1, 1)), spacing=("a", 1, 1)), "spacing"),
            (lambda: dr.Volume3D(data=np.ones((1, 1, 1)), spacing=5), "spacing"),
            (lambda: dr.Volume3D(data=np.ones((1, 1, 1)), spacing=(10**400, 1, 1)), "spacing"),
            (lambda: dr.Volume3D(data=np.ones((1, 1, 1)), spacing=(True, 1, 1)), "spacing"),
            (lambda: dr.Volume3D(data=np.ones((1, 1, 1)), spacing=np.ones(3, dtype=bool)), "spacing"),
        ],
        ids=[
            "string-data", "ragged-data", "ragged-mask", "string-spacing", "scalar-spacing", "huge-int-spacing",
            "bool-spacing", "bool-array-spacing",
        ],
    )
    def test_malformed_fields_are_malformed_header(self, build, field):
        with pytest.raises(MalformedHeader, match=f"^{field} "):
            build()


# --------------------------------------------------------------------------
# resampling
# --------------------------------------------------------------------------

# (dims, dtype kind, output grid, seed) cases for _trilinear_grid against its oracle
map_coordinates_cases = given(
    st.tuples(*[st.integers(1, 29)] * 3),
    st.sampled_from(["f32", "f64", "binary"]),
    st.one_of(
        st.tuples(*[st.floats(0.3, 4.0)] * 3).map(lambda s: ("iso", s)),
        st.tuples(*[st.integers(1, 64)] * 3).map(lambda d: ("align", d)),
    ),
    st.integers(0, 2**32 - 1),
)


def assert_bitwise_equal_to_map_coordinates(dims, kind, grid, seed):
    # compared as uint64 views, so -0.0 against 0.0 counts as a difference
    rng = np.random.default_rng(seed)
    if kind == "binary":
        data = (rng.random(dims) > 0.5).astype(np.uint8)
    else:
        data = rng.standard_normal(dims).astype(np.float32 if kind == "f32" else np.float64)
    if grid[0] == "iso":
        try:
            _, coords = _iso_grid(dims, grid[1])
        except DegenerateOutput:
            return
    else:
        coords = [np.array(c) for c in align_corners_coords(dims, grid[1])]
    ref = map_coordinates(
        np.asarray(data, dtype=np.float64),
        np.stack(np.meshgrid(*coords, indexing="ij")),
        order=1,
        mode="nearest",
    )
    out = _trilinear_grid(data, coords)
    assert out.shape == ref.shape
    assert np.array_equal(out.view(np.uint64), ref.view(np.uint64))


class TestResample:
    def test_identity_at_target_spacing(self):
        rng = np.random.default_rng(0)
        vol = dr.Volume3D(data=rng.random((4, 5, 6)), spacing=(1.0, 1.0, 1.0))
        out = dr.resample_isotropic(vol)
        assert out.dims == vol.dims
        assert np.array_equal(out.data, vol.data)

    def test_constant_field_exact(self):
        vol = dr.Volume3D(data=np.full((3, 4, 5), 2.5), spacing=(2.0, 1.5, 0.7))
        out = dr.resample_isotropic(vol)
        assert out.dims == (6, 6, 4)  # round(n*s) per axis
        assert out.spacing == (1.0, 1.0, 1.0)
        assert np.abs(out.data - 2.5).max() < 1e-6

    def test_lattice_points_preserved(self):
        rng = np.random.default_rng(1)
        data = rng.random((2, 2, 2))
        vol = dr.Volume3D(data=data, spacing=(2.0, 2.0, 2.0))
        out = dr.resample_isotropic(vol)
        assert out.dims == (4, 4, 4)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    assert abs(out.data[2 * i, 2 * j, 2 * k] - data[i, j, k]) < 1e-6

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            dims = tuple(rng.integers(2, 7, size=3))
            spacing = tuple(rng.uniform(0.6, 2.5, size=3))
            data = rng.standard_normal(dims)
            vol = dr.Volume3D(data=data, spacing=spacing)
            out = dr.resample_isotropic(vol)
            ref = resample_ref(data, spacing, 1.0)
            assert out.data.shape == ref.shape
            np.testing.assert_allclose(out.data, ref, rtol=1e-9, atol=1e-12)

    def test_degenerate_output(self):
        # an extent that rounds to 0 voxels, and one that overflows to inf
        for dims, spacing in [((1, 1, 1), (0.3, 1.0, 1.0)), ((4, 4, 4), (1e308, 1.0, 1.0))]:
            named = re.escape(f"resampling {dims} at spacing {spacing}")
            with pytest.raises(DegenerateOutput, match=named):
                dr.resample_isotropic(dr.Volume3D(data=np.zeros(dims), spacing=spacing))
            with pytest.raises(DegenerateOutput, match=named):
                resample_mask(dr.RoiMask(voxels=np.ones(dims, dtype=np.uint8)), spacing)

    def test_voxel_cap(self):
        assert MAX_VOXELS == 512**3
        assert _iso_grid((1024, 512, 512), (0.5, 1.0, 1.0))[0] == (512, 512, 512)
        over = re.escape("gives (512, 512, 513) voxels, more than the cap of 134217728")
        with pytest.raises(DegenerateOutput, match=over):
            _iso_grid((1024, 512, 513), (0.5, 1.0, 1.0))

    def test_grid_past_the_voxel_cap_is_degenerate_not_a_memory_error(self):
        # 4^3 voxels at 1 m resample to 4000^3, 477 GiB of float64; run where
        # the address space is capped, so the old code dies with a MemoryError
        proc = run_memory_limited("""
            import numpy as np
            import deepradiomics as dr
            from deepradiomics.errors import DegenerateOutput
            from deepradiomics.volume import resample_mask
            spacing = (1000.0, 1000.0, 1000.0)
            for resample in (
                lambda: dr.resample_isotropic(dr.Volume3D(data=np.zeros((4, 4, 4)), spacing=spacing)),
                lambda: resample_mask(dr.RoiMask(voxels=np.ones((4, 4, 4), dtype=np.uint8)), spacing),
            ):
                try:
                    resample()
                except DegenerateOutput as e:
                    print(e)
        """)
        assert proc.returncode == 0, proc.stderr[-3000:]
        message = (
            "resampling (4, 4, 4) at spacing (1000.0, 1000.0, 1000.0) to 1.0 mm gives"
            " (4000, 4000, 4000) voxels, more than the cap of 134217728"
        )
        assert proc.stdout.splitlines() == [message, message]

    @settings(max_examples=300, deadline=None)
    @map_coordinates_cases
    def test_bitwise_equal_to_map_coordinates(self, dims, kind, grid, seed):
        assert_bitwise_equal_to_map_coordinates(dims, kind, grid, seed)

    @settings(max_examples=150, deadline=None)
    @map_coordinates_cases
    def test_one_plane_slabs_bitwise_equal_to_map_coordinates(self, dims, kind, grid, seed):
        # a one-byte budget makes every x-plane its own slab
        with patch.object(volume, "_SLAB_BYTES", 1):
            assert_bitwise_equal_to_map_coordinates(dims, kind, grid, seed)

    @pytest.mark.parametrize("kind", ["volume", "mask"])
    def test_peak_memory_is_the_grid_and_one_slab(self, kind):
        # an anisotropic grid of about 10^6 output voxels; whole-grid
        # temporaries would peak at about 3.4x the float64 grid
        spacing = (0.94, 0.94, 5.0)
        rng = np.random.default_rng(11)
        if kind == "volume":
            vol = dr.Volume3D(data=rng.standard_normal((128, 128, 16)).astype(np.float32), spacing=spacing)
            resample = lambda: dr.resample_isotropic(vol).data
        else:
            mask = dr.RoiMask(voxels=(rng.random((128, 128, 16)) > 0.5).astype(np.uint8))
            resample = lambda: resample_mask(mask, spacing).voxels
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = resample()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (120, 120, 80)
        assert peak - base < 1.5 * out.size * 8

    @settings(max_examples=300, deadline=None)
    @given(
        dims=st.tuples(*[st.integers(2, 12)] * 3),
        spacing=st.tuples(*[st.sampled_from([0.3, 0.45, 0.94, 1.0, 1.3, 2.5, 5.0])] * 3),
        box=st.tuples(*[st.tuples(st.floats(0, 1), st.floats(0, 1))] * 3),
        density=st.sampled_from([0.0, 0.2, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dims=(5, 5, 5), spacing=(0.4, 0.4, 0.4), box=((0.5, 0.5),) * 3, density=1.0, seed=0)
    @example(dims=(7, 6, 3), spacing=(0.94, 0.94, 5.0), box=((1, 1), (0, 0), (1, 0)), density=1.0, seed=0)
    def test_support_limited_mask_resample_matches_whole_grid(self, dims, spacing, box, density, seed):
        # the box's corners are fractions of each axis: (0, 0) is the first
        # voxel, (1, 1) the last, so supports touch the grid's edges often
        rng = np.random.default_rng(seed)
        vox = np.zeros(dims, dtype=np.uint8)
        ends = [sorted(round(f * (n - 1)) for f in fs) for fs, n in zip(box, dims)]
        sl = tuple(slice(a, b + 1) for a, b in ends)
        vox[sl] = rng.random(vox[sl].shape) < density
        mask = dr.RoiMask(voxels=vox)
        np.testing.assert_array_equal(resample_mask(mask, spacing).voxels, resample_mask_ref(mask, spacing))

    def test_mask_resampling_stays_nonempty(self):
        vox = np.zeros((5, 5, 5), dtype=np.uint8)
        vox[2, 2, 2] = 1
        mask = dr.RoiMask(voxels=vox)
        small = resample_mask(mask, (0.4, 0.4, 0.4))
        assert small.dims == (2, 2, 2)
        assert small.count >= 1


# --------------------------------------------------------------------------
# intensity standardisation
# --------------------------------------------------------------------------

class TestStandardize:
    def test_two_point_range(self):
        vol = dr.Volume3D(data=np.array([0.0, 1.0]).reshape(2, 1, 1), spacing=(1, 1, 1))
        out = dr.standardize_intensity(vol)
        assert out.data[0, 0, 0] == 0.0
        assert out.data[1, 0, 0] == 255.0

    def test_constant_maps_to_zero(self):
        vol = dr.Volume3D(data=np.full((2, 2, 2), 7.0), spacing=(1, 1, 1))
        out = dr.standardize_intensity(vol)
        assert np.all(out.data == 0.0)

    def test_range_past_float64_is_nonfinite_data(self):
        # finite values whose range overflows would standardise to NaN
        vol = dr.Volume3D(data=np.array([-1e308, 1e308]).reshape(2, 1, 1), spacing=(1, 1, 1))
        with pytest.raises(NonFiniteData):
            dr.standardize_intensity(vol)

    def test_three_values(self):
        vol = dr.Volume3D(data=np.array([10.0, 20.0, 30.0]).reshape(3, 1, 1), spacing=(1, 1, 1))
        out = dr.standardize_intensity(vol)
        np.testing.assert_allclose(out.data.ravel(), [0.0, 127.5, 255.0])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_resample_then_standardize_in_range(self, seed):
        rng = np.random.default_rng(seed)
        dims = tuple(rng.integers(2, 6, size=3))
        spacing = tuple(rng.uniform(0.7, 2.0, size=3))
        vol = dr.Volume3D(data=rng.standard_normal(dims) * 50, spacing=spacing)
        out = dr.standardize_intensity(dr.resample_isotropic(vol))
        assert out.data.min() >= 0.0
        assert out.data.max() <= 255.0


# --------------------------------------------------------------------------
# network input extraction
# --------------------------------------------------------------------------

class TestExtractCnnInput:
    def test_full_mask_identity(self):
        rng = np.random.default_rng(5)
        data = rng.random((64, 64, 64))
        vol = dr.Volume3D(data=data, spacing=(1, 1, 1))
        mask = dr.RoiMask(voxels=np.ones((64, 64, 64), dtype=np.uint8))
        out, out_mask = extract_cnn_input(vol, mask)
        np.testing.assert_allclose(out.data, data, rtol=0, atol=1e-12)
        assert out_mask.count == 64**3

    def test_single_voxel_mask(self):
        data = np.zeros((10, 10, 10))
        data[4, 5, 6] = 5.0
        vox = np.zeros((10, 10, 10), dtype=np.uint8)
        vox[4, 5, 6] = 1
        out, out_mask = extract_cnn_input(
            dr.Volume3D(data=data, spacing=(1, 1, 1)), dr.RoiMask(voxels=vox)
        )
        assert out.dims == (64, 64, 64)
        # a single in-mask voxel blows up to one centred constant region
        assert label(out.data != 0)[1] == 1
        assert np.all(out.data == 5.0)
        assert out_mask.count == 64**3

    def test_cube_roi_fills_output(self):
        rng = np.random.default_rng(6)
        data = rng.random((48, 48, 48))
        vox = np.zeros((48, 48, 48), dtype=np.uint8)
        vox[8:40, 8:40, 8:40] = 1
        c = 3.25
        data[8:40, 8:40, 8:40] = c
        out, out_mask = extract_cnn_input(
            dr.Volume3D(data=data, spacing=(1, 1, 1)), dr.RoiMask(voxels=vox)
        )
        # 32^3 box scales by exactly 2 to span all 64 voxels per axis
        assert np.abs(out.data - c).max() < 1e-9
        assert out_mask.count == 64**3

    def test_geometry_matches_independent_resize(self):
        rng = np.random.default_rng(7)
        data = rng.random((20, 14, 9))
        vox = np.zeros((20, 14, 9), dtype=np.uint8)
        vox[2:18, 3:11, 1:7] = 1  # bbox 16 x 8 x 6
        vol = dr.Volume3D(data=data, spacing=(1, 1, 1))
        out, _ = extract_cnn_input(vol, dr.RoiMask(voxels=vox))
        box = np.where(vox.astype(bool), data, 0.0)[2:18, 3:11, 1:7]
        target = (64, 32, 24)  # 16,8,6 scaled by 64/16 = 4
        ref = resize_ref(box, target)
        off = tuple((64 - t) // 2 for t in target)
        inner = out.data[off[0]:off[0] + 64, off[1]:off[1] + 32, off[2]:off[2] + 24]
        np.testing.assert_allclose(inner, ref, rtol=1e-9, atol=1e-12)
        # everything outside the placed block is zero padding
        total = np.abs(out.data).sum()
        np.testing.assert_allclose(total, np.abs(ref).sum(), rtol=1e-9)

    @pytest.mark.parametrize("dims", [(7, 9, 12), (64, 64, 64), (100, 30, 5), (3, 3, 3)])
    def test_output_always_64(self, dims):
        rng = np.random.default_rng(8)
        vox = (rng.random(dims) > 0.6).astype(np.uint8)
        vox[tuple(d // 2 for d in dims)] = 1
        out, out_mask = extract_cnn_input(
            dr.Volume3D(data=rng.random(dims), spacing=(1, 1, 1)), dr.RoiMask(voxels=vox)
        )
        assert out.dims == (64, 64, 64)
        assert out_mask.dims == (64, 64, 64)
        assert out_mask.count >= 1

    def test_errors(self):
        vol = dr.Volume3D(data=np.zeros((4, 4, 4)), spacing=(1, 1, 1))
        with pytest.raises(EmptyMask):
            extract_cnn_input(vol, dr.RoiMask(voxels=np.zeros((4, 4, 4), dtype=np.uint8)))
        with pytest.raises(ShapeMismatch):
            extract_cnn_input(vol, dr.RoiMask(voxels=np.ones((3, 4, 4), dtype=np.uint8)))
