"""3D volume and ROI-mask handling.

File format: a pair of files per volume, `<name>.vol.json` (header) and
`<name>.vol.raw` (payload).  The header declares dims, spacing and dtype;
the payload is raw little-endian float32 (volumes) or uint8 in {0, 1}
(masks), x-fastest.  Resampling is trilinear on a voxel grid whose first
voxel centre sits at the physical origin, so a volume with spacing s has
voxel i at physical position i*s along each axis.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateOutput,
    EmptyMask,
    MalformedHeader,
    MissingFile,
    NonFiniteData,
    ShapeMismatch,
    is_int_at_least,
    json_object,
    read_input,
    write_output,
)

MODALITIES = ("T1WI", "T1CE", "T2WI", "FLAIR", "DERIVED")

ISO_MM = 1.0  # isotropic voxel size the network input is resampled to
MAX_VOXELS = 2**27  # largest resampled grid, 1 GiB of float64
_SLAB_BYTES = 2**20  # float64 output that _trilinear_grid computes per x-slab
CNN_INPUT_SIZE = 64


def _real_array(value, name: str) -> np.ndarray:
    """`value` as an array of real numbers in its own dtype, else MalformedHeader."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError) as e:  # a ragged nested list, say
        raise MalformedHeader(f"{name} is not an array: {e}") from e
    if arr.dtype.kind not in "biuf":
        raise MalformedHeader(f"{name} must hold real numbers, got dtype {arr.dtype}")
    return arr


@dataclass(frozen=True)
class Volume3D:
    """A scalar 3D grid with voxel spacing in millimetres.

    `data` has shape (nx, ny, nz) and is treated as read-only.
    """

    data: np.ndarray
    spacing: tuple[float, float, float]
    modality: str = "DERIVED"

    def __post_init__(self):
        object.__setattr__(self, "data", _real_array(self.data, "volume data"))
        if self.data.ndim != 3 or min(self.data.shape) < 1:
            raise ShapeMismatch(f"volume data must be 3D, got shape {self.data.shape}")
        spacing = _real_array(self.spacing, "spacing")
        # np.asarray((True, 1, 1)) is an int array, so bools are found element by element
        if (
            spacing.shape != (3,)
            or any(isinstance(s, (bool, np.bool_)) for s in self.spacing)
            or not (np.isfinite(spacing) & (spacing > 0)).all()
        ):
            raise MalformedHeader(f"spacing must be positive and finite, got {self.spacing}")
        if self.modality not in MODALITIES:
            raise MalformedHeader(f"unknown modality {self.modality!r}")
        if not np.isfinite(self.data).all():
            raise NonFiniteData("volume contains NaN or Inf")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass(frozen=True)
class RoiMask:
    """Binary tumour mask aligned voxel-for-voxel to a Volume3D."""

    voxels: np.ndarray  # uint8, values in {0, 1}

    def __post_init__(self):
        object.__setattr__(self, "voxels", _real_array(self.voxels, "mask voxels"))
        if self.voxels.ndim != 3:
            raise ShapeMismatch(f"mask must be 3D, got shape {self.voxels.shape}")
        if self.voxels.dtype.kind in "bu":  # max() allocates no whole-grid temporaries
            ok = self.voxels.size == 0 or self.voxels.max() <= 1
        else:
            ok = not ((self.voxels != 0) & (self.voxels != 1)).any()
        if not ok:
            raise MalformedHeader("mask voxels must be 0 or 1")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.voxels.shape

    @property
    def count(self) -> int:
        return int(self.voxels.sum())


# --------------------------------------------------------------------------
# file format
# --------------------------------------------------------------------------

def _sidecar_paths(path) -> tuple[Path, Path]:
    p = Path(path)
    name = p.name.removesuffix(".vol.json")
    stem = name if name != p.name else name.removesuffix(".vol.raw")
    return p.with_name(stem + ".vol.json"), p.with_name(stem + ".vol.raw")


# sidecar dtype name -> payload dtype
_DTYPES = {"f32le": np.dtype("<f4"), "u8": np.dtype(np.uint8)}


def _is_spacing(s) -> bool:
    # the upper bound also rejects ints too large to convert to float
    return isinstance(s, (int, float)) and not isinstance(s, bool) and 0 < s <= sys.float_info.max


def read_header(path) -> dict:
    """Parse and validate a `.vol.json` sidecar; returns the header dict."""
    side, _ = _sidecar_paths(path)
    hdr = json_object(read_input(side, "sidecar", MalformedHeader, MissingFile), side, MalformedHeader)
    dims = hdr.get("dims")
    spacing = hdr.get("spacing_mm")
    dtype = hdr.get("dtype")
    if not isinstance(dims, list) or len(dims) != 3 or not all(is_int_at_least(d, 1) for d in dims):
        raise MalformedHeader(f"{side}: bad dims {dims!r}")
    if not isinstance(spacing, list) or len(spacing) != 3 or not all(map(_is_spacing, spacing)):
        raise MalformedHeader(f"{side}: bad spacing_mm {spacing!r}")
    if not isinstance(dtype, str) or dtype not in _DTYPES:
        raise MalformedHeader(f"{side}: bad dtype {dtype!r}")
    return hdr


def _load_pair(path, dtype: str) -> tuple[dict, np.ndarray]:
    """Header and payload array of a sidecar pair whose dtype must be `dtype`."""
    side, raw = _sidecar_paths(path)
    hdr = read_header(path)
    if hdr["dtype"] != dtype:
        raise MalformedHeader(f"{side}: expected dtype {dtype}, got {hdr['dtype']!r}")
    payload = read_input(raw, "payload", MalformedHeader, MissingFile, binary=True)
    nbytes = _DTYPES[dtype].itemsize * math.prod(hdr["dims"])
    if len(payload) != nbytes:
        raise MalformedHeader(f"{raw}: payload has {len(payload)} bytes, header declares {nbytes}")
    data = np.frombuffer(payload, dtype=_DTYPES[dtype]).reshape(hdr["dims"], order="F")
    return hdr, data.copy()


def _save_pair(path, data: np.ndarray, spacing, dtype: str, modality: str) -> None:
    side, raw = _sidecar_paths(path)
    hdr = {
        "dims": [int(d) for d in data.shape],
        "spacing_mm": [float(s) for s in spacing],
        "dtype": dtype,
        "modality": modality,
    }
    write_output(side, json.dumps(hdr, sort_keys=True) + "\n", "sidecar")
    write_output(raw, np.asarray(data, dtype=_DTYPES[dtype]).tobytes(order="F"), "payload")


def load_volume(path) -> Volume3D:
    """Load a float32 volume from its `.vol.json` / `.vol.raw` pair."""
    hdr, data = _load_pair(path, "f32le")
    side, _ = _sidecar_paths(path)
    try:
        return Volume3D(data, tuple(map(float, hdr["spacing_mm"])), hdr.get("modality", "DERIVED"))
    except (MalformedHeader, NonFiniteData) as e:
        raise type(e)(f"{side}: {e}") from e


def save_volume(vol: Volume3D, path) -> None:
    """Write a volume as a `.vol.json` / `.vol.raw` pair (float32 payload)."""
    _save_pair(path, vol.data, vol.spacing, "f32le", vol.modality)


def load_mask(path) -> RoiMask:
    """Load a binary mask from its sidecar pair (dtype u8)."""
    return RoiMask(voxels=_load_pair(path, "u8")[1])


def save_mask(mask: RoiMask, path, spacing=(1.0, 1.0, 1.0)) -> None:
    _save_pair(path, mask.voxels, spacing, "u8", "DERIVED")


# --------------------------------------------------------------------------
# resampling and intensity normalisation
# --------------------------------------------------------------------------

def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _iso_grid(dims, spacing) -> tuple[tuple[int, int, int], list[np.ndarray]]:
    """Dims of the ISO_MM grid and, per axis, its voxel centres in source voxel units."""
    extent = [n * s / ISO_MM for n, s in zip(dims, spacing)]
    if not all(math.isfinite(e) and _round_half_up(e) >= 1 for e in extent):
        raise DegenerateOutput(
            f"resampling {dims} at spacing {spacing} to {ISO_MM} mm gives {extent} voxels per axis"
        )
    out = tuple(map(_round_half_up, extent))
    if math.prod(out) > MAX_VOXELS:
        raise DegenerateOutput(
            f"resampling {dims} at spacing {spacing} to {ISO_MM} mm gives {out} voxels,"
            f" more than the cap of {MAX_VOXELS}"
        )
    return out, [np.arange(od, dtype=np.float64) * (ISO_MM / s) for od, s in zip(out, spacing)]


def _trilinear_grid(data: np.ndarray, coords_1d: list[np.ndarray]) -> np.ndarray:
    """Trilinear interpolation of `data` on the separable grid of coords.

    Coordinates are in voxel-index space.  Corner indices, not coordinates,
    are clamped to the grid: a point t past the last voxel v gets
    (1-t)*v + (1-(1-t))*v.  tests/test_volume.py pins the float operations
    (w1 = 1-w0, ((v*wx)*wy)*wz, x-major sum) bit for bit to a reference.

    The output is filled in x-slabs of about _SLAB_BYTES, so besides the
    float64 output only one slab's temporaries are alive: the gathered x
    planes, their y-interpolated planes and one corner's product.  Every
    output voxel goes through the same operations whatever the slab, so
    the result does not depend on the slab height.
    """
    corners = []
    for c, n in zip(coords_1d, data.shape):
        f = np.floor(c)
        w0 = 1.0 - (c - f)
        i0 = f.astype(np.intp)
        corners.append([(np.clip(i0, 0, n - 1), w0), (np.clip(i0 + 1, 0, n - 1), 1.0 - w0)])
    out = np.zeros([len(c) for c in coords_1d])
    height = max(1, _SLAB_BYTES // out[0].nbytes)
    for a in range(0, len(out), height):
        xs = slice(a, a + height)
        slab = out[xs]
        for ix, wx in corners[0]:
            vx = data[ix[xs]] * wx[xs, None, None]  # float64 whatever data's dtype
            for iy, wy in corners[1]:
                vy = vx[:, iy]
                vy *= wy[:, None]
                for iz, wz in corners[2]:
                    vz = vy[:, :, iz]
                    vz *= wz
                    slab += vz
    return out


def resample_isotropic(vol: Volume3D) -> Volume3D:
    """Resample to an isotropic grid of ISO_MM millimetre voxels.

    Output dims are round(n*s/ISO_MM) per axis; values come from trilinear
    interpolation at the new voxel centres.  A volume already at ISO_MM
    spacing is returned unchanged.
    """
    if all(s == ISO_MM for s in vol.spacing):
        return vol
    _, coords = _iso_grid(vol.dims, vol.spacing)
    data = _trilinear_grid(vol.data, coords)
    return Volume3D(data=data, spacing=(ISO_MM,) * 3, modality=vol.modality)


def resample_mask(mask: RoiMask, spacing) -> RoiMask:
    """Resample a binary mask onto the grid resample_isotropic would produce.

    The mask is interpolated as a float field and re-binarised at 0.5.  A
    nonempty input is guaranteed to stay nonempty: if thresholding empties
    it, the voxel nearest the ROI centroid is switched back on.
    """
    if all(s == ISO_MM for s in spacing):
        return mask
    out_dims, coords = _iso_grid(mask.dims, spacing)
    voxels = (_trilinear_grid(mask.voxels, coords) > 0.5).view(np.uint8)
    if mask.count > 0 and voxels.sum() == 0:
        centroid = [float(c.mean()) for c in np.nonzero(mask.voxels)]
        idx = tuple(
            min(out_dims[a] - 1, max(0, _round_half_up(centroid[a] * spacing[a] / ISO_MM)))
            for a in range(3)
        )
        voxels[idx] = 1
    return RoiMask(voxels=voxels)


def standardize_intensity(vol: Volume3D) -> Volume3D:
    """Rescale values to [0, 255]; a constant volume maps to all zeros.

    Builds one float64 output array, 255*(x-lo)/(hi-lo) computed in place
    in that order, and leaves `vol` untouched.
    """
    lo = float(vol.data.min())
    hi = float(vol.data.max())
    if hi == lo:
        data = np.zeros(vol.dims, dtype=np.float64)
    else:
        data = np.subtract(vol.data, lo, dtype=np.float64)
        data *= 255.0
        data /= hi - lo
        np.clip(data, 0.0, 255.0, out=data)  # shave 1-ulp rounding overshoot
    return Volume3D(data=data, spacing=vol.spacing, modality=vol.modality)


# --------------------------------------------------------------------------
# fixed-size network input extraction
# --------------------------------------------------------------------------

def _resize_align_corners(data: np.ndarray, out_dims) -> np.ndarray:
    """Trilinear resize mapping the corners of `data` onto the output corners."""
    coords = []
    for n_in, n_out in zip(data.shape, out_dims):
        if n_out == 1:
            coords.append(np.array([(n_in - 1) / 2.0]))
        else:
            coords.append(np.arange(n_out, dtype=np.float64) * ((n_in - 1) / (n_out - 1)))
    return _trilinear_grid(data, coords)


def extract_cnn_input(vol: Volume3D, mask: RoiMask) -> tuple[Volume3D, RoiMask]:
    """Cut the ROI bounding box out of `vol` and fit it into a CNN_INPUT_SIZE^3 cube.

    Out-of-mask voxels of the box are zeroed first; nothing the size of the
    whole grid is allocated.  The box is scaled by a single factor (largest
    axis -> CNN_INPUT_SIZE) so aspect ratio is preserved, then zero-padded
    to centre it.  Returns the cube and a matching binary mask (threshold
    0.5 after the same resize; never empty).
    """
    if vol.dims != mask.dims:
        raise ShapeMismatch(f"volume dims {vol.dims} != mask dims {mask.dims}")
    if mask.count == 0:
        raise EmptyMask("cannot extract network input from an empty mask")

    idx = np.nonzero(mask.voxels)
    roi = tuple(slice(int(i.min()), int(i.max()) + 1) for i in idx)
    inside = mask.voxels[roi].astype(bool)
    box = np.where(inside, np.asarray(vol.data[roi], dtype=np.float64), 0.0)
    box_mask = inside.astype(np.float64)

    size = CNN_INPUT_SIZE
    scale = size / max(box.shape)
    target = tuple(min(size, max(1, _round_half_up(b * scale))) for b in box.shape)
    resized = _resize_align_corners(box, target)
    resized_mask = _resize_align_corners(box_mask, target) > 0.5

    cube = np.zeros((size, size, size), dtype=np.float64)
    cube_mask = np.zeros((size, size, size), dtype=np.uint8)
    off = tuple((size - t) // 2 for t in target)
    sl = tuple(slice(o, o + t) for o, t in zip(off, target))
    cube[sl] = resized
    cube_mask[sl] = resized_mask.astype(np.uint8)
    if cube_mask.sum() == 0:
        # degenerate resize: re-seed at the box centre so downstream
        # histogram collection always has at least one voxel
        centre = tuple(o + (t - 1) // 2 for o, t in zip(off, target))
        cube_mask[centre] = 1

    out = Volume3D(data=cube, spacing=(ISO_MM,) * 3, modality=vol.modality)
    return out, RoiMask(voxels=cube_mask)
