"""Fixed two-layer 3D convolutional network, inference only.

Architecture: 64^3 input -> [conv 2x2x2 stride 1 'same', ReLU, 2x2x2
max-pool stride 2] twice, giving 10 maps of 32^3 then 10 maps of 16^3.
Together with the raw input that yields the 21 activation volumes consumed
by the feature extractor.  Dropout exists only in training and is identity
here; the trailing fully-connected and softmax weights are carried as
metadata and never executed.

Weights file: one binary file whose first line is a JSON header (layer
shapes, provenance, format version) followed by a raw little-endian
float32 payload in `_SEGMENTS` order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    IndivisibleDims,
    MalformedWeights,
    ManifestInvalid,
    NonFiniteWeights,
    ShapeMismatch,
    WeightsMissing,
    is_int_at_least,
    json_object,
    read_input,
    write_output,
)
from .volume import CNN_INPUT_SIZE, RoiMask, Volume3D

WEIGHTS_FORMAT_VERSION = 1

N_FILTERS = 10
KERNEL = 2
CONV1_SHAPE = (N_FILTERS, KERNEL, KERNEL, KERNEL, 1)
CONV2_SHAPE = (N_FILTERS, KERNEL, KERNEL, KERNEL, N_FILTERS)
N_MAPS = 1 + 2 * N_FILTERS

# Weights-file segments in payload order.  The first _N_REQUIRED are always
# present; the fc and softmax (weight, bias) pairs after them are optional,
# and the header declares an absent one as null.
_SEGMENTS = ("conv1", "bias1", "conv2", "bias2", "fc_w", "fc_b", "softmax_w", "softmax_b")
_N_REQUIRED = 4


@dataclass(frozen=True)
class CnnWeights:
    """Filter tensors, laid out (out_channels, kx, ky, kz, in_channels)."""

    conv1: np.ndarray
    bias1: np.ndarray
    conv2: np.ndarray
    bias2: np.ndarray
    fc: tuple[np.ndarray, np.ndarray] | None = None
    softmax: tuple[np.ndarray, np.ndarray] | None = None
    provenance: str = ""

    def __post_init__(self):
        if self.conv1.shape != CONV1_SHAPE or self.bias1.shape != (N_FILTERS,):
            raise MalformedWeights(
                f"layer 1 must be {CONV1_SHAPE} + ({N_FILTERS},) bias, "
                f"got {self.conv1.shape} + {self.bias1.shape}"
            )
        if self.conv2.shape != CONV2_SHAPE or self.bias2.shape != (N_FILTERS,):
            raise MalformedWeights(
                f"layer 2 must be {CONV2_SHAPE} + ({N_FILTERS},) bias, "
                f"got {self.conv2.shape} + {self.bias2.shape}"
            )
        for arr in self._segments().values():
            if arr is not None and not np.isfinite(arr).all():
                raise NonFiniteWeights("weights contain NaN or Inf")

    def _segments(self) -> dict[str, np.ndarray | None]:
        """Each of _SEGMENTS mapped to its array, or to None for an absent pair."""
        arrays = [getattr(self, name) for name in _SEGMENTS[:_N_REQUIRED]]
        for pair in (self.fc, self.softmax):
            arrays += pair or (None, None)
        return dict(zip(_SEGMENTS, arrays))


@dataclass(frozen=True)
class ActivationSet:
    """The 21 activation volumes of one forward pass plus per-scale masks.

    Map order is fixed: index 0 is the raw network input, 1..10 the first
    convolutional layer, 11..20 the second.
    """

    input_map: Volume3D
    layer1_maps: tuple[Volume3D, ...]
    layer2_maps: tuple[Volume3D, ...]
    mask64: RoiMask
    mask32: RoiMask
    mask16: RoiMask

    n_maps = N_MAPS  # a class constant, not a field

    def __post_init__(self):
        if len(self.layer1_maps) != N_FILTERS or len(self.layer2_maps) != N_FILTERS:
            raise ShapeMismatch("expected 10 maps per convolutional layer")

    def maps_with_masks(self) -> list[tuple[Volume3D, RoiMask]]:
        """All 21 (map, matching-resolution mask) pairs in canonical order."""
        pairs = [(self.input_map, self.mask64)]
        pairs += [(m, self.mask32) for m in self.layer1_maps]
        pairs += [(m, self.mask16) for m in self.layer2_maps]
        return pairs


# --------------------------------------------------------------------------
# weights I/O
# --------------------------------------------------------------------------

def _declared_segments(header: dict, p: Path) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of each declared payload segment, in payload order."""
    segs = []
    for i, name in enumerate(_SEGMENTS):
        shape = header.get(name)
        if shape is None and i >= _N_REQUIRED:
            continue
        if not isinstance(shape, list) or not all(is_int_at_least(d, 0) for d in shape):
            raise MalformedWeights(
                f"{p}: shape of {name} must be a list of non-negative integers, got {shape!r}"
            )
        segs.append((name, tuple(shape)))
    return segs


def save_weights(w: CnnWeights, path) -> None:
    segs = w._segments()
    header = {"version": WEIGHTS_FORMAT_VERSION, "provenance": w.provenance}
    header.update((name, None if a is None else list(a.shape)) for name, a in segs.items())
    blobs = [np.asarray(a, dtype="<f4").tobytes() for a in segs.values() if a is not None]
    head = json.dumps(header, sort_keys=True).encode() + b"\n"
    write_output(path, head + b"".join(blobs), "weights file")


def load_weights(path) -> CnnWeights:
    """Load and shape-validate a weights file."""
    p = Path(path)
    raw = read_input(p, "weights file", MalformedWeights, WeightsMissing, binary=True)
    nl = raw.find(b"\n")
    if nl < 0:
        raise MalformedWeights(f"{p}: missing header line")
    header = json_object(raw[:nl], p, MalformedWeights)
    if header.get("version") != WEIGHTS_FORMAT_VERSION:
        raise MalformedWeights(f"{p}: unsupported format version {header.get('version')!r}")

    segs = _declared_segments(header, p)
    payload = raw[nl + 1:]
    expected = sum(math.prod(shape) for _, shape in segs)
    if len(payload) != 4 * expected:
        raise MalformedWeights(
            f"{p}: payload has {len(payload)} bytes, header declares {4 * expected}"
        )
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in segs:
        n = math.prod(shape)
        try:
            flat = np.frombuffer(payload, dtype="<f4", count=n, offset=offset)
            arrays[name] = flat.reshape(shape).astype(np.float64)
        except ValueError as e:  # an empty segment with a dimension numpy cannot index
            raise MalformedWeights(f"{p}: shape of {name} {shape!r} is too large: {e}") from e
        offset += 4 * n
    for arr in arrays.values():
        if not np.isfinite(arr).all():
            raise NonFiniteWeights(f"{p}: weights contain NaN or Inf")

    fc_w, fc_b, softmax_w, softmax_b = (arrays.get(name) for name in _SEGMENTS[_N_REQUIRED:])
    if (fc_w is None) != (fc_b is None) or (softmax_w is None) != (softmax_b is None):
        raise MalformedWeights(f"{p}: fc/softmax weight and bias must be declared together")
    return CnnWeights(
        **{name: arrays[name] for name in _SEGMENTS[:_N_REQUIRED]},
        fc=None if fc_w is None else (fc_w, fc_b),
        softmax=None if softmax_w is None else (softmax_w, softmax_b),
        provenance=str(header.get("provenance", "")),
    )


def generate_test_weights(seed: int) -> CnnWeights:
    """Deterministic stand-in weights, uniform on (-0.5, 0.5).

    Draw order is fixed (conv1, bias1, conv2, bias2 from one PCG64 stream)
    so a given seed always yields bit-identical weights.
    """
    if seed < 0:  # numpy would raise a bare ValueError
        raise ManifestInvalid(f"weights seed must be an integer >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    return CnnWeights(
        conv1=rng.uniform(-0.5, 0.5, CONV1_SHAPE),
        bias1=rng.uniform(-0.5, 0.5, (N_FILTERS,)),
        conv2=rng.uniform(-0.5, 0.5, CONV2_SHAPE),
        bias2=rng.uniform(-0.5, 0.5, (N_FILTERS,)),
        provenance=f"seed:{seed}",
    )


# --------------------------------------------------------------------------
# primitive ops
# --------------------------------------------------------------------------

def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def _pad_amounts(n: int, k: int, stride: int, padding: str) -> tuple[int, int, int]:
    """Returns (pad_before, pad_after, out_size) for one spatial axis."""
    if padding == "same":
        out = -(-n // stride)  # ceil
        needed = max(0, (out - 1) * stride + k - n)
        return needed // 2, needed - needed // 2, out
    if padding == "valid":
        if n < k:
            raise ShapeMismatch(f"axis of size {n} too small for kernel {k}")
        return 0, 0, (n - k) // stride + 1
    raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")


def conv3d(
    x: np.ndarray,
    filters: np.ndarray,
    bias: np.ndarray,
    stride: int = 1,
    padding: str = "same",
) -> np.ndarray:
    """Strided 3D cross-correlation.

    `x` is (in_channels, X, Y, Z); `filters` is (out_channels, kx, ky, kz,
    in_channels).  'same' pads with zeros so output dims = ceil(in/stride),
    splitting any odd padding with the extra voxel at the high end.
    """
    x = np.asarray(x, dtype=np.float64)
    filters = np.asarray(filters, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if x.ndim != 4 or filters.ndim != 5:
        raise ShapeMismatch(f"expected 4D input and 5D filters, got {x.ndim}D / {filters.ndim}D")
    c_out, kx, ky, kz, c_in = filters.shape
    if x.shape[0] != c_in:
        raise ShapeMismatch(f"input has {x.shape[0]} channels, filters expect {c_in}")
    if bias.shape != (c_out,):
        raise ShapeMismatch(f"bias shape {bias.shape} != ({c_out},)")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")

    pads, outs = [], []
    for axis, k in zip(x.shape[1:], (kx, ky, kz)):
        before, after, out = _pad_amounts(axis, k, stride, padding)
        pads.append((before, after))
        outs.append(out)
    xp = np.pad(x, [(0, 0)] + pads)

    result = np.empty((c_out, *outs), dtype=np.float64)
    result[:] = bias[:, None, None, None]
    for dx in range(kx):
        for dy in range(ky):
            for dz in range(kz):
                sl = xp[
                    :,
                    dx : dx + (outs[0] - 1) * stride + 1 : stride,
                    dy : dy + (outs[1] - 1) * stride + 1 : stride,
                    dz : dz + (outs[2] - 1) * stride + 1 : stride,
                ]
                # (c_out, c_in) . (c_in, X, Y, Z) accumulated per kernel offset
                result += np.tensordot(filters[:, dx, dy, dz, :], sl, axes=([1], [0]))
    return result


def _block_max(a: np.ndarray) -> np.ndarray:
    """Maximum over each 2x2x2 block of the last three axes (all even).

    One pairwise np.maximum per axis: exactly the block maximum, and much
    cheaper than a reduction over a strided 6-D reshape view.
    """
    a = np.maximum(a[..., 0::2, :, :], a[..., 1::2, :, :])
    a = np.maximum(a[..., 0::2, :], a[..., 1::2, :])
    return np.maximum(a[..., 0::2], a[..., 1::2])


def maxpool3d(x: np.ndarray) -> np.ndarray:
    """2x2x2 max pooling with stride 2; spatial dims must be even."""
    x = np.asarray(x)
    if x.ndim != 4:
        raise ShapeMismatch(f"expected (channels, X, Y, Z), got {x.shape}")
    if any(n % 2 for n in x.shape[1:]):
        raise IndivisibleDims(f"spatial dims {x.shape[1:]} not divisible by 2")
    return _block_max(x)


def downsample_mask(mask: RoiMask) -> RoiMask:
    """Halve a mask: a coarse voxel is in-ROI iff any of its 2^3 children is."""
    v = mask.voxels
    if any(n % 2 for n in v.shape):
        raise IndivisibleDims(f"mask dims {v.shape} not divisible by 2")
    return RoiMask(voxels=_block_max(v))


# --------------------------------------------------------------------------
# forward pass
# --------------------------------------------------------------------------

def _conv_relu_pool(x: np.ndarray, filters: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """maxpool3d(relu(conv3d(x, filters, bias, padding="same"))), two planes at a time.

    For a 2-wide kernel, 'same' padding is one zero plane at the high end of
    each axis.  Pooled output plane i needs conv planes 2i and 2i+1, which
    read padded input planes 2i..2i+2, so each slab goes through the same
    float operations in the same order as the whole volume would: the
    result is bit-identical, and only one slab's conv output is ever alive.
    """
    xp = np.pad(x, [(0, 0), (0, 1), (0, 1), (0, 1)])
    n = x.shape[1]
    out = np.empty((filters.shape[0], n // 2, n // 2, n // 2))
    for i in range(0, n, 2):
        slab = conv3d(xp[:, i : i + 3], filters, bias, stride=1, padding="valid")
        out[:, i // 2 : i // 2 + 1] = maxpool3d(relu(slab))
    return out


def forward(input64: Volume3D, mask64: RoiMask, weights: CnnWeights) -> ActivationSet:
    """Run the fixed network on one 64^3 input volume.

    Pure function of (input, weights); returns all 21 activation maps and
    the ROI mask max-downsampled to each map resolution.
    """
    size = CNN_INPUT_SIZE
    if input64.dims != (size, size, size):
        raise ShapeMismatch(f"network input must be {size}^3, got {input64.dims}")
    if mask64.dims != input64.dims:
        raise ShapeMismatch(f"mask dims {mask64.dims} != input dims {input64.dims}")

    x0 = np.asarray(input64.data, dtype=np.float64)[None]
    a1 = _conv_relu_pool(x0, weights.conv1, weights.bias1)
    a2 = _conv_relu_pool(a1, weights.conv2, weights.bias2)

    mask32 = downsample_mask(mask64)
    mask16 = downsample_mask(mask32)

    def as_volume(arr: np.ndarray, mm: float) -> Volume3D:
        return Volume3D(data=arr, spacing=(mm, mm, mm), modality="DERIVED")

    return ActivationSet(
        input_map=input64,
        layer1_maps=tuple(as_volume(a1[i], 2.0) for i in range(N_FILTERS)),
        layer2_maps=tuple(as_volume(a2[i], 4.0) for i in range(N_FILTERS)),
        mask64=mask64,
        mask32=mask32,
        mask16=mask16,
    )
