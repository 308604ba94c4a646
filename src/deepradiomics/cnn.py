"""Fixed two-layer 3D convolutional network, inference only.

Architecture: 64^3 input -> [conv 2x2x2 stride 1 'same', ReLU, 2x2x2
max-pool stride 2] twice, giving 10 maps of 32^3 then 10 maps of 16^3.
Together with the raw input that yields the 21 activation volumes consumed
by the feature extractor.

Weights file: one binary file whose first line is a JSON header (layer
shapes, provenance, format version) followed by a raw little-endian
float32 payload holding the `_SHAPES` arrays in that order.
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
from .volume import CNN_INPUT_SIZE, RoiMask, Volume3D, _computed_volume

WEIGHTS_FORMAT_VERSION = 1

N_FILTERS = 10
KERNEL = 2
CONV1_SHAPE = (N_FILTERS, KERNEL, KERNEL, KERNEL, 1)
CONV2_SHAPE = (N_FILTERS, KERNEL, KERNEL, KERNEL, N_FILTERS)
N_MAPS = 1 + 2 * N_FILTERS

# The arrays a weights file holds, in payload order, each with its one valid shape
_SHAPES = {
    "conv1": CONV1_SHAPE,
    "bias1": (N_FILTERS,),
    "conv2": CONV2_SHAPE,
    "bias2": (N_FILTERS,),
}
_N_FLOATS = sum(math.prod(shape) for shape in _SHAPES.values())  # 900


@dataclass(frozen=True)
class CnnWeights:
    """Filter tensors, laid out (out_channels, kx, ky, kz, in_channels)."""

    conv1: np.ndarray
    bias1: np.ndarray
    conv2: np.ndarray
    bias2: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        for name, shape in _SHAPES.items():
            try:
                arr = np.asarray(getattr(self, name), dtype=np.float64)
            except (TypeError, ValueError) as e:
                raise MalformedWeights(f"{name} is not a float array: {e}") from e
            object.__setattr__(self, name, arr)
            if arr.shape != shape:
                raise MalformedWeights(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.isfinite(arr).all():
                raise NonFiniteWeights("weights contain NaN or Inf")


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

def save_weights(w: CnnWeights, path) -> None:
    header = {"version": WEIGHTS_FORMAT_VERSION, "provenance": w.provenance}
    header.update((name, list(shape)) for name, shape in _SHAPES.items())
    head = json.dumps(header, sort_keys=True).encode() + b"\n"
    payload = b"".join(np.asarray(getattr(w, name), dtype="<f4").tobytes() for name in _SHAPES)
    write_output(path, head + payload, "weights file")


def load_weights(path) -> CnnWeights:
    """Load a weights file and check it against the fixed network's shapes.

    Any other header key must be null: files written before the format
    dropped its fc and softmax entries declare them so, and still load.
    """
    p = Path(path)
    raw = read_input(p, "weights file", MalformedWeights, WeightsMissing, binary=True)
    nl = raw.find(b"\n")
    if nl < 0:
        raise MalformedWeights(f"{p}: missing header line")
    header = json_object(raw[:nl], p, MalformedWeights)
    if header.get("version") != WEIGHTS_FORMAT_VERSION:
        raise MalformedWeights(f"{p}: unsupported format version {header.get('version')!r}")
    for name, shape in _SHAPES.items():
        got = header.get(name)
        if got != list(shape) or not all(is_int_at_least(d, 1) for d in got):
            raise MalformedWeights(f"{p}: shape of {name} must be {list(shape)}, got {got!r}")
    known = (*_SHAPES, "version", "provenance")
    extra = sorted(k for k, v in header.items() if k not in known and v is not None)
    if extra:
        raise MalformedWeights(f"{p}: header declares what the network does not hold: {', '.join(extra)}")

    payload = raw[nl + 1:]
    if len(payload) != 4 * _N_FLOATS:
        raise MalformedWeights(f"{p}: payload has {len(payload)} bytes, expected {4 * _N_FLOATS}")
    flat = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    if not np.isfinite(flat).all():
        raise NonFiniteWeights(f"{p}: weights contain NaN or Inf")
    arrays, start = {}, 0
    for name, shape in _SHAPES.items():
        n = math.prod(shape)
        arrays[name] = flat[start : start + n].reshape(shape)
        start += n
    return CnnWeights(**arrays, provenance=str(header.get("provenance", "")))


def generate_test_weights(seed: int) -> CnnWeights:
    """Deterministic stand-in weights, uniform on (-0.5, 0.5).

    Draw order is fixed (the `_SHAPES` arrays in order, from one PCG64
    stream) so a given seed always yields bit-identical weights.
    """
    if seed < 0:  # numpy would raise a bare ValueError
        raise ManifestInvalid(f"weights seed must be an integer >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    return CnnWeights(
        **{name: rng.uniform(-0.5, 0.5, shape) for name, shape in _SHAPES.items()},
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
    xp = np.pad(x, [(0, 0)] + pads) if any(map(any, pads)) else x

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

def _conv_relu_pool(x: np.ndarray, filters: np.ndarray, bias: np.ndarray, background: np.ndarray):
    """maxpool3d(relu(conv3d(x, filters, bias, padding="same"))), and its background.

    Pooled voxel (i, j, k) reads the window 2i..2i+2 x 2j..2j+2 x 2k..2k+2
    of the input zero-padded at the high end.  If every window voxel has
    the bits of `background` (one value per channel), the voxel is the
    output of a 3x3x3 background block, computed once by the same ops; so
    each two-plane slab convolves only the pooled rows and columns whose
    windows differ.  A background other than +0.0 differs from the pad,
    so the last pooled plane, row and column are then one call each.  No
    voxel's ops depend on its block, so the output is the whole volume's,
    bit for bit.  The background returned is NaN when no output voxel is.
    """
    h = x.shape[1] // 2
    bits = np.asarray(background, dtype=np.float64)[:, None, None, None].view(np.uint64)
    stop = h - 1 if bits.any() else h
    blocks = [((stop, h), (0, h), (0, h)), ((0, stop), (stop, h), (0, h)), ((0, stop), (0, stop), (stop, h))]
    for i in range(stop):
        differs = (x[:, 2 * i : 2 * i + 3].view(np.uint64) != bits).any(axis=(0, 1))
        hits = [np.flatnonzero(differs.any(axis=axis)) for axis in (1, 0)]  # rows, columns
        if hits[0].size:
            spans = [(max(int(k[0]) - 1, 0) // 2, min(int(k[-1]) // 2 + 1, stop)) for k in hits]
            blocks.append(((i, i + 1), *spans))
    blocks = [block for block in blocks if all(a < b for a, b in block)]
    out, out_background = np.empty((len(filters), h, h, h)), np.full(len(filters), np.nan)
    if sum(math.prod(b - a for a, b in block) for block in blocks) < h**3:
        block = np.broadcast_to(bits.view(np.float64), (len(bits), 3, 3, 3))
        out_background = maxpool3d(relu(conv3d(block, filters, bias, padding="valid")))[:, 0, 0, 0]
        out[:] = out_background[:, None, None, None]
    for block in blocks:
        planes = x[(slice(None), *(slice(2 * a, 2 * b + 1) for a, b in block))]
        pads = [(0, 2 * (b - a) + 1 - m) for (a, b), m in zip(block, planes.shape[1:])]
        slab = conv3d(np.pad(planes, [(0, 0), *pads]), filters, bias, stride=1, padding="valid")
        out[(slice(None), *(slice(a, b) for a, b in block))] = maxpool3d(relu(slab))
    return out, out_background


def forward(input64: Volume3D, mask64: RoiMask, weights: CnnWeights) -> ActivationSet:
    """Run the fixed network on one 64^3 input volume.

    Pure function of (input, weights); returns all 21 activation maps and
    the ROI mask max-downsampled to each map resolution.  A layer convolves
    only where its input differs from its background; a voxel's operations
    do not depend on that, so the maps are the whole pass's, bit for bit.
    """
    size = CNN_INPUT_SIZE
    if input64.dims != (size, size, size):
        raise ShapeMismatch(f"network input must be {size}^3, got {input64.dims}")
    if mask64.dims != input64.dims:
        raise ShapeMismatch(f"mask dims {mask64.dims} != input dims {input64.dims}")

    x0 = np.asarray(input64.data, dtype=np.float64)[None]
    a1, background1 = _conv_relu_pool(x0, weights.conv1, weights.bias1, np.zeros(1))
    a2, _ = _conv_relu_pool(a1, weights.conv2, weights.bias2, background1)

    mask32 = downsample_mask(mask64)
    mask16 = downsample_mask(mask32)

    return ActivationSet(
        input_map=input64,
        layer1_maps=tuple(_computed_volume(m, (2.0,) * 3, "DERIVED") for m in a1),
        layer2_maps=tuple(_computed_volume(m, (4.0,) * 3, "DERIVED") for m in a2),
        mask64=mask64,
        mask32=mask32,
        mask16=mask16,
    )
