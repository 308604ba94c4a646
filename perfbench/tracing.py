"""Outside-in tracing of the deepradiomics layers.

The tracer wraps public functions of the package and rebinds each wrapper
wherever a module of the package holds the original, so calls made
through `from .x import f` names are caught too.  No source file of the
package changes.  Spans stay in memory; `Tracer.write` saves them when
the run ends.  Every binding is restored when the `instrument` block
exits.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from time import perf_counter

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _volume_bytes(args, kwargs, vol):
    return {"bytes": int(vol.data.size) * 4}  # f32le payload


def _mask_bytes(args, kwargs, mask):
    return {"bytes": int(mask.voxels.size)}  # u8 payload


def _conv_counts(args, kwargs, out):
    kx, ky, kz, c_in = np.shape(args[1])[1:]
    return {"macs": int(out.size) * kx * ky * kz * c_in, "bytes": int(out.nbytes)}


def _out_bytes(args, kwargs, out):
    return {"bytes": int(out.nbytes)}


def _em_counts(args, kwargs, fit):
    return {
        "samples": int(np.size(args[0])),
        "iterations": fit.iterations,
        "converged": fit.converged,
    }


def _train_counts(args, kwargs, model):
    return {"trees": len(model.trees), "rows": args[0].n}


def _rows(args, kwargs, report):
    return {"rows": args[0].n}


def _command(args, kwargs, rc):
    return {"command": args[0][0], "rc": rc}


# (module, function, attributes recorded from (args, kwargs, result))
TARGETS = [
    ("deepradiomics.cli", "main", _command),
    ("deepradiomics.manifest", "load_manifest", None),
    ("deepradiomics.manifest", "load_config", None),
    ("deepradiomics.pipeline", "cmd_extract", None),
    ("deepradiomics.pipeline", "cmd_classify", None),
    ("deepradiomics.pipeline", "cmd_survive", None),
    ("deepradiomics.pipeline", "patient_features", None),
    ("deepradiomics.pipeline", "volume_features", None),
    ("deepradiomics.pipeline", "volume_activations", None),
    ("deepradiomics.pipeline", "load_features_csv", None),
    ("deepradiomics.pipeline", "write_csv", None),
    ("deepradiomics.pipeline", "write_json", None),
    ("deepradiomics.volume", "read_header", None),
    ("deepradiomics.volume", "load_volume", _volume_bytes),
    ("deepradiomics.volume", "load_mask", _mask_bytes),
    ("deepradiomics.volume", "resample_isotropic", None),
    ("deepradiomics.volume", "resample_mask", None),
    ("deepradiomics.volume", "standardize_intensity", None),
    ("deepradiomics.volume", "extract_cnn_input", None),
    ("deepradiomics.cnn", "forward", None),
    ("deepradiomics.cnn", "conv3d", _conv_counts),
    ("deepradiomics.cnn", "maxpool3d", _out_bytes),
    ("deepradiomics.cnn", "downsample_mask", None),
    ("deepradiomics.gmm", "em_fit", _em_counts),
    ("deepradiomics.forest", "loocv", _rows),
    ("deepradiomics.forest", "rf_train", _train_counts),
    ("deepradiomics.forest", "rf_predict", None),
    ("deepradiomics.survival", "impute_censored", None),
    ("deepradiomics.survival", "km_estimate", None),
    ("deepradiomics.survival", "logrank_test", None),
    ("deepradiomics.plots", "km_svg", None),
]


class Tracer:
    """Collects spans from wrapped package functions during `instrument`."""

    def __init__(self, run: str):
        self.spans: list[Span] = []
        self.run = run
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, attrs_of):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # a worker thread's first span hangs under the main thread's open span
            outer = stack or tracer._main_stack
            parent = outer[-1] if outer else None
            sid = next(tracer._ids)
            stack.append(sid)
            span = Span(sid, name, parent, perf_counter(), 0.0, tracer.run)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                span.attrs = {"error": type(e).__name__}
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if attrs_of is not None:
                span.attrs = attrs_of(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def instrument(self):
        """Rebind every target for the duration of the block."""
        import deepradiomics  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "deepradiomics"]
        saved = []
        try:
            for mod_name, fn_name, attrs_of in TARGETS:
                original = getattr(sys.modules[mod_name], fn_name)
                wrapper = self._wrap(f"{mod_name.split('.')[1]}.{fn_name}", original, attrs_of)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s), sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it (50 at least)."""
    return max(50, (100 * (n - 10)) // n) if n > 0 else 50


def p50_and_tail(values) -> tuple[float, float]:
    if not values:
        return 0.0, 0.0
    v = np.sort(np.asarray(values, dtype=np.float64))
    return float(np.percentile(v, 50)), float(np.percentile(v, tail_percentile(v.size)))


def fold_durations(spans: list[Span]) -> list[float]:
    """Wall time of each LOOCV fold, seen from outside `loocv`.

    A fold ends with the prediction for its held-out row: the first
    `rf_predict` after the fold's final `rf_train`, which is the one fit on
    all rows but the held-out one.
    """
    out = []
    for lo in (s for s in spans if s.name == "forest.loocv"):
        inner = sorted((s for s in spans if s.parent == lo.id), key=lambda s: s.start)
        start, final = lo.start, None
        for s in inner:
            if s.name == "forest.rf_train" and s.attrs.get("rows") == lo.attrs["rows"] - 1:
                final = s
            elif s.name == "forest.rf_predict" and final is not None and s.start >= final.end:
                out.append(s.end - start)
                start, final = s.end, None
    return out


def layer_metrics(spans: list[Span], threads: int) -> dict[str, float]:
    """Per-layer figures of one traced iteration, keyed by metric name."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def total(*names):
        return sum(s.duration for s in named(*names))

    def self_total(*names):
        return sum(own[s.id] for s in named(*names))

    def attr_sum(key, *names):
        return sum(s.attrs[key] for s in named(*names))

    def ratio(a, b):
        return a / b if b else 0.0

    ids = {s.id: s for s in spans}
    vols = len(named("pipeline.volume_activations"))
    patients = named("pipeline.patient_features")
    extracts = named("pipeline.cmd_extract")
    outer_em = [
        s for s in named("gmm.em_fit")
        if s.parent is None or ids[s.parent].name != "gmm.em_fit"
    ]
    em_s = sum(s.duration for s in outer_em)
    sample_iters = sum(s.attrs["samples"] * (s.attrs["iterations"] + 1) for s in outer_em)
    converged = sum(1 for s in outer_em if s.attrs["converged"])
    trains = named("forest.rf_train")
    trees = attr_sum("trees", "forest.rf_train")
    loocv_rows = {s.id: s.attrs["rows"] for s in named("forest.loocv")}
    kept = sum(
        s.attrs["trees"] for s in trains
        if s.parent in loocv_rows and s.attrs["rows"] == loocv_rows[s.parent] - 1
    )
    fold_p50, fold_tail = p50_and_tail(fold_durations(spans))
    patient_p50, patient_tail = p50_and_tail([s.duration for s in patients])
    waits = [
        p.start - max((e.start for e in extracts if e.start <= p.start), default=p.start)
        for p in patients
    ]
    cmd_busy = sum(
        s.duration for s in spans
        if s.name.startswith("pipeline.cmd_") and s.parent is not None
        and ids[s.parent].name == "cli.main"
    )
    per_vol = 1000.0 / vols if vols else 0.0
    load_s = self_total("volume.read_header", "volume.load_volume", "volume.load_mask")
    return {
        "volume.load_ms": load_s * per_vol,
        "volume.resample_ms": total("volume.resample_isotropic", "volume.resample_mask") * per_vol,
        "volume.crop_ms": total("volume.standardize_intensity", "volume.extract_cnn_input") * per_vol,
        "volume.mask_loads_per_patient": ratio(len(named("volume.load_mask")), len(patients)),
        "volume.bytes_read": attr_sum("bytes", "volume.load_volume", "volume.load_mask"),
        "cnn.forward_ms": total("cnn.forward") * per_vol,
        "cnn.conv3d_ms": total("cnn.conv3d") * per_vol,
        "cnn.maxpool3d_ms": total("cnn.maxpool3d") * per_vol,
        "cnn.downsample_mask_ms": total("cnn.downsample_mask") * per_vol,
        "cnn.macs": attr_sum("macs", "cnn.conv3d"),
        "cnn.bytes_computed": attr_sum("bytes", "cnn.conv3d", "cnn.maxpool3d"),
        "gmm.em_ms": em_s * per_vol,
        "gmm.em_fits": len(outer_em),
        "gmm.em_iterations": sum(s.attrs["iterations"] for s in outer_em),
        "gmm.em_nonconverged": len(outer_em) - converged,
        "gmm.em_converged_ratio": ratio(converged, len(outer_em)),
        "gmm.em_sample_iters": sample_iters,
        "gmm.em_ns_per_sample_iter": ratio(em_s * 1e9, sample_iters),
        "forest.train_s": total("forest.rf_train"),
        "forest.trees_grown": trees,
        "forest.tree_ms": ratio(total("forest.rf_train") * 1000.0, trees),
        "forest.predict_s": total("forest.rf_predict"),
        "forest.predict_calls": len(named("forest.rf_predict")),
        "forest.fold_s.p50": fold_p50,
        "forest.fold_s.tail": fold_tail,
        "forest.kept_tree_ratio": ratio(kept, trees),
        "survival.impute_ms": total("survival.impute_censored") * 1000.0,
        "survival.km_ms": total("survival.km_estimate") * 1000.0,
        "survival.logrank_ms": self_total("survival.logrank_test") * 1000.0,
        "plots.km_svg_ms": total("plots.km_svg") * 1000.0,
        "pipeline.patient_s.p50": patient_p50,
        "pipeline.patient_s.tail": patient_tail,
        "pipeline.patient_wait_s": statistics.median(waits) if waits else 0.0,
        "pipeline.extract_parallel_efficiency": ratio(
            sum(s.duration for s in patients), total("pipeline.cmd_extract") * threads
        ),
        "pipeline.cache_hit_ratio": ratio(
            len(patients) * 4 - len(named("pipeline.volume_features")), len(patients) * 4
        ),
        "pipeline.features_load_ms": total("pipeline.load_features_csv") * 1000.0,
        "pipeline.write_ms": total("pipeline.write_csv", "pipeline.write_json") * 1000.0,
        "manifest.load_ms": total("manifest.load_manifest", "manifest.load_config") * 1000.0,
        "cli.overhead_ms": (total("cli.main") - cmd_busy) * 1000.0,
    }
