"""Benchmark of the deepradiomics pipeline through its `radiomics` CLI.

    python3 perfbench/run.py --workload pipeline-survive --seed 1 --seconds 55 --trace 0

Run from the repository root.  It imports the package from `src/` next
to this directory, builds the workload's inputs from the seed under
`perfbench/.work/`, and runs the workload's CLI stages in-process,
repeating them for `--seconds` seconds.  Every run's output files are
checked and hashed; every repeat must write the same bytes.

With `--trace 0` the last stdout line holds the end-to-end metrics named
in BENCHMARK.json.  With `--trace 1` it holds the per-layer metrics of a
separate traced run (see tracing.py).  The line before it is a detail
record: machine, seed, thread counts, every stage metric, per-repeat
times and the SHA-256 of every output file.  README.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
# set-up is repeated at least this often and for at least this long; its
# median is setup_s
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
# exact counts: they must repeat between traced iterations
COUNTS = (
    "volume.bytes_read",
    "cnn.macs",
    "cnn.bytes_computed",
    "gmm.em_fits",
    "gmm.em_iterations",
    "gmm.em_nonconverged",
    "gmm.em_sample_iters",
    "forest.trees_grown",
    "forest.predict_calls",
    "forest.kept_tree_ratio",
)


def import_program() -> None:
    """Import the package from this checkout's `src/`, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import deepradiomics
    except ImportError as e:
        sys.exit(f"perfbench: cannot import deepradiomics from {ROOT / 'src'}: {e}")
    if Path(deepradiomics.__file__).resolve().parents[1] != ROOT / "src":
        sys.exit(f"perfbench: deepradiomics came from {deepradiomics.__file__}, not {ROOT / 'src'}")


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
    }


def sha256_tree(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


class Runner:
    """Runs one workload's stages and checks, and tallies failures."""

    def __init__(self, cli, workload, inputs):
        self.cli = cli
        self.workload = workload
        self.inputs = inputs
        self.attempted = 0
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        self.problems.append(message)
        print(f"perfbench: FAILED {message}", file=sys.stderr)

    def stage(self, stage) -> float:
        """Run one CLI stage; returns its wall time in seconds."""
        os.environ["RADIOMICS_THREADS"] = str(stage.threads)
        self.attempted += 1
        sink = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                rc = self.cli.main(list(stage.argv))
        except Exception:  # a traceback is a failed operation, not a harness crash
            rc = "exception"
            traceback.print_exc()
        elapsed = perf_counter() - t0
        if rc != 0:
            self.fail(f"radiomics {stage.name} exited {rc}")
        return elapsed

    def iteration(self, out: Path, threads: int | None = None):
        """One pass over the stages into a fresh `out`: (stage times, file hashes)."""
        shutil.rmtree(out, ignore_errors=True)
        times = {}
        for stage in self.workload.stages(self.inputs, out, threads):
            times[stage.name] = self.stage(stage)
        self.check(out)
        return times, sha256_tree(out) if out.exists() else {}

    def check(self, out: Path) -> None:
        attempted, problems = self.workload.check(out)
        self.attempted += attempted
        for p in problems:
            self.fail(p)

    def same_outputs(self, first: dict, hashes: dict, what: str) -> None:
        self.attempted += 1
        if hashes != first:
            differ = sorted(k for k in set(first) | set(hashes) if first.get(k) != hashes.get(k))
            self.fail(f"{what}: output files differ: {differ}")


def median(values) -> float:
    return float(statistics.median(values))


def timed_run(runner: Runner, seconds: float, detail: dict) -> dict:
    """Repeat the workload for `seconds`; medians of the stage times."""
    wl = runner.workload
    out = WORK / wl.name / "out"
    walls, stage_times, costs = [], {}, []
    first = None
    t_start = perf_counter()
    while not costs or perf_counter() - t_start + median(costs) <= seconds:
        t0 = perf_counter()
        times, hashes = runner.iteration(out)
        costs.append(perf_counter() - t0)
        walls.append(sum(times.values()))
        for name, t in times.items():
            stage_times.setdefault(name, []).append(t)
        if first is None:
            first = hashes
        else:
            runner.same_outputs(first, hashes, f"repeat {len(walls)}")
    stages = {f"{name}_s": median(ts) for name, ts in stage_times.items()}
    metrics = {"wall_s": median(walls), **stages, **wl.rates(stages)}
    detail.update(repeats=len(walls), wall_s_each=walls, output_sha256=first)
    return metrics


def traced_run(runner: Runner, detail: dict) -> dict:
    """One untraced pass, then two traced ones; per-layer metrics."""
    from tracing import Tracer, layer_metrics

    wl = runner.workload
    base = WORK / wl.name
    untraced, first = runner.iteration(base / "out")
    layers, traced_walls = [], []
    for i in (1, 2):
        tracer = Tracer(run=f"traced-{i}")
        with tracer.instrument():
            times, hashes = runner.iteration(base / "out")
        traced_walls.append(sum(times.values()))
        runner.same_outputs(first, hashes, f"traced run {i}")
        tracer.write(base / f"trace-{i}.jsonl")
        layers.append(layer_metrics(tracer.spans, wl.threads))
    runner.attempted += 1
    moved = [k for k in COUNTS if layers[0][k] != layers[1][k]]
    if moved:
        runner.fail(f"counts differ between traced runs: {moved}")

    metrics = {k: median([m[k] for m in layers]) for k in layers[0]}
    metrics.update({k: layers[0][k] for k in COUNTS})
    metrics["trace_overhead_ratio"] = median(traced_walls) / sum(untraced.values()) - 1.0
    metrics["pipeline.thread_speedup"] = 0.0
    if "extract" in untraced:
        # the timed runs are the single-threaded baseline; a 2-thread
        # extract pool must write the same bytes
        two, hashes = runner.iteration(base / "out", threads=2)
        runner.same_outputs(first, hashes, "RADIOMICS_THREADS=2")
        metrics["pipeline.thread_speedup"] = untraced["extract"] / two["extract"]
        detail["extract_s_2threads"] = two["extract"]
    detail.update(
        untraced_wall_s=sum(untraced.values()), traced_wall_s=traced_walls, output_sha256=first
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long sizes for the self-test")
    args = parser.parse_args(argv)

    import_program()
    from deepradiomics import cli
    from workloads import workloads

    all_workloads = workloads(args.scale)
    if args.workload not in all_workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(all_workloads)}")
    wl = all_workloads[args.workload]
    inputs_dir = WORK / wl.name / "inputs"

    setups = []
    while not setups or (
        not args.trace and (len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS)
    ):
        shutil.rmtree(inputs_dir, ignore_errors=True)
        t0 = perf_counter()
        inputs = wl.setup(inputs_dir, args.seed)
        setups.append(perf_counter() - t0)

    runner = Runner(cli, wl, inputs)
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "radiomics_threads": wl.threads,
        "patients": wl.n,
        "machine": machine(),
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        metrics = traced_run(runner, detail)
        wanted = spec["per_layer"]
    else:
        metrics = {"setup_s": median(setups), **timed_run(runner, args.seconds, detail)}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["fail_ratio"] = len(runner.problems) / runner.attempted
        metrics["ok_ratio"] = 1.0 - metrics["fail_ratio"]
        detail["stage_metrics"] = metrics
        wanted = spec["end_to_end"]
    detail["problems"] = runner.problems
    (WORK / wl.name / f"result-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": len(runner.problems),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
