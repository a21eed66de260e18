"""qopposition benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
./src.  Workloads (see README.md): decide-family, decide-geometric,
lp-enumerate, cli.

A run generates the workload's inputs from --seed (untimed), sets the
workload up SETUP_REPS times (a fresh import of qopposition plus building
the library objects from those inputs), runs one untimed warm-up round whose
every output is checked against the benchmark's own computations, then
repeats whole rounds of requests for at least --seconds (and at least
MIN_REQUESTS requests), one client in a closed loop.  Every later output
must equal the checked one.  The calibration kernel runs after every
request; all timings are reported at reference speed (see calib.py).

--trace 0 prints the end-to-end metrics.  --trace 1 does the same run,
then times TRACE_ROUNDS rounds untraced and the same rounds with spans
around the library's public functions, and prints the per-layer metrics;
the spans are written to perfbench/out/.  The last line of output is the
JSON result; the lines before it list every figure with its unit,
including the raw wall-clock ones.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np  # imported before any set-up is timed: setup_s excludes it

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import clicycle  # noqa: E402
import hexagons  # noqa: E402
import lpenum  # noqa: E402
import tracing  # noqa: E402
from common import Mismatch  # noqa: E402

SETUP_REPS = 7
MIN_REQUESTS = 100
TRACE_ROUNDS = 2
IMPORT_REPS = 5


class Workload:
    """generate(rng) -> plain inputs, untimed; build(q, data) -> requests,
    through the library's constructors (timed as set-up); run(q, request)
    -> output; verify(q, data, requests, outputs) -> failed operations per
    request, raising Mismatch on a wrong output; fingerprint(output) -> a
    value equal for equal outputs; ops -> operations per request."""

    def __init__(self, generate, build, run, verify, fingerprint, ops, cli=False):
        self.generate, self.build, self.run, self.verify = generate, build, run, verify
        self.fingerprint, self.ops, self.cli = fingerprint, ops, cli


def _family_verify(q, data, requests, outputs):
    hexagons.verify_families(data, requests)
    return [hexagons.verify_hexagon(q, a, e, poly, False)
            for (a, e), poly in zip(requests, outputs)]


def _geometric_verify(q, data, requests, outputs):
    return [hexagons.verify_hexagon(q, a, e, poly, True)
            for (a, e), poly in zip(requests, outputs)]


def _lp_verify(q, data, requests, outputs):
    return [lpenum.verify(q, r, out) for r, out in zip(requests, outputs)]


def _cli_verify(q, data, cycle, outputs):
    clicycle.verify_round(cycle, outputs)
    return [0] * len(outputs)


WORKLOADS = {
    "decide-family": Workload(hexagons.generate_family, hexagons.build_family, hexagons.run,
                              _family_verify, hexagons.fingerprint, hexagons.OPS_PER_HEXAGON),
    "decide-geometric": Workload(hexagons.generate_geometric, hexagons.build_geometric,
                                 hexagons.run, _geometric_verify, hexagons.fingerprint,
                                 hexagons.OPS_PER_HEXAGON),
    "lp-enumerate": Workload(lpenum.generate, lpenum.build, lpenum.run, _lp_verify,
                             lpenum.fingerprint, lpenum.OPS_PER_REQUEST),
    "cli": Workload(clicycle.generate, lambda q, data: clicycle.build(q, data, str(OUT)),
                    lambda q, argv: clicycle.run_subprocess(str(ROOT), argv),
                    _cli_verify, lambda out: out, 1, cli=True),
}


def fresh_import(with_cli: bool):
    """Import qopposition from ./src as a new process would."""
    for name in [n for n in sys.modules if n == "qopposition" or n.startswith("qopposition.")]:
        del sys.modules[name]
    q = importlib.import_module("qopposition")
    if with_cli:
        importlib.import_module("qopposition.cli")
    return q


def calibrated(walls: list, ks: list) -> list:
    return [w * calib.NOMINAL_KERNEL_S / calib.local_reference(ks, i)
            for i, w in enumerate(walls)]


def summary(walls: list, ks: list) -> dict:
    cal = calibrated(walls, ks)
    return {
        "throughput_rps": (len(cal) / sum(cal), "1/s"),
        "latency_p50_ms": (float(np.percentile(cal, 50)) * 1e3, "ms"),
        "latency_p90_ms": (float(np.percentile(cal, 90)) * 1e3, "ms"),
        "raw.throughput_rps": (len(walls) / sum(walls), "1/s"),
        "raw.latency_p50_ms": (float(np.percentile(walls, 50)) * 1e3, "ms"),
        "raw.latency_p90_ms": (float(np.percentile(walls, 90)) * 1e3, "ms"),
    }


class Run:
    def __init__(self, name: str, seed: int, seconds: float):
        self.name, self.seed, self.seconds = name, seed, seconds
        self.w = WORKLOADS[name]
        self.mismatches = []
        self.attempted = 0
        self.failed = 0

    # --- set-up, warm-up and the checked reference outputs ----------------------

    def set_up(self) -> dict:
        calib.sample(0.08)  # warm the kernel itself
        self.data = self.w.generate(np.random.default_rng(self.seed))
        cal, raw = [], []
        for _ in range(SETUP_REPS):
            before = calib.sample(0.04)
            t0 = time.perf_counter()
            q = fresh_import(self.w.cli)
            requests = self.w.build(q, self.data)
            wall = time.perf_counter() - t0
            ref = calib.local_reference([before, calib.sample(wall)], 1)
            cal.append(wall * calib.NOMINAL_KERNEL_S / ref)
            raw.append(wall)
        src = ROOT / "src"
        if not Path(q.__file__).resolve().is_relative_to(src):
            raise SystemExit(f"qopposition was imported from {q.__file__}, not {src}")
        self.q, self.requests = q, requests
        return {"setup_s": (statistics.median(cal), "s"),
                "raw.setup_s": (statistics.median(raw), "s")}

    def warm_up(self) -> None:
        """One untimed round, checked in full; its outputs are the reference."""
        outputs = []
        for i in range(len(self.requests)):
            outputs.append(self.w.run(self.q, self.requests[i]))
            if self.w.cli:
                self._cli_step(i, outputs[-1])
        self.failed_per_request = self._checked(
            lambda: self.w.verify(self.q, self.data, self.requests, outputs))
        self.reference = [self.digest(o) for o in outputs]
        # keep the collector's full passes from scanning set-up objects and
        # the benchmark's own bookkeeping, which differ from seed to seed
        del outputs
        gc.collect()
        gc.freeze()

    def digest(self, output) -> str:
        return hashlib.sha256(repr(self.w.fingerprint(output)).encode()).hexdigest()

    def _cli_step(self, i: int, out) -> None:
        cycle = self.requests
        if i + 1 == cycle.check_at:
            cycle.fill(out[1])
        elif cycle.argvs[i][:2] == ["scenario", "show"]:
            with open(cycle.file, "w", encoding="utf-8") as fh:
                fh.write(out[1])

    def _checked(self, fn):
        try:
            return fn()
        except Mismatch as exc:
            self._mismatch(str(exc))
            return [0] * len(self.requests)

    def _mismatch(self, message: str) -> None:
        if message not in self.mismatches:
            self.mismatches.append(message)
            print(f"MISMATCH {self.name}: {message}", file=sys.stderr)

    # --- timed rounds -------------------------------------------------------------

    def rounds(self, run, count: int | None = None, seconds: float = 0.0,
               on_request=None):
        """Whole rounds, timed per request, with the kernel after each.
        Runs `count` rounds, or until `seconds` and MIN_REQUESTS are reached."""
        walls, ks = [], []
        end = time.perf_counter() + seconds
        done = 0
        while True:
            for i, request in enumerate(self.requests):
                if on_request:
                    on_request(i)
                t0 = time.perf_counter()
                out = run(self.q, request)
                wall = time.perf_counter() - t0
                walls.append(wall)
                ks.append(calib.sample(wall))
                if self.digest(out) != self.reference[i]:
                    self._mismatch(f"request {i} gave a different output than in the warm-up")
            done += 1
            if count is not None:
                if done >= count:
                    break
            elif time.perf_counter() >= end and len(walls) >= MIN_REQUESTS:
                break
        return walls, ks, done

    def timed(self) -> dict:
        walls, ks, done = self.rounds(self.w.run, seconds=self.seconds)
        self.attempted = len(walls) * self.w.ops
        self.failed = done * sum(self.failed_per_request)
        usage = resource.RUSAGE_CHILDREN if self.w.cli else resource.RUSAGE_SELF
        metrics = summary(walls, ks)
        metrics["peak_rss_mb"] = (resource.getrusage(usage).ru_maxrss / 1024.0, "MB")
        self.timed_walls, self.timed_kernels = walls, ks
        metrics["calibration_ms"] = (sum(s for s, _ in ks) / sum(c for _, c in ks) * 1e3, "ms")
        return metrics

    # --- traced run -----------------------------------------------------------------

    def traced(self) -> dict:
        run = self.w.run
        if self.w.cli:
            run = lambda q, argv: clicycle.run_in_process(q, argv)  # noqa: E731
        plain = self.rounds(run, count=TRACE_ROUNDS)
        tracer = tracing.Tracer()
        tracer.install(self.q)
        try:
            self.w.build(self.q, self.data)  # set-up, traced
            traced = self.rounds(run, count=TRACE_ROUNDS, on_request=tracer.next_request)
        finally:
            tracer.uninstall()
        ks = traced[1]
        scale = calib.NOMINAL_KERNEL_S * sum(c for _, c in ks) / sum(s for s, _ in ks)
        metrics = tracer.metrics(scale)
        plain_tp = summary(*plain[:2])["throughput_rps"][0]
        traced_tp = summary(*traced[:2])["throughput_rps"][0]
        metrics["tracing_overhead"] = (plain_tp / traced_tp, "ratio")
        metrics.update(self._process_metrics())
        tracer.write(str(OUT / f"trace-{self.name}-{self.seed}.jsonl"))
        return metrics

    def _process_metrics(self) -> dict:
        """Subprocess wall time per request and the interpreter floors
        beneath it (cli only; 0 elsewhere)."""
        if not self.w.cli:
            return {k: (0.0, "ms") for k in ("process_ms", "import_floor_ms", "import_ms")}
        cal = calibrated(self.timed_walls, self.timed_kernels)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

        def floor(code: str) -> float:
            times = []
            for _ in range(IMPORT_REPS):
                before = calib.sample(0.04)
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
                wall = time.perf_counter() - t0
                ref = calib.local_reference([before, calib.sample(wall)], 1)
                times.append(wall * calib.NOMINAL_KERNEL_S / ref)
            return statistics.median(times) * 1e3

        return {"process_ms": (statistics.fmean(cal) * 1e3, "ms"),
                "import_floor_ms": (floor("import numpy"), "ms"),
                "import_ms": (floor("import qopposition"), "ms")}


def load_benchmark_names() -> tuple:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ([m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qopposition" / "__init__.py").is_file():
        print(f"error: no qopposition sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    end_to_end, per_layer = load_benchmark_names()
    # one CPU for the run and its children, so the kernel always samples the
    # CPU the request ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    run = Run(args.workload, args.seed, args.seconds)
    OUT.mkdir(exist_ok=True)
    try:
        figures = run.set_up()
        run.warm_up()
        figures.update(run.timed())
        if args.trace:
            figures.update(run.traced())
    finally:
        if run.w.cli and hasattr(run, "requests"):
            Path(run.requests.file).unlink(missing_ok=True)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} attempted={run.attempted} failed={run.failed}")
    for name, (value, unit) in figures.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    wanted = per_layer if args.trace else end_to_end
    missing = [m for m in wanted if m not in figures]
    if missing:
        print(f"error: no figure for {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": not run.mismatches,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": figures[m][0], "unit": figures[m][1]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
