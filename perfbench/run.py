"""Host-time benchmark of the ScaleFold simulator: one command, one workload.

    python3 perfbench/run.py --workload walk-alphafold --seed 1 \\
        --seconds 12 --trace 0

Every number it reports is *host* time or host memory: what running the
simulator costs.  Host times are rescaled to a reference host speed: fixed
work of the benchmark's own (``calibrate.py``) is timed beside the
program, and each time is multiplied by reference over measured time of
that work, so that drift in the speed of a shared machine cancels out.
Simulated seconds are outputs, and they are checked, not measured: each
request's output is hashed and must match the digest pinned for that
request in ``pins.json``; a seeded subset is re-run under
``REPRO_SIM_ENGINE=event``, the golden 64-rank scenario must give its
pinned ``total_s``, and for the walk one optimizer search must visit
exactly its pinned points.  Any miss counts as a failed request and makes
the run exit 1.

``--trace 0`` (end to end, untraced):

1. set-up: three fresh processes, each on its own empty store, time
   import plus the first request;
2. restart: seven fresh processes on the first set-up store time the same;
   one of them keeps serving whole episodes until ``--seconds`` have
   passed, as the measured closed loop; set-ups and restarts are
   interleaved (``SCHEDULE``);
3. check: one process makes the checks above on the warm store.

Host speed drifts within a run too, so each time is rescaled by the
reference work timed nearest to it: a set-up or restart time by the mean
of the reference processes run right before and right after it, each
request of the measured window by the host-speed slices the measured
worker timed right before and after it and the ``LOCAL_REQUESTS`` - 1
requests around it.

``--trace 1`` (per layer): one untraced and one traced process, each on an
empty store, serve the same requests; the traced one reports per-layer
spans and counters, and their time ratio is the tracing overhead.

One client, one process at a time, BLAS threads capped at the CPU count;
every process gets a store under ``.perfbench/`` in the checkout, deleted
at exit.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
CALIBRATE = os.path.join(HERE, "calibrate.py")
PINS = os.path.join(HERE, "pins.json")
RUNS_DIR = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, ROOT)
from perfbench.calibrate import (REFERENCE_PROCESS_S,  # noqa: E402
                                 REFERENCE_S)
from perfbench.workloads import WORKLOADS, episode, request_key  # noqa: E402

#: Process order of an end-to-end run: three set-ups (empty stores) and
#: seven restarts (on the first set-up's store; "measure" is the restart
#: that keeps serving as the measured window), interleaved so that each
#: median spans the whole run.  More processes would stretch a run on a
#: slow host past a minute.
SCHEDULE = ("setup", "restart", "restart", "setup", "restart", "measure",
            "restart", "setup", "restart", "restart")
CHECK_REQUESTS = 2
#: How many requests, centred on a request, set its rescaling.
LOCAL_REQUESTS = 7
#: Every process of one run must end within this many seconds.
RUN_DEADLINE_S = 170.0


def _metric_units(kind: str) -> Tuple[Tuple[str, str], ...]:
    """(name, unit) of every ``kind`` metric, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return tuple((m["name"], m["unit"]) for m in json.load(handle)[kind])


class BenchError(RuntimeError):
    """The benchmark itself could not run (no result is printed)."""


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
class Run:
    """One benchmark invocation: its stores, deadline, episode and checks."""

    def __init__(self, workload: str, seed: int, pins: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.pins = pins
        self.wanted = pins.get(workload, {}).get("digests", {})
        self.keys = [request_key(req) for segment in
                     episode(workload, seed, pins) for req in segment]
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        os.makedirs(RUNS_DIR, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="run-", dir=RUNS_DIR)
        self.attempted = 0
        self.failures: List[str] = []

    def store(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def env(self, store: str) -> Dict[str, str]:
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = SRC
        env["REPRO_CACHE_DIR"] = store
        threads = str(len(os.sched_getaffinity(0)))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            env[var] = threads
        return env

    def spawn(self, store: str, *args: str) -> Tuple[float, dict]:
        """Run one worker; return (seconds to its first request, result)."""
        cmd = [sys.executable, WORKER, "--workload", self.workload,
               "--seed", str(self.seed), *args]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed before a worker started")
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env(store),
                                stdout=subprocess.PIPE, text=True)
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        first_s, done = 0.0, None
        try:
            for line in proc.stdout:
                msg = json.loads(line)
                if msg["event"] == "first":
                    first_s = time.perf_counter() - t0
                elif msg["event"] == "done":
                    done = msg
            proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or done is None:
            raise BenchError(f"worker {' '.join(args)} exited with code "
                             f"{proc.returncode}")
        return first_s, done

    def reference(self) -> float:
        """Host seconds one reference process (``calibrate.py``) takes."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed before a reference "
                             "process started")
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, CALIBRATE], cwd=ROOT,
                              env=self.env(self.store("reference")),
                              stdout=subprocess.DEVNULL, timeout=remaining)
        if done.returncode != 0:
            raise BenchError("reference process exited with code "
                             f"{done.returncode}")
        return time.perf_counter() - t0

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    # ------------------------------------------------------------------
    # Checks: every miss is one failed request
    # ------------------------------------------------------------------
    def expect(self, what: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self.failures.append(f"{what}: got {got!r}, want {want!r}")

    def pinned(self, index: int) -> str:
        """The pinned digest of episode request ``index``."""
        key = self.keys[index % len(self.keys)]
        if key not in self.wanted:
            raise BenchError(f"pins.json has no digest for request {key}; "
                             "run perfbench/pin.py")
        return self.wanted[key]

    def served(self, what: str, done: dict) -> None:
        """Count a worker's requests; each must match its pinned digest."""
        for err in done["failures"]:
            self.failures.append(f"{what} request {err['request']} raised "
                                 f"{err['error']}")
        for i, digest in enumerate(done["digests"]):
            self.attempted += 1
            if digest is not None and digest != self.pinned(i):
                self.failures.append(f"{what} request {i}: output digest "
                                     "differs from pins.json")

    def checked(self, done: dict) -> None:
        for err in done["failures"]:
            self.attempted += 1
            self.failures.append(f"check request {err['request']} raised "
                                 f"{err['error']}")
        for index, digest in done["subset"].items():
            self.expect(f"event-engine re-run of request {index}", digest,
                        self.pinned(int(index)))
        if done["golden_total_s"] is not None:
            self.expect("golden total_s", done["golden_total_s"],
                        self.pins["golden_total_s"])
        search = done["search"]
        if search is not None:
            self.expect(f"optimizer search {search['seed']} visit order",
                        search["points"],
                        self.pins[self.workload]["searches"][search["seed"]])


def rescaled(latencies: List[float], slices: List[float]) -> List[float]:
    """The latencies of requests 1, 2, ... at reference speed.

    ``slices[j]`` was timed right after request ``j``, so request ``j``
    ran between ``slices[j - 1]`` and ``slices[j]``.  Its host speed is the
    median, over the ``LOCAL_REQUESTS`` requests centred on it, of the
    mean of each one's two slices.
    """
    around = [(slices[j - 1] + slices[j]) / 2
              for j in range(1, len(latencies))]
    half = LOCAL_REQUESTS // 2
    return [seconds * REFERENCE_S
            / statistics.median(around[max(j - half, 0):j + half + 1])
            for j, seconds in enumerate(latencies[1:])]


def quantile(values: List[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A Beta-weighted mean of the order statistics near rank ``q * n``.  The
    latency mixtures here have gaps (cost classes, requests that absorb a
    full GC pause), where a single order statistic jumps across the gap
    when one request more or less lands on the far side; the weighted
    mean moves by a fraction of the gap instead.
    """
    try:
        from scipy.stats.mstats import hdquantiles
    except ImportError:
        raise BenchError("scipy is needed for the latency percentiles; "
                         "install the repository's dev extras") from None
    return float(hdquantiles(values, prob=[q])[0])


# ----------------------------------------------------------------------
# The two modes
# ----------------------------------------------------------------------
def end_to_end(run: Run, seconds: int, notes: List[str]) -> Dict[str, float]:
    startups, measured = [], None
    warm = run.store("setup-0")
    references = [run.reference()]
    for step in SCHEDULE:
        if step == "setup":
            setups = sum(kind == "setup" for kind, _ in startups)
            first_s, done = run.spawn(run.store(f"setup-{setups}"))
        elif step == "restart":
            first_s, done = run.spawn(warm)
        else:
            first_s, measured = run.spawn(warm, "--window", str(seconds))
            done = measured
        references.append(run.reference())
        run.served(f"{step} process", done)
        startups.append(("setup" if step == "setup" else "restart", first_s))
    run.checked(run.spawn(warm, "--check", str(CHECK_REQUESTS))[1])

    # Host seconds -> seconds at the reference host speed.
    setup_s, restart_s, start_scales = [], [], []
    for i, (kind, first_s) in enumerate(startups):
        start_scales.append(REFERENCE_PROCESS_S
                            / statistics.mean(references[i:i + 2]))
        (setup_s if kind == "setup" else restart_s).append(
            first_s * start_scales[-1])
    slices = measured["calibration"]
    window = rescaled(measured["latencies"], slices)
    scale = sum(window) / sum(measured["latencies"][1:])
    p90 = quantile(window, 0.90)
    episodes = len(measured["latencies"]) // measured["episode_len"]
    notes.append(f"window: {len(window)} requests ({episodes} whole "
                 f"episodes) in {measured['window_s']:.2f} s, "
                 f"{sum(v > p90 for v in window)} beyond p90")
    notes.append(f"host speed: slices of {REFERENCE_S * 1e3:.1f} ms at "
                 f"reference speed took {min(slices) * 1e3:.2f}-"
                 f"{max(slices) * 1e3:.2f} ms in the window, median "
                 f"{statistics.median(slices) * 1e3:.2f} ms ({len(slices)} "
                 f"slices; window time scaled by {scale:.4f} overall)")
    notes.append(f"reference processes of {REFERENCE_PROCESS_S:.2f} s at "
                 f"reference speed took "
                 f"{min(references):.3f}-{max(references):.3f} s")
    notes.append("host seconds to first request (scale): " + ", ".join(
        f"{kind} {v:.3f} ({k:.3f})"
        for (kind, v), k in zip(startups, start_scales)))
    notes.append(f"set-up samples {[round(v, 3) for v in setup_s]} s, "
                 f"restart samples {[round(v, 3) for v in restart_s]} s")
    return {
        "setup_s": statistics.median(setup_s),
        "restart_s": statistics.median(restart_s),
        "requests_per_s": len(window) / sum(window),
        "latency_p50_ms": quantile(window, 0.50) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "peak_rss_mb": measured["peak_rss_mb"],
    }


def per_layer(run: Run, seconds: int, notes: List[str]) -> Dict[str, float]:
    _, plain = run.spawn(run.store("untraced"), "--window", str(seconds))
    n = len(plain["digests"])
    spans_out = os.path.join(RUNS_DIR, f"spans-{run.workload}.json")
    _, traced = run.spawn(run.store("traced"), "--count", str(n),
                          "--trace-out", spans_out)
    run.served("untraced process", plain)
    run.served("traced process", traced)
    run.checked(run.spawn(run.store("traced"), "--check",
                          str(CHECK_REQUESTS))[1])

    layers, counts = traced["layers"], traced["counts"]
    values: Dict[str, float] = {}
    bases: Dict[str, str] = {}
    for name, _unit in _metric_units("per_layer"):
        layer, field = name.split(".", 1)
        if name in traced["program"]:
            value, base = traced["program"][name]
            values[name] = value
            if field.endswith("ratio"):
                bases[name] = f"{base} lookups"
        elif field in ("calls", "self_s"):
            values[name] = layers[layer][field]
        elif layer == "gc":
            values[name] = traced["gc"][field]
        elif layer != "trace":
            values[name] = counts.get(name, 0)
    # Median of per-request ratios: cold builds make a few requests long
    # and noisy, and a plain sum would let them set the ratio.
    values["trace.overhead_ratio"] = statistics.median(
        t / u for t, u in zip(traced["latencies"], plain["latencies"]))
    bases["trace.overhead_ratio"] = f"{n} request pairs"
    root = traced["layers"]["request"]
    spanned = sum(entry["self_s"] for entry in layers.values())
    values["trace.unattributed_ratio"] = root["self_s"] / spanned
    bases["trace.unattributed_ratio"] = f"{spanned:.3f} s in requests"
    notes.append(f"traced {n} requests; spans written to "
                 f"{os.path.relpath(spans_out, ROOT)}")
    notes.extend(f"base of {k}: {v}" for k, v in bases.items())
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: pins.json default)")
    parser.add_argument("--seconds", type=int, default=12,
                        help="serve whole episodes for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    # A terminated run still stops its worker and removes its stores.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator source under {SRC}", file=sys.stderr)
        return 2
    with open(PINS) as handle:
        pins = json.load(handle)
    seed = pins["default_seed"] if args.seed is None else args.seed
    # Byte-compile once up front, so no timed process pays for it.
    compileall.compile_dir(os.path.join(SRC, "repro"), quiet=1)

    if "searches" not in pins.get("walk-alphafold", {}):
        print("perfbench: pins.json holds no walk searches; run "
              "perfbench/pin.py", file=sys.stderr)
        return 2
    run = Run(args.workload, seed, pins)
    notes: List[str] = []
    try:
        if args.trace:
            values = per_layer(run, args.seconds, notes)
            units = _metric_units("per_layer")
        else:
            values = end_to_end(run, args.seconds, notes)
            units = _metric_units("end_to_end")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        run.close()

    failed = len(run.failures)
    failed_ratio = failed / max(run.attempted, 1)
    print(f"# {args.workload} seed={seed} seconds={args.seconds} "
          f"trace={args.trace} ("
          f"{'host time' if args.trace else 'host time at reference speed'}"
          "; simulated outputs are checked, not measured)")
    for name, unit in units:
        print(f"{name:<32} {values[name]:>16.6g} {unit}")
    print(f"{'failed_ratio':<32} {failed_ratio:>16.6g} ratio "
          f"({failed} of {run.attempted} checked requests)")
    for note in notes:
        print(f"  {note}")
    for failure in run.failures:
        print(f"  FAILED {failure}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
