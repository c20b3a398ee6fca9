"""One benchmark client process: a closed loop of requests into ``repro``.

``run.py`` starts this script with ``REPRO_CACHE_DIR`` pointing at the
run's own store and reads one JSON object per line from its stdout:

* ``{"event": "first"}`` as soon as the first request has finished (the
  parent times set-up and restart up to this line);
* ``{"event": "done", ...}`` at exit, with every request's host latency
  and output digest, with ``--window`` the host seconds of the host-speed
  slice (``calibrate.py``) it timed right after each request, and in
  traced mode the per-layer spans and counters.

Request ``i`` is entry ``i % L`` of the workload's episode (``L`` its
length).  The step-estimate memo is cleared at the start of every episode
segment (each optimizer search), so every episode does the same
simulation work and reproduces the same outputs.  With ``--window`` the
process serves whole episodes until the window has passed.  With
``--check`` it instead re-runs a seeded subset of the episode under the
event engine, the golden scenario and (for the walk) one optimizer search,
for comparison by the parent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench import calibrate, spans  # noqa: E402
from perfbench.workloads import episode  # noqa: E402

PINS = os.path.join(HERE, "pins.json")


def emit(payload) -> None:
    print(json.dumps(payload), flush=True)


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def load_episode(workload: str, seed: int):
    """The episode as ``(request, starts_segment)`` pairs."""
    with open(PINS) as handle:
        pins = json.load(handle)
    return [(req, j == 0) for segment in episode(workload, seed, pins)
            for j, req in enumerate(segment)]


class Requests:
    """Turns the episode's plain-data requests into program calls.

    Every program entry point is looked up on its module at call time, so
    the traced run's wrappers (``spans.install``) see each call.
    """

    def __init__(self, workload: str) -> None:
        import repro.observability.chrome_trace as chrome
        import repro.perf.scaling as scaling
        import repro.perf.time_to_train as ttt
        import repro.perf.trace_builder as trace_builder
        from repro.hardware.gpu import get_gpu
        from repro.model.config import KernelPolicy
        from repro.optimize.space import apply_point
        from repro.workloads import get_workload

        self.chrome, self.scaling, self.ttt = chrome, scaling, ttt
        self.trace_builder = trace_builder
        self.get_gpu, self.KernelPolicy = get_gpu, KernelPolicy
        self.apply_point, self.get_workload = apply_point, get_workload
        self.run = (self.export if workload == "trace-export"
                    else self.walk)

    def walk(self, point):
        """One optimizer evaluation, as ``optimize.objective.Evaluator``
        makes it on a memo miss."""
        result = self.ttt.scenario_time_to_train(
            self.apply_point(point, "alphafold"))
        return result.as_dict()

    def export(self, req):
        """``repro trace export --config small ...``, in memory."""
        wl = self.get_workload(req["workload"])
        policy = (self.KernelPolicy.scalefold() if req["scalefold"]
                  else self.KernelPolicy.reference())
        step = self.trace_builder.build_step_trace(
            policy=policy, cfg=wl.preset("small", policy), workload=wl)
        builder = self.chrome.kernel_trace_to_chrome(
            step.trace, self.get_gpu(req["gpu"]))
        estimate = None
        if req["dap"] > 1 or req["dp"] > 1:
            scenario = self.scaling.Scenario(
                policy=step.policy, gpu=req["gpu"], dap_n=req["dap"],
                dp_degree=req["dp"], imbalance_enabled=False,
                workload=req["workload"])
            estimate = self.scaling.estimate_step_time(scenario, trace=step)
            self.chrome.timeline_to_chrome(estimate.timeline, into=builder)
        return (None if estimate is None else estimate.as_dict(),
                builder.dumps())

    @staticmethod
    def digest(output) -> str:
        if isinstance(output, tuple):
            estimate, text = output
            return hashlib.sha256(_canonical(estimate) + b"\n"
                                  + text.encode()).hexdigest()
        return hashlib.sha256(_canonical(output)).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def serve(args) -> None:
    from repro.perf.scaling import clear_estimate_cache

    reqs = load_episode(args.workload, args.seed)
    requests = Requests(args.workload)
    tracer = None
    run = requests.run
    if args.trace_out:
        spans.reset_counters()
        tracer = spans.install()
        run = tracer.span("request", run)

    latencies, digests, failures, slices = [], [], [], []
    window_start = None
    peak_before_slices = 0.0
    slices_mb = 0.0
    i = 0
    while True:
        request, starts_segment = reqs[i % len(reqs)]
        if starts_segment:
            clear_estimate_cache()
        if tracer is not None:
            tracer.request = i
        t0 = time.perf_counter()
        try:
            output = run(request)
        except Exception as exc:  # a failed request is counted, not fatal
            output = None
            failures.append({"request": i, "error": repr(exc)})
        latencies.append(time.perf_counter() - t0)
        digests.append(None if output is None else requests.digest(output))
        i += 1
        if i == 1:
            emit({"event": "first"})
            window_start = time.perf_counter()
            if args.window:
                peak_before_slices = peak_rss_mb()
                slices_mb = calibrate.prepare()
        if args.window:
            slices.append(calibrate.slice_s())
        if args.count:
            if i >= args.count:
                break
        elif args.window == 0 or (
                i % len(reqs) == 0
                and time.perf_counter() - window_start >= args.window):
            break
    window_s = time.perf_counter() - window_start

    done = {"event": "done", "episode_len": len(reqs),
            "latencies": latencies, "digests": digests,
            "failures": failures, "window_s": window_s,
            "calibration": slices,
            # The slices' arrays stay resident once made; they are the
            # benchmark's, not the program's.
            "peak_rss_mb": max(peak_before_slices,
                               peak_rss_mb() - slices_mb)}
    if tracer is not None:
        tracer.uninstall()
        done["layers"] = tracer.layer_totals()
        done["counts"] = dict(tracer.counts)
        done["program"] = spans.program_counters()
        done["gc"] = tracer.gc
        tracer.to_chrome().write(args.trace_out)
    emit(done)


def check(args) -> None:
    """Event-engine re-runs of seeded requests, the golden scenario and,
    for the walk, one optimizer search from the pinned pool."""
    from repro.optimize.search import optimize_workload
    from repro.perf.bench import golden_scenario
    from repro.perf.scaling import clear_estimate_cache, estimate_step_time
    from repro.perf.step_time import SIM_ENGINE_ENV

    reqs = load_episode(args.workload, args.seed)
    requests = Requests(args.workload)
    rng = random.Random(f"perfbench-check:{args.workload}:{args.seed}")
    subset = sorted(rng.sample(range(len(reqs)), args.check))
    digests, failures = {}, []
    os.environ[SIM_ENGINE_ENV] = "event"
    for index in subset:
        clear_estimate_cache()
        try:
            digests[index] = requests.digest(requests.run(reqs[index][0]))
        except Exception as exc:
            failures.append({"request": index, "error": repr(exc)})
    del os.environ[SIM_ENGINE_ENV]
    clear_estimate_cache()
    try:
        golden = estimate_step_time(golden_scenario()).total_s
    except Exception as exc:
        golden = None
        failures.append({"request": "golden", "error": repr(exc)})
    search = None
    if args.workload == "walk-alphafold":
        with open(PINS) as handle:
            pool = sorted(json.load(handle)["walk-alphafold"]["searches"])
        seed = rng.choice(pool)
        clear_estimate_cache()
        try:
            result = optimize_workload("alphafold", quick=True,
                                       seed=int(seed))
            search = {"seed": seed,
                      "points": [r.point for r in result.visited]}
        except Exception as exc:
            failures.append({"request": f"search {seed}",
                             "error": repr(exc)})
    emit({"event": "done", "subset": digests, "failures": failures,
          "golden_total_s": golden, "search": search})


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--window", type=float, default=0.0,
                        help="serve whole episodes until this many seconds "
                             "have passed since the first request (0: stop "
                             "after it)")
    parser.add_argument("--count", type=int, default=0,
                        help="serve exactly this many requests")
    parser.add_argument("--trace-out", default="",
                        help="record per-layer spans and counters; write "
                             "the spans as chrome-trace JSON here")
    parser.add_argument("--check", type=int, default=0,
                        help="check mode: re-run this many seeded requests "
                             "under the event engine, the golden scenario "
                             "and one optimizer search")
    args = parser.parse_args(argv)
    if args.check:
        check(args)
    else:
        serve(args)


if __name__ == "__main__":
    main()
