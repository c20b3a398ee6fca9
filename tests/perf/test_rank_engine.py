"""The closed-form rank engine must match the rank DES bit for bit.

Generated plans (``hypothesis``, derandomized) drive both engines of the
rank level and every per-(step, rank) stats array is compared with
``np.array_equal`` — no tolerance.  The lazy timeline, the engine-aware
estimate memo and the bounded memory of cached estimates are pinned here
too.
"""

from __future__ import annotations

import dataclasses
import gc
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.perf.scaling as scaling
from repro.observability.chrome_trace import timeline_to_chrome
from repro.perf.bench import estimates_equal, golden_scenario
from repro.perf.scaling import (Scenario, _PlanOp, _scenario_key,
                                clear_estimate_cache, estimate_many,
                                estimate_step_time)
from repro.perf.step_time import SIM_ENGINE_ENV
from repro.sim.des import Timeline
from repro.workloads import get_workload

GOLDEN_TOTAL_S = 0.36291357581331857

PHASES = ("forward", "backward", "update")


def _assert_stats_identical(fast, event):
    assert fast.keys() == event.keys()
    for key in event:
        assert np.array_equal(fast[key], event[key]), key


@st.composite
def rank_runs(draw):
    """Arguments of one rank-level run, shaped like the estimator's.

    Loader prep times come from a seeded generator so that no worker
    completes at exactly a step's start time (the one tie the engines
    may order differently); op and bucket times are hypothesis floats,
    so ties among them (equal launch times, zero-length ops) do occur.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_ranks = draw(st.integers(1, 16))
    n_steps = draw(st.integers(1, 5))
    seconds = st.floats(0.0, 1e-2, allow_nan=False)
    n_ops = draw(st.integers(1, 24))
    with_update = draw(st.booleans())
    plan = []
    for i in range(n_ops):
        phase = draw(st.sampled_from(PHASES if with_update else PHASES[:2]))
        kind = draw(st.sampled_from(("compute", "compute", "comm")))
        plan.append(_PlanOp(kind, draw(seconds), phase))

    backward = [op.seconds for op in plan
                if op.kind == "compute" and op.phase == "backward"]
    backward_wall = sum(backward)
    fracs = []
    for _ in range(draw(st.integers(0, 8))):
        how = draw(st.sampled_from(("random", "tie", "edge", "late")))
        if how == "tie" and fracs:
            fracs.append(fracs[-1])
        elif how == "late":
            # Ready after backward: launched when the step waits on DDP.
            fracs.append(draw(st.floats(1.0, 1.1)))
        elif how == "edge" and backward_wall > 0.0:
            # A span boundary nudged across the 1e-15 readiness slack.
            edge = float(np.cumsum(backward)[draw(
                st.integers(0, len(backward) - 1))])
            nudge = draw(st.sampled_from((-2e-15, -1e-15, 0.0, 1e-15,
                                          2e-15)))
            fracs.append((edge + nudge) / backward_wall)
        else:
            fracs.append(draw(st.floats(0.0, 1.0)))
    buckets = [(frac, draw(seconds)) for frac in sorted(fracs)]

    rank_delays = None
    if draw(st.booleans()):
        rank_delays = rng.exponential(2e-3, size=(n_steps, n_ranks))
        rank_delays[rng.random((n_steps, n_ranks)) < 0.4] = 0.0
    prep_series = None
    if draw(st.booleans()):
        per_rank = n_steps + draw(st.integers(0, 6))
        prep_series = rng.lognormal(-6.0, 1.0, size=n_ranks * per_rank)
    return dict(
        plan=plan, n_ranks=n_ranks, n_steps=n_steps, buckets=buckets,
        gate_s=draw(st.sampled_from((0.0, 1e-3, 5e-2))),
        rank_delays=rank_delays, prep_series=prep_series,
        data_workers=draw(st.sampled_from((1, 2, 8))),
        data_queue_capacity=draw(st.sampled_from((1, 4, 16))),
        blocking_pipeline=draw(st.booleans()))


class TestGeneratedPlans:
    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(rank_runs())
    def test_fast_engine_matches_rank_des(self, kwargs):
        args = tuple(kwargs.values())
        fast = scaling._fast_distributed_step(*args)
        event = scaling._event_distributed_step(*args)
        _assert_stats_identical(fast, event)

    def test_dry_loader_stays_on_the_event_engine(self):
        # Two batches per rank for three steps: the ranks get stuck, which
        # only the DES reproduces, so the fast engine is not used.
        plan = [_PlanOp("compute", 1e-3, "forward"),
                _PlanOp("comm", 2e-4, "forward")]
        kwargs = dict(plan=plan, n_ranks=2, n_steps=3, buckets=[],
                      prep_series=np.full(4, 5e-4))
        fast = scaling._run_distributed_step(engine="fast", **kwargs)
        event = scaling._run_distributed_step(engine="event", **kwargs)
        _assert_stats_identical(fast, event)
        assert not fast["total"][-1].any()


# ----------------------------------------------------------------------
# Whole estimates
# ----------------------------------------------------------------------
def test_optimizer_search_rank_calls_match(monkeypatch):
    """Every rank-level run of a real optimizer search, replayed on the
    rank DES: real plans, buckets, jitter, loaders and gates."""
    from repro.optimize.search import optimize_workload

    fast_engine = scaling._fast_distributed_step
    calls = []

    def checked(*args):
        fast = fast_engine(*args)
        _assert_stats_identical(fast, scaling._event_distributed_step(*args))
        calls.append(args[1])
        return fast

    monkeypatch.setattr(scaling, "_fast_distributed_step", checked)
    clear_estimate_cache()
    result = optimize_workload("alphafold", quick=True, seed=3)
    assert len(calls) == 2 * len(result.visited)
    assert max(calls) == 8


def _transformer_golden() -> Scenario:
    wl = get_workload("transformer")
    return Scenario(workload=wl.name, **wl.bench_scenario_kwargs("H100"))


class TestGoldenEstimates:
    @pytest.mark.parametrize("make", [golden_scenario, _transformer_golden],
                             ids=["alphafold", "transformer"])
    def test_engines_agree(self, make):
        scenario = make()
        fast = estimate_step_time(scenario, engine="fast")
        event = estimate_step_time(scenario, engine="event")
        assert estimates_equal(fast, event)
        if scenario.workload == "alphafold":
            assert fast.total_s == GOLDEN_TOTAL_S

    def test_memo_key_carries_the_engine(self, monkeypatch):
        scenario = Scenario(dap_n=2, dp_degree=2, seed=23)
        assert (_scenario_key(scenario, "fast")
                != _scenario_key(scenario, "event"))
        monkeypatch.setenv(SIM_ENGINE_ENV, "event")
        assert _scenario_key(scenario) == _scenario_key(scenario, "event")
        monkeypatch.delenv(SIM_ENGINE_ENV)

        engines = []
        real = scaling._run_distributed_step

        def spy(*args, **kwargs):
            engines.append(kwargs.get("engine"))
            return real(*args, **kwargs)

        clear_estimate_cache()
        estimate_step_time(scenario, engine="fast")
        monkeypatch.setattr(scaling, "_run_distributed_step", spy)
        estimate_step_time(scenario, engine="event")
        # Not served from the fast memo: dry and full run on the DES.
        assert engines == ["event", "event"]


# ----------------------------------------------------------------------
# Lazy timeline
# ----------------------------------------------------------------------
def _small_scenarios():
    return [Scenario(dap_n=4, dp_degree=4, seed=seed, ddp_bucket_mb=mb)
            for seed, mb in ((31, 25.0), (32, 13.0), (33, 50.0))]


class TestLazyTimeline:
    def test_no_interval_until_read(self):
        clear_estimate_cache()
        est = estimate_step_time(_small_scenarios()[0], engine="fast")
        assert est.rank_run._timeline is None
        assert not any(isinstance(v, Timeline) for v in vars(est).values())
        timeline = est.timeline
        assert timeline.intervals and est.rank_run._timeline is timeline
        assert est.timeline is timeline

    def test_intervals_equal_the_event_engines(self):
        scenario = _small_scenarios()[1]
        fast = estimate_step_time(scenario, engine="fast").timeline
        event = estimate_step_time(scenario, engine="event").timeline
        assert fast is not event
        assert fast.intervals == event.intervals
        assert (timeline_to_chrome(fast).dumps()
                == timeline_to_chrome(event).dumps())

    def test_concurrent_first_reads_record_once(self, monkeypatch):
        clear_estimate_cache()
        estimates = estimate_many(_small_scenarios(), max_workers=3)
        runs = []
        real = scaling._run_distributed_step

        def counting(*args, **kwargs):
            runs.append(kwargs.get("timeline") is not None)
            return real(*args, **kwargs)

        monkeypatch.setattr(scaling, "_run_distributed_step", counting)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # More readers than cores, racing on every estimate.
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(lambda e: e.timeline, est)
                           for est in estimates * 8]
                timelines = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(switch)
        assert runs == [True] * len(estimates)
        for i, est in enumerate(estimates):
            assert all(tl is est.timeline for tl in timelines[i::3])


class TestBoundedMemory:
    def test_cached_estimates_hold_numbers_not_intervals(self):
        """An optimizer-style sweep keeps every estimate in the memo; each
        used to pin its full timeline (~2.4 MB for this scenario)."""
        base = _transformer_golden()
        estimate_step_time(base)           # warm traces, partitions, costs
        clear_estimate_cache()
        budget = 200_000                   # bytes retained per estimate
        n = 24
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [estimate_step_time(dataclasses.replace(
                        base, seed=100 + i,
                        ddp_bucket_mb=(13.0, 25.0, 50.0)[i % 3]))
                    for i in range(n)]
            gc.collect()
            per_estimate = (tracemalloc.get_traced_memory()[0] - before) / n
            recorded = kept[0].timeline
            gc.collect()
            with_timeline = (tracemalloc.get_traced_memory()[0] - before
                             - per_estimate * n)
        finally:
            tracemalloc.stop()
        assert per_estimate < budget
        # The budget would catch an eagerly recorded timeline.
        assert len(recorded.intervals) > 10_000
        assert with_timeline > 5 * budget
