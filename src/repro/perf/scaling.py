"""Distributed step-time scenarios: DAP scaling, barriers, and the
optimization ladder (Figures 3, 7, 8 of the paper).

:class:`Scenario` describes one training configuration (kernel policy, DAP
degree, GPU, pipeline and host options).  :func:`estimate_step_time` runs it
through a two-level discrete-event simulation on
:class:`repro.sim.des.Simulator`:

1. the **kernel level** (:func:`repro.perf.step_time.simulate_step`) event-
   simulates the CPU dispatch stream against the GPU compute stream over the
   DAP-partitioned kernel trace, and reports segment marks at every embedded
   collective position and phase boundary;
2. the **rank level** (:func:`_run_distributed_step`) replays those compute
   segments on every DAP rank, with DAP collective bundles at their actual
   trace positions (barrier + transfer on the comm stream), DDP bucket
   all-reduces launched at their gradient-ready points on a per-rank NIC
   and overlapped with backward, per-rank data-loader queues
   (:class:`repro.datapipe.sim_pipeline.PipelineFeed`) whose empty-queue
   waits surface as stalls, per-rank host-jitter clock offsets, and a
   world-size straggler gate at the gradient sync.

Both levels have two engines, picked by
:func:`repro.perf.step_time.resolve_engine`.  At the rank level the event
engine (:func:`_event_distributed_step`) runs one process per rank in a
shared simulator and is the oracle; the ``fast`` engine
(:func:`_fast_distributed_step`) uses that every rank runs the same plan,
which makes the rank level a max-plus system: ops add to a rank's clock,
barriers take the max over ranks, DDP buckets are a FIFO recurrence per
NIC.  It repeats the event engine's float operations in order, so the two
give bit-identical stats.  The one event ordering they may disagree on, a
loader worker finishing at exactly the float time its rank fetches, is
assumed not to happen.

The familiar additive breakdown (``compute + dap_comm + ddp_exposed +
imbalance``) partitions the rank-0 step by the resource that occupied or
blocked it.  The intervals themselves are an inspectable simulation
artifact: ``StepEstimate.timeline`` records them on first access by
replaying the run through the event engine, so estimates (and the memo)
hold numbers, not interval lists.
"""

from __future__ import annotations

import dataclasses
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..datapipe.sim_pipeline import PipelineFeed, StallModel, stall_model
from ..distributed.collectives import collective_time
from ..distributed.dap import is_shardable, partition_step
from ..distributed.ddp import DdpConfig, bucket_schedule
from ..distributed.straggler import ImbalanceInputs, StragglerModel
from ..distributed.topology import ClusterTopology
from ..framework.caching import LruCache, register_cache
from ..framework.dtypes import bfloat16
from ..framework.tracer import KernelCategory, KernelRecord
from ..hardware.cpu import CpuJitterConfig
from ..hardware.gpu import get_gpu, registry_token
from ..hardware.roofline import CostModel
from ..model.config import KernelPolicy
from ..sim.des import Barrier, Event, Process, Resource, Simulator, Timeline
from ..workloads import DEFAULT_WORKLOAD, Workload, get_workload
from .fast_step import sequential_sum
from .step_time import resolve_engine, simulate_step
from .torchcompile import apply_torch_compile
from .trace_builder import (StepTrace, _policy_key, build_step_trace,
                            trace_is_warm, trace_key)
from .vector_cost import (TraceCostArrays, cost_cache_material,
                          trace_cost_arrays)

#: Rank-level simulation horizon: warmup steps absorb loader cold start and
#: are excluded from the reported means.
N_WARMUP_STEPS = 2
N_MEASURED_STEPS = 8
#: Seed offset separating the simulated ranks' jitter stream from the
#: world-gate sampling stream (which must stay bit-identical per seed).
_RANK_JITTER_SEED_OFFSET = 9173


@dataclass
class Scenario:
    """One training configuration to estimate."""

    policy: KernelPolicy = field(default_factory=KernelPolicy.reference)
    gpu: str = "H100"
    dap_n: int = 1
    dp_degree: int = 128           # data-parallel replicas (global bs 128)
    cuda_graphs: bool = False
    gc_disabled: bool = False
    torch_compile: bool = False
    nonblocking_pipeline: bool = False
    data_workers: int = 8
    data_queue_capacity: int = 16
    n_recycle: int = 1
    imbalance_enabled: bool = True
    seed: int = 17
    workload: str = DEFAULT_WORKLOAD
    #: DDP gradient-bucket size in MiB (PyTorch default 25).  A pure
    #: rank-level knob: changing it re-runs only the distributed DES over
    #: the cached trace/partition/cost state.
    ddp_bucket_mb: float = 25.0

    @property
    def world_size(self) -> int:
        return self.dp_degree * self.dap_n

    def label(self) -> str:
        bits = [self.gpu, f"DAP-{self.dap_n}"]
        if self.workload != DEFAULT_WORKLOAD:
            bits.insert(0, self.workload)
        p = self.policy
        for flag, name in ((p.batched_gemm, "gemm"), (p.fused_mha, "mha"),
                           (p.fused_layernorm, "ln"), (p.fused_adam_swa, "adam"),
                           (self.cuda_graphs, "graph"), (self.gc_disabled, "gc-off"),
                           (self.torch_compile, "compile"),
                           (self.nonblocking_pipeline, "nbpipe")):
            if flag:
                bits.append(name)
        if p.dtype.name != "fp32":
            bits.append(p.dtype.name)
        if not p.activation_checkpointing:
            bits.append("no-ckpt")
        return "+".join(bits)


@dataclass
class StepEstimate:
    """Wall-clock decomposition of one distributed training step.

    The component fields partition the simulated rank-0 timeline exactly:
    every interval of the step is attributed to the resource that occupied
    or blocked the rank, so ``total_s == compute_s + dap_comm_s +
    ddp_exposed_s + imbalance_s``.
    """

    scenario_label: str
    compute_s: float           # DES device+host compute (kernel level)
    cpu_exposed_s: float       # host dispatch exposed inside compute_s
    serial_compute_s: float    # device time in non-DAP-shardable scopes
    parallel_compute_s: float  # device time in shardable scopes
    dap_comm_s: float          # DAP all-to-all / all-gather (exposed)
    ddp_exposed_s: float       # gradient all-reduce left over after overlap
    imbalance_s: float         # waiting on the slowest synchronized rank
    data_stall_mean_s: float   # per-rank average wait on data
    total_s: float
    kernel_count: int
    stall: StallModel
    #: The full rank-level run's inputs, kept to record its timeline on
    #: demand (estimates hold numbers, not interval lists).
    rank_run: Optional["RankRun"] = field(default=None, repr=False,
                                          compare=False)

    @property
    def timeline(self) -> Optional[Timeline]:
        """Per-rank interval attribution of the simulated steps.

        Recorded by the event DES on first access, from the same inputs
        that produced the numbers, so its intervals do not depend on the
        engine that estimated them.
        """
        return None if self.rank_run is None else self.rank_run.timeline()

    def as_dict(self) -> Dict[str, float]:
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)
               if f.name != "rank_run"}
        out["stall"] = dataclasses.asdict(self.stall)
        return out


class RankRun:
    """The arguments of one rank-level run, replayed into a
    :class:`Timeline` by the event DES the first time it is asked for.

    Safe to share between threads: concurrent first reads record the
    timeline once, and every reader gets the same object.
    """

    __slots__ = ("_kwargs", "_timeline", "_lock")

    def __init__(self, **kwargs) -> None:
        self._kwargs = kwargs
        self._timeline: Optional[Timeline] = None
        self._lock = threading.Lock()

    def timeline(self) -> Timeline:
        with self._lock:
            if self._timeline is None:
                timeline = Timeline()
                _run_distributed_step(timeline=timeline, **self._kwargs)
                self._timeline = timeline
            return self._timeline


# Shared straggler RNG cache keyed by seed so estimates are deterministic.
_PREP_CACHE = register_cache(LruCache(capacity=8, name="prep-series"))


def _prep_times(workload: Workload, seed: int = 5, n: int = 1024) -> np.ndarray:
    return _PREP_CACHE.get_or_create(
        (workload.name, seed, n),
        lambda: workload.prep_time_series(seed=seed, n=n))


def _split_serial_parallel(costs: TraceCostArrays,
                           shardable: np.ndarray) -> Tuple[float, float]:
    """Device seconds outside and inside DAP-shardable scopes.

    ``shardable`` masks the full record list.  Masked sequential sums over
    the precomputed per-kernel seconds: np.cumsum adds left to right, so
    each total is bit-identical to the scalar accumulation over the same
    subsequence.
    """
    mask = shardable[costs.exec_idx]
    return (sequential_sum(costs.seconds[~mask]),
            sequential_sum(costs.seconds[mask]))


# ----------------------------------------------------------------------
# Rank-level simulation
# ----------------------------------------------------------------------
@dataclass
class _PlanOp:
    """One entry of a rank's per-step schedule."""

    kind: str      # "compute" | "comm"
    seconds: float
    phase: str


def _build_step_plan(records: Sequence[KernelRecord],
                     segments, topo: ClusterTopology) -> List[_PlanOp]:
    """Turn kernel-level segment marks into a rank-step schedule.

    Each compute segment becomes a timed span on the rank's GPU stream; each
    embedded COMM record becomes a collective bundle (costed through the
    alpha-beta model) at exactly that position.
    """
    plan: List[_PlanOp] = []
    for seg in segments:
        if seg.wall_s > 0.0:
            plan.append(_PlanOp("compute", seg.wall_s, seg.phase))
        if seg.end_index < len(records):
            rec = records[seg.end_index]
            if rec.category is KernelCategory.COMM:
                events = (rec.tags or {}).get("dap_bundle", ())
                seconds = sum(collective_time(ev, topo) for ev in events)
                plan.append(_PlanOp("comm", seconds, rec.phase))
    return plan


#: Per-(step, rank) components the rank level reports; every component
#: but ``total`` is a share of the step, and ``total`` is their sum.
RANK_STAT_KEYS = ("compute", "dap_comm", "dap_sync", "ddp_wait", "data",
                  "host", "gate", "total")


def _run_distributed_step(plan: List[_PlanOp],
                          n_ranks: int,
                          n_steps: int,
                          buckets: List[Tuple[float, float]],
                          gate_s: float = 0.0,
                          rank_delays: Optional[np.ndarray] = None,
                          prep_series: Optional[np.ndarray] = None,
                          data_workers: int = 8,
                          data_queue_capacity: int = 16,
                          blocking_pipeline: bool = True,
                          timeline: Optional[Timeline] = None,
                          engine: Optional[str] = None
                          ) -> Dict[str, np.ndarray]:
    """Simulate ``n_steps`` distributed steps over ``n_ranks`` DAP ranks.

    Returns one ``(n_steps, n_ranks)`` array per :data:`RANK_STAT_KEYS`
    entry.  ``engine`` (see :func:`resolve_engine`) picks how: ``"fast"``
    replays the max-plus recurrences in closed form
    (:func:`_fast_distributed_step`), ``"event"`` runs the rank DES
    (:func:`_event_distributed_step`); both give bit-identical arrays.
    Only the event engine records intervals, so passing ``timeline``
    selects it, and so does a loader that may run dry (no worker, no
    queue slot, or fewer batches per rank than steps), whose stuck ranks
    only the DES reproduces.
    """
    args = (plan, n_ranks, n_steps, buckets, gate_s, rank_delays,
            prep_series, data_workers, data_queue_capacity,
            blocking_pipeline)
    loader_ok = prep_series is None or (
        data_workers >= 1 and data_queue_capacity >= 1
        and len(prep_series) // n_ranks >= n_steps)
    if timeline is None and loader_ok and resolve_engine(engine) == "fast":
        return _fast_distributed_step(*args)
    return _event_distributed_step(*args, timeline=timeline)


# Instructions of a compiled rank-step program (see _compile_rank_plan).
_ADD, _BARRIER, _LAUNCH, _WAIT = range(4)


def _compile_rank_plan(plan: Sequence[_PlanOp],
                       buckets: Sequence[Tuple[float, float]]
                       ) -> Tuple[List[Tuple[int, tuple]], float, float]:
    """Flatten a rank-step plan into the fast engine's instruction list.

    Every rank runs the same plan, so which DDP buckets launch at which
    backward op, and at what offset into it, is decided once here with
    the event engine's own expressions (the ``1e-15`` readiness slack
    included).  Instructions: ``_ADD`` advances the clock by each of its
    seconds in turn, ``_BARRIER`` is a DAP collective's sync,
    ``_LAUNCH`` starts ``(offset, bucket)`` pairs relative to the clock,
    and ``_WAIT`` launches the listed buckets now and waits for every
    launched bucket.  Also returns the per-step compute and DAP-transfer
    sums, accumulated in plan order as the event engine does.
    """
    backward_wall = sum(op.seconds for op in plan
                        if op.kind == "compute" and op.phase == "backward")
    update_start: Optional[int] = next(
        (i for i, op in enumerate(plan) if op.phase == "update"), None)
    program: List[Tuple[int, tuple]] = []
    run: List[float] = []

    def flush() -> None:
        if run:
            program.append((_ADD, tuple(run)))
            run.clear()

    compute_s = dap_comm_s = backward_done = 0.0
    next_bucket = 0
    for i, op in enumerate(plan):
        if i == update_start and buckets:
            flush()
            program.append((_WAIT, tuple(range(next_bucket, len(buckets)))))
            next_bucket = len(buckets)
        if op.kind == "compute":
            if op.phase == "backward" and buckets:
                span_end = backward_done + op.seconds
                launches = []
                while (next_bucket < len(buckets)
                       and buckets[next_bucket][0] * backward_wall
                       <= span_end + 1e-15):
                    frac = buckets[next_bucket][0]
                    launches.append((max(frac * backward_wall - backward_done,
                                         0.0), next_bucket))
                    next_bucket += 1
                if launches:
                    flush()
                    program.append((_LAUNCH, tuple(launches)))
            run.append(op.seconds)
            compute_s += op.seconds
            if op.phase == "backward":
                backward_done += op.seconds
        else:
            flush()
            program.append((_BARRIER, ()))
            run.append(op.seconds)
            dap_comm_s += op.seconds
    flush()
    if update_start is None and buckets:
        program.append((_WAIT, tuple(range(next_bucket, len(buckets)))))
    return program, compute_s, dap_comm_s


def _nic_finish(launches: List[Tuple[float, int]],
                bucket_s: Sequence[float]) -> float:
    """When the last of ``launches`` (``(time, bucket)`` in spawn order)
    leaves one rank's FIFO NIC: grants go in launch-time order, ties in
    spawn order, and ``finish = max(launch, previous finish) + seconds``.
    """
    free = -math.inf
    for launch, bucket in sorted(launches, key=itemgetter(0)):
        free = max(launch, free) + bucket_s[bucket]
    return free


def _fast_distributed_step(plan: List[_PlanOp],
                           n_ranks: int,
                           n_steps: int,
                           buckets: List[Tuple[float, float]],
                           gate_s: float,
                           rank_delays: Optional[np.ndarray],
                           prep_series: Optional[np.ndarray],
                           data_workers: int,
                           data_queue_capacity: int,
                           blocking_pipeline: bool
                           ) -> Dict[str, np.ndarray]:
    """The closed-form engine of the rank level.

    The rank level is a max-plus system: ranks differ only in loader
    waits and host jitter at the top of a step, a DAP collective or the
    end-of-step barrier sets every clock to the max over ranks, and DDP
    buckets queue FIFO on each rank's NIC.  So the engine keeps one clock
    per rank only while they differ and a single scalar once a barrier
    has equalized them, replaying every float operation of
    :func:`_event_distributed_step` in the same order: ``t + s`` per op,
    ``max - t`` sync waits, ``(t + d) - t`` jitter.  Each rank's loader
    is the same :class:`PipelineFeed` on a private simulator, advanced
    to the step start before each fetch.
    """
    program, compute_s, dap_comm_s = _compile_rank_plan(plan, buckets)
    bucket_s = [seconds for _frac, seconds in buckets]
    feeds: Optional[List[PipelineFeed]] = None
    if prep_series is not None:
        feeds = [PipelineFeed(Simulator(), prep_series[r::n_ranks],
                              data_workers, blocking=blocking_pipeline,
                              queue_capacity=data_queue_capacity)
                 for r in range(n_ranks)]
    ranks = range(n_ranks)
    stats = {k: np.zeros((n_steps, n_ranks)) for k in RANK_STAT_KEYS}
    start = 0.0
    for step in range(n_steps):
        data = [0.0] * n_ranks
        host = [0.0] * n_ranks
        sync = [0.0] * n_ranks
        ddp = [0.0] * n_ranks
        clocks = [start] * n_ranks
        if feeds is not None:
            for r in ranks:
                clocks[r] = feeds[r].ready_at(start)
                data[r] = clocks[r] - start
        if rank_delays is not None:
            for r in ranks:
                delay = float(rank_delays[step, r])
                if delay > 0.0:
                    t0 = clocks[r]
                    clocks[r] = t0 + delay
                    host[r] = clocks[r] - t0
        t = clocks[0]
        # ``uniform``: every rank's clock is ``t`` (``clocks`` is stale);
        # ``split``: some bucket launched while the clocks differed.
        uniform = all(c == t for c in clocks)
        split = False
        launched: List[Tuple[object, int]] = []
        for code, arg in program:
            if code == _ADD:
                if uniform:
                    for seconds in arg:
                        t += seconds
                else:
                    for r in ranks:
                        c = clocks[r]
                        for seconds in arg:
                            c += seconds
                        clocks[r] = c
            elif code == _BARRIER:
                if not uniform:
                    t = max(clocks)
                    for r in ranks:
                        sync[r] += t - clocks[r]
                    uniform = True
            elif code == _LAUNCH:
                if uniform:
                    launched.extend((t + off, b) for off, b in arg)
                else:
                    split = True
                    launched.extend(([c + off for c in clocks], b)
                                    for off, b in arg)
            elif uniform and not split:
                finish = _nic_finish(launched + [(t, b) for b in arg],
                                     bucket_s)
                if finish > t:
                    for r in ranks:
                        ddp[r] += finish - t
                    t = finish
            else:
                if uniform:
                    clocks = [t] * n_ranks
                for r in ranks:
                    c = clocks[r]
                    mine = [(when if isinstance(when, float) else when[r], b)
                            for when, b in launched]
                    finish = _nic_finish(mine + [(c, b) for b in arg],
                                         bucket_s)
                    if finish > c:
                        ddp[r] += finish - c
                        clocks[r] = finish
                uniform = False
        # World-size straggler gate behind the end-of-step barrier.
        extra = 0.0
        for r in ranks:
            extra = max(extra, data[r] + host[r])
        if not uniform:
            t = max(clocks)
            for r in ranks:
                sync[r] += t - clocks[r]
        gate = 0.0
        if gate_s > 0.0:
            wait = gate_s - extra
            if wait > 0.0:
                t0 = t
                t = t0 + wait
                gate = t - t0
        start = t
        for r in ranks:
            row = (compute_s, dap_comm_s, sync[r], ddp[r], data[r], host[r],
                   gate)
            for key, value in zip(RANK_STAT_KEYS, row):
                stats[key][step, r] = value
            stats["total"][step, r] = sum(row)
    return stats


def _event_distributed_step(plan: List[_PlanOp],
                            n_ranks: int,
                            n_steps: int,
                            buckets: List[Tuple[float, float]],
                            gate_s: float = 0.0,
                            rank_delays: Optional[np.ndarray] = None,
                            prep_series: Optional[np.ndarray] = None,
                            data_workers: int = 8,
                            data_queue_capacity: int = 16,
                            blocking_pipeline: bool = True,
                            timeline: Optional[Timeline] = None
                            ) -> Dict[str, np.ndarray]:
    """The event engine of the rank level (and its oracle).

    Every rank is one process; all waiting happens on simulator events
    (barriers, queue gets, resource grants), and every simulated second of
    the rank timeline is attributed to exactly one component, so the
    returned per-(step, rank) arrays tile each step's wall time.
    """
    sim = Simulator()
    barrier = Barrier(sim, n_ranks, name="dap-sync")
    backward_wall = sum(op.seconds for op in plan
                        if op.kind == "compute" and op.phase == "backward")
    update_start: Optional[int] = next(
        (i for i, op in enumerate(plan) if op.phase == "update"), None)

    keys = RANK_STAT_KEYS
    stats = {k: np.zeros((n_steps, n_ranks)) for k in keys}
    step_extra: Dict[int, float] = {}

    feeds: List[Optional[PipelineFeed]] = [None] * n_ranks
    if prep_series is not None:
        feeds = [PipelineFeed(sim, prep_series[r::n_ranks], data_workers,
                                blocking=blocking_pipeline,
                                queue_capacity=data_queue_capacity)
                 for r in range(n_ranks)]

    def spawn_bucket(nic: Resource, seconds: float, offset: float,
                     rank: int) -> Event:
        finished = Event(sim)

        def bucket_proc():
            yield nic.acquire()
            started = sim.now
            yield seconds
            nic.release()
            if timeline is not None:
                timeline.record("nic", "ddp_comm", started, sim.now, rank)
            finished.succeed(None)

        sim.schedule(offset, lambda: Process(sim, bucket_proc(),
                                               name=f"ddp-bucket-r{rank}"))
        return finished

    def rank_proc(rank: int):
        nic = Resource(sim, name=f"nic-{rank}")
        feed = feeds[rank]
        # Every rank logs into the shared timeline; consumers filter by
        # the interval's ``rank`` (the chrome-trace exporter emits one
        # track per rank, the breakdown derivation reads rank 0).
        tl = timeline
        for step in range(n_steps):
            acc = dict.fromkeys(keys, 0.0)
            if feed is not None:
                t0 = sim.now
                yield feed.get_event()
                acc["data"] = sim.now - t0
                if tl is not None:
                    tl.record("loader", "data_wait", t0, sim.now, rank)
            if rank_delays is not None:
                delay = float(rank_delays[step, rank])
                if delay > 0.0:
                    t0 = sim.now
                    yield delay
                    acc["host"] = sim.now - t0
                    if tl is not None:
                        tl.record("host", "jitter", t0, sim.now, rank)
            backward_done = 0.0
            next_bucket = 0
            bucket_events: List[Event] = []
            for i, op in enumerate(plan):
                if i == update_start:
                    # Optimizer waits on all gradient buckets: whatever the
                    # backward could not hide is the exposed DDP cost.
                    while next_bucket < len(buckets):
                        bucket_events.append(spawn_bucket(
                              nic, buckets[next_bucket][1], 0.0, rank))
                        next_bucket += 1
                    t0 = sim.now
                    for ev in bucket_events:
                        yield ev
                    acc["ddp_wait"] += sim.now - t0
                    if tl is not None:
                        tl.record("nic", "ddp_wait", t0, sim.now, rank)
                if op.kind == "compute":
                    if op.phase == "backward" and buckets:
                        # Launch every bucket whose gradients become ready
                        # inside this span, at its ready offset.
                        span_end = backward_done + op.seconds
                        while (next_bucket < len(buckets)
                                 and buckets[next_bucket][0] * backward_wall
                                 <= span_end + 1e-15):
                              frac, secs = buckets[next_bucket]
                              offset = max(frac * backward_wall - backward_done,
                                           0.0)
                              bucket_events.append(
                                  spawn_bucket(nic, secs, offset, rank))
                              next_bucket += 1
                    t0 = sim.now
                    yield op.seconds
                    acc["compute"] += op.seconds
                    if op.phase == "backward":
                        backward_done += op.seconds
                    if tl is not None:
                        tl.record("gpu", "compute", t0, sim.now, rank)
                else:
                    t0 = sim.now
                    yield barrier.arrive()
                    acc["dap_sync"] += sim.now - t0
                    if tl is not None:
                        tl.record("nic", "dap_sync", t0, sim.now, rank)
                    t0 = sim.now
                    yield op.seconds
                    acc["dap_comm"] += op.seconds
                    if tl is not None:
                        tl.record("nic", "dap_comm", t0, sim.now, rank)
            if update_start is None and (buckets or bucket_events):
                while next_bucket < len(buckets):
                    bucket_events.append(spawn_bucket(
                        nic, buckets[next_bucket][1], 0.0, rank))
                    next_bucket += 1
                t0 = sim.now
                for ev in bucket_events:
                    yield ev
                acc["ddp_wait"] += sim.now - t0
            # World-size straggler gate at the gradient sync: the DAP group
            # re-synchronizes here, and the step cannot complete before the
            # slowest of the whole data-parallel world.
            extra = acc["data"] + acc["host"]
            step_extra[step] = max(step_extra.get(step, 0.0), extra)
            t0 = sim.now
            yield barrier.arrive()
            acc["dap_sync"] += sim.now - t0
            if gate_s > 0.0:
                wait = gate_s - step_extra[step]
                if wait > 0.0:
                    t0 = sim.now
                    yield wait
                    acc["gate"] = sim.now - t0
                    if tl is not None:
                        tl.record("nic", "world_gate", t0, sim.now, rank)
            acc["total"] = sum(acc[k] for k in keys if k != "total")
            for k in keys:
                stats[k][step, rank] = acc[k]

    for r in range(n_ranks):
        sim.process(rank_proc(r), name=f"rank-{r}")
    sim.run()
    return stats


def _scenario_key(scenario: Scenario, engine: Optional[str] = None) -> Tuple:
    # The registry token pins the key to the *current* spec registered
    # under the name: re-registering a calibrated spec bumps the epoch,
    # so estimates computed against the replaced spec can't be replayed.
    # The resolved engine keeps an event-engine check from being served
    # a fast-engine memo (and the reverse).
    values = (getattr(scenario, f.name) for f in dataclasses.fields(scenario))
    return tuple(_policy_key(v) if isinstance(v, KernelPolicy) else v
                 for v in values) + (registry_token(scenario.gpu),
                                     resolve_engine(engine))


_ESTIMATE_CACHE = register_cache(LruCache(capacity=256, name="step-estimates"))

#: DAP partitioning + the torch.compile record transform are pure
#: deterministic functions of (trace identity, DAP degree, compile flag);
#: the resulting record lists (and their shardability masks) are immutable
#: by convention, so scenarios sharing a partitioned trace share one entry
#: instead of re-partitioning ~150k records per estimate.  Sized for the
#: optimizer's joint knob search (policy x DAP x compile combinations
#: alive at once), not just the 10-rung ladder; entries are full record
#: lists, so the cap stays moderate.
_DAP_CACHE = register_cache(LruCache(capacity=32, name="dap-partitions"))


def clear_estimate_cache() -> None:
    _ESTIMATE_CACHE.clear()


def clear_partition_cache() -> None:
    """Drop cached DAP partitions (records and shardability masks)."""
    _DAP_CACHE.clear()


def _partition(scenario: Scenario, trace: StepTrace
               ) -> Tuple[List[KernelRecord], np.ndarray]:
    """One rank's records under ``scenario``'s DAP degree (and the
    torch.compile transform), with the mask of records in the workload's
    DAP-shardable scopes."""
    wl = get_workload(scenario.workload)
    cfg = wl.full_config(scenario.policy)
    itemsize = 2 if scenario.policy.dtype.name in ("bf16", "fp16") else 4
    bundles = wl.dap_comm_bundles(cfg, scenario.dap_n, itemsize,
                                  scenario.policy.activation_checkpointing)
    dap = partition_step(trace, scenario.dap_n, cfg, emit_comm_records=True,
                         shardable_scopes=wl.shardable_scopes,
                         bundles=bundles)
    records = dap.records
    if scenario.torch_compile:
        records = apply_torch_compile(records)
    shardable = np.fromiter(
        (is_shardable(r, wl.shardable_scopes) for r in records),
        dtype=bool, count=len(records))
    return records, shardable


def estimate_step_time(scenario: Scenario,
                       trace: Optional[StepTrace] = None,
                       topo: Optional[ClusterTopology] = None,
                       engine: Optional[str] = None) -> StepEstimate:
    """Simulate one scenario's expected step time (two-level DES).

    ``engine`` (``"fast"``/``"event"``, default from
    :func:`resolve_engine`) is resolved once and used by both levels;
    the two engines give bit-identical estimates.
    """
    engine = resolve_engine(engine)
    cacheable = trace is None and topo is None
    if cacheable:
        key = _scenario_key(scenario, engine)
        cached = _ESTIMATE_CACHE.get(key)
        if cached is not None:
            return cached

    wl = get_workload(scenario.workload)
    gpu = get_gpu(scenario.gpu)
    topo = topo or ClusterTopology(gpu=gpu, n_gpus=scenario.world_size)
    own_trace = trace is None
    trace = trace or build_step_trace(scenario.policy,
                                      n_recycle=scenario.n_recycle,
                                      workload=wl)

    records_id = material = None
    if own_trace:
        records_id = ("dap-records",
                      trace_key(scenario.policy, n_recycle=scenario.n_recycle,
                                workload=wl),
                      scenario.dap_n, scenario.torch_compile)
        records, shardable = _DAP_CACHE.get_or_create(
            records_id, lambda: _partition(scenario, trace))
        # The per-kernel cost arrays depend only on (trace identity, DAP
        # degree, compile transform, GPU spec, autotune): one evaluation
        # shared by every scenario over the same partitioned trace — and,
        # via the on-disk store, by every fresh process.
        material = cost_cache_material(repr(records_id), gpu, True)
    else:
        records, shardable = _partition(scenario, trace)

    # --- kernel level: dispatch vs compute streams, segment marks at every
    # collective position and phase boundary ---
    cost = CostModel(gpu, autotune=True)
    # structure_key is the GPU-independent half of the material: a GPU
    # change misses on the cost arrays but re-costs the cached
    # TraceStructure instead of re-walking the partitioned records.
    costs = trace_cost_arrays(records, cost, store_material=material,
                              structure_key=records_id)
    breakdown = simulate_step(records, gpu, cost,
                              graphed=scenario.cuda_graphs,
                              segment_marks=costs.default_marks,
                              costs=costs, engine=engine)
    plan = _build_step_plan(records, breakdown.segments, topo)
    serial_s, parallel_s = _split_serial_parallel(costs, shardable)

    itemsize = 2 if scenario.policy.dtype.name in ("bf16", "fp16") else 4
    param_bytes = trace.n_params * itemsize
    ddp_config = DdpConfig(bucket_bytes=int(scenario.ddp_bucket_mb * 2**20))
    buckets = bucket_schedule(param_bytes, scenario.dp_degree, topo,
                              config=ddp_config)

    # --- rank level, dry run: a deterministic pass (no jitter, no loader)
    # whose emergent step time is the trainer's service rate for the data
    # pipeline model ---
    dry = _run_distributed_step(plan, scenario.dap_n, n_steps=2,
                                buckets=buckets, engine=engine)
    nominal_step = float(dry["total"][-1, 0])

    prep = _prep_times(wl, seed=5, n=768)
    stall = stall_model(prep, scenario.data_workers, max(nominal_step, 1e-3),
                        blocking=not scenario.nonblocking_pipeline,
                        queue_capacity=scenario.data_queue_capacity)
    data_stall_mean = stall.probability * stall.mean_stall_s

    # --- straggler inputs: per-rank jitter for the simulated DAP group, and
    # the world-size gate (the slowest of the whole synchronized world) ---
    jittered = scenario.imbalance_enabled and scenario.world_size > 1
    n_steps = N_WARMUP_STEPS + N_MEASURED_STEPS
    gate = 0.0
    rank_delays = None
    prep_series = None
    if jittered:
        jitter = CpuJitterConfig(gc_enabled=not scenario.gc_disabled)
        model = StragglerModel(jitter=jitter, seed=scenario.seed)
        inputs = ImbalanceInputs(
            eager_dispatch_s=breakdown.dispatch_total_s,
            graphed=scenario.cuda_graphs,
            data_stall_probability=stall.probability,
            data_stall_mean_s=stall.mean_stall_s,
        )
        # Every rank must pass the same all-reduce: the slowest of the
        # whole world gates the step.  (Sampling cost is bounded by capping
        # the simulated group at 256 ranks; E[max] grows ~log beyond.)
        group = min(scenario.world_size, 256)
        delays = model.sample_rank_delays(inputs, group, n_steps=500)
        gate = float(delays.max(axis=1).mean())
        # The simulated ranks draw their own jitter (data stalls emerge from
        # the loader queues instead, so they are excluded here).
        rank_model = StragglerModel(
            jitter=jitter, seed=scenario.seed + _RANK_JITTER_SEED_OFFSET)
        rank_delays = rank_model.sample_rank_delays(
            dataclasses.replace(inputs, data_stall_probability=0.0,
                                data_stall_mean_s=0.0),
            scenario.dap_n, n_steps)
        prep_series = prep

    # --- rank level, full run (its timeline is recorded on demand) ---
    rank_args = dict(
        plan=plan, n_ranks=scenario.dap_n, n_steps=n_steps, buckets=buckets,
        gate_s=gate, rank_delays=rank_delays, prep_series=prep_series,
        data_workers=scenario.data_workers,
        data_queue_capacity=scenario.data_queue_capacity,
        blocking_pipeline=not scenario.nonblocking_pipeline)
    stats = _run_distributed_step(engine=engine, **rank_args)

    window = slice(N_WARMUP_STEPS, None)

    def mean0(key: str) -> float:
        return float(stats[key][window, 0].mean())

    compute_s = mean0("compute")
    dap_comm_s = mean0("dap_comm")
    ddp_exposed_s = mean0("ddp_wait")
    imbalance_s = mean0("data") + mean0("host") + mean0("dap_sync") + mean0("gate")
    total = compute_s + dap_comm_s + ddp_exposed_s + imbalance_s
    estimate = StepEstimate(
        scenario_label=scenario.label(),
        compute_s=compute_s,
        cpu_exposed_s=breakdown.cpu_exposed_s,
        serial_compute_s=serial_s,
        parallel_compute_s=parallel_s,
        dap_comm_s=dap_comm_s,
        ddp_exposed_s=ddp_exposed_s,
        imbalance_s=imbalance_s,
        data_stall_mean_s=data_stall_mean,
        total_s=total,
        kernel_count=breakdown.kernel_count,
        stall=stall,
        rank_run=RankRun(**rank_args),
    )
    if cacheable:
        _ESTIMATE_CACHE.put(key, estimate)
    return estimate


def estimate_many(scenarios: Sequence[Scenario],
                  max_workers: Optional[int] = None) -> List[StepEstimate]:
    """Estimate a batch of scenarios, fanning out over worker threads.

    Workers share every process-level cache — step traces, cost arrays,
    prep series, autotune results embedded in the arrays — so each distinct
    (policy, DAP, GPU) combination is costed once no matter how many
    scenarios sweep over it.  Shared inputs (traces and cost arrays) are
    pre-warmed serially to keep concurrent misses from duplicating the
    expensive meta-build.  The rank level is pure Python, so the win
    comes from overlapping the numpy/cost phases; workers default to a
    modest pool.
    """
    scenarios = list(scenarios)
    if max_workers is None:
        max_workers = min(4, len(scenarios), os.cpu_count() or 1)
    if max_workers <= 1 or len(scenarios) <= 1:
        return [estimate_step_time(s) for s in scenarios]
    seen = set()
    for s in scenarios:
        warm_key = (s.workload, _policy_key(s.policy), s.n_recycle)
        if warm_key not in seen:
            seen.add(warm_key)
            # Serial pre-warm exists to keep concurrent misses from
            # duplicating the expensive meta-build; a trace that is already
            # warm (memo or disk store) loads cheaply and race-free inside
            # the workers, so skip it here.
            if not trace_is_warm(s.policy, n_recycle=s.n_recycle,
                                 workload=s.workload):
                build_step_trace(s.policy, n_recycle=s.n_recycle,
                                 workload=s.workload)
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(estimate_step_time, scenarios))


# ----------------------------------------------------------------------
# Figure 3: barrier decomposition
# ----------------------------------------------------------------------
@dataclass
class BarrierBreakdown:
    """Gap between actual DAP-n step time and the ideal DAP-1/n time."""

    dap_n: int
    actual_s: float
    ideal_s: float
    cpu_overhead_s: float
    serial_modules_s: float
    kernel_scalability_s: float
    comm_overhead_s: float
    imbalanced_comm_s: float

    @property
    def gap_s(self) -> float:
        return self.actual_s - self.ideal_s

    def shares(self) -> Dict[str, float]:
        gap = max(self.gap_s, 1e-12)
        return {
            "cpu_overhead": self.cpu_overhead_s / gap,
            "serial_modules": self.serial_modules_s / gap,
            "kernel_scalability": self.kernel_scalability_s / gap,
            "comm_overhead": self.comm_overhead_s / gap,
            "imbalanced_comm": self.imbalanced_comm_s / gap,
        }


def barrier_breakdown(scenario: Scenario,
                      base_estimate: Optional[StepEstimate] = None) -> BarrierBreakdown:
    """Decompose why DAP-n falls short of linear scaling (paper Fig. 3).

    Matches the paper's methodology: each factor is "the relative difference
    between the actual time and the theoretically optimal time" with that
    factor idealized away.
    """
    n = scenario.dap_n
    est = estimate_step_time(scenario)
    base = base_estimate or estimate_step_time(
        dataclasses.replace(scenario, dap_n=1))
    ideal = base.total_s / n
    serial_gap = est.serial_compute_s - base.serial_compute_s / n
    kernel_gap = est.parallel_compute_s - base.parallel_compute_s / n
    cpu_gap = est.cpu_exposed_s - base.cpu_exposed_s / n
    return BarrierBreakdown(
        dap_n=n,
        actual_s=est.total_s,
        ideal_s=ideal,
        cpu_overhead_s=max(cpu_gap, 0.0),
        serial_modules_s=max(serial_gap, 0.0),
        kernel_scalability_s=max(kernel_gap, 0.0),
        comm_overhead_s=est.dap_comm_s + est.ddp_exposed_s,
        imbalanced_comm_s=est.imbalance_s,
    )


# ----------------------------------------------------------------------
# Figure 8: the optimization ladder
# ----------------------------------------------------------------------
def optimization_ladder(gpu: str = "H100",
                        dp_degree: int = 128) -> List[Scenario]:
    """The step-by-step optimization sequence of Figure 8 (cumulative)."""
    p = KernelPolicy.reference()
    steps: List[Scenario] = []

    def add(policy: KernelPolicy, **kw) -> None:
        base = dict(gpu=gpu, dp_degree=dp_degree)
        base.update(kw)
        steps.append(Scenario(policy=policy, **base))

    add(p)                                                     # reference
    p = p.replace(batched_gemm=True)
    add(p)                                                     # + GEMM batching
    add(p, nonblocking_pipeline=True)                          # + dataloader
    p = p.replace(dtype=bfloat16)
    add(p, nonblocking_pipeline=True)                          # + bf16
    p = p.replace(fused_mha=True)
    add(p, nonblocking_pipeline=True)                          # + Triton MHA
    p = p.replace(fused_layernorm=True)
    add(p, nonblocking_pipeline=True)                          # + Triton LN
    p = p.replace(fused_adam_swa=True, bucketed_clip=True)
    add(p, nonblocking_pipeline=True)                          # + FusedAdam+SWA
    p_dap = p.replace(activation_checkpointing=False)
    add(p_dap, nonblocking_pipeline=True, dap_n=8,
        dp_degree=dp_degree, cuda_graphs=True)                 # + DAP-8+graph+no-ckpt
    add(p_dap, nonblocking_pipeline=True, dap_n=8,
        cuda_graphs=True, gc_disabled=True)                    # + GC off
    add(p_dap, nonblocking_pipeline=True, dap_n=8,
        cuda_graphs=True, gc_disabled=True, torch_compile=True)  # + compile
    return steps


LADDER_LABELS = [
    "reference", "+gemm_batching", "+nonblocking_dataloader", "+bf16",
    "+triton_mha", "+triton_layernorm", "+fused_adam_swa",
    "+dap8_cudagraph_nockpt", "+gc_disabled", "+torch_compile",
]
