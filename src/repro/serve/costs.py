"""Per-request inference pricing from the calibrated trace machinery.

ParaFold's core observation is that prediction serving splits into a CPU
feature-preparation stage and a GPU model-execution stage with wildly
different costs.  PrismLLM's lesson is that a fleet simulator is only
trustworthy when its per-request numbers come from the same calibrated cost
model the training path already validates.  This module implements both:

* the GPU side of a request is priced from the *forward phase* of the real
  step trace (:func:`repro.perf.trace_builder.build_step_trace`) costed
  through :func:`repro.perf.vector_cost.trace_cost_arrays` — the exact
  arrays the training-step fast path aggregates, sharing its in-memory LRU
  and content-addressed disk store;
* the CPU side reuses the workload's calibrated preparation-time series
  (Figure 4's heavy-tailed featurization model for AlphaFold, near-uniform
  tokenization for the transformer).

Batching model (where the serving throughput lives): a batch launches the
same kernel sequence once regardless of batch size, so its wall time is

    ``max(launch_s, sum_i (L_i / L0) ** alpha * device_s)``

— launch-bound below the crossover batch size (batching is free: the fixed
eager dispatch stream dominates), compute-bound above it (linear in summed
request work).  ``alpha`` is the workload's ``serve_length_exponent``
(quadratic pair activations for AlphaFold, linear token work for the
decoder).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

import numpy as np

from ..hardware.gpu import get_gpu
from ..hardware.roofline import CostModel
from ..model.config import KernelPolicy
from ..perf.step_time import simulate_step
from ..perf.trace_builder import build_step_trace, trace_key
from ..perf.vector_cost import cost_cache_material, trace_cost_arrays
from ..workloads import Workload, get_workload


@dataclass(frozen=True)
class InferenceCost:
    """Calibrated GPU-side cost of serving one workload at one preset."""

    workload: str
    preset: str
    gpu: str
    #: Canonical request length the trace was built at (residues/tokens).
    base_length: int
    #: Device-busy forward seconds for one base-length request.
    device_s: float
    #: Eager wall seconds of one forward pass at batch size 1 — the
    #: launch-bound floor a batch cannot beat (dispatch happens once per
    #: batch, not once per request).
    launch_s: float
    #: Length-scaling exponent of per-request device work.
    length_exponent: float
    #: Forward-phase kernel launches (reported, not priced directly).
    n_kernels: int

    def request_device_s(self, length: float) -> float:
        """Device seconds one request of ``length`` contributes."""
        return self.device_s * (length / self.base_length) ** self.length_exponent

    def batch_seconds(self, lengths: Iterable[float]) -> float:
        """Wall seconds one batched forward pass takes on a GPU worker."""
        work = sum(self.request_device_s(length) for length in lengths)
        return max(self.launch_s, work)

    def as_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "preset": self.preset,
            "gpu": self.gpu,
            "base_length": self.base_length,
            "device_s": self.device_s,
            "launch_s": self.launch_s,
            "length_exponent": self.length_exponent,
            "n_kernels": self.n_kernels,
        }


def inference_cost(workload, preset: str = "small", gpu: str = "H100",
                   policy: Optional[KernelPolicy] = None) -> InferenceCost:
    """Price one workload's inference from its real forward kernel stream.

    Builds (or loads from cache) the step trace at ``preset``, restricts it
    to forward-phase records, and costs them through the shared vectorized
    cost arrays.  Inference runs the fused policy without activation
    checkpointing — there is no backward pass to recompute for.
    """
    wl: Workload = get_workload(workload)
    policy = policy or KernelPolicy.scalefold(checkpointing=False)
    cfg = wl.preset(preset, policy)
    step = build_step_trace(policy=policy, cfg=cfg, workload=wl)
    forward = [r for r in step.trace.records if r.phase == "forward"]

    gpu_spec = get_gpu(gpu)
    cost_model = CostModel(gpu_spec, autotune=True)
    key = trace_key(policy=policy, cfg=cfg, workload=wl)
    arrays = trace_cost_arrays(
        forward, cost_model,
        store_material=cost_cache_material(
            repr(("serve-fwd", key)), gpu_spec, True))
    device_s = arrays.phase_seconds().get("forward", 0.0)
    # Eager (non-graphed) single-request wall time: device work plus the
    # exposed dispatch stream — the per-batch fixed cost batching amortizes.
    breakdown = simulate_step(forward, gpu_spec, cost_model, graphed=False,
                              costs=arrays)
    return InferenceCost(
        workload=wl.name,
        preset=preset,
        gpu=gpu,
        base_length=wl.serve_length(cfg),
        device_s=device_s,
        launch_s=breakdown.total_s,
        length_exponent=wl.serve_length_exponent,
        n_kernels=arrays.m,
    )


def prep_seconds(workload, n: int, seed: int = 0) -> np.ndarray:
    """Per-request CPU feature-preparation seconds (calibrated series)."""
    wl = get_workload(workload)
    return np.asarray(wl.prep_time_series(seed=seed, n=n), dtype=np.float64)
