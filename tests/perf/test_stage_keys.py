"""Estimate-path keys and the serial/parallel split, against their oracles.

* The masked-cumsum split must equal the scalar per-record loop it
  replaced, bit for bit.
* The estimate memo key is derived from ``dataclasses.fields(Scenario)``:
  changing any single field must change it.
* The policy signature and the disk-store key material must not drift,
  or a store filled by an earlier build stops serving this one.
* Every cache hit-rate gate must name a registered cache.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.distributed.dap import is_shardable
from repro.framework.trace_io import content_key
from repro.framework.tracer import KernelCategory
from repro.hardware import CostModel
from repro.hardware.gpu import get_gpu
from repro.model.config import KernelPolicy
from repro.perf import bench, scaling
from repro.perf.scaling import Scenario, _scenario_key, estimate_step_time
from repro.perf.trace_builder import (_policy_key, build_step_trace,
                                      trace_key, trace_store_material)
from repro.perf.vector_cost import cost_cache_material
from repro.workloads import get_workload


def _scalar_split(records, cost, scopes):
    """The scalar split loop the masked sums replaced (the oracle)."""
    serial = parallel = 0.0
    for r in records:
        if r.category is KernelCategory.COMM:
            continue
        if r.tags and r.tags.get("hidden_by_comm"):
            continue
        t = cost.kernel_seconds(r)
        if is_shardable(r, scopes):
            parallel += t
        else:
            serial += t
    return serial, parallel


@pytest.mark.parametrize("scenario", [
    bench.golden_scenario(),
    Scenario(policy=KernelPolicy.reference(), gpu="H100", dap_n=2,
             dp_degree=8),
], ids=["golden", "incremental-base"])
def test_masked_split_matches_scalar_loop(scenario):
    estimate = estimate_step_time(scenario)
    trace = build_step_trace(scenario.policy, n_recycle=scenario.n_recycle,
                             workload=scenario.workload)
    records, _ = scaling._partition(scenario, trace)
    cost = CostModel(get_gpu(scenario.gpu), autotune=True)
    scopes = get_workload(scenario.workload).shardable_scopes
    serial, parallel = _scalar_split(records, cost, scopes)
    assert estimate.serial_compute_s == serial
    assert estimate.parallel_compute_s == parallel


def _changed(value):
    if isinstance(value, KernelPolicy):
        return value.replace(fused_mha=not value.fused_mha)
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value * 2 + 1
    return value + "-changed"


@pytest.mark.parametrize("name",
                         [f.name for f in dataclasses.fields(Scenario)])
def test_every_scenario_field_changes_the_key(name):
    base = Scenario()
    changed = dataclasses.replace(base,
                                  **{name: _changed(getattr(base, name))})
    assert _scenario_key(changed) != _scenario_key(base)
    assert _scenario_key(base) == _scenario_key(Scenario())


@pytest.mark.parametrize("policy", [
    KernelPolicy.reference(),
    KernelPolicy.scalefold(checkpointing=False),
    KernelPolicy.scalefold(checkpointing=True),
], ids=["reference", "scalefold", "scalefold-ckpt"])
def test_policy_key_matches_the_stored_trace_key(policy):
    legacy = (policy.fused_layernorm, policy.fused_mha, policy.batched_gemm,
              policy.fused_adam_swa, policy.bucketed_clip,
              policy.activation_checkpointing, policy.dtype.name, 1, True)
    assert repr(_policy_key(policy, 1, True)) == repr(legacy)


def test_golden_store_material_is_stable():
    """Digests of the golden scenario's trace and cost-array entries as
    written by the store's earlier builds."""
    scenario = bench.golden_scenario()
    key = trace_key(scenario.policy, n_recycle=scenario.n_recycle,
                    workload=scenario.workload)
    records_id = ("dap-records", key, scenario.dap_n, scenario.torch_compile)
    assert content_key(trace_store_material(key)) == (
        "34585efe2c5aeb0474fee6f2e7aa0ebd10cce4aca4877aca38fe68ebbe2d63c8")
    assert content_key(cost_cache_material(
        repr(records_id), get_gpu(scenario.gpu), True)) == (
        "114b061ba219b2288b0f0998fab13b84175a8bfcae5008e610ca9dc5c75f5fb4")


def test_every_gated_cache_is_registered():
    gates = bench.cache_gate_report()["gates"]
    assert set(gates) == set(bench.CACHE_HIT_THRESHOLDS)
    assert all(row["registered"] for row in gates.values())


def test_unregistered_cache_fails_its_gate(monkeypatch):
    monkeypatch.setitem(bench.CACHE_HIT_THRESHOLDS, "no-such-cache", 0.5)
    report = bench.cache_gate_report()
    assert report["gates"]["no-such-cache"]["registered"] is False
    assert report["gates"]["no-such-cache"]["ok"] is False
    assert report["ok"] is False
