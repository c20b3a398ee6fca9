"""Delta-aware re-simulation: per-knob invalidation and bit-identity.

Every scenario knob declares the deepest simulation stage it reaches
(``repro.optimize.space.KNOB_STAGES``); these tests pin that contract to
the caches.  A single-knob change must (a) recompute *only* the segments
that knob touches — observed through the structure/cost build counters
and the registered cache statistics — and (b) produce a step estimate
bit-identical to a cold rebuild with every derived cache cleared.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.distributed.dap import is_shardable
from repro.framework import dtypes
from repro.framework.caching import cache_registry
from repro.framework.trace_io import default_store
from repro.model.config import KernelPolicy
from repro.perf import scaling
from repro.perf.bench import estimates_equal
from repro.perf.scaling import (Scenario, clear_estimate_cache,
                                clear_partition_cache, estimate_step_time)
from repro.perf.vector_cost import (build_counters, clear_cost_cache,
                                    reset_build_counters)


@pytest.fixture(autouse=True)
def _no_disk_arrays(monkeypatch):
    """Force every cache decision in-process: no on-disk array hits."""
    monkeypatch.setattr(default_store(), "enabled", False)


def _base() -> Scenario:
    return Scenario(policy=KernelPolicy.reference(), gpu="H100", dap_n=2,
                    dp_degree=8)


def _delta_counters(base: Scenario, **changes):
    """Build counts + cache misses incurred by one knob delta.

    Warms ``base`` from scratch (derived caches cleared first so earlier
    tests cannot pre-seed the segments under measurement), drops only the
    top-level estimate memo, then re-estimates with ``changes`` applied.
    The shardability walk is counted as ``counters["is_shardable"]``:
    calls to ``is_shardable`` made by the delta's estimate.
    """
    clear_estimate_cache()
    clear_partition_cache()
    clear_cost_cache()
    estimate_step_time(base)
    clear_estimate_cache()
    reset_build_counters()
    calls = [0]

    def counting_is_shardable(*args, **kwargs):
        calls[0] += 1
        return is_shardable(*args, **kwargs)

    before = {name: st.misses for name, st in cache_registry().items()}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scaling, "is_shardable", counting_is_shardable)
        estimate_step_time(dataclasses.replace(base, **changes))
    after = {name: st.misses for name, st in cache_registry().items()}
    misses = {name: after[name] - before.get(name, 0) for name in after}
    return dict(build_counters(), is_shardable=calls[0]), misses


RANK_DELTAS = [
    {"gc_disabled": True},
    {"cuda_graphs": True},
    {"ddp_bucket_mb": 50.0},
    {"dp_degree": 16},
]


class TestPerKnobInvalidation:
    @pytest.mark.parametrize("changes", RANK_DELTAS,
                             ids=lambda c: next(iter(c)))
    def test_rank_knobs_reuse_every_segment(self, changes):
        counters, misses = _delta_counters(_base(), **changes)
        assert counters["structure_builds"] == 0
        assert counters["cost_builds"] == 0
        assert counters["is_shardable"] == 0    # shard mask reused
        assert misses.get("dap-partitions", 0) == 0
        assert misses.get("step-traces", 0) == 0

    def test_gpu_knob_rebuilds_only_the_cost_segment(self):
        counters, misses = _delta_counters(_base(), gpu="A100")
        assert counters["structure_builds"] == 0  # trace walk reused
        assert counters["cost_builds"] == 1       # seconds re-priced
        assert counters["is_shardable"] == 0      # shard mask reused
        assert misses.get("dap-partitions", 0) == 0
        assert misses.get("step-traces", 0) == 0

    def test_dap_knob_rebuilds_partition_and_below(self):
        counters, misses = _delta_counters(_base(), dap_n=4)
        assert misses.get("dap-partitions", 0) == 1
        assert counters["is_shardable"] >= 1      # new shard mask
        assert counters["structure_builds"] == 1  # new record stream
        assert counters["cost_builds"] == 1
        assert misses.get("step-traces", 0) == 0  # trace itself reused

    def test_precision_knob_rebuilds_the_trace(self):
        base = _base()
        bf16 = dataclasses.replace(
            base, policy=base.policy.replace(dtype=dtypes.bfloat16))
        counters, misses = _delta_counters(base, policy=bf16.policy)
        assert misses.get("step-traces", 0) >= 1
        assert counters["structure_builds"] >= 1
        assert counters["cost_builds"] >= 1


class TestDeltaBitIdentity:
    @pytest.mark.parametrize(
        "changes",
        RANK_DELTAS + [{"gpu": "A100"}, {"dap_n": 4}],
        ids=lambda c: next(iter(c)))
    def test_warm_delta_matches_cold_rebuild(self, changes):
        base = _base()
        changed = dataclasses.replace(base, **changes)
        estimate_step_time(base)
        warm = estimate_step_time(changed)

        clear_estimate_cache()
        clear_partition_cache()
        clear_cost_cache()
        cold = estimate_step_time(changed)
        assert estimates_equal(warm, cold)
