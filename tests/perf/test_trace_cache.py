"""The trace cache must key on the model config, not just the policy."""

import pytest

from repro.model.config import AlphaFoldConfig, KernelPolicy
from repro.perf.trace_builder import build_step_trace


class TestConfigAwareCache:
    def test_custom_cfg_never_returns_full_size_cached_trace(self):
        policy = KernelPolicy.reference()
        full = build_step_trace(policy)  # seeds (or hits) the cache
        small_cfg = AlphaFoldConfig.full(policy).replace(
            evoformer_blocks=4, extra_msa_blocks=2, template_blocks=1)
        small = build_step_trace(policy, cfg=small_cfg)
        assert small.n_kernels < full.n_kernels

    def test_custom_cfg_is_cached_under_its_own_key(self):
        policy = KernelPolicy.reference()
        small_cfg = AlphaFoldConfig.full(policy).replace(
            evoformer_blocks=4, extra_msa_blocks=2, template_blocks=1)
        first = build_step_trace(policy, cfg=small_cfg)
        second = build_step_trace(policy, cfg=small_cfg)
        assert second is first
        # And the full-size trace is untouched by the smaller entry.
        full = build_step_trace(policy)
        assert full.n_kernels > first.n_kernels


@pytest.mark.parametrize("enabled", [True, False])
def test_build_leaves_the_collector_as_it_found_it(enabled):
    """The meta build pauses the cyclic collector and restores its state."""
    import gc

    policy = KernelPolicy.reference()
    cfg = AlphaFoldConfig.small(policy)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        build_step_trace(policy, cfg=cfg, use_cache=False)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
