"""Inference pricing: calibrated forward costs and the batching model."""

import pytest

from repro.serve.costs import inference_cost, prep_seconds


@pytest.fixture(scope="module")
def af_cost():
    return inference_cost("alphafold", preset="tiny")


@pytest.fixture(scope="module")
def tr_cost():
    return inference_cost("transformer", preset="tiny")


class TestInferenceCost:
    def test_costs_come_from_the_forward_trace(self, af_cost, tr_cost):
        for cost in (af_cost, tr_cost):
            assert cost.device_s > 0
            assert cost.n_kernels > 0
            # Eager single-request wall time includes the exposed dispatch
            # stream, so it can never undercut the device-busy time.
            assert cost.launch_s >= cost.device_s

    def test_base_length_matches_preset(self, af_cost, tr_cost):
        from repro.workloads import get_workload

        assert af_cost.base_length == \
            get_workload("alphafold").preset("tiny").n_res
        assert tr_cost.base_length == \
            get_workload("transformer").preset("tiny").seq_len

    def test_length_exponents(self, af_cost, tr_cost):
        base = af_cost.base_length
        # AlphaFold: quadratic pair activations.
        assert af_cost.request_device_s(2 * base) == pytest.approx(
            4 * af_cost.request_device_s(base))
        # Transformer: linear token work.
        assert tr_cost.request_device_s(2 * tr_cost.base_length) == \
            pytest.approx(2 * tr_cost.request_device_s(tr_cost.base_length))

    def test_batching_is_launch_bound_then_compute_bound(self, af_cost):
        base = af_cost.base_length
        # One base-length request is launch-bound: the dispatch stream
        # dominates, so batching small requests is free...
        assert af_cost.batch_seconds([base]) == af_cost.launch_s
        assert af_cost.batch_seconds([base, base]) == af_cost.launch_s
        # ...until summed device work crosses the launch floor.
        big = [8 * base] * 4
        assert af_cost.batch_seconds(big) == pytest.approx(
            sum(af_cost.request_device_s(length) for length in big))

    def test_batch_seconds_monotone_in_membership(self, tr_cost):
        lengths = [tr_cost.base_length * k for k in (1, 2, 4, 8)]
        for i in range(1, len(lengths)):
            assert tr_cost.batch_seconds(lengths[:i + 1]) >= \
                tr_cost.batch_seconds(lengths[:i])

    def test_as_dict_round_trips_json(self, af_cost):
        import json

        payload = json.loads(json.dumps(af_cost.as_dict()))
        assert payload["workload"] == "alphafold"
        assert payload["length_exponent"] == 2.0


class TestPrepSeconds:
    def test_deterministic_and_positive(self):
        a = prep_seconds("alphafold", 64, seed=3)
        b = prep_seconds("alphafold", 64, seed=3)
        assert (a == b).all()
        assert (a > 0).all()

    def test_alphafold_prep_dwarfs_transformer_prep(self):
        # ParaFold's premise: protein featurization is orders of magnitude
        # heavier than tokenized-text loading.
        af = prep_seconds("alphafold", 256, seed=0).mean()
        tr = prep_seconds("transformer", 256, seed=0).mean()
        assert af > 50 * tr


def test_replaced_spec_is_repriced(monkeypatch):
    """Re-registering a GPU name with a slower spec re-prices inference
    instead of serving the old spec's cached forward costs."""
    import dataclasses

    from repro.framework.trace_io import default_store
    from repro.hardware.gpu import H100, register_gpu, unregister_gpu
    from repro.perf.vector_cost import clear_cost_cache

    monkeypatch.setattr(default_store(), "enabled", False)
    slow = dataclasses.replace(
        H100, name="SERVE-SLOW",
        peak_tflops={k: v / 4 for k, v in H100.peak_tflops.items()},
        mem_bw_gbps=H100.mem_bw_gbps / 4)
    register_gpu("SERVE-SWAP", dataclasses.replace(H100, name="SERVE-SLOW"))
    try:
        before = inference_cost("transformer", preset="small",
                                gpu="SERVE-SWAP")
        register_gpu("SERVE-SWAP", slow, replace=True)
        after = inference_cost("transformer", preset="small",
                               gpu="SERVE-SWAP")
        register_gpu("SERVE-SLOW", slow)
        clear_cost_cache()
        fresh = inference_cost("transformer", preset="small",
                               gpu="SERVE-SLOW")
    finally:
        unregister_gpu("SERVE-SWAP")
        unregister_gpu("SERVE-SLOW")
    assert after.device_s > before.device_s
    assert after.device_s == fresh.device_s
    assert after.launch_s == fresh.launch_s
