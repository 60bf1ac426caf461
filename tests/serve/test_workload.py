"""Serving workload generators are deterministic, seeded properties.

Every stream — open or closed, uniform or Zipfian, bursty or flat — is
a pure function of its :class:`~repro.serve.workload.ServeConfig`:
identical configs are byte-stable (equal fingerprints), different seeds
diverge, and the structural invariants (sorted open-loop arrivals,
per-session closed-loop chains, mix-restricted operations) hold across
a seed sweep.
"""

import pytest

from repro.adts.registry import make_adt
from repro.serve import (
    BurstEnvelope,
    ServeConfig,
    generate,
    zipf_weights,
)

SEEDS = [1, 2, 7, 11, 23, 47, 101, 1991, 2024, 31337]


@pytest.fixture(scope="module")
def account():
    return make_adt("Account")


@pytest.fixture(scope="module")
def qstack():
    return make_adt("QStack")


class TestDeterminism:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_config_same_fingerprint(self, account, seed):
        config = ServeConfig(seed=seed, zipf_s=1.2, objects=4)
        first = generate(account, config)
        second = generate(account, config)
        assert first.fingerprint() == second.fingerprint()
        assert first.requests == second.requests

    def test_distinct_seeds_distinct_streams(self, account):
        fingerprints = {
            generate(account, ServeConfig(seed=seed)).fingerprint()
            for seed in SEEDS
        }
        assert len(fingerprints) == len(SEEDS)

    def test_mode_changes_fingerprint(self, account):
        open_loop = generate(account, ServeConfig(mode="open", seed=3))
        closed_loop = generate(account, ServeConfig(mode="closed", seed=3))
        assert open_loop.fingerprint() != closed_loop.fingerprint()

    def test_burst_envelope_is_deterministic(self, account):
        config = ServeConfig(
            mode="open", burst=BurstEnvelope(period=8.0, amplitude=0.5),
            seed=5,
        )
        assert (
            generate(account, config).fingerprint()
            == generate(account, config).fingerprint()
        )


class TestStructure:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_open_arrivals_sorted_ids_sequential(self, account, seed):
        workload = generate(account, ServeConfig(mode="open", seed=seed))
        arrivals = [request.arrival for request in workload.requests]
        assert arrivals == sorted(arrivals)
        assert [r.request_id for r in workload.requests] == list(
            range(len(workload.requests))
        )

    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_closed_sessions_have_think_times(self, account, seed):
        config = ServeConfig(mode="closed", mean_think_time=2.0, seed=seed)
        workload = generate(account, config)
        sessions = {request.session for request in workload.requests}
        assert len(sessions) == config.sessions
        assert any(request.think_time > 0 for request in workload.requests)

    def test_operation_mix_restricts_operations(self, qstack):
        config = ServeConfig(
            operation_mix={"Push": 1.0, "Pop": 1.0}, seed=9
        )
        workload = generate(qstack, config)
        names = {
            step.invocation.operation
            for request in workload.requests
            for step in request.steps
        }
        assert names <= {"Push", "Pop"}

    def test_zipf_skews_toward_first_objects(self, account):
        config = ServeConfig(
            sessions=16, requests_per_session=16, objects=8, zipf_s=1.5,
            seed=13,
        )
        workload = generate(account, config)
        counts: dict[str, int] = {}
        for request in workload.requests:
            name = request.primary_object()
            counts[name] = counts.get(name, 0) + 1
        ranked = sorted(counts.items(), key=lambda item: -item[1])
        assert ranked[0][0] == workload.object_names[0]

    def test_total_operations_counts_steps(self, account):
        config = ServeConfig(
            sessions=3, requests_per_session=4, operations_per_request=2,
            seed=1,
        )
        workload = generate(account, config)
        assert workload.total_operations() == sum(
            len(request.steps) for request in workload.requests
        )


class TestZipfWeights:
    def test_decreasing_by_rank_power_law(self):
        weights = zipf_weights(8, 1.2)
        assert all(a > b for a, b in zip(weights, weights[1:]))
        assert weights[0] == 1.0
        assert abs(weights[1] - 1.0 / 2 ** 1.2) < 1e-12

    def test_s_zero_is_uniform(self):
        assert zipf_weights(5, 0.0) == [1.0] * 5
