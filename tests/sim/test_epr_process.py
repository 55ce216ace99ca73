"""Unit tests for the stochastic EPR-generation process."""

import random

import pytest

from repro import compile_autocomm
from repro.circuits import qft_circuit
from repro.hardware import (DEFAULT_LATENCY, LinkModel, apply_topology,
                            uniform_network)
from repro.sim import (EPRProcess, EPRSample, SimulationConfig,
                       run_monte_carlo, simulate_program)


@pytest.fixture
def network():
    return uniform_network(3, 4)


class TestValidation:
    def test_zero_probability_rejected(self, network):
        with pytest.raises(ValueError):
            EPRProcess(network, p_success=0.0)

    def test_above_one_rejected(self, network):
        with pytest.raises(ValueError):
            EPRProcess(network, p_success=1.5)

    def test_negative_retry_latency_rejected(self, network):
        with pytest.raises(ValueError):
            EPRProcess(network, p_success=0.5, retry_latency=-1.0)


class TestLinkExhaustionBound:
    """A link's ``p_success * p_epr`` is held to the same bound as
    ``SimulationConfig.p_epr``, when the process is built."""

    T_EPR = DEFAULT_LATENCY.t_epr

    def _network(self, model, kind="all-to-all"):
        return apply_topology(uniform_network(3, 2), kind, link_model=model)

    def test_uniform_product_below_bound_rejected(self):
        network = self._network(LinkModel.uniform_model(self.T_EPR,
                                                        p_epr=1e-4))
        with pytest.raises(ValueError, match="link 0-1") as excinfo:
            EPRProcess(network, p_success=0.1)
        message = str(excinfo.value)
        assert "1e-05 per attempt" in message
        assert "100000 attempts" in message
        assert ">= 0.000208" in message
        # Pair-level sampling never draws with the link's own p_epr.
        assert not EPRProcess(network, p_success=0.1, per_link=False).per_link
        # A product at or above the bound is accepted.
        fair = self._network(LinkModel.uniform_model(self.T_EPR, p_epr=0.5))
        assert EPRProcess(fair, p_success=0.5).per_link

    def test_one_overridden_link_named(self):
        model = LinkModel.from_spec({"links": {"1-2": {"p_epr": 1e-3}}},
                                    base_t_epr=self.T_EPR)
        network = self._network(model, kind="line")
        with pytest.raises(ValueError, match="link 1-2"):
            EPRProcess(network, p_success=0.1)
        # Alone, the link's own p_epr is above the bound.
        EPRProcess(network, p_success=1.0)

    def test_monte_carlo_rejects_before_any_trial(self):
        network = self._network(LinkModel.uniform_model(self.T_EPR,
                                                        p_epr=1e-4))
        program = compile_autocomm(qft_circuit(6), network)
        with pytest.raises(ValueError, match="link 0-1"):
            run_monte_carlo(program, SimulationConfig(p_epr=0.1, seed=1,
                                                      trials=2))
        # Ideal links ignore per-link success probabilities.
        simulate_program(program, SimulationConfig(ideal_links=True))


class TestDeterministicMode:
    def test_single_attempt_at_p_one(self, network):
        process = EPRProcess(network, p_success=1.0)
        sample = process.sample_pair(random.Random(0), 0, 1)
        assert sample == EPRSample(attempts=1, duration=DEFAULT_LATENCY.t_epr)

    def test_no_randomness_consumed_at_p_one(self, network):
        process = EPRProcess(network, p_success=1.0)
        rng = random.Random(123)
        before = rng.getstate()
        process.sample(rng, (0, 1, 2))
        assert rng.getstate() == before

    def test_sample_equals_expected_prep_at_p_one(self, network):
        process = EPRProcess(network, p_success=1.0)
        for nodes in [(0, 1), (0, 2), (0, 1, 2)]:
            sample = process.sample(random.Random(1), nodes)
            assert sample.duration == process.expected_prep(nodes)

    def test_topology_overrides_respected(self):
        network = apply_topology(uniform_network(4, 2), "line",
                                 swap_overhead=1.0)
        process = EPRProcess(network, p_success=1.0)
        assert process.pair_latency(0, 3) == pytest.approx(
            3 * DEFAULT_LATENCY.t_epr)
        assert process.expected_prep((0, 1, 3)) == pytest.approx(
            3 * DEFAULT_LATENCY.t_epr)


class TestStochasticMode:
    def test_seeded_samples_reproducible(self, network):
        process = EPRProcess(network, p_success=0.3)
        a = [process.sample_pair(random.Random(9), 0, 1) for _ in range(5)]
        b = [process.sample_pair(random.Random(9), 0, 1) for _ in range(5)]
        assert a == b

    def test_duration_matches_attempt_count(self, network):
        process = EPRProcess(network, p_success=0.4, retry_latency=3.0)
        rng = random.Random(11)
        for _ in range(50):
            sample = process.sample_pair(rng, 0, 1)
            expected = (sample.attempts - 1) * 3.0 + DEFAULT_LATENCY.t_epr
            assert sample.duration == pytest.approx(expected)

    def test_duration_never_below_deterministic(self, network):
        process = EPRProcess(network, p_success=0.5)
        rng = random.Random(5)
        for _ in range(100):
            assert process.sample_pair(rng, 0, 1).duration \
                >= DEFAULT_LATENCY.t_epr

    def test_mean_attempts_close_to_geometric(self, network):
        process = EPRProcess(network, p_success=0.5)
        rng = random.Random(1234)
        samples = [process.sample_pair(rng, 0, 1).attempts
                   for _ in range(4000)]
        # Geometric with p=0.5 has mean 2; allow generous sampling slack.
        assert sum(samples) / len(samples) == pytest.approx(2.0, rel=0.1)

    def test_mean_generation_time_formula(self, network):
        process = EPRProcess(network, p_success=0.25, retry_latency=4.0)
        expected = DEFAULT_LATENCY.t_epr + 4.0 * 0.75 / 0.25
        assert process.mean_generation_time(0, 1) == pytest.approx(expected)

    def test_multi_node_sample_takes_slowest_pair(self, network):
        process = EPRProcess(network, p_success=0.5)
        rng = random.Random(3)
        sample = process.sample(rng, (0, 1, 2))
        # Three pairs generate concurrently; at least one attempt each.
        assert sample.attempts >= 3
        assert sample.duration >= DEFAULT_LATENCY.t_epr
