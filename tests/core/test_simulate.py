"""Monte Carlo vs closed-form: the two must agree."""

import pytest

from repro.core import analysis
from repro.core.simulate import (
    simulate_keywrite,
    success_at_age,
)


class TestSimulateKeywrite:
    def test_tiny_load_always_succeeds(self):
        result = simulate_keywrite(slots=100_000, keys=10, redundancy=2)
        assert result.success_rate == 1.0

    def test_success_decreases_with_load(self):
        rates = [simulate_keywrite(10_000, keys, 2, seed=1).success_rate
                 for keys in (100, 5_000, 30_000)]
        assert rates == sorted(rates, reverse=True)

    def test_age_deciles_monotone(self):
        """Older keys (decile 0) survive less often than newer ones."""
        result = simulate_keywrite(10_000, 20_000, 2, seed=2)
        by_age = result.success_by_age
        assert by_age[0] < by_age[-1]

    def test_matches_closed_form_average(self):
        """Monte Carlo within a couple of points of the analysis."""
        slots, keys = 50_000, 25_000
        result = simulate_keywrite(slots, keys, 2, seed=3)
        predicted = analysis.average_success_at_load(keys / slots, 2)
        assert result.success_rate == pytest.approx(predicted, abs=0.02)

    def test_consensus_two_is_stricter(self):
        loose = simulate_keywrite(10_000, 5_000, 2, seed=4, consensus=1)
        strict = simulate_keywrite(10_000, 5_000, 2, seed=4, consensus=2)
        assert strict.success_rate <= loose.success_rate

    def test_deterministic_for_seed(self):
        a = simulate_keywrite(1000, 500, 2, seed=9)
        b = simulate_keywrite(1000, 500, 2, seed=9)
        assert a.success_rate == b.success_rate

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            simulate_keywrite(0, 1, 1)


class TestSuccessGrids:
    def test_fig18_crossover_present(self):
        """Low load: N=4 best; high load: N=1 best (Fig. 18)."""
        grid = {(load, n): simulate_keywrite(
                    20_000, int(load * 20_000), n, seed=5 + n).success_rate
                for load in (0.05, 3.0) for n in (1, 4)}
        assert grid[(0.05, 4)] > grid[(0.05, 1)]
        assert grid[(3.0, 1)] > grid[(3.0, 4)]

    def test_age_conditional_matches_formula(self):
        """success_at_age ~ 1 - (1 - e^{-age*N/M})^N."""
        slots, age, n = 100_000, 20_000, 2
        measured = success_at_age(slots, age, n, seed=6, probes=5000)
        predicted = 1 - analysis.overwrite_probability(age / slots, n) ** n
        assert measured == pytest.approx(predicted, abs=0.02)

    def test_zero_age_always_survives(self):
        assert success_at_age(1000, 0, 2) == 1.0

    def test_negative_age_rejected(self):
        with pytest.raises(ValueError):
            success_at_age(1000, -1, 2)
