"""Closed-form bounds: the paper's numeric examples as regression tests."""

import math

import pytest

from repro.core import analysis


class TestOverwriteProbability:
    def test_zero_load_never_overwrites(self):
        assert analysis.overwrite_probability(0.0, 2) == 0.0

    def test_monotone_in_load(self):
        values = [analysis.overwrite_probability(a, 2)
                  for a in (0.01, 0.1, 1.0, 10.0)]
        assert values == sorted(values)

    def test_monotone_in_redundancy(self):
        assert analysis.overwrite_probability(0.5, 4) > \
            analysis.overwrite_probability(0.5, 1)

    def test_matches_formula(self):
        assert analysis.overwrite_probability(0.1, 2) == pytest.approx(
            1 - math.exp(-0.2))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            analysis.overwrite_probability(-1, 2)
        with pytest.raises(ValueError):
            analysis.overwrite_probability(0.5, 0)


class TestKeyWriteBoundsPaperNumerics:
    """Section 3.2: N=2, b=32, alpha=0.1 -> <=3.3% empty, <=1.6e-11 wrong;
    N=1 -> 9.5%; N=4 -> 1.2%."""

    def test_empty_return_n2(self):
        assert analysis.keywrite_empty_return(0.1, 2, 32) == pytest.approx(
            0.033, abs=0.001)

    def test_empty_return_n1(self):
        assert analysis.keywrite_empty_return(0.1, 1, 32) == pytest.approx(
            0.095, abs=0.001)

    def test_empty_return_n4(self):
        assert analysis.keywrite_empty_return(0.1, 4, 32) == pytest.approx(
            0.012, abs=0.001)

    def test_wrong_output_n2(self):
        assert analysis.keywrite_wrong_output(0.1, 2, 32) == pytest.approx(
            1.6e-11, rel=0.1)

    def test_success_complements(self):
        s = analysis.keywrite_success(0.1, 2, 32)
        assert s == pytest.approx(1 - 0.0329, abs=0.001)

    def test_bounds_clamped_to_probability(self):
        assert 0 <= analysis.keywrite_empty_return(100.0, 1, 1) <= 1

    def test_shorter_checksums_raise_wrong_output(self):
        assert analysis.keywrite_wrong_output(0.5, 2, 8) > \
            analysis.keywrite_wrong_output(0.5, 2, 32)


class TestPostcardingBoundsPaperNumerics:
    """Appendix A.7: |V|=2^18, B=5, b=32, N=2, alpha=0.1 ->
    <=3.3% empty, <1e-22 wrong; KW-per-hop comparison ~8e-11."""

    def test_empty_return(self):
        assert analysis.postcarding_empty_return(
            0.1, 2, 2 ** 18, 32, 5) == pytest.approx(0.033, abs=0.001)

    def test_wrong_output_below_1e22(self):
        assert analysis.postcarding_wrong_output(
            0.1, 2, 2 ** 18, 32, 5) < 1e-22

    def test_keywrite_per_hop_comparison(self):
        kw = analysis.keywrite_per_hop_wrong_output(0.1, 2, 32, 5)
        assert kw == pytest.approx(8e-11, rel=0.1)
        pc = analysis.postcarding_wrong_output(0.1, 2, 2 ** 18, 32, 5)
        # The paper's punchline: Postcarding wins by >10 orders of
        # magnitude at half the per-entry width.
        assert pc < kw * 1e-10

    def test_valid_collision_probability(self):
        q = analysis.postcarding_valid_collision(2 ** 18, 32, 5)
        per_slot = (2 ** 18 + 1) * 2.0 ** -32
        assert q == pytest.approx(per_slot ** 5)

    def test_more_hops_reduce_collisions(self):
        assert analysis.postcarding_valid_collision(2 ** 18, 32, 5) < \
            analysis.postcarding_valid_collision(2 ** 18, 32, 1)


class TestOptimalRedundancy:
    def test_low_load_prefers_more_copies(self):
        assert analysis.optimal_redundancy(0.05) == 4

    def test_high_load_prefers_single_copy(self):
        assert analysis.optimal_redundancy(3.0) == 1

    def test_crossover_region_prefers_two(self):
        # Somewhere between the extremes N=2 wins (Fig. 18's bands).
        picks = {analysis.optimal_redundancy(load)
                 for load in (0.4, 0.5, 0.6, 0.8, 1.0)}
        assert 2 in picks

    def test_average_success_decreasing_in_load(self):
        values = [analysis.average_success_at_load(l, 2)
                  for l in (0.1, 0.5, 1.0, 2.0)]
        assert values == sorted(values, reverse=True)

    def test_zero_load_perfect(self):
        assert analysis.average_success_at_load(0.0, 2) == 1.0


class TestLongevityPaperNumerics:
    """Appendix A.8.2: 3GiB -> 99.3% at 10M age, 44.5% at 100M;
    30GiB -> ~99.99% at 10M, 98.2% at 100M."""

    GIB = 2 ** 30

    def test_3gib_at_10m(self):
        s = analysis.longevity_success(3 * self.GIB, 10e6)
        assert s == pytest.approx(0.993, abs=0.015)

    def test_3gib_at_100m(self):
        s = analysis.longevity_success(3 * self.GIB, 100e6)
        assert s == pytest.approx(0.445, abs=0.06)

    def test_30gib_at_10m(self):
        s = analysis.longevity_success(30 * self.GIB, 10e6)
        assert s > 0.9995

    def test_30gib_at_100m(self):
        s = analysis.longevity_success(30 * self.GIB, 100e6)
        assert s == pytest.approx(0.982, abs=0.01)

    def test_curve_monotone_in_age(self):
        successes = [analysis.longevity_success(3 * self.GIB, age)
                     for age in (1e6, 1e7, 1e8, 1e9)]
        assert successes == sorted(successes, reverse=True)

    def test_storage_too_small_rejected(self):
        with pytest.raises(ValueError):
            analysis.longevity_success(4, 100)
