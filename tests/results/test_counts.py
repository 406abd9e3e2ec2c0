"""Unit tests for the Counts histogram."""

import numpy as np
import pytest

from repro.exceptions import AnalysisError
from repro.results.counts import Counts, counts_from_probabilities


class TestConstruction:
    def test_basic(self):
        counts = Counts({"00": 3, "11": 7})
        assert counts.shots == 10
        assert counts.num_bits == 2

    def test_empty(self):
        counts = Counts()
        assert counts.shots == 0
        assert counts.num_bits == 0

    def test_zero_counts_dropped(self):
        counts = Counts({"0": 0, "1": 5})
        assert "0" not in counts

    def test_invalid_key_rejected(self):
        with pytest.raises(AnalysisError, match="invalid bitstring"):
            Counts({"0a": 1})

    def test_inconsistent_widths_rejected(self):
        with pytest.raises(AnalysisError, match="widths"):
            Counts({"0": 1, "00": 1})

    def test_negative_count_rejected(self):
        with pytest.raises(AnalysisError, match="negative"):
            Counts({"0": -1})

    def test_repr_sorted(self):
        assert repr(Counts({"1": 2, "0": 1})) == "Counts({'0': 1, '1': 2})"


class TestProbabilities:
    def test_normalisation(self):
        probs = Counts({"0": 25, "1": 75}).probabilities()
        assert probs == {"0": 0.25, "1": 0.75}

    def test_empty_gives_empty(self):
        assert Counts().probabilities() == {}

    def test_probability_of_missing_key(self):
        assert Counts({"0": 10}).probability_of("1") == 0.0

    def test_most_frequent(self):
        assert Counts({"00": 5, "01": 9, "10": 9}).most_frequent() == "01"

    def test_most_frequent_empty_raises(self):
        with pytest.raises(AnalysisError):
            Counts().most_frequent()


class TestMarginalisation:
    def test_marginal_keeps_requested_order(self):
        counts = Counts({"011": 4})
        assert counts.marginal([2, 0]) == {"10": 4}

    def test_marginal_aggregates(self):
        counts = Counts({"00": 2, "01": 3, "10": 4, "11": 1})
        assert counts.marginal([0]) == {"0": 5, "1": 5}

    def test_marginal_range_checked(self):
        with pytest.raises(AnalysisError):
            Counts({"0": 1}).marginal([2])

    def test_without_bits(self):
        counts = Counts({"010": 7})
        assert counts.without_bits([1]) == {"00": 7}


class TestPostselection:
    def test_basic_postselect(self):
        counts = Counts({"00": 6, "01": 2, "10": 1, "11": 1})
        assert counts.postselect({0: 0}) == {"00": 6, "01": 2}

    def test_multi_condition(self):
        counts = Counts({"000": 1, "010": 2, "011": 3})
        assert counts.postselect({0: 0, 1: 1}) == {"010": 2, "011": 3}

    def test_value_validated(self):
        with pytest.raises(AnalysisError):
            Counts({"0": 1}).postselect({0: 2})

    def test_position_validated(self):
        with pytest.raises(AnalysisError):
            Counts({"0": 1}).postselect({5: 0})

    def test_empty_selection(self):
        assert Counts({"1": 4}).postselect({0: 0}) == {}


class TestMerging:
    def test_merged_with(self):
        merged = Counts({"0": 1}).merged_with(Counts({"0": 2, "1": 3}))
        assert merged == {"0": 3, "1": 3}

    def test_width_mismatch_rejected(self):
        with pytest.raises(AnalysisError):
            Counts({"0": 1}).merged_with(Counts({"00": 1}))

    def test_merge_with_empty(self):
        assert Counts({"0": 1}).merged_with(Counts()) == {"0": 1}


class TestDistances:
    def test_identical_distance_zero(self):
        counts = Counts({"0": 5, "1": 5})
        assert counts.total_variation_distance(counts) == 0.0
        assert counts.hellinger_distance(counts) == 0.0

    def test_disjoint_distance_one(self):
        a = Counts({"0": 10})
        b = Counts({"1": 10})
        assert a.total_variation_distance(b) == pytest.approx(1.0)
        assert a.hellinger_distance(b) == pytest.approx(1.0)

    def test_disjoint_distance_never_exceeds_one(self):
        """These probabilities round to a sum of 1.0000000000000002."""
        a = Counts({"11": 11, "01": 100, "10": 1})
        b = Counts({"00": 1})
        assert a.total_variation_distance(b) == 1.0
        assert b.total_variation_distance(a) == 1.0

    def test_tvd_half(self):
        a = Counts({"0": 10})
        b = Counts({"0": 5, "1": 5})
        assert a.total_variation_distance(b) == pytest.approx(0.5)


class TestCountsFromProbabilities:
    def test_expected_counts_deterministic(self):
        counts = counts_from_probabilities({"0": 0.3, "1": 0.7}, 10)
        assert counts == {"0": 3, "1": 7}

    def test_largest_remainder_preserves_total(self):
        thirds = {"00": 1 / 3, "01": 1 / 3, "10": 1 / 3}
        counts = counts_from_probabilities(thirds, 100)
        assert counts.shots == 100

    def test_sampled_counts(self):
        rng = np.random.default_rng(0)
        counts = counts_from_probabilities({"0": 0.5, "1": 0.5}, 10000, rng=rng)
        assert counts.shots == 10000
        assert abs(counts["0"] - 5000) < 300

    def test_unnormalised_rejected(self):
        with pytest.raises(AnalysisError, match="sum"):
            counts_from_probabilities({"0": 0.6, "1": 0.6}, 10)

    def test_negative_shots_rejected(self):
        with pytest.raises(AnalysisError):
            counts_from_probabilities({"0": 1.0}, -1)

    def test_empty_distribution(self):
        assert counts_from_probabilities({}, 10) == {}
