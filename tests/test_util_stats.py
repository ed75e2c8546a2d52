"""Statistics helpers."""

import pytest

from repro.util.stats import ewma, median_of_runs


class TestEwma:
    def test_alpha_one_is_identity(self):
        data = [1.0, 5.0, 2.0]
        assert list(ewma(data, 1.0)) == data

    def test_smooths_toward_history(self):
        out = ewma([0.0, 0.0, 10.0], 0.5)
        assert out[2] == pytest.approx(5.0)

    def test_first_sample_passthrough(self):
        assert ewma([7.0, 7.0], 0.1)[0] == 7.0

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            ewma([1.0], 0.0)
        with pytest.raises(ValueError):
            ewma([1.0], 1.5)


class TestMedianOfRuns:
    def test_three_runs_like_spec(self):
        # SPEC reporting: three runs, median (§2.5).
        assert median_of_runs([101.0, 99.0, 100.0]) == 100.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median_of_runs([])
