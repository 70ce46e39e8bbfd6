import math

import pytest

from hardykit.errors import ConvergenceError
from hardykit.rk45 import IntegrationOutcome, integrate_to_samples


def _decay(t, y):
    return -y


class TestIntegrateToSamples:
    @pytest.mark.parametrize("failure", ["raises", "nan"])
    def test_evaluation_failure_collapses_the_step(self, failure):
        # past t = 1 the right-hand side cannot be evaluated: the step halves
        # at each failed stage until it is below 1e-14 of t, and the outcome
        # is a blow-up there, with the samples before it
        def f(t, y):
            if t > 1.0:
                if failure == "raises":
                    raise ValueError("math domain error")
                return math.nan
            return -y

        out = integrate_to_samples(f, 0.0, 1.0, [0.5, 0.9, 2.0, 3.0])
        assert out.blew_up and out.reason == "step collapsed at evaluation failure"
        assert out.ts == [0.5, 0.9]
        assert out.ys == pytest.approx([math.exp(-0.5), math.exp(-0.9)], rel=1e-9)
        assert 1.0 - 1e-12 <= out.blow_up_t <= 1.0

    def test_sample_at_the_start_is_the_initial_value(self):
        for samples in ([0.0, 1.0], [2.0, 1.0]):
            out = integrate_to_samples(_decay, samples[0], 0.75, samples)
            assert out.ts == samples and out.ys[0] == 0.75 and not out.blew_up
            assert out.ys[1] == pytest.approx(0.75 * math.exp(samples[0] - samples[1]), rel=1e-9)

    def test_no_samples(self):
        assert integrate_to_samples(_decay, 0.0, 1.0, []) == \
            IntegrationOutcome([], [], False, None)

    @pytest.mark.parametrize("samples", [[0.5, 0.3, 1.0], [0.5, 0.5, 1.0], [-0.5, -0.3, -1.0]],
                             ids=["forward-backtrack", "repeat", "backward-backtrack"])
    def test_non_monotone_samples_raise(self, samples):
        with pytest.raises(ConvergenceError, match="strictly monotone"):
            integrate_to_samples(_decay, 0.0, 1.0, samples)
