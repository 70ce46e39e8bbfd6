import math

import pytest

from hardykit.errors import ParameterError, check_keys, is_finite_number


def _problems(params, optional=("alpha", "r"), required=(), extra=()):
    with pytest.raises(ParameterError) as exc:
        check_keys("spec 'x'", params, optional, required, extra)
    return str(exc.value)


class TestCheckKeys:
    def test_valid_input_passes(self):
        check_keys("spec 'x'", {"alpha": 1.0, "eps": 0.1}, ("alpha",), ("eps",))
        check_keys("spec 'x'", {}, ("alpha", "r"))

    def test_missing_and_unknown_keys_name_the_keys_taken(self):
        assert _problems({"alha": 1.0}, ("alpha",), ("eps", "R")) == \
            "spec 'x': missing key 'eps'; missing key 'R'; unknown key 'alha'; " \
            "it takes eps (required), R (required), alpha"

    @pytest.mark.parametrize("value", ["0.5", math.nan, math.inf, -math.inf, None],
                             ids=["string", "nan", "inf", "minus-inf", "none"])
    def test_value_that_is_not_a_finite_number(self, value):
        assert _problems({"alpha": value}) == \
            f"spec 'x': alpha={value!r} is not a finite number; it takes alpha, r"

    def test_extra_problems_follow_the_key_problems(self):
        assert _problems({"r": 0.0, "s": 1.0}, extra=["r=0.0 is not positive"]) == \
            "spec 'x': unknown key 's'; r=0.0 is not positive; it takes alpha, r"
        assert _problems({}, extra=("count=0.0 is not a positive integer",)) == \
            "spec 'x': count=0.0 is not a positive integer; it takes alpha, r"


@pytest.mark.parametrize("value, finite", [(1, True), (-2.5, True), (5e-324, True),
                                           (math.nan, False), (math.inf, False),
                                           ("1", False), (None, False)])
def test_is_finite_number(value, finite):
    assert is_finite_number(value) is finite
