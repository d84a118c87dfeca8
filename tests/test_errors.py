import pytest

from wavetrain.errors import (
    FLOAT32_MAX,
    ConfigError,
    DimensionError,
    InputError,
    check_range,
)

NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("value,interval,inside", [
    # each bracket kind at each end, on and beside the end point
    (0, "[0,1)", True), (0, "(0,1)", False), (1e-9, "(0,1)", True),
    (1, "(0,1]", True), (1, "(0,1)", False), (0.999, "[0,1)", True),
    (-1, "[-1,inf)", True), (-2, "[-1,inf)", False),
    # NaN and the infinities lie in no interval, open or closed
    (NAN, "[0,inf)", False), (NAN, "(-inf,inf)", False),
    (INF, "[0,inf)", False), (-INF, "(-inf,0]", False), (-INF, "[0,inf)", False),
    # finite in float64, inf in float32
    (3.5e38, "[0,inf)", False), (-3.5e38, "(-inf,0]", False),
    (FLOAT32_MAX, "[0,inf)", True),
    # an integer is compared exactly, never cast to float32
    (10**30, "[0,inf)", True),
    # a data-dependent upper end
    (4, f"[0,{5})", True), (5, f"[0,{5})", False),
])
def test_check_range(value, interval, inside):
    if inside:
        check_range("key", value, interval)
    else:
        with pytest.raises(ConfigError, match=r"^key="):
            check_range("key", value, interval)


@pytest.mark.parametrize("error", [ConfigError, InputError, DimensionError])
def test_check_range_raises_the_given_class(error):
    with pytest.raises(error, match=r"^stride=0 lies outside \[1,inf\)$"):
        check_range("stride", 0, "[1,inf)", error)
