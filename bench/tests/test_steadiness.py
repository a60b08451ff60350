"""The steadiness gate compares two sets of runs in both directions."""

import steadiness

FIRST = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9]


def scaled(values, factor):
    return [v * factor for v in values]


def test_small_change_either_way_agrees():
    assert steadiness.agree(FIRST, scaled(FIRST, 1.02), 0.05)
    assert steadiness.agree(FIRST, scaled(FIRST, 0.98), 0.05)


def test_large_change_either_way_disagrees():
    assert not steadiness.agree(FIRST, scaled(FIRST, 1.4), 0.25)
    assert not steadiness.agree(FIRST, scaled(FIRST, 0.6), 0.25)


def test_wide_spread_disagrees_unless_spread_is_exempt():
    wide = FIRST[:5] + scaled(FIRST[5:], 1.6)
    assert not steadiness.agree(wide, wide, 0.25)
    assert steadiness.agree(wide, wide, 0.25, check_spread=False)


def test_median_change_is_signed():
    assert abs(steadiness.median_change(FIRST, scaled(FIRST, 0.9)) + 0.1) < 1e-12
