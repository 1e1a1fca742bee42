import math
import re

import pytest

from orbitkit import (
    GrowthReport,
    fix_to_orbit,
    harmonic_number,
    mertens_sum,
    pi_count,
    pnt_report,
)
from orbitkit import Sequence, View
from orbitkit.sequences import delta, full_shift, zeta
from helpers import digit_limit, needs_digit_limit

LN2 = math.log(2)


def shift2_orbits(n):
    return fix_to_orbit(full_shift(2, n))


def test_pi_count_prefix():
    o = shift2_orbits(8)
    assert pi_count(o, 4) == 2 + 1 + 2 + 3
    assert pi_count(o, 1) == 2
    with pytest.raises(ValueError):
        pi_count(o, 9)


def test_mertens_small_cases():
    assert mertens_sum(delta(5), 1, 1.0) == pytest.approx(math.exp(-1))
    assert mertens_sum(shift2_orbits(4), 2, LN2) == pytest.approx(2 * 0.5 + 1 * 0.25)
    assert mertens_sum(zeta(3), 3, LN2) == pytest.approx(0.875)


def test_harmonic_number():
    assert harmonic_number(1) == 1.0
    assert harmonic_number(4) == pytest.approx(1 + 0.5 + 1 / 3 + 0.25)
    with pytest.raises(ValueError, match="^n must be at least 1, got 0$"):
        harmonic_number(0)


# Each id names the rule broken; the body pins the exact message.
@pytest.mark.parametrize("n_max, h, message", [
    pytest.param(0, LN2, "n_max must be at least 1, got 0",
                 id=f"0-{LN2}-n_max 0 outside 1..3"),
    pytest.param(4, LN2, "n_max must be at most 3, got 4",
                 id=f"4-{LN2}-n_max 4 outside 1..3"),
    pytest.param(3, 0.0, "h must be positive and finite, got 0.0",
                 id="3-0.0-h must be positive, got 0.0"),
    pytest.param(3, -1.0, "h must be positive and finite, got -1.0",
                 id="3--1.0-h must be positive, got -1.0"),
    pytest.param(3, math.inf, "h must be positive and finite, got inf",
                 id="3-inf-h must be finite, got inf"),
    pytest.param(3, math.nan, "h must be positive and finite, got nan",
                 id="3-nan-h must be finite, got nan"),
    pytest.param(3, 10**400, f"h must be positive and finite, got {10**400}",
                 id="3-10**400-h must be finite as a float, got 10**400"),
    pytest.param(3, 10**5000, "h must be positive and finite, got an int of 16610 bits",
                 id="3-10**5000-h past the digit limit, got its bit length",
                 marks=needs_digit_limit),
    pytest.param(3, True, "h must be positive and finite, got True",
                 id="3-True-h must not be a bool, got True"),
    pytest.param(3, "1", "h must be positive and finite, got '1'",
                 id="3-'1'-h must be an int or float, got a str"),
    pytest.param(3, None, "h must be positive and finite, got None",
                 id="3-None-h must be an int or float, got None"),
])
def test_mertens_sum_rejects_bad_arguments(n_max, h, message):
    # pnt_report checks its rates, then n_max, with the same messages
    for call, args in ((mertens_sum, (n_max, h)), (pnt_report, (h, 1.0, n_max))):
        with digit_limit(), pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(zeta(3), *args)


def test_pnt_report_rejects_c1_past_the_float_range():
    with pytest.raises(ValueError, match=f"^c1 must be positive and finite, got {10**400}$"):
        pnt_report(zeta(3), 1.0, 10**400, 3)


def test_pnt_report_shift2():
    o = shift2_orbits(20)
    report = pnt_report(o, LN2, 1.0, 20)
    assert isinstance(report, GrowthReport)
    assert report.n_max == 20
    assert report.pi_actual == 111013
    assert report.pi_predicted == pytest.approx(2**21 / 20)
    ratio = report.pi_actual / report.pi_predicted
    assert abs(ratio - 1) <= 5 / 20


def test_pnt_ratio_tightens():
    o = shift2_orbits(30)
    for n in (20, 25, 30):
        report = pnt_report(o, LN2, 1.0, n)
        assert abs(report.pi_actual / report.pi_predicted - 1) <= 5 / n


def test_mertens_drift_settles():
    o = shift2_orbits(30)
    drift20 = mertens_sum(o, 20, LN2) - harmonic_number(20)
    drift30 = mertens_sum(o, 30, LN2) - harmonic_number(30)
    assert abs(drift30 - drift20) < 1e-3


def test_report_requires_enough_terms():
    with pytest.raises(ValueError):
        pnt_report(shift2_orbits(10), LN2, 1.0, 11)


def test_weighted_term_survives_huge_counts():
    # float(count) would overflow; the log fallback must not
    big = Sequence(View.ORBIT, (1,) * 1399 + (2**2000,))
    total = mertens_sum(big, 1400, 1.0)
    assert math.isfinite(total)
    tail = math.exp(2000 * LN2 - 1400)
    assert total == pytest.approx(sum(math.exp(-n) for n in range(1, 1400)) + tail)


def test_mertens_sum_past_the_float_range():
    # 2^2000 e^{-10} is about e^1376, past the float range: the sum is inf
    big = Sequence(View.ORBIT, (1, 2**2000))
    assert mertens_sum(big, 1, 5.0) == math.exp(-5.0)
    assert mertens_sum(big, 2, 5.0) == math.inf
