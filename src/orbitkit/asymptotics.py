"""Orbit-growth statistics: dynamical prime counting and Mertens sums.

Sums and predictions are floats here, as are the CLI's growth rates and the
growth identities' envelopes; counts stay exact.  pi(N) counts closed orbits
of length at most N; M(N) weights them by e^{-h n}.  When F(n) = C1 e^{hn} +
small, the prediction C1 e^{h(N+1)} / (N (e^h - 1)) tracks pi(N) to relative
order 1/N.  _require_rate is the one check of a growth rate (h, c1).
"""

from __future__ import annotations

import math
from sys import float_info
from typing import NamedTuple

from .numtheory import _require_int, _shown
from .sequences import Sequence, View


class GrowthReport(NamedTuple):
    n_max: int
    h: float
    c1: float
    pi_actual: int
    pi_predicted: float
    mertens_actual: float
    mertens_minus_c1_harmonic: float


def _require_rate(value: float, name: str) -> None:
    """The one growth-rate check: an int or float, not a bool, finite as a float, and positive."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0 < value <= float_info.max):
        raise ValueError(f"{name} must be positive and finite, got {_shown(value)}")


def pi_count(o: Sequence, n_max: int) -> int:
    """Number of closed orbits of length at most n_max (exact)."""
    o.require_view(View.ORBIT, "pi_count")
    _require_int(n_max, "n_max", most=len(o))
    return sum(o[n] for n in range(1, n_max + 1))


def _weighted_term(count: int, h: float, n: int) -> float:
    try:
        return float(count) * math.exp(-h * n)
    except OverflowError:
        # count too big for a float on its own; fold it into the exponent
        try:
            return math.exp(math.log(count) - h * n)
        except OverflowError:
            return math.inf


def mertens_sum(o: Sequence, n_max: int, h: float) -> float:
    """sum_{n<=n_max} O(n) e^{-hn}, summed left to right."""
    o.require_view(View.ORBIT, "mertens_sum")
    _require_int(n_max, "n_max", most=len(o))
    _require_rate(h, "h")
    total = 0.0
    for n in range(1, n_max + 1):
        total += _weighted_term(o[n], h, n)
    return total


def harmonic_number(n: int) -> float:
    _require_int(n, "n")
    total = 0.0
    for k in range(1, n + 1):
        total += 1.0 / k
    return total


def pnt_report(o: Sequence, h: float, c1: float, n_max: int) -> GrowthReport:
    """Actual versus predicted growth for a system with F ~ c1 e^{hn}."""
    _require_rate(h, "h")
    _require_rate(c1, "c1")
    pi_actual = pi_count(o, n_max)
    try:
        pi_predicted = c1 * math.exp(h * (n_max + 1)) / (n_max * (math.exp(h) - 1.0))
    except (OverflowError, ZeroDivisionError):
        # e^{h(N+1)} overflows or e^h - 1 rounds to 0: take c1 e^{hN} / (N (1 - e^{-h})) in logs
        log_pi = math.log(c1) + h * n_max - math.log(n_max) - math.log(-math.expm1(-h))
        try:
            pi_predicted = math.exp(log_pi)
        except OverflowError:
            pi_predicted = math.inf
    mertens_actual = mertens_sum(o, n_max, h)
    return GrowthReport(
        n_max=n_max,
        h=h,
        c1=c1,
        pi_actual=pi_actual,
        pi_predicted=pi_predicted,
        mertens_actual=mertens_actual,
        mertens_minus_c1_harmonic=mertens_actual - c1 * harmonic_number(n_max),
    )
