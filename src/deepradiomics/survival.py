"""Censoring imputation, Kaplan-Meier estimation and the log-rank test.

Times are overall-survival months; `event` is 1 when death was observed
and 0 when the patient was censored at last follow-up.  All functions are
pure and operate on parallel (times, events) arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoEvents


@dataclass(frozen=True)
class KmStep:
    time: float
    at_risk: int
    deaths: int
    survival: float


@dataclass(frozen=True)
class KmCurve:
    """Product-limit curve, stepping only at distinct event times."""

    steps: tuple[KmStep, ...]
    median_survival: float | None  # earliest time with S(t) <= 0.5, if reached


@dataclass(frozen=True)
class SurvivalTestResult:
    """Log-rank test plus the Mantel-Haenszel O/E hazard ratio.

    `hazard_ratio` is None when either group's expected event count is
    zero, and 0 or inf when one group saw no events; the log-normal CI is
    only defined for a finite positive ratio.  A group's median survival
    is not part of the test; it comes from the group's km_estimate curve.
    """

    chi2: float
    p_value: float
    hazard_ratio: float | None
    ci95: tuple[float, float]
    observed: tuple[float, float]
    expected: tuple[float, float]


def _as_time_event(times, events) -> tuple[np.ndarray, np.ndarray]:
    t = np.asarray(times, dtype=np.float64)
    e = np.asarray(events, dtype=np.int64)
    if t.shape != e.shape or t.ndim != 1:
        raise ValueError("times and events must be 1-D and the same length")
    if t.size and (not np.isfinite(t).all() or (t <= 0).any()):
        raise ValueError("survival times must be finite and positive")
    if ((e != 0) & (e != 1)).any():
        raise ValueError("event flags must be 0 or 1")
    return t, e


def impute_censored(times, events) -> np.ndarray:
    """Replace censored follow-up times by the mean survival of their peers.

    Each censored subject receives the average time of uncensored subjects
    whose time-to-death is >= its own last follow-up; a censored subject
    outliving every observed death keeps its own follow-up time.  Observed
    times pass through untouched.
    """
    t, e = _as_time_event(times, events)
    deaths = t[e == 1]
    if deaths.size == 0:
        raise NoEvents("imputation needs at least one uncensored subject")
    out = t.copy()
    for i in np.nonzero(e == 0)[0]:
        later = deaths[deaths >= t[i]]
        if later.size:
            out[i] = later.mean()
    return out


def median_split(times) -> np.ndarray:
    """0/1 labels: 0 for times at or below the sample median, 1 above."""
    t = np.asarray(times, dtype=np.float64)
    if t.size == 0:
        raise ValueError("median_split needs at least one time")
    return (t > np.median(t)).astype(np.int64)


def km_estimate(times, events) -> KmCurve:
    """Kaplan-Meier product-limit estimate for one group."""
    t, e = _as_time_event(times, events)
    if t.size == 0:
        raise ValueError("km_estimate needs a nonempty group")
    event_times = np.unique(t[e == 1])
    steps = []
    survival = 1.0
    median = None
    for et in event_times:
        at_risk = int((t >= et).sum())
        deaths = int(((t == et) & (e == 1)).sum())
        survival *= 1.0 - deaths / at_risk
        steps.append(KmStep(float(et), at_risk, deaths, survival))
        if median is None and survival <= 0.5:
            median = float(et)
    return KmCurve(steps=tuple(steps), median_survival=median)


def chi2_sf(x: float) -> float:
    """Survival function of the chi-square(1) distribution."""
    if x < 0:
        raise ValueError(f"chi-square statistic must be >= 0, got {x}")
    return math.erfc(math.sqrt(x / 2.0))


def logrank_test(a_times, a_events, b_times, b_events) -> SurvivalTestResult:
    """Two-group log-rank test with hypergeometric variance.

    At each distinct event time the observed group-A deaths are compared
    with their expectation under the null; chi2 pools these over time.
    The hazard ratio is the ratio of O/E rates between groups with a
    log-normal 95% interval exp(ln HR +/- 1.96*sqrt(1/E_A + 1/E_B)).
    The test builds no Kaplan-Meier curve.
    """
    ta, ea = _as_time_event(a_times, a_events)
    tb, eb = _as_time_event(b_times, b_events)
    if ta.size == 0 or tb.size == 0:
        raise ValueError("both groups must be nonempty")
    total_events = int(ea.sum() + eb.sum())
    if total_events == 0:
        raise NoEvents("log-rank test needs at least one event")

    all_t = np.concatenate([ta, tb])
    all_e = np.concatenate([ea, eb])
    event_times = np.unique(all_t[all_e == 1])

    o_a = 0.0
    e_a = 0.0
    var = 0.0
    for et in event_times:
        n_a = int((ta >= et).sum())
        n_b = int((tb >= et).sum())
        n = n_a + n_b
        d = int(((all_t == et) & (all_e == 1)).sum())
        d_a = int(((ta == et) & (ea == 1)).sum())
        o_a += d_a
        e_a += d * n_a / n
        if n > 1:
            var += d * (n_a / n) * (1.0 - n_a / n) * (n - d) / (n - 1)

    o_b = float(total_events) - o_a
    e_b = float(total_events) - e_a
    chi2 = (o_a - e_a) ** 2 / var if var > 0 else 0.0
    p = chi2_sf(chi2)

    if e_a == 0.0 or e_b == 0.0:
        hr = None
        ci = (math.nan, math.nan)
    elif o_a == 0.0:
        hr, ci = 0.0, (math.nan, math.nan)
    elif o_b == 0.0:
        hr, ci = math.inf, (math.nan, math.nan)
    else:
        hr = (o_a / e_a) / (o_b / e_b)
        half = 1.96 * math.sqrt(1.0 / e_a + 1.0 / e_b)
        ci = (hr * math.exp(-half), hr * math.exp(half))

    return SurvivalTestResult(
        chi2=chi2,
        p_value=p,
        hazard_ratio=hr,
        ci95=ci,
        observed=(o_a, o_b),
        expected=(e_a, e_b),
    )
