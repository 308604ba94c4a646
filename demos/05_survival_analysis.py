"""
Survival analysis: imputation, Kaplan-Meier and the log-rank test
=================================================================

Censored patients only give a lower bound on survival, so before median
splitting they receive the mean survival of uncensored patients who lived
at least as long.  Predicted groups are then compared with the product-
limit estimator and the log-rank test.
"""

import numpy as np

import deepradiomics as dr

# -- censoring imputation -------------------------------------------------------
times = [10.0, 20.0, 30.0, 15.0]
events = [1, 1, 1, 0]
adjusted = dr.impute_censored(times, events)
print(f"times {times}, events {events}")
print(f"imputed: {adjusted.tolist()}  (censored@15 -> mean of {{20, 30}} = 25)")

labels = dr.median_split(adjusted)
print(f"median-split labels (0=short, 1=long): {labels.tolist()}")

# -- Kaplan-Meier curve ----------------------------------------------------------
curve = dr.km_estimate([1.0, 2.0, 3.0, 4.0], [1, 1, 0, 1])
print("\nKM table for times (1,2,3c,4):")
for s in curve.steps:
    print(f"  t={s.time:4.1f}  at_risk={s.at_risk}  deaths={s.deaths}  S={s.survival:.2f}")
print(f"median survival: {curve.median_survival}")

# -- log-rank test between two planted groups -------------------------------------
rng = np.random.default_rng(5)
short_t = rng.uniform(2, 12, 30)
long_t = rng.uniform(18, 45, 30)
short_e = (rng.random(30) > 0.2).astype(int)
long_e = (rng.random(30) > 0.2).astype(int)
res = dr.logrank_test(short_t, short_e, long_t, long_e)
print(f"\nlog-rank: chi2={res.chi2:.2f}  p={res.p_value:.2e}")
print(f"hazard ratio {res.hazard_ratio:.2f}  (95% CI {res.ci95[0]:.2f} - {res.ci95[1]:.2f})")
short_median = dr.km_estimate(short_t, short_e).median_survival
long_median = dr.km_estimate(long_t, long_e).median_survival
print(f"group medians (Kaplan-Meier): short={short_median:.1f}, long={long_median:.1f}")

# identical groups are indistinguishable by construction
same = dr.logrank_test(short_t, short_e, short_t, short_e)
print(f"\nidentical groups: chi2={same.chi2}, p={same.p_value}, HR={same.hazard_ratio}")

# chi-square(1) tail probabilities used for the p-values
print(f"\nchi2_sf(3.841) = {dr.chi2_sf(3.841):.4f}  (the classical 5% point)")
print(f"chi2_sf(6.635) = {dr.chi2_sf(6.635):.4f}  (the classical 1% point)")
