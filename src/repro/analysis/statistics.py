"""Statistical tests on measurement histograms.

These implement the machinery behind the *statistical assertions* baseline
(Huang & Martonosi, ISCA'19) that the paper positions itself against:
chi-square goodness-of-fit for classical/superposition assertions and a
chi-square contingency test for entanglement assertions.
"""

from __future__ import annotations

import math
from statistics import NormalDist
from typing import Mapping, Tuple

import numpy as np

from repro.exceptions import AnalysisError
from repro.results.counts import Counts


def chi2_sf(statistic: float, dof: int) -> float:
    """Return the chi-square survival function ``P(X >= statistic)``.

    For integer ``dof`` the regularised upper incomplete gamma function is a
    finite series: a Poisson sum ``exp(-y) sum_{j<dof/2} y^j / j!`` (with
    ``y = statistic / 2``) for even ``dof``, and ``erfc(sqrt(y))`` plus a
    half-integer sum for odd ``dof``.  The terms are summed in log space,
    scaled by the largest one, because ``exp(-y)`` alone underflows long
    before the sum does once ``dof`` reaches the hundreds.
    """
    y = 0.5 * statistic
    if y <= 0.0:
        return 1.0
    if math.isinf(y):
        return 0.0
    log_y = math.log(y)
    if dof % 2 == 0:
        head = 0.0
        logs = [j * log_y - math.lgamma(j + 1) - y for j in range(dof // 2)]
    else:
        head = math.erfc(math.sqrt(y))
        logs = [
            (j - 0.5) * log_y - math.lgamma(j + 0.5) - y
            for j in range(1, dof // 2 + 1)
        ]
    if not logs:
        return head
    peak = max(logs)
    tail = math.exp(peak) * math.fsum(math.exp(v - peak) for v in logs)
    return min(1.0, head + tail)


def chi_square_goodness_of_fit(
    counts: Counts,
    expected_probabilities: Mapping[str, float],
) -> Tuple[float, float]:
    """Test whether ``counts`` matches an expected distribution.

    Returns ``(statistic, p_value)``.  Outcomes absent from
    ``expected_probabilities`` are treated as probability 0 (their presence
    in the data forces statistic = inf, p = 0).
    """
    total = counts.shots
    if total == 0:
        raise AnalysisError("cannot test an empty histogram")
    prob_sum = sum(expected_probabilities.values())
    if not math.isclose(prob_sum, 1.0, abs_tol=1e-6):
        raise AnalysisError(f"expected probabilities sum to {prob_sum}, not 1")
    impossible = [
        key
        for key in counts
        if expected_probabilities.get(key, 0.0) <= 0.0 and counts[key] > 0
    ]
    if impossible:
        return float("inf"), 0.0
    keys = sorted(k for k, p in expected_probabilities.items() if p > 0.0)
    if len(keys) < 2:
        # A point distribution with no impossible observations fits exactly
        # (zero degrees of freedom).
        return 0.0, 1.0
    observed = np.array([counts.get(k, 0) for k in keys], dtype=float)
    expected = np.array(
        [expected_probabilities[k] * total for k in keys], dtype=float
    )
    statistic = float(np.sum((observed - expected) ** 2 / expected))
    return statistic, chi2_sf(statistic, len(keys) - 1)


def chi_square_contingency(
    counts: Counts, bit_a: int, bit_b: int
) -> Tuple[float, float]:
    """Test independence of two bits of the histogram.

    Returns ``(statistic, p_value)``.  A small p-value rejects independence,
    i.e. supports correlation (the statistical-assertion criterion for
    entanglement).  Degenerate tables (a bit is constant) return
    ``(0.0, 1.0)`` — a constant bit carries no correlation evidence.
    """
    table = np.zeros((2, 2), dtype=float)
    for key, value in counts.items():
        table[int(key[bit_a]), int(key[bit_b])] += value
    if counts.shots == 0:
        raise AnalysisError("cannot test an empty histogram")
    if (table.sum(axis=0) == 0).any() or (table.sum(axis=1) == 0).any():
        return 0.0, 1.0
    expected = (
        table.sum(axis=1, keepdims=True) * table.sum(axis=0, keepdims=True)
    ) / table.sum()
    statistic = float(np.sum((table - expected) ** 2 / expected))
    # One degree of freedom: the chi-square survival function is erfc.
    return statistic, math.erfc(math.sqrt(statistic / 2.0))


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Return the Wilson score interval for a binomial proportion.

    Used when reporting assertion-error rates with uncertainty.
    """
    if trials <= 0:
        raise AnalysisError("trials must be positive")
    if not 0 <= successes <= trials:
        raise AnalysisError(f"successes {successes} outside [0, {trials}]")
    if not 0.0 < confidence < 1.0:
        raise AnalysisError("confidence must lie in (0, 1)")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p_hat + z * z / (2 * trials)) / denom
    margin = (
        z
        * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials))
        / denom
    )
    # At 0 or ``trials`` successes the bound is exactly 0 or 1; centre -/+
    # margin reaches it only up to rounding.
    low = 0.0 if successes == 0 else max(0.0, centre - margin)
    high = 1.0 if successes == trials else min(1.0, centre + margin)
    return low, high
