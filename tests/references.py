"""Written-out references shared by `tests/test_bounds.py` and the acceptance
criteria. The bound formulas (criterion 8) arrange each display differently from
the program (factored another way), so the two agree only if both are right; the
sign enumeration is criterion 9's exact Rademacher reference."""

import math

import numpy as np


def smooth_risk_reference(lhat, H, b, r, n, delta, K):
    """`bounds.smooth_risk_bound`'s display, factored differently."""
    ln = math.log
    conf = b * ln(1 / delta) / n
    inner = math.sqrt(H) * ln(n) ** 1.5 * r + conf**0.5
    return lhat + K * (math.sqrt(lhat) * inner + H * ln(n) ** 3 * r**2 + conf)


def margin_reference(err, b, r, n, delta, K, gamma, simplified=False):
    """`bounds.margin_bound`'s display and its simplified variant."""
    ln = math.log
    cc = ln(ln(4 * b / gamma) / delta) / n
    quad = ln(n) ** 3 * r**2 / gamma**2
    if simplified:
        return 1.01 * err + K * (2 * quad + 2 * cc)
    return err + K * (math.sqrt(err) * (ln(n) ** 1.5 * r / gamma + cc**0.5) + quad + cc)


def enumerated_norm_means(xs: np.ndarray) -> np.ndarray:
    """The means of ||sum_i s_i x_i||_2 and of ||sum_i s_i x_i||_inf over
    all 2^n sign vectors s, enumerated in blocks of at most 2^16."""
    n = xs.shape[0]
    sums, bits, chunk = np.zeros(2), np.arange(n), min(1 << 16, 1 << n)
    for first in range(0, 1 << n, chunk):
        block = np.arange(first, first + chunk)
        combos = (((block[:, None] >> bits) & 1) * 2.0 - 1.0) @ xs
        sums += [np.linalg.norm(combos, axis=1).sum(), np.abs(combos).max(axis=1).sum()]
    return sums / (1 << n)
