"""Andrews-Baccelli-Ganti closed form, computed apart from dronecov.

J. G. Andrews, F. Baccelli, R. K. Ganti, "A Tractable Approach to Coverage
and Rate in Cellular Networks", IEEE Trans. Commun. 59(11), 2011: with
nearest-station association in a Poisson field, Rayleigh fading, one
path-loss exponent alpha and no noise, coverage at SIR threshold T is

    p_c = 1 / (1 + rho(T, alpha)),
    rho(T, alpha) = T^(2/alpha) * int_{T^(-2/alpha)}^inf du / (1 + u^(alpha/2)),

independent of the station density.
"""

from __future__ import annotations

import math


def rho(threshold: float, alpha: float) -> float:
    if alpha == 4.0:
        # The integral is pi/2 - atan(1/sqrt(T)) = atan(sqrt(T)).
        root = math.sqrt(threshold)
        return root * math.atan(root)
    from scipy.integrate import quad
    lower = threshold ** (-2.0 / alpha)
    value, _ = quad(lambda u: 1.0 / (1.0 + u ** (0.5 * alpha)), lower,
                    math.inf, epsabs=1e-14, epsrel=1e-13)
    return threshold ** (2.0 / alpha) * value


def coverage(threshold: float, alpha: float) -> float:
    return 1.0 / (1.0 + rho(threshold, alpha))
