"""Special-function identity suite behind the ``specfun-check`` command.

Each check returns (passed, description line); the CLI prints them and maps
any failure to exit code 3.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.special import erfc

from .specfun import PrabhakarParams, _mp_series_scalar, laplace_identity_residual, prabhakar_array

__all__ = ["specfun_identity_suite"]


def specfun_identity_suite() -> list[tuple[bool, str]]:
    checks: list[tuple[bool, str]] = []

    # exponential case
    z = np.linspace(-3.0, 3.0, 20)
    got = prabhakar_array(PrabhakarParams(1.0, 1.0, 1.0), z)
    err = float(np.max(np.abs(got - np.exp(z)) / np.abs(np.exp(z))))
    checks.append((err <= 1e-10, f"exp identity on 20 points: max rel err {err:.2e} (tol 1e-10)"))

    # complementary-error-function identity
    x = np.linspace(0.1, 5.0, 25)
    got = prabhakar_array(PrabhakarParams(0.5, 1.0, 1.0), -x)
    ref = np.exp(x**2) * erfc(x)
    err = float(np.max(np.abs(got - ref) / np.abs(ref)))
    checks.append((err <= 1e-8, f"erfc identity on [0.1, 5]: max rel err {err:.2e} (tol 1e-8)"))

    # derivative recurrences against central finite differences; the step
    # balances O(h^2) truncation against the ~1e-13 evaluation noise
    worst = 0.0
    h = 3e-5
    for alpha in (0.45, 0.7):
        for z0 in (-0.8, -2.5, 0.6):
            for b_lo, b_hi in ((1.0, alpha + 1.0), (alpha, 2.0 * alpha)):
                lo = PrabhakarParams(alpha, b_lo, 1.0)
                hi = PrabhakarParams(alpha, b_hi, 2.0)
                fd = (
                    prabhakar_array(lo, np.array([z0 + h]))[0]
                    - prabhakar_array(lo, np.array([z0 - h]))[0]
                ) / (2 * h)
                an = prabhakar_array(hi, np.array([z0]))[0]
                worst = max(worst, abs(fd - an) / max(abs(an), 1e-30))
    checks.append((worst <= 1e-6, f"derivative recurrences vs finite differences: max rel err {worst:.2e} (tol 1e-6)"))

    # value at zero
    worst = 0.0
    for beta in (1.0, 0.45, 1.45, 0.9, 2.4):
        got = prabhakar_array(PrabhakarParams(0.45, beta, 2.0), np.array([0.0]))[0]
        worst = max(worst, abs(got - 1.0 / math.gamma(beta)))
    checks.append((worst <= 1e-15, f"value 1/Gamma(beta) at z = 0: max abs err {worst:.2e} (tol 1e-15)"))

    # conjugation symmetry
    zs = np.array([0.3 + 1.2j, -2.0 + 0.7j, -4.0 + 0.1j])
    p = PrabhakarParams(0.6, 1.0, 1.0)
    up = prabhakar_array(p, zs)
    dn = prabhakar_array(p, zs.conj())
    err = float(np.max(np.abs(up.conj() - dn)))
    checks.append((err == 0.0, f"conjugation symmetry: max abs asymmetry {err:.2e} (tol exact)"))

    # sector-edge small argument: the asymptotic route runs first, so it must
    # decline this point, where its pole term (~1e41) cancels against the
    # branch-cut integral and its estimate once read 1.6e-39
    alpha, beta = 0.1, 4.2
    z = -0.05 * cmath.exp(0.98j * (2.0 - alpha) * math.pi / 2.0)
    series = sum(z**n / math.gamma(alpha * n + beta) for n in range(30))
    got = prabhakar_array(PrabhakarParams(alpha, beta, 1.0), np.array([z]))[0]
    err = abs(got - series) / abs(series)
    checks.append(
        (
            err <= 1e-10,
            f"sector-edge small argument (0.1, 4.2, 1) at |z| = 0.05: rel err {err:.2e} vs truncated series "
            "(tol 1e-10); guards the route order zero, asymptotic (inside the sector, only where "
            "|z|^(1/alpha) >= 4), series (|z| <= 60, inside the sector), contour",
        )
    )

    # alpha near 1 on the negative axis, where the value is small against the
    # contour terms; only the contour route's third, narrow parabola resolves it
    got = prabhakar_array(PrabhakarParams(0.99, 1.0, 1.0), np.array([-30.4]))[0]
    ref = _mp_series_scalar(0.99, 1.0, 1.0, -30.4)
    err = abs(got - ref) / abs(ref)
    checks.append((err <= 1e-10, f"(0.99, 1, 1) at z = -30.4: rel err {err:.2e} vs arbitrary-precision series (tol 1e-10)"))

    # Laplace-transform identity (small probe; the acceptance suite runs the full grid)
    res = laplace_identity_residual(PrabhakarParams(0.6, 1.0, 1.0), lam=2.0, s=1.0 + 0.0j, t_cut=60.0)
    checks.append((res <= 1e-6, f"Laplace identity residual at (0.6, 1, 1, lam=2, s=1): {res:.2e} (tol 1e-6)"))
    return checks
