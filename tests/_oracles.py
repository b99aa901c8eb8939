"""Independent reference routes shared by the test modules.

Everything here deliberately avoids the code paths it is used to check:
the Prabhakar reference is an arbitrary-precision series, convolutions are
done by quadrature, Laplace transforms of the flux by graded quadrature of
the time-domain solution.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

from fracflux.forward import solve
from fracflux.modes import build_mode_table


def prabhakar_reference(alpha: float, beta: float, gamma: float, z: complex) -> complex:
    """Arbitrary-precision series; usable while |z|**(1/alpha) stays moderate.

    The working precision covers the cancellation of an exponentially small
    value, log10(max term / result) ~ 0.87 |z|**(1/alpha) near alpha = 1.
    """
    absz = abs(complex(z))
    extra = 0.9 * absz ** (1.0 / alpha) if absz > 1 else 0.0
    with mp.workdps(int(35 + extra)):
        a, b, g = mp.mpf(alpha), mp.mpf(beta), mp.mpf(gamma)
        zz = mp.mpmathify(complex(z))
        total = mp.mpf(0)
        coef = mp.mpf(1)  # Gamma(g + n) / (Gamma(g) n!)
        zp = mp.mpf(1)
        n = 0
        while True:
            t = coef * zp * mp.rgamma(a * n + b)
            total += t
            if n > 3 and abs(t) < mp.mpf(10) ** (-mp.mp.dps + 3) * max(abs(total), mp.mpf(1e-250)):
                break
            n += 1
            coef *= (g + n - 1) / n
            zp *= zz
            if n > 100000:
                raise RuntimeError("reference series did not converge")
        return complex(total)


def graded_time_nodes(T: float, t0: float, n_panels: int = 40, nodes: int = 12):
    """Composite Gauss-Legendre nodes/weights on (0, T].

    Panels are geometrically graded toward the two non-smooth points of the
    flux: t = 0 (fractional start-up) and t = t0 (source shutdown kink).
    """
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    edges = np.concatenate(
        [
            t0 * 0.5 ** np.arange(n_panels, 0, -1),
            [t0],
            t0 + (T - t0) * 0.5 ** np.arange(n_panels, -1, -1),
        ]
    )
    ts, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        ts.append(mid + half * xg)
        ws.append(half * wg)
    return np.concatenate(ts), np.concatenate(ws)


def flux_transform_by_quadrature(params, table, phi, psi, src, svals, T: float = 100.0):
    """Laplace transform of the boundary flux via the time-domain solver."""
    t, w = graded_time_nodes(T, params.t0)
    traj = solve(params, table, phi, psi, src, t)
    h = table.gamma_trace[: traj.K] @ traj.u_modes
    out = []
    for s in np.atleast_1d(svals):
        out.append(np.sum(w * np.exp(-s * t) * h))
    return np.asarray(out)


def fresh_table(params, K: int):
    return build_mode_table(params, K)
