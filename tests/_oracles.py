"""Independent reference routes shared by the test modules.

Everything here deliberately avoids the code paths it is used to check:
the Prabhakar reference is an arbitrary-precision series, convolutions are
done by quadrature, Laplace transforms of the flux by graded quadrature of
the time-domain solution.  The one exception is the asymptotic Prabhakar
route: its reference is the same expansion summed over the full term table,
which checks the route's early stop, not the expansion itself.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np
from scipy.special import gamma, psi, rgamma

from fracflux.forward import solve
from fracflux.modes import build_mode_table
from fracflux.specfun import (
    _ASYM_KMAX,
    _ASYM_MIN_POW,
    _EPS,
    _pole_location,
    _principal_power_array,
    _residue,
)


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


def asym_route_full_table(a: float, b: float, g: float, z):
    """The asymptotic Prabhakar route as a full 70-term table for every point.

    The reference for ``specfun._asym_route``, which stops each point early:
    the same expansion, envelope cut, residue and estimate, with every term
    computed and the cut taken as the argmin of the whole envelope.
    """
    xi_all = -np.asarray(z, dtype=complex)
    valid = np.abs(xi_all) ** (1.0 / a) >= _ASYM_MIN_POW
    xi = xi_all[valid]
    ok = np.ones(xi.shape, dtype=bool)

    terms = np.zeros((_ASYM_KMAX,) + xi.shape, dtype=complex)
    coef = 1.0  # binom(g + k - 1, k)
    xpow = _principal_power_array(xi, -g)
    ximinv = 1.0 / xi
    ks = np.arange(_ASYM_KMAX)
    x = b - a * (g + ks)
    rg = rgamma(x)
    slack = a * (g + ks) + np.abs(x)
    weights = ks + 4.0 + np.where(rg != 0.0, np.abs(psi(x)) * slack, 0.0)
    (na, da), (nb, db), (ng, dg) = (float(v).as_integer_ratio() for v in (a, b, g))
    poles = np.flatnonzero((rg == 0.0) & (x <= 0.0))
    inexact = {k for k in poles if (nb - int(x[k]) * db) * da * dg != na * (ng + int(k) * dg) * db}
    on_pole = {}
    for k in range(_ASYM_KMAX):
        terms[k] = (-1.0) ** k * coef * xpow * rg[k]
        if k in inexact:
            on_pole[k] = gamma(1.0 - x[k]) * slack[k] * coef * np.abs(xpow)
        coef *= (g + k) / (k + 1.0)
        xpow = xpow * ximinv
    mags = np.abs(terms)
    mags[~np.isfinite(mags)] = np.inf
    envelope = np.maximum(mags[:-1], mags[1:])
    kstar = np.argmin(envelope, axis=0)
    cums = np.cumsum(terms, axis=0)
    vals = np.take_along_axis(cums, kstar[None], axis=0)[0]
    tail = np.take_along_axis(envelope, kstar[None], axis=0)[0]
    weighted = weights[:, None] * mags
    for k, extra in on_pole.items():
        weighted[k] += extra
    rounding = _EPS * np.take_along_axis(np.cumsum(weighted, axis=0), kstar[None], axis=0)[0]

    if a == 1.0:
        has_pole, sstar = np.ones(xi.shape, dtype=bool), -xi
    else:
        has_pole, sstar = _pole_location(a, xi)
    if has_pole.any():
        if g in (1.0, 2.0):
            pole, pole_rounding = _residue(a, b, g, has_pole, sstar)
            vals = vals + pole
            rounding = rounding + pole_rounding
        else:
            ok = ~has_pole
    est = (100.0 * tail + rounding) / np.maximum(np.abs(vals), 1e-290)
    est = np.where(ok & ~((tail <= 0.0) & (np.abs(vals) == 0.0)), est, np.inf)

    vals_all = np.zeros(xi_all.shape, dtype=complex)
    est_all = np.full(xi_all.shape, np.inf)
    vals_all[valid], est_all[valid] = vals, est
    return vals_all, est_all
