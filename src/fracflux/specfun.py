"""Three-parameter Mittag-Leffler (Prabhakar) evaluation and related special functions.

The evaluator targets the arguments produced by the spectral solver: ``-lam * t**alpha``
with ``lam > 0`` and ``t`` real positive or complex inside the sector where the solution
extends analytically.  Three double-precision routes, each with an internal error
estimate, are tried in a fixed order, each on the points the previous ones left:

1. algebraic asymptotic expansion plus the exponential (pole) term, inside the sector
   and only where ``|z|**(1/alpha) >= 4``: below that radius the pole term
   ``|s*|**(1-beta) e^(s*) / alpha`` can be huge and cancel against the branch-cut
   integral, so its estimate would not bound the error.  The expansion is cut at
   the minimum of its two-term envelope; each point sums its terms only until it
   is provably past that minimum (a reflection-formula bound on the later terms)
   or the envelope is negligible against its sum, at most 70 terms;
2. power series (compensated summation) for ``|z| <= 60``, inside the sector (where its
   safety factor is calibrated) and, at gamma outside {1, 2}, outside it as well;
3. numerical inversion of the Laplace-transform identity
   ``L[t^{b-1} E^g_{a,b}(-lam t^a)](s) = s^{a g - b} / (s^a + lam)^g``
   on a parabolic contour, on every point left, inside the sector or not.  Each point
   takes its parabola from the pole of ``(s^a + lam)^(-g)``: the fixed
   Weideman-Trefethen parabola where the pole is absent or well clear of it, a
   parabola that keeps the pole at a set distance where it is not, and a third,
   narrower one where neither meets the target.  A pole right of the parabola is
   added as its residue.

A point that no route resolves keeps an infinite estimate, and ``prabhakar_array``
raises ``AccuracyError`` for it at once.  The asymptotic route goes first because it
is the cheapest, and the points it takes are those on which the series sums longest
and then fails its target.

``prabhakar_diag`` is batch-invariant: a point's value, estimate and failure do not
depend, bit for bit, on the other points of its call, since every route works point by
point and the contour sums its nodes in row order.

All functions are pure; nothing here keeps mutable state, so concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma, gammaln, psi, rgamma

__all__ = [
    "AccuracyError",
    "DomainError",
    "PrabhakarParams",
    "prabhakar",
    "prabhakar_array",
    "prabhakar_diag",
    "principal_power",
    "sector_decay_report",
    "SectorDecayReport",
    "laplace_identity_residual",
    "lower_incomplete_gamma",
    "monomial_laplace_truncated",
]

_EPS = 2.220446049250313e-16

#: relative-accuracy target; evaluations failing it carry a flag
TARGET = 1e-10
#: estimates above this raise AccuracyError instead of returning flagged values
HARD_FAIL = 1e-6
#: most terms of the power series, and of the asymptotic expansion before its cut
_SERIES_NMAX, _ASYM_KMAX = 500, 70


class AccuracyError(RuntimeError):
    """Raised when no evaluation route met the accuracy target.

    Carries ``value`` (best value found) and ``error_estimate``.
    """

    def __init__(self, message: str, value=None, error_estimate=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


class DomainError(ValueError):
    """Argument outside the domain an operation supports."""


@dataclass(frozen=True)
class PrabhakarParams:
    """Parameter triple (alpha, beta, gamma) of E^gamma_{alpha,beta}.

    alpha in (0, 1] (the solver uses alpha < 1; alpha = 1 is allowed for the
    exponential reference identities), beta >= 0, gamma > 0.
    """

    alpha: float
    beta: float
    gamma: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise DomainError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.beta < 0.0:
            raise DomainError(f"beta must be >= 0, got {self.beta}")
        if self.gamma <= 0.0:
            raise DomainError(f"gamma must be > 0, got {self.gamma}")

    @property
    def sector_half_angle(self) -> float:
        """Half-opening of the sector |Arg(-z)| < (2 - alpha) pi / 2 of its argument."""
        return 0.5 * (2.0 - self.alpha) * math.pi


def principal_power(z: complex, beta: float) -> complex:
    """Principal value |z|^beta * exp(i beta Arg z), Arg z in (-pi, pi].

    A negative real ``z`` is taken on the upper edge of the cut (Arg = +pi),
    regardless of the sign of a zero imaginary part.
    """
    if z == 0 and beta <= 0:
        raise DomainError("0 cannot be raised to a non-positive power")
    return complex(_principal_power_array(z, beta))


def _principal_power_array(z: np.ndarray, beta: float) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(z)
    nz = z != 0
    out[nz] = np.abs(z[nz]) ** beta * np.exp(1j * beta * _principal_angle(z[nz]))
    return out


def _principal_angle(z: np.ndarray) -> np.ndarray:
    """Arg with the negative real axis mapped to +pi (independent of imag sign of zero)."""
    z = np.asarray(z, dtype=complex)
    z = np.where((z.real < 0) & (z.imag == 0), z.real + 0.0j, z)
    return np.arctan2(z.imag, z.real)


# ---------------------------------------------------------------------------
# evaluation routes; each returns (values, relative error estimates)
# ---------------------------------------------------------------------------


def _series_route(a: float, b: float, g: float, z: np.ndarray):
    vals = np.zeros(z.shape, dtype=complex)
    comp = np.zeros(z.shape, dtype=complex)  # Neumaier compensation
    maxterm = np.zeros(z.shape)
    absz = np.abs(z)
    active = np.ones(z.shape, dtype=bool)
    nterm = np.zeros(z.shape)

    coef = 1.0  # Gamma(g + n) / (Gamma(g) n!)
    zp = np.ones(z.shape, dtype=complex)
    for n in range(_SERIES_NMAX + 1):
        rg = rgamma(a * n + b)
        term = np.where(active, coef * zp * rg, 0.0)
        t = vals + term
        swap = np.abs(vals) < np.abs(term)
        comp += np.where(swap, (term - t) + vals, (vals - t) + term)
        vals = t
        at = np.abs(term)
        np.maximum(maxterm, at, out=maxterm)
        nterm[active] = n
        # an element is done once its term is negligible and the term hump is past
        past_hump = (a * (n + 1) + b) ** a > absz
        done = active & past_hump & (at <= 1e-17 * np.maximum(np.abs(vals + comp), 1e-290)) & (n >= 3)
        active &= ~done
        if not active.any():
            break
        coef *= (g + n) / (n + 1.0)
        zp = zp * z
        if coef > 1e280:
            break
        # elements whose powers overflow cannot be finished in doubles
        blown = active & (np.abs(zp) > 1e280)
        if blown.any():
            active &= ~blown
            nterm[blown] = np.inf
    vals = vals + comp
    est = _EPS * maxterm * np.sqrt(nterm + 1.0) / np.maximum(np.abs(vals), 1e-290)
    est = np.where(np.isfinite(nterm) & ~active, est, np.inf)
    return vals, est


def _residue(a: float, b: float, g: float, mask: np.ndarray, sstar: np.ndarray):
    """(term, rounding): the residue of the pole s* of (s^a + xi)^(-g) where ``mask`` holds, 0 elsewhere.

    Exact for g in {1, 2}.  The phase of xi is off by about eps pi and s* takes
    it divided by alpha, so s* is off by about eps |s*| (1 + pi / alpha), and
    e^(s*) by as much in relative terms; ``rounding`` bounds that error.
    """
    s = np.where(mask, sstar, 1.0)
    if g == 1.0:
        term = np.exp(s) * s ** (1.0 - b) / a
    elif g == 2.0:
        term = np.exp(s) * s ** (2.0 - b) / a**2 * (1.0 + (a - b + 1.0) / s)
    else:
        raise ValueError("the residue is implemented for gamma in {1, 2} only")
    term = np.where(mask, term, 0.0)
    return term, 2.0 * _EPS * (1.0 + math.pi / a) * np.abs(sstar) * np.abs(term)


def _pole_location(a: float, xi: np.ndarray):
    """Principal-branch zero of s^a + xi, where it exists (|Arg xi| > (1-a) pi)."""
    phi = _principal_angle(xi)
    has = np.abs(phi) > (1.0 - a) * math.pi
    sstar = np.zeros(xi.shape, dtype=complex)
    if has.any():
        ph = phi[has]
        sstar[has] = np.abs(xi[has]) ** (1.0 / a) * np.exp(1j * (ph - np.copysign(math.pi, ph)) / a)
    return has, sstar


#: the asymptotic route holds where |s*| = |z|**(1/alpha) is at least this; on the
#: captured benchmark calls 2, 4 and 8 pick the same routes and the same values
_ASYM_MIN_POW = 4.0
#: rows of the asymptotic expansion summed between two checks of its stop rules
_ASYM_BLOCK = 8
#: an envelope row this small against |sum + residue| ends a point's sum
_ASYM_NEGLIGIBLE = 2.0**-60


def _asym_route(a: float, b: float, g: float, z: np.ndarray):
    """Algebraic expansion in 1/xi, xi = -z, plus the exponential term of the pole s*.

    Valid only where |s*| = |z|^(1/alpha) >= ``_ASYM_MIN_POW``; every other point
    gets an infinite estimate.  Below that radius the pole term grows like
    |s*|^(1 - beta) and cancels against the branch-cut integral, so a huge term
    swamps the relative estimate: at alpha = 0.1, beta = 4.2, |z| = 0.05 near the
    sector edge the estimate read 1.6e-39 for a value off by a relative 1e+44.

    The divergent series is cut at the minimum of its two-term envelope
    max(|term k|, |term k+1|) over the first ``_ASYM_KMAX`` terms.  Terms are
    summed ``_ASYM_BLOCK`` rows at a time, on the points still active, and a
    point stops at the end of a block once one of two rules holds:

    * past the minimum: by the reflection formula, 1/|Gamma(x)| =
      |sin pi x| Gamma(1 - x) / pi for x <= 0, so |term j| = S_j |xi|^(-g-j)
      sigma_j with a smooth S_j and sigma_j = |sin pi x_j| (1 for x_j > 0).
      Once log |xi| is at most every later log(S_(j+1) / S_j), S_j |xi|^(-j)
      can no longer fall, and every later envelope row is at least
      S_J |xi|^(-g-J) times the least later max(sigma_j, sigma_(j+1)).  When
      that bound, less a margin for the rounding of the magnitudes, is above
      the running minimum, the minimum is final: the point's cut, value and
      estimate are those of the full table, bit for bit;
    * negligible: the envelope minimum is at most ``_ASYM_NEGLIGIBLE`` of
      |partial sum + residue|, so a later, smaller one would move the value
      and the estimate below the rounding.
    """
    xi_all = -np.asarray(z, dtype=complex)
    valid = np.abs(xi_all) ** (1.0 / a) >= _ASYM_MIN_POW
    xi = xi_all[valid]

    if a == 1.0:
        # s + xi vanishes at s = -xi for every xi, on the positive real axis of xi
        # too, where the contour route can ignore it but this expansion cannot
        has_pole, sstar = np.ones(xi.shape, dtype=bool), -xi
    else:
        has_pole, sstar = _pole_location(a, xi)
    # at gamma outside {1, 2} the pole is a branch point that no residue compensates
    ok = ~has_pole if g not in (1.0, 2.0) else np.ones(xi.shape, dtype=bool)
    add_pole = g in (1.0, 2.0) and has_pole.any()
    pole, pole_rounding = _residue(a, b, g, has_pole, sstar) if add_pole else (np.zeros(xi.shape), 0.0)

    # individual terms can sit at float-fuzzed poles of Gamma (near-zero
    # rgamma), so truncation decisions must use a two-term envelope rather
    # than raw magnitudes.  Term k carries the rounding of its k
    # multiplications by 1/xi, plus a few eps from the principal power, rgamma
    # and the sum.  The argument x of rgamma is off by up to eps (a (g + k) +
    # |x|), which moves rgamma(x) by |psi(x)| times that, relative: many eps
    # near a pole of Gamma.  On a pole, x = -m, rgamma(x) = 0 has slope m! =
    # Gamma(1 - x), which counts unless x is exact, that is, unless b + m =
    # a (g + k) holds in rationals too.
    ks = np.arange(_ASYM_KMAX)
    x = b - a * (g + ks)
    rg = rgamma(x)
    slack = a * (g + ks) + np.abs(x)
    weights = ks + 4.0 + np.where(rg != 0.0, np.abs(psi(x)) * slack, 0.0)
    (na, da), (nb, db), (ng, dg) = (float(v).as_integer_ratio() for v in (a, b, g))
    poles = np.flatnonzero((rg == 0.0) & (x <= 0.0))
    inexact = {k for k in poles if (nb - int(x[k]) * db) * da * dg != na * (ng + int(k) * dg) * db}

    # tables of the past-the-minimum rule: log S_k, the suffix minima of
    # log(S_(k+1) / S_k) and of max(sigma_k, sigma_(k+1))
    positive = x > 0.0
    lg = gammaln(np.where(positive, x, 1.0 - x))
    log_s = gammaln(g + ks) - gammaln(g) - gammaln(ks + 1.0) + np.where(positive, -lg, lg - math.log(math.pi))
    sigma = np.where(positive, 1.0, np.abs(np.sin(math.pi * (x - np.round(x)))))
    rise = np.minimum.accumulate(np.diff(log_s)[::-1])[::-1]
    floor = np.minimum.accumulate(np.maximum(sigma[:-1], sigma[1:])[::-1])[::-1]

    # each active point keeps the partial sums of its terms (psum) and of their
    # rounding weights (pw), its last magnitude (prev), and its envelope
    # minimum so far (best) with the two partial sums there (vbest, wbest)
    vals = np.zeros(xi.shape, dtype=complex)
    tail = np.full(xi.shape, np.inf)
    wsum = np.zeros(xi.shape)
    act = np.flatnonzero(ok)
    xpow = _principal_power_array(xi, -g)[act]
    ximinv = 1.0 / xi[act]
    log_xi = np.log(np.abs(xi[act]))
    pole_act = pole[act]
    coef = 1.0  # binom(g + k - 1, k)
    for k in range(_ASYM_KMAX):
        if not act.size:
            break
        term = (-1.0) ** k * coef * xpow * rg[k]
        mag = np.abs(term)
        mag[np.isnan(mag)] = np.inf
        weighted = weights[k] * mag
        if k in inexact:
            weighted += gamma(1.0 - x[k]) * slack[k] * coef * np.abs(xpow)
        if k == 0:
            psum, pw = term, weighted
            best, vbest, wbest = np.full(act.shape, np.inf), psum.copy(), pw.copy()
        else:
            # envelope row k - 1 against the partial sums through term k - 1
            env = np.maximum(prev, mag)
            lower = env < best
            np.copyto(best, env, where=lower)
            np.copyto(vbest, psum, where=lower)
            np.copyto(wbest, pw, where=lower)
            psum = psum + term
            pw = pw + weighted
        prev = mag
        coef *= (g + k) / (k + 1.0)
        xpow = xpow * ximinv
        if k == _ASYM_KMAX - 1:
            stop = np.ones(act.shape, dtype=bool)
        elif (k + 1) % _ASYM_BLOCK == 0:
            # envelope rows k and later are still to come.  The margin 2^-20
            # covers the rounding of the magnitudes, about (k + 10) eps, and of
            # the bound, about eps (|log S_k| + (g + k) log |xi|) < 1e-12
            bound = np.exp(log_s[k] - (g + k) * log_xi) * floor[k] * (1.0 - 2.0**-20)
            stop = ((log_xi <= rise[k]) & (bound > best)) | (best <= _ASYM_NEGLIGIBLE * np.abs(vbest + pole_act))
        else:
            continue
        if stop.any():
            done = act[stop]
            vals[done], tail[done], wsum[done] = vbest[stop], best[stop], wbest[stop]
            keep = ~stop
            act, xpow, ximinv, log_xi, pole_act = act[keep], xpow[keep], ximinv[keep], log_xi[keep], pole_act[keep]
            psum, pw, prev, best, vbest, wbest = psum[keep], pw[keep], prev[keep], best[keep], vbest[keep], wbest[keep]

    rounding = _EPS * wsum
    if add_pole:
        vals = vals + pole
        rounding = rounding + pole_rounding
    # divergent-series truncation is trusted only with a stiff safety factor;
    # an identically vanishing algebraic part (alpha = 1 reduces to a pure
    # exponential) carries no information and must not be trusted either
    est = (100.0 * tail + rounding) / np.maximum(np.abs(vals), 1e-290)
    est = np.where(ok & ~((tail <= 0.0) & (np.abs(vals) == 0.0)), est, np.inf)

    vals_all = np.zeros(xi_all.shape, dtype=complex)
    est_all = np.full(xi_all.shape, np.inf)
    vals_all[valid], est_all[valid] = vals, est
    return vals_all, est_all


def _contour_sum(a, b, g, xi, has_pole, sstar, mu, h, n: int):
    """Trapezoid rule with nodes u = h k, |k| <= n, on the parabola s = mu (1 + iu)^2.

    ``mu`` and ``h`` are scalars or one value per point.  A pole right of the
    parabola, Re sqrt(s*) > sqrt(mu), is added as its residue.  Returns the
    values and a bound on three errors that a second node count does not see:
    the part of the integral beyond |u| = h n, from the end terms and the
    Gaussian decay e^(mu (1 - u^2)) past them, the rounding of the terms,
    whose exponential is off by about eps |s| in relative terms, and the
    rounding of the residue.
    """
    u = h * np.arange(-n, n + 1)[:, None]
    s = mu * (1.0 + 1j * u) ** 2
    terms = (np.exp(s) * s ** (a * g - b) * (1.0 + 1j * u)) / (s**a + xi) ** g
    scale = h * mu / math.pi
    # cumsum keeps the row order; sum(axis=0) adds one column pairwise and several row by row
    vals = scale * np.cumsum(terms, axis=0)[-1]
    mags = np.abs(terms)
    ratio = np.exp(-2.0 * mu * h * h * n)  # Gaussian factor of |term k+1| / |term k| past the ends
    tail = (mags[0] + mags[-1]) / (1.0 - ratio)
    rounding = _EPS * np.cumsum(mags * (1.0 + np.abs(s)), axis=0)[-1]
    err = scale * (tail + rounding)
    outside = has_pole & (np.abs(sstar) * np.cos(np.angle(sstar) / 2.0) ** 2 > mu)
    if outside.any():
        pole, pole_rounding = _residue(a, b, g, outside, sstar)
        vals = np.where(outside, vals + pole, vals)
        err = err + pole_rounding
    return vals, err


#: mu of the third, narrow parabola of the contour route
_NARROW_MU = 3.0


def _contour_route(a: float, b: float, g: float, z: np.ndarray):
    """Laplace inversion on a parabola chosen per point from its pole.

    Without a pole near it, a point uses the fixed Weideman-Trefethen parabola
    (h = 3/N, mu = pi N / 12, N = 24 against 20).  Where the pole s* of
    (s^a + xi)^(-g) lies within 0.6 of that parabola in u, the trapezoid rule
    loses its strip of analyticity.  There the parabola follows the pole
    (Garrappa, SIAM J. Numer. Anal. 53 (2015)): mu = (Re sqrt(s*) / 2)^2 puts
    it at distance 1 right of the contour, as far as the branch cut of s^a on
    the left, and the nodes reach |u| = sqrt(1 + 38 / mu), where
    e^(mu (1 - u^2)) is below 1e-16 (N = 160 against 128, so that h stays
    below 0.1 down to the smallest mu of the band).  A point that its parabola
    leaves above ``TARGET`` gets a third, fixed one, mu = ``_NARROW_MU`` = 3 with
    the nodes out to the same sqrt(1 + 38 / mu) (N = 64 against 51, h = 0.058).
    It covers alpha near 1 on and near the negative axis, where the value is
    small against the terms, which reach e^mu near u = 0, so that a smaller mu
    cuts their rounding.  The estimate adds the difference of the two node
    counts to the bounds of ``_contour_sum``.  A pole at gamma outside {1, 2}
    is a branch point that no residue compensates; its point gets an infinite
    estimate.
    """
    xi = -np.asarray(z, dtype=complex)
    invalid = xi == 0
    xi = np.where(invalid, 1.0, xi)
    has_pole, sstar = _pole_location(a, xi)
    if g not in (1.0, 2.0):
        # a branch point of the denominator cannot be compensated by a residue
        invalid = invalid | has_pole
    has_pole &= ~invalid
    # the pole sits at distance |rel - 1| from the fixed parabola (mu = 2 pi) in u
    rel = np.sqrt(sstar).real / math.sqrt(2.0 * math.pi)
    near = has_pole & (np.abs(rel - 1.0) < 0.6)

    def trapezoid(sel, fine, coarse):
        args = (a, b, g, xi[sel], has_pole[sel], sstar[sel])
        v, err = _contour_sum(*args, *fine)
        v_coarse, _ = _contour_sum(*args, *coarse)
        return v, (np.abs(v - v_coarse) + err) / np.maximum(np.abs(v), 1e-290) + 5e-14

    vals = np.empty(xi.shape, dtype=complex)
    est = np.empty(xi.shape)
    mu_pole = (0.5 * np.sqrt(sstar[near]).real) ** 2
    u_max = np.sqrt(1.0 + 38.0 / mu_pole)
    for sel, fine, coarse in (
        (~near, (math.pi * 24 / 12.0, 3.0 / 24, 24), (math.pi * 20 / 12.0, 3.0 / 20, 20)),
        (near, (mu_pole, u_max / 160, 160), (mu_pole, u_max / 128, 128)),
    ):
        if sel.any():
            vals[sel], est[sel] = trapezoid(sel, fine, coarse)
    retry = ~invalid & ~(est <= TARGET)
    if retry.any():
        u_max = math.sqrt(1.0 + 38.0 / _NARROW_MU)
        vals[retry], est[retry] = trapezoid(retry, (_NARROW_MU, u_max / 64, 64), (_NARROW_MU, u_max / 51, 51))
    est[invalid] = np.inf
    return vals, est


def _mp_series_scalar(a: float, b: float, g: float, z: complex) -> complex:
    """Arbitrary-precision power series; cost grows like |z|**(1/a) digits.

    The working precision covers the worst cancellation, which reaches
    log10(max term / result) ~ 0.87 |z|**(1/a) when the result is itself
    exponentially small (alpha near 1 on the negative axis).  No route of
    ``prabhakar_diag`` calls it; ``fracflux specfun-check`` compares against it.
    """
    import mpmath as mp

    absz = abs(z)
    extra = 0.9 * absz ** (1.0 / a) if absz > 1 else 0.0
    with mp.workdps(int(35 + extra)):
        am, bm, gm = mp.mpf(a), mp.mpf(b), mp.mpf(g)
        zz = mp.mpmathify(z)
        total = mp.mpf(0)
        coef = mp.mpf(1)  # Gamma(g + n) / (Gamma(g) n!)
        zp = mp.mpf(1)
        n = 0
        while True:
            t = coef * zp * mp.rgamma(am * n + bm)
            total += t
            if n > 3 and abs(t) < mp.mpf(10) ** (-mp.mp.dps + 3) * max(abs(total), mp.mpf(1e-280)):
                break
            n += 1
            coef *= (gm + n - 1) / n
            zp *= zz
            if n > 200000:
                raise AccuracyError("arbitrary-precision series did not converge")
        return complex(total)


def prabhakar_diag(params: PrabhakarParams, z):
    """Evaluate E^gamma_{alpha,beta} with per-point relative error estimates.

    Returns ``(values, estimates)`` as arrays of the broadcast shape of ``z``.
    Estimates above ``TARGET`` mean the target was not met on that point; a
    point that no route resolves has an infinite estimate.  Every route runs in
    double precision, and nothing here calls mpmath.
    """
    a, b, g = params.alpha, params.beta, params.gamma
    zarr = np.atleast_1d(np.asarray(z, dtype=complex))
    shape = zarr.shape
    zf = zarr.ravel()
    # real coefficients give E(conj z) = conj E(z); evaluating the upper half
    # plane only makes the symmetry exact and keeps real arguments real
    lower = zf.imag < 0
    zf = np.where(lower, zf.conj(), zf)
    vals = np.zeros(zf.shape, dtype=complex)
    est = np.full(zf.shape, np.inf)

    zero = zf == 0
    if zero.any():
        vals[zero] = rgamma(b)
        est[zero] = 0.0

    todo = ~zero
    with np.errstate(all="ignore"):
        sector_ok = np.abs(_principal_angle(-zf)) <= 0.9995 * params.sector_half_angle

        # (route, region, safety factor), each route on the points the ones
        # before it left.  The asymptotic expansion goes first: it is the
        # cheapest, its estimate already carries a factor 100, and it takes the
        # points the series would sum longest and then reject.  The series
        # estimate is optimistic by up to a factor 8 inside the sector, hence
        # 25; outside it the contour takes the points, except at gamma outside
        # {1, 2}, where their pole is a branch point.  The routes are looked up
        # at call time, so that a patched module attribute takes effect.
        routes = (
            (_asym_route, sector_ok, 1.0),
            (_series_route, (sector_ok | (g not in (1.0, 2.0))) & (np.abs(zf) <= 60.0), 25.0),
            (_contour_route, True, 1.0),
        )
        for route, region, safety in routes:
            cand = todo & region
            if cand.any():
                v, e = route(a, b, g, zf[cand])
                acc = safety * e <= TARGET
                idx = np.flatnonzero(cand)[acc]
                vals[idx], est[idx] = v[acc], safety * e[acc]
                todo[idx] = False

        # at alpha = 1 the function is a pure exponential; deep in the sector it
        # underflows doubles and 0 is the correctly rounded value
        if a == 1.0:
            under = todo & sector_ok & ((-zf).real > 770.0)
            vals[under] = 0.0
            est[under] = _EPS
    vals.imag[zf.imag == 0] = 0.0
    vals = np.where(lower, vals.conj(), vals)
    return vals.reshape(shape), est.reshape(shape)


def prabhakar_array(params: PrabhakarParams, z) -> np.ndarray:
    """Vectorized E^gamma_{alpha,beta}(z); raises AccuracyError past the hard threshold."""
    vals, est = prabhakar_diag(params, z)
    worst = float(np.max(est)) if est.size else 0.0
    if worst > HARD_FAIL:
        i = int(np.argmax(est))
        zi = complex(np.ravel(z)[i])
        cause = "; no route resolved it" if math.isinf(worst) else ""
        raise AccuracyError(
            f"Prabhakar evaluation (alpha, beta, gamma) = ({params.alpha!r}, {params.beta!r}, "
            f"{params.gamma!r}) failed accuracy target at z={zi!r} "
            f"(estimated relative error {worst:.2e}){cause}",
            value=np.ravel(vals)[i],
            error_estimate=worst,
        )
    return vals


def prabhakar(params: PrabhakarParams, z: complex) -> complex:
    """E^gamma_{alpha,beta}(z) for a scalar argument."""
    return complex(prabhakar_array(params, [complex(z)])[0])


# ---------------------------------------------------------------------------
# sector decay report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SectorDecayReport:
    """Empirical check of |E^g(-z)| <= c_theta / (1 + |z|)^g on sampled rays.

    ``fitted_exponent`` comes from a log-log fit on the outermost decade of radii;
    ``c_theta`` is the smallest constant making the bound hold on every sample.
    The constant is empirical, not a proven bound.
    """

    theta: float
    radii: tuple
    fitted_exponent: float
    c_theta: float
    n_samples: int


def sector_decay_report(params: PrabhakarParams, theta: float, radii) -> SectorDecayReport:
    """Sample |E^g(-z)| on 5 rays spread over |Arg z| <= theta (one ray at theta = 0) at ``radii``."""
    if len(list(radii)) == 0:
        raise ValueError("radii must be a non-empty list")
    if not (0.0 <= theta < params.sector_half_angle):
        raise DomainError(
            f"theta must lie in [0, (2-alpha)pi/2) = [0, {params.sector_half_angle:.6f}), got {theta}"
        )
    radii = np.asarray(sorted(float(r) for r in radii))
    angles = np.linspace(-theta, theta, 5) if theta > 0 else np.array([0.0])
    zs = radii[None, :] * np.exp(1j * angles[:, None])
    mags = np.abs(prabhakar_array(params, -zs))
    c_theta = float(np.max(mags * (1.0 + np.abs(zs)) ** params.gamma))

    pos = radii > 0
    exponent = math.nan
    if pos.sum() >= 2:
        # fit on the outer decade where the tail behaviour dominates
        rmax = radii[pos].max()
        sel = pos & (radii >= rmax / 10.0)
        if sel.sum() < 2:
            sel = pos
        logr = np.log(radii[sel])
        logm = np.log(np.maximum(mags[:, sel].mean(axis=0), 1e-300))
        exponent = -float(np.polyfit(logr, logm, 1)[0])
    return SectorDecayReport(
        theta=float(theta),
        radii=tuple(radii.tolist()),
        fitted_exponent=exponent,
        c_theta=c_theta,
        n_samples=int(zs.size),
    )


# ---------------------------------------------------------------------------
# Laplace identity residual
# ---------------------------------------------------------------------------


def laplace_identity_residual(
    params: PrabhakarParams,
    lam: float,
    s: complex,
    t_cut: float,
) -> float:
    """|quadrature of the truncated transform - closed form s^(ag-b)/(s^a+lam)^g|.

    The integrand ``exp(-s t) t^(b-1) E^g_{a,b}(-lam t^a)`` is integrated over
    (0, t_cut) with the endpoint singularity handled by a Gauss-Jacobi rule on
    geometrically graded panels.  The neglected tail must be provably below
    1e-9, otherwise an error asks for a larger ``t_cut``.
    """
    a, b, g = params.alpha, params.beta, params.gamma
    if not (b > 0 and g > 0 and lam > 0):
        raise DomainError("beta, gamma, lam must all be positive")
    s = complex(s)
    if s.real <= 0:
        raise DomainError("Re s must be positive")
    # tail bound: |E^g(-lam t^a)| <= c/(1+lam t^a)^g with an empirical c from the decay report
    c_emp = sector_decay_report(params, 0.0, [0.0, 1.0, 10.0, 100.0]).c_theta
    tail = (
        c_emp
        * t_cut ** (b - 1.0)
        / (1.0 + lam * t_cut**a) ** g
        * math.exp(-s.real * t_cut)
        / s.real
        * (1.0 + max(0.0, (b - 1.0) / (s.real * t_cut)))
    )
    if tail > 1e-9:
        raise AccuracyError(
            f"truncation tail bound {tail:.2e} exceeds tolerance 1.0e-09; increase t_cut",
            error_estimate=tail,
        )

    quad = _graded_jacobi_integral(
        lambda t: np.exp(-s * t) * prabhakar_array(params, -lam * t**a),
        b - 1.0,
        t_cut,
        n_panels=14,
        nodes=24,
    )
    closed = principal_power(s, a * g - b) / principal_power(principal_power(s, a) + lam, g)
    return abs(quad - closed)


def _gauss_legendre_panels(edges: np.ndarray, nodes: int):
    """(x, w): Gauss-Legendre nodes and weights, ``nodes`` points on each panel between consecutive ``edges``."""
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    mid, half = 0.5 * (edges[1:] + edges[:-1])[:, None], 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * xg).ravel(), (half * wg).ravel()


def _graded_jacobi_integral(smooth, weight_exp: float, upper: float, n_panels: int, nodes: int):
    """integral_0^upper t^weight_exp * smooth(t) dt with geometric grading toward 0.

    The innermost panel uses a Gauss-Jacobi rule absorbing t^weight_exp exactly;
    outer panels use Gauss-Legendre.  ``smooth`` must accept numpy arrays; it
    is called once, on the nodes of every panel.
    """
    from scipy.special import roots_jacobi

    edges = upper * 0.25 ** np.arange(n_panels, -1, -1)
    x, w = _gauss_legendre_panels(edges, nodes)
    xj, wj = roots_jacobi(nodes, 0.0, weight_exp)  # innermost [0, edges[0]]
    t = np.concatenate([x, edges[0] * (1.0 + xj) / 2.0])
    w = np.concatenate([w * x**weight_exp, (edges[0] / 2.0) ** (weight_exp + 1.0) * wj])
    return np.sum(w * smooth(t))


# ---------------------------------------------------------------------------
# truncated Laplace transforms of monomials (lower incomplete gamma)
# ---------------------------------------------------------------------------


def _gamma_star(n: int, w: np.ndarray) -> np.ndarray:
    """gamma(n, w) / w^n = integral_0^1 e^(-w u) u^(n-1) du, entire in w, on a flat array.

    The branches are those stated in ``monomial_laplace_truncated``.
    """
    out = np.empty(w.shape, dtype=complex)
    small = np.abs(w) <= n
    wl = w[~small]
    part = sum(wl**j / math.factorial(j) for j in range(n))
    out[~small] = math.factorial(n - 1) * (1.0 - np.exp(-wl) * part) / wl**n
    w = w[small]
    pos = w.real >= 0
    c = np.where(pos, 1.0 / n, 1.0)  # w^j / (n)_(j+1) or (-w)^j / j!
    total = c / np.where(pos, 1.0, n)
    done = np.zeros(w.shape, dtype=bool)
    for j0 in range(0, 500, 32):  # blocks of terms j0+1..j0+32, each summed in term order
        j = np.arange(j0 + 1, min(j0 + 32, 500) + 1)[:, None]
        cs = np.cumprod(np.vstack([c, np.where(pos, w / (n + j), -w / j)]), axis=0)[1:]
        terms = cs / np.where(pos, 1.0, n + j)
        totals = np.cumsum(np.vstack([total, terms]), axis=0)[1:]
        stop = np.abs(terms) <= 1e-20 * np.abs(totals)
        last = np.where(stop.any(axis=0), stop.argmax(axis=0), len(j) - 1)  # a point's last term here
        total = np.where(done, total, np.take_along_axis(totals, last[None], axis=0)[0])
        c, done = cs[-1], done | stop.any(axis=0)
        if done.all():
            break
    out[small] = np.where(pos, np.exp(-w) * total, total)
    return out


def lower_incomplete_gamma(n: int, w):
    """gamma(n, w) = integral_0^w e^-u u^(n-1) du for integer n >= 1 and complex w, scalar or array."""
    if n < 1 or n != int(n):
        raise DomainError("order must be an integer >= 1")
    wa = np.asarray(w, dtype=complex)
    out = wa ** int(n) * _gamma_star(int(n), wa.ravel()).reshape(wa.shape)
    return out if np.ndim(w) else complex(out)


def monomial_laplace_truncated(m: int, t0: float, s) -> complex | np.ndarray:
    """integral_0^t0 e^(-s t) t^m dt = gamma(n, w) / s^n with n = m + 1, w = s t0; entire in s.

    Takes a scalar or an array of ``s``.  For |w| <= n a series whose terms do
    not cancel, t0^n e^-w sum_j w^j / (n (n+1) ... (n+j)) where Re w >= 0 and
    t0^n sum_j (-w)^j / (j! (n+j)) where Re w < 0; each point stops once its
    term drops below 1e-20 of its sum, after at most 500 terms.  The series
    also fills the removable singularity at s = 0.  Beyond |w| = n the closed
    form gamma(n, w) = (n-1)! (1 - e^-w sum_{j<n} w^j / j!).
    """
    if m < 0 or m != int(m):
        raise DomainError("monomial degree must be a non-negative integer")
    if t0 <= 0:
        raise DomainError("t0 must be positive")
    w = np.asarray(s, dtype=complex) * t0
    if (w.real < -700.0).any():
        raise DomainError(f"truncated transform overflows double precision at s*t0 = {w[w.real < -700.0][0]}")
    out = t0 ** (int(m) + 1) * _gamma_star(int(m) + 1, w.ravel()).reshape(w.shape)
    return out if np.ndim(s) else complex(out)
