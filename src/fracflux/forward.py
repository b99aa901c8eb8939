"""Closed-form spectral solution of the coupled fractional direct problem.

Per mode k the solution splits into a homogeneous part driven by the initial
coefficients (phi_k, psi_k) and a source part driven by the truncated monomial
time basis of (f_k, chi_k).  Both parts are explicit in Prabhakar functions:
the convolution of the kernel ``t^(g a - 1) E^g_{a,ga}(-lam t^a)`` with ``t^m``
over (0, t) equals ``m! t^(g a + m) E^g_{a,ga+m+1}(-lam t^a)``, and the
truncation of the source at t0 only shifts the same identity.  Everything
therefore evaluates exactly, for real times and for complex times in the
analytic-extension sector alike.

All K modes share one kernel block {E1, q, ce_m, cw_m} (``_KernelBlock``):
(K, T) arrays with row k-1 for mode k, since only the roots lam_breve_k and
lam_hat_k change from mode to mode.  u and v, and the unit-coefficient flux
columns of the inverse design matrix, contract it with (phi, psi, f, chi).  It
makes one Prabhakar call per (alpha, beta, gamma), holding every mode, both
roots and both the full and the t0-shifted grid, and evaluates only the rows
that meet a nonzero coefficient.  Everything is pure, and terms are summed in a
fixed order, so repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .modes import ModelParams, ModeTable, as_coeffs
from .specfun import (
    DomainError,
    PrabhakarParams,
    _gauss_legendre_panels,
    _graded_jacobi_integral,
    _principal_power_array,
    prabhakar_array,
)

__all__ = [
    "SourceSpec",
    "StateTrajectory",
    "FluxTrace",
    "FractionalResidualReport",
    "solve",
    "boundary_flux",
    "fractional_residual",
    "extend_complex",
    "mode_estimate_constant",
    "convolve_kernel_quadrature",
]

#: roots closer than this (relative) switch to the gamma=2 coalescent branch
ROOT_COALESCENCE_RTOL = 1e-6


@dataclass(frozen=True)
class SourceSpec:
    """Monomial time-basis coefficients of the sources f and chi on (0, t0).

    ``f_coeffs`` and ``chi_coeffs`` have shape (K, M+1); entry (k-1, m) is the
    coefficient of t^m in mode k.  Both sources vanish identically for t > t0.
    """

    degree: int
    t0: float
    f_coeffs: np.ndarray
    chi_coeffs: np.ndarray

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        if not (0.0 < self.t0 < math.inf):
            raise ValueError(f"t0 must be positive and finite, got {self.t0!r}")
        f = np.atleast_2d(np.asarray(self.f_coeffs, dtype=complex))
        x = np.atleast_2d(np.asarray(self.chi_coeffs, dtype=complex))
        if f.shape != x.shape or f.shape[1] != self.degree + 1:
            raise ValueError(f"coefficient tables must both be (K, degree+1), got {f.shape} and {x.shape}")
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(x))):
            raise ValueError("source coefficients must be finite")
        f.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "f_coeffs", f)
        object.__setattr__(self, "chi_coeffs", x)

    @property
    def K(self) -> int:
        return self.f_coeffs.shape[0]

    @classmethod
    def zero(cls, K: int, degree: int, t0: float) -> "SourceSpec":
        z = np.zeros((K, degree + 1), dtype=complex)
        return cls(degree=degree, t0=t0, f_coeffs=z, chi_coeffs=z.copy())


@dataclass(frozen=True)
class StateTrajectory:
    """Spectral state on a time grid: u_modes and v_modes have shape (K, len(time_grid))."""

    time_grid: np.ndarray
    u_modes: np.ndarray
    v_modes: np.ndarray
    params: ModelParams

    @property
    def K(self) -> int:
        return self.u_modes.shape[0]


@dataclass(frozen=True)
class FluxTrace:
    """Sampled boundary flux h(t) on the observation window (t0, t1)."""

    time_grid: np.ndarray
    values: np.ndarray


# ---------------------------------------------------------------------------
# the kernel block of all K modes
# ---------------------------------------------------------------------------


def _roots_coalesced(lam_breve, lam_hat):
    """Whether the two roots merge, so that the gamma = 2 branch applies; elementwise on arrays."""
    return np.abs(lam_breve - lam_hat) <= ROOT_COALESCENCE_RTOL * np.maximum(lam_breve, 1.0)


def _kernel_rows(alpha: float, beta: float, gamma: float, parts) -> list[np.ndarray]:
    """E^gamma_{alpha,beta}(-lam x^alpha) for every (lam, rows, x^alpha) of ``parts``, in one call.

    ``lam`` holds the roots of all K modes, ``rows`` marks the modes wanted and
    ``x^alpha`` the powers of a time grid.  Each part comes back as a
    (K, len(x^alpha)) array, 0 on the rows not wanted; when no row is wanted,
    nothing is evaluated.
    """
    z = [(-lam[rows, None] * xa).ravel() for lam, rows, xa in parts]
    flat = np.concatenate(z)
    if flat.size:
        flat = prabhakar_array(PrabhakarParams(alpha, beta, gamma), flat)
    out = [np.zeros((lam.size, xa.size), dtype=complex) for lam, _, xa in parts]
    for o, (_, rows, _), vals in zip(out, parts, np.split(flat, np.cumsum([v.size for v in z])[:-1])):
        o[rows] = vals.reshape(o[rows].shape)
    return out


def _conv_truncated(full, shifted, m: int, t0: float, cut: np.ndarray) -> np.ndarray:
    """Order-m source convolution with the source cut off at t0 (mask ``cut`` marks t beyond t0).

    ``full[j]`` is the order-j convolution over (0, t) on the whole grid and
    ``shifted[j]`` the same at the cut times minus t0; past t0 the binomial
    theorem subtracts sum_j C(m, j) t0^(m-j) shifted[j].
    """
    out = full[m].copy()
    if cut.any():
        corr = np.zeros(shifted[m].shape, dtype=complex)
        for j in range(m + 1):
            corr += math.comb(m, j) * t0 ** (m - j) * shifted[j]
        out[..., cut] -= corr
    return out


def _source_convolutions(alpha: float, gamma_ml: float, roots, tv: np.ndarray, t0: float):
    """Truncated source convolutions of t^(g a - 1) E^g_{a,ga}(-lam t^a) with t^m, for every root set.

    ``roots`` pairs the roots lam (K,) with a (K, M+1) mask of the (mode,
    order) entries wanted.  Each pair gets a list over m = 0..M of (K, T)
    arrays, 0 off the entries wanted.  The full convolution of order j,
    ``j! t^(g a + j) E^g_{a,ga+j+1}(-lam t^a)``, enters order j, and its form
    shifted to t - t0 enters every order m >= j.  Order j of every root set, on
    both grids, is one Prabhakar call.
    """
    # sources act over (0, t0) only: real times past t0 and every complex
    # extension point take the shifted form
    cut = (tv.imag != 0) | (tv.real > t0)
    grids = (tv, tv[cut] - t0)
    powers = [_principal_power_array(x, alpha) for x in grids]
    M = roots[0][1].shape[1] - 1
    convs = [([], []) for _ in roots]  # full and shifted convolutions of each root set, by order
    for j in range(M + 1):
        scales = [math.factorial(j) * _principal_power_array(x, gamma_ml * alpha + j) for x in grids]
        parts = [(lam, r, xa) for lam, w in roots for r, xa in zip((w[:, j], w[:, j:].any(axis=1)), powers)]
        for i, v in enumerate(_kernel_rows(alpha, gamma_ml * alpha + j + 1.0, gamma_ml, parts)):
            convs[i // 2][i % 2].append(scales[i % 2] * v)
    return [
        [np.where(w[:, m, None], _conv_truncated(full, shifted, m, t0, cut), 0.0) for m in range(M + 1)]
        for (_, w), (full, shifted) in zip(roots, convs)
    ]


def _used_rows(params: ModelParams, table: ModeTable, phi, psi, f, chi):
    """(init, q, ce, cw) row masks of a ``_KernelBlock``: the kernels that meet a nonzero coefficient.

    q and cw_m enter u and v through theta and b with (phi, f), and through a
    and zeta with (psi, chi).
    """
    wx = (table.theta != 0) | (params.b != 0)
    wy = (table.zeta != 0) | (params.a != 0)
    return (
        (phi != 0) | (psi != 0),
        ((phi != 0) & wx) | ((psi != 0) & wy),
        (f != 0) | (chi != 0),
        ((f != 0) & wx[:, None]) | ((chi != 0) & wy[:, None]),
    )


class _KernelBlock:
    """The kernels {E1, q, ce_m, cw_m} of all K modes on one time grid: (K, T) arrays, row k-1 for mode k.

    E1 = E_{a,1}(-lam_breve t^a) and q, its divided difference over the two
    roots, carry (phi, psi); ce_m and cw_m, the order-m source convolutions of
    the matching kernels, carry (f_m, chi_m).  ``rows`` = (init, q, ce, cw)
    marks the rows to evaluate, (K,) masks for E1 and q and (K, M+1) masks for
    ce_m and cw_m, as ``_used_rows`` derives them; a row left out is 0.  Rows
    whose roots coalesce take the gamma = 2 branch of q and cw_m.
    """

    def __init__(self, params: ModelParams, table: ModeTable, tv: np.ndarray, t0: float, rows):
        a, lb, lh = params.alpha, table.lam_breve, table.lam_hat
        self.a, self.b = params.a, params.b
        self.theta, self.zeta = table.theta[:, None], table.zeta[:, None]
        coal, gap = _roots_coalesced(lb, lh), (lb - lh)[:, None]
        init, q_rows, ce_rows, cw_rows = rows
        ta = _principal_power_array(tv, a)
        split = q_rows & ~coal
        self.E1, Eh = _kernel_rows(a, 1.0, 1.0, [(lb, init, ta), (lh, split, ta)])
        (E2,) = _kernel_rows(a, a + 1.0, 2.0, [(lb, q_rows & coal, ta)])
        self.q = ta * E2
        self.q[split] = (Eh[split] - self.E1[split]) / gap[split]

        cw_split = cw_rows & ~coal[:, None]
        self.ce, ch = _source_convolutions(a, 1.0, [(lb, ce_rows), (lh, cw_split)], tv, t0)
        (self.cw,) = _source_convolutions(a, 2.0, [(lb, cw_rows & coal[:, None])], tv, t0)
        for m, cw in enumerate(self.cw):
            r = cw_split[:, m]
            cw[r] = (ch[m][r] - self.ce[m][r]) / gap[r]

    def contract(self, phi, psi, f, chi) -> tuple[np.ndarray, np.ndarray]:
        """(u, v), each (K, T), for initial coefficients phi, psi (K,) and source tables f, chi (K, M+1).

        The terms are added in a fixed order: initial data, then source orders 0..M.
        """
        th, ze, pa, pb, E1, q = self.theta, self.zeta, self.a, self.b, self.E1, self.q
        phi, psi = phi[:, None], psi[:, None]
        u = np.zeros(E1.shape, dtype=complex)
        v = np.zeros(E1.shape, dtype=complex)
        u += (E1 + th * q) * phi - pa * q * psi
        v += -pb * q * phi + (E1 + ze * q) * psi
        for m, (ce, cw) in enumerate(zip(self.ce, self.cw)):
            fm, xm = f[:, m, None], chi[:, m, None]
            u += fm * (ce + th * cw) - pa * xm * cw
            v += -pb * fm * cw + xm * (ce + ze * cw)
        return u, v


def _coefficient_tables(K: int, phi, psi, src: SourceSpec):
    """(phi, psi, f, chi) as (K,) and (K, M+1) complex arrays, modes past the data padded with 0."""
    if src.K > K:
        raise ValueError(f"source has {src.K} modes, table only {K}")
    f = np.zeros((K, src.degree + 1), dtype=complex)
    chi = np.zeros_like(f)
    f[: src.K], chi[: src.K] = src.f_coeffs, src.chi_coeffs
    return as_coeffs(phi, K), as_coeffs(psi, K), f, chi


def _all_modes(params: ModelParams, table: ModeTable, coeffs, tv: np.ndarray, t0: float):
    """(u, v), each (K,) + tv.shape: every mode of the direct problem on complex times tv."""
    block = _KernelBlock(params, table, tv.ravel(), t0, _used_rows(params, table, *coeffs))
    return tuple(x.reshape((table.K,) + tv.shape) for x in block.contract(*coeffs))


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def solve(
    params: ModelParams,
    table: ModeTable,
    phi,
    psi,
    src: SourceSpec,
    time_grid,
) -> StateTrajectory:
    """Assemble all K modes of the direct problem on the given time grid."""
    t = np.asarray(time_grid, dtype=float)
    if t.ndim != 1 or not np.isfinite(t).all() or (np.diff(t) <= 0).any() or (t < 0).any():
        raise DomainError("time grid must be finite, strictly increasing and non-negative")
    u, v = _all_modes(params, table, _coefficient_tables(table.K, phi, psi, src), t.astype(complex), src.t0)
    return StateTrajectory(time_grid=t, u_modes=u, v_modes=v, params=params)


def boundary_flux(traj: StateTrajectory, table: ModeTable) -> FluxTrace:
    """h(t) = sum_k u_k(t) gamma_k restricted to the observation window (t0, t1)."""
    p = traj.params
    sel = (traj.time_grid > p.t0) & (traj.time_grid < p.t1)
    if not sel.any():
        raise DomainError(f"trajectory grid has no points inside ({p.t0}, {p.t1})")
    vals = table.gamma_trace[: traj.K] @ traj.u_modes[:, sel]
    return FluxTrace(time_grid=traj.time_grid[sel], values=vals)


def extend_complex(params: ModelParams, table: ModeTable, phi, psi, src: SourceSpec, z):
    """(u_k(z), v_k(z)) for z in the analytic-extension sector around (t0, infinity).

    ``z`` may be a scalar or an array; outputs have shape (K,) + shape(z).
    """
    zarr = np.atleast_1d(np.asarray(z, dtype=complex))
    theta_max = min(math.pi, (2.0 - params.alpha) * math.pi / (2.0 * params.alpha))
    w = zarr - params.t0
    ang = np.abs(np.arctan2(w.imag, w.real))
    if not np.isfinite(w).all() or (w == 0).any() or (ang >= theta_max).any():
        raise DomainError(
            f"z must be finite and lie in the sector |Arg(z - t0)| < {theta_max:.6f} around (t0, infinity)"
        )
    u, v = _all_modes(params, table, _coefficient_tables(table.K, phi, psi, src), zarr, src.t0)
    if np.ndim(z) == 0:
        return u[:, 0], v[:, 0]
    return u, v


# ---------------------------------------------------------------------------
# self-checks: fractional residual and the mode-estimate constant
# ---------------------------------------------------------------------------


def _trapezoid_weights(t: np.ndarray) -> np.ndarray:
    """Trapezoid-rule weights on the increasing grid t, uniform or not."""
    w = np.empty(t.size)
    w[1:-1] = 0.5 * (t[2:] - t[:-2])
    w[0] = 0.5 * (t[1] - t[0])
    w[-1] = 0.5 * (t[-1] - t[-2])
    return w


@dataclass(frozen=True)
class FractionalResidualReport:
    """Max-over-modes discrete L2 residuals of the integral form of the two equations."""

    res_u: float
    res_v: float
    per_mode_u: np.ndarray
    per_mode_v: np.ndarray
    grid_step: float


def _frac_integral_apply(alpha: float, g: np.ndarray, h: float) -> np.ndarray:
    """I^alpha g on the uniform grid {0, h, ..., nh} by product integration.

    The piecewise-linear interpolant of g is integrated against the Abel kernel
    exactly, giving I^alpha g(t_n) = h^a/Gamma(a+2) (b0_n g_0 +
    sum_{j=1}^{n-1} d_{n-j} g_j + g_n); linear g is reproduced to rounding.
    """
    n = g.shape[-1] - 1
    out = np.zeros(g.shape, dtype=complex if np.iscomplexobj(g) else float)
    if n < 1:
        return out
    scale = h**alpha / math.gamma(alpha + 2.0)
    js = np.arange(0, n + 1, dtype=float)
    d = (js + 1.0) ** (alpha + 1.0) - 2.0 * js ** (alpha + 1.0) + np.abs(js - 1.0) ** (alpha + 1.0)
    with np.errstate(invalid="ignore"):
        b0 = np.where(js >= 1, (js - 1.0) ** (alpha + 1.0) - js**alpha * (js - alpha - 1.0), 0.0)
    acc = b0 * g[0] + g
    if n >= 2:
        conv = np.convolve(g[1:n], d[1:n])
        acc[2:] += conv[: n - 1]
    out[1:] = scale * acc[1:]
    return out


def fractional_residual(
    traj: StateTrajectory,
    params: ModelParams,
    table: ModeTable,
    phi,
    psi,
    src: SourceSpec,
) -> FractionalResidualReport:
    """Residual of u_k - phi_k = I^alpha[-(kappa lam_k + c) u_k - a v_k + f_k] and its partner.

    The grid must be uniform and start at 0.  This is the solver's self-check:
    both sides are known exactly, so the residual is pure discretization error
    of the product-integration rule and must vanish under refinement.
    """
    t = traj.time_grid
    h = t[1] - t[0]
    if t[0] != 0.0 or not np.allclose(np.diff(t), h, rtol=1e-12, atol=1e-14):
        raise ValueError("fractional_residual requires a uniform grid starting at 0")
    phi_c, psi_c, f, chi = _coefficient_tables(traj.K, phi, psi, src)
    # the sources on the grid, 0 from t0 on
    fv, xv = (np.where(t < src.t0, np.polynomial.polynomial.polyval(t, c.T), 0.0) for c in (f, chi))
    u, v, lam = traj.u_modes, traj.v_modes, table.lam[: traj.K, None]
    gu = -(params.kappa * lam + params.c) * u - params.a * v + fv
    gv = -(params.varkappa * lam + params.d) * v - params.b * u + xv
    w = _trapezoid_weights(t)

    def residual(x, x0, g):
        integral = np.array([_frac_integral_apply(params.alpha, gk, h) for gk in g])
        return np.sqrt(np.sum(w * np.abs(x - x0[:, None] - integral) ** 2, axis=1))

    ru, rv = residual(u, phi_c, gu), residual(v, psi_c, gv)
    return FractionalResidualReport(
        res_u=float(ru.max()), res_v=float(rv.max()), per_mode_u=ru, per_mode_v=rv, grid_step=float(h)
    )


def mode_estimate_constant(traj: StateTrajectory, phi, psi, src: SourceSpec) -> float:
    """Empirical c0 with |u_k(t)| + |v_k(t)| <= c0 (|phi_k| + |psi_k| + t^(a-1)*(|f_k|+|chi_k|)(t)).

    The source moduli are bounded by the polynomials with absolute coefficients.
    The Abel kernel t^(a-1)/Gamma(a) is the lam = 0 kernel, whose full
    convolution with t^j is j! t^(a+j)/Gamma(a+j+1); the cut at t0 shifts it as
    in the kernel block.
    """
    a, t0 = traj.params.alpha, src.t0
    pos = traj.time_grid > 0
    tv = traj.time_grid[pos].astype(complex)
    cut = tv.real > t0
    phi_c, psi_c, f, chi = _coefficient_tables(traj.K, phi, psi, src)
    # Gamma(a) times the full convolutions, on the grid and at the cut times minus t0
    coef = [math.gamma(a) * math.factorial(j) / math.gamma(a + j + 1.0) for j in range(src.degree + 1)]
    full, shifted = ([c * _principal_power_array(x, a + j) for j, c in enumerate(coef)] for x in (tv, tv[cut] - t0))
    rhs = (np.abs(phi_c) + np.abs(psi_c))[:, None] + sum(
        (np.abs(f[:, m, None]) + np.abs(chi[:, m, None])) * _conv_truncated(full, shifted, m, t0, cut).real
        for m in range(src.degree + 1)
    )
    lhs = np.abs(traj.u_modes[:, pos]) + np.abs(traj.v_modes[:, pos])
    mask = rhs > 0
    return float(np.max(lhs[mask] / rhs[mask])) if mask.any() else 0.0


# ---------------------------------------------------------------------------
# quadrature route for the source convolutions (independent cross-check)
# ---------------------------------------------------------------------------


#: panels and Gauss nodes per panel of ``convolve_kernel_quadrature``
_QUAD_PANELS, _QUAD_NODES = 12, 16


def convolve_kernel_quadrature(alpha: float, lam: float, gamma_ml: float, m: int, t: float, t0: float) -> complex:
    """Gauss-Jacobi/graded-panel quadrature of the truncated kernel convolution.

    Computes integral over (max(0, t-t0), t) of y^(g a - 1) E^g_{a,ga}(-lam y^a)
    (t - y)^m dy, the same quantity the closed form produces.  The Abel weight
    y^(g a - 1) is absorbed by a Jacobi rule on the innermost panel and the
    remaining mild y^alpha kinks by geometric grading toward y = 0.
    """
    if t <= 0:
        return 0.0 + 0.0j
    pml = PrabhakarParams(alpha, gamma_ml * alpha, gamma_ml)
    wexp = gamma_ml * alpha - 1.0

    def smooth(y):
        return prabhakar_array(pml, -lam * y**alpha) * (t - y) ** m

    lo = max(0.0, t - t0)
    if lo > 0:
        y, w = _gauss_legendre_panels(np.linspace(lo, t, _QUAD_PANELS + 1), _QUAD_NODES)
        return complex(np.sum(w * y**wexp * smooth(y)))
    return complex(_graded_jacobi_integral(smooth, wexp, t, _QUAD_PANELS, _QUAD_NODES))
