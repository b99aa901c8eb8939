"""Closed-form spectral solution of the coupled fractional direct problem.

Per mode k the solution splits into a homogeneous part driven by the initial
coefficients (phi_k, psi_k) and a source part driven by the truncated monomial
time basis of (f_k, chi_k).  Both parts are explicit in Prabhakar functions:
the convolution of the kernel ``t^(g a - 1) E^g_{a,ga}(-lam t^a)`` with ``t^m``
over (0, t) equals ``m! t^(g a + m) E^g_{a,ga+m+1}(-lam t^a)``, and the
truncation of the source at t0 only shifts the same identity.  Everything
therefore evaluates exactly, for real times and for complex times in the
analytic-extension sector alike.

u_k, v_k and each unit-coefficient flux column of mode k contract one kernel
block {E1, q, ce_m, cw_m} on a time grid (``_KernelBlock``) with (phi_k, psi_k,
f_k, chi_k), or with unit coefficients for the inverse design matrix.  The block
evaluates each Prabhakar kernel at most once, on first use: truncated source
convolutions of every order share one shifted evaluation per order, and a
kernel whose coefficients are all zero (q and cw_m when theta = a = b = 0, as
in the decoupled problem) is never evaluated.

Mode evaluations are independent and pure; sums over modes are accumulated in
fixed k-order so repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .modes import ModelParams, ModeTable, as_coeffs
from .specfun import (
    DomainError,
    PrabhakarParams,
    _graded_jacobi_integral,
    _principal_power_array,
    prabhakar_array,
)

__all__ = [
    "SourceSpec",
    "StateTrajectory",
    "FluxTrace",
    "FractionalResidualReport",
    "qk_wk",
    "mode_solution",
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
        if self.t0 <= 0:
            raise ValueError("t0 must be positive")
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

    def mode_values(self, k: int, t) -> np.ndarray:
        """f_k(t) on an array of times (zero beyond t0)."""
        return self._row_values(self.f_coeffs[k - 1], t)

    def chi_mode_values(self, k: int, t) -> np.ndarray:
        """chi_k(t) on an array of times (zero beyond t0)."""
        return self._row_values(self.chi_coeffs[k - 1], t)

    def _row_values(self, row: np.ndarray, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.where(t < self.t0, np.polynomial.polynomial.polyval(t, row), 0.0)


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
# per-mode building blocks
# ---------------------------------------------------------------------------


def _roots_coalesced(lam_breve: float, lam_hat: float) -> bool:
    return abs(lam_breve - lam_hat) <= ROOT_COALESCENCE_RTOL * max(lam_breve, 1.0)


def _E(alpha: float, beta: float, gamma: float, lam: float, tv: np.ndarray) -> np.ndarray:
    """E^gamma_{alpha,beta}(-lam * tv**alpha) on an array of (complex) times."""
    ta = _principal_power_array(tv, alpha)
    return prabhakar_array(PrabhakarParams(alpha, beta, gamma), -lam * ta)


def qk_wk(params: ModelParams, table: ModeTable, k: int, z: complex) -> tuple[complex, complex]:
    """(q_k(z), w_k(z)): the divided-difference pair, coalescent branch when the roots merge."""
    block = _KernelBlock(params, table, k, np.asarray([complex(z)]), params.t0)
    return complex(block.q[0]), complex(block.w[0])


def _conv_full(alpha: float, lam: float, gamma_ml: float, j: int, tv: np.ndarray) -> np.ndarray:
    """integral_0^t (t-tau)^(g a - 1) E^g_{a,ga}(-lam (t-tau)^a) tau^j dtau, exact."""
    beta = gamma_ml * alpha + j + 1.0
    return (
        math.factorial(j)
        * _principal_power_array(tv, gamma_ml * alpha + j)
        * prabhakar_array(PrabhakarParams(alpha, beta, gamma_ml), -lam * _principal_power_array(tv, alpha))
    )


def _conv_truncated(
    alpha: float, lam: float, gamma_ml: float, m: int, tv: np.ndarray, t0: float, cut: np.ndarray, memo=None
) -> np.ndarray:
    """Same convolution but with the source cut off at t0 (mask ``cut`` marks t beyond t0).

    Past t0 the binomial theorem subtracts sum_j C(m, j) t0^(m-j) conv_j(t - t0).
    ``memo`` keeps the full convolutions, keyed by (order, shifted), for the
    other orders of the same kernel on the same grid.
    """
    memo = {} if memo is None else memo

    def full(j: int, shifted: bool) -> np.ndarray:
        if (j, shifted) not in memo:
            memo[j, shifted] = _conv_full(alpha, lam, gamma_ml, j, tv[cut] - t0 if shifted else tv)
        return memo[j, shifted]

    out = full(m, False).copy()
    if cut.any():
        corr = np.zeros(np.count_nonzero(cut), dtype=complex)
        for j in range(m + 1):
            corr += math.comb(m, j) * t0 ** (m - j) * full(j, True)
        out[cut] -= corr
    return out


class _KernelBlock:
    """The kernels {E1, q, ce_m, cw_m} of mode k on one time grid, each evaluated once, on first use.

    E1 = E_{a,1}(-lam_breve t^a) and q, its divided difference over the two
    roots, carry (phi_k, psi_k); ce_m and cw_m, the order-m source convolutions
    of the matching kernels, carry (f_km, chi_km).  ``contract`` asks for q and
    cw_m only when a coefficient multiplying them is nonzero; a skipped kernel
    enters its sums as 0, which leaves them unchanged.
    """

    def __init__(self, params: ModelParams, table: ModeTable, k: int, tv, t0: float):
        self.alpha, self.a, self.b, self.t0 = params.alpha, params.a, params.b, t0
        self.lb, self.lh = float(table.lam_breve[k - 1]), float(table.lam_hat[k - 1])
        self.theta, self.zeta = float(table.theta[k - 1]), float(table.zeta[k - 1])
        self.coalesced = _roots_coalesced(self.lb, self.lh)
        self.tv = np.asarray(tv, dtype=complex)
        # sources act over (0, t0) only: real times past t0 and every complex
        # extension point use the shifted form of the convolution identity
        self.cut = (self.tv.imag != 0) | (self.tv.real > t0)
        self._memo = {}  # (lam, gamma) -> that kernel's full convolutions

    @cached_property
    def E1(self) -> np.ndarray:
        return _E(self.alpha, 1.0, 1.0, self.lb, self.tv)

    @cached_property
    def q(self) -> np.ndarray:
        a = self.alpha
        if self.coalesced:
            return _principal_power_array(self.tv, a) * _E(a, a + 1.0, 2.0, self.lb, self.tv)
        return (_E(a, 1.0, 1.0, self.lh, self.tv) - self.E1) / (self.lb - self.lh)

    @cached_property
    def w(self) -> np.ndarray:
        """Divided difference of t^(a-1) E_{a,a}(-lam t^a) over the two roots; set to 0 at t = 0.

        At t = 0 it is singular for alpha <= 1/2, and then a grid holding 0 is refused.
        """
        a = self.alpha
        zero = self.tv == 0
        if zero.any() and 2.0 * a - 1.0 <= 0.0:
            raise DomainError("w_k is singular at t = 0 for alpha <= 1/2")
        safe = np.where(zero, 1.0, self.tv)
        if self.coalesced:
            out = _principal_power_array(safe, 2.0 * a - 1.0) * _E(a, 2.0 * a, 2.0, self.lb, safe)
        else:
            out = (
                _principal_power_array(safe, a - 1.0)
                * (_E(a, a, 1.0, self.lh, safe) - _E(a, a, 1.0, self.lb, safe))
                / (self.lb - self.lh)
            )
        return np.where(zero, 0.0, out)

    def _conv(self, lam: float, gamma_ml: float, m: int) -> np.ndarray:
        memo = self._memo.setdefault((lam, gamma_ml), {})
        return _conv_truncated(self.alpha, lam, gamma_ml, m, self.tv, self.t0, self.cut, memo)

    def ce(self, m: int) -> np.ndarray:
        return self._conv(self.lb, 1.0, m)

    def cw(self, m: int) -> np.ndarray:
        if self.coalesced:
            return self._conv(self.lb, 2.0, m)
        return (self._conv(self.lh, 1.0, m) - self.ce(m)) / (self.lb - self.lh)

    def _needs_w(self, x: complex, y: complex) -> bool:
        """Whether q (or cw_m) has a nonzero coefficient when (phi_k, psi_k) (or (f_km, chi_km)) = (x, y)."""
        return (x != 0 and (self.theta != 0 or self.b != 0)) or (y != 0 and (self.a != 0 or self.zeta != 0))

    def contract(self, phi_k: complex, psi_k: complex, f_row, chi_row) -> tuple[np.ndarray, np.ndarray]:
        """(u_k, v_k) for the initial coefficients (phi_k, psi_k) and source rows (f_k, chi_k)."""
        th, ze, pa, pb = self.theta, self.zeta, self.a, self.b
        u = np.zeros(self.tv.shape, dtype=complex)
        v = np.zeros(self.tv.shape, dtype=complex)
        if phi_k != 0 or psi_k != 0:
            E1 = self.E1
            q = self.q if self._needs_w(phi_k, psi_k) else 0.0
            u += (E1 + th * q) * phi_k - pa * q * psi_k
            v += -pb * q * phi_k + (E1 + ze * q) * psi_k
        for m, (fm, xm) in enumerate(zip(np.asarray(f_row, dtype=complex), np.asarray(chi_row, dtype=complex))):
            if fm == 0 and xm == 0:
                continue
            ce = self.ce(m)
            cw = self.cw(m) if self._needs_w(fm, xm) else 0.0
            u += fm * (ce + th * cw) - pa * xm * cw
            v += -pb * fm * cw + xm * (ce + ze * cw)
        return u, v


def _all_modes(params: ModelParams, table: ModeTable, phi, psi, src: SourceSpec, tv: np.ndarray):
    """(u, v) of shape (K,) + tv.shape: every mode of the direct problem on complex times tv."""
    K = table.K
    phi_c = as_coeffs(phi, K)
    psi_c = as_coeffs(psi, K)
    if src.K > K:
        raise ValueError(f"source has {src.K} modes, table only {K}")
    zero_row = np.zeros(src.degree + 1)
    u = np.zeros((K,) + tv.shape, dtype=complex)
    v = np.zeros((K,) + tv.shape, dtype=complex)
    for k in range(1, K + 1):
        rows = (src.f_coeffs[k - 1], src.chi_coeffs[k - 1]) if k <= src.K else (zero_row, zero_row)
        block = _KernelBlock(params, table, k, tv, src.t0)
        u[k - 1], v[k - 1] = block.contract(complex(phi_c[k - 1]), complex(psi_c[k - 1]), *rows)
    return u, v


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def mode_solution(
    params: ModelParams,
    table: ModeTable,
    k: int,
    phi_k: complex,
    psi_k: complex,
    f_row,
    chi_row,
    time_grid,
) -> tuple[np.ndarray, np.ndarray]:
    """(u_k, v_k) on a real time grid in [0, infinity)."""
    t = np.asarray(time_grid, dtype=float)
    if (t < 0).any():
        raise DomainError("time grid must be non-negative")
    return _KernelBlock(params, table, k, t, params.t0).contract(complex(phi_k), complex(psi_k), f_row, chi_row)


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
    if t.ndim != 1 or (np.diff(t) <= 0).any() or (t < 0).any():
        raise DomainError("time grid must be strictly increasing and non-negative")
    u, v = _all_modes(params, table, phi, psi, src, t.astype(complex))
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
    if (w == 0).any() or (ang >= theta_max).any():
        raise DomainError(
            f"z must lie in the sector |Arg(z - t0)| < {theta_max:.6f} around (t0, infinity)"
        )
    u, v = _all_modes(params, table, phi, psi, src, zarr)
    if np.ndim(z) == 0:
        return u[:, 0], v[:, 0]
    return u, v


# ---------------------------------------------------------------------------
# self-checks: fractional residual and the mode-estimate constant
# ---------------------------------------------------------------------------


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
    K = traj.K
    phi_c = as_coeffs(phi, K)
    psi_c = as_coeffs(psi, K)
    w = np.full(t.size, h)
    w[0] = w[-1] = h / 2.0
    ru = np.zeros(K)
    rv = np.zeros(K)
    for k in range(1, K + 1):
        uk, vk = traj.u_modes[k - 1], traj.v_modes[k - 1]
        fk = src.mode_values(k, t) if k <= src.K else np.zeros_like(t)
        xk = src.chi_mode_values(k, t) if k <= src.K else np.zeros_like(t)
        lam = table.lam[k - 1]
        gu = -(params.kappa * lam + params.c) * uk - params.a * vk + fk
        gv = -(params.varkappa * lam + params.d) * vk - params.b * uk + xk
        res_u = uk - phi_c[k - 1] - _frac_integral_apply(params.alpha, gu, h)
        res_v = vk - psi_c[k - 1] - _frac_integral_apply(params.alpha, gv, h)
        ru[k - 1] = math.sqrt(float(np.sum(w * np.abs(res_u) ** 2)))
        rv[k - 1] = math.sqrt(float(np.sum(w * np.abs(res_v) ** 2)))
    return FractionalResidualReport(
        res_u=float(ru.max()), res_v=float(rv.max()), per_mode_u=ru, per_mode_v=rv, grid_step=float(h)
    )


def mode_estimate_constant(traj: StateTrajectory, phi, psi, src: SourceSpec) -> float:
    """Empirical c0 with |u_k(t)| + |v_k(t)| <= c0 (|phi_k| + |psi_k| + t^(a-1)*(|f_k|+|chi_k|)(t)).

    The source moduli are bounded by the polynomials with absolute coefficients.
    """
    params = traj.params
    a = params.alpha
    t = traj.time_grid
    pos = t > 0
    tv = t[pos].astype(complex)
    cut = (tv.real > src.t0) | (tv.imag != 0)
    abel = {}  # full convolutions of the lam = 0 kernel, the same for every mode
    c0 = 0.0
    phi_c = as_coeffs(phi, traj.K)
    psi_c = as_coeffs(psi, traj.K)
    for k in range(1, traj.K + 1):
        lhs = np.abs(traj.u_modes[k - 1, pos]) + np.abs(traj.v_modes[k - 1, pos])
        rhs = np.full(tv.shape, abs(phi_c[k - 1]) + abs(psi_c[k - 1]))
        if k <= src.K:
            absf = np.abs(src.f_coeffs[k - 1]) + np.abs(src.chi_coeffs[k - 1])
            for m, cm in enumerate(absf):
                if cm != 0:
                    rhs = rhs + cm * math.gamma(a) * _conv_truncated(a, 0.0, 1.0, m, tv, src.t0, cut, abel).real
        mask = rhs > 0
        if mask.any():
            c0 = max(c0, float(np.max(lhs[mask] / rhs[mask])))
    return c0


# ---------------------------------------------------------------------------
# quadrature route for the source convolutions (independent cross-check)
# ---------------------------------------------------------------------------


def convolve_kernel_quadrature(
    alpha: float,
    lam: float,
    gamma_ml: float,
    m: int,
    t: float,
    t0: float,
    n_panels: int = 12,
    nodes: int = 16,
) -> complex:
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
    total = 0.0 + 0.0j
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    if lo > 0:
        edges = np.linspace(lo, t, n_panels + 1)
        for a_, b_ in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a_ + b_), 0.5 * (b_ - a_)
            y = mid + half * xg
            total += half * np.sum(wg * y**wexp * smooth(y))
        return complex(total)
    return complex(_graded_jacobi_integral(smooth, wexp, t, n_panels, nodes))
