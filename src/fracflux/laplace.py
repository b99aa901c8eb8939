"""Laplace-domain layer: mode transforms, boundary-flux transform, branch-cut jump,
the rational/entire function families behind it, and the dense-branch search.

With sources confined to (0, t0) the mode transforms are rational in s^alpha
times entire functions of s (truncated monomial transforms), so the flux
transform extends analytically to the slit plane and has one-sided limits on
the negative real axis.  The jump across the cut, reparametrized by
rho = r^alpha, is a series of products R_k(rho) G_k(rho^(1/alpha)) whose
entire components can be rotated to other branches of the 1/alpha power; that
rotation is the branch function evaluated here.

Evaluators are pure and a JumpContext is immutable.  Every evaluator takes a
scalar or an array of points through one code path (a scalar is a one-point
array) and returns a complex or an array of the input's shape; the value at a
point does not depend, bit for bit, on the other points of its call.  Series
are summed in fixed k-order, each point stopping on its own tail bound.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .forward import SourceSpec
from .modes import ModelParams, ModeTable, as_coeffs
from .specfun import DomainError, _principal_power_array, monomial_laplace_truncated

__all__ = [
    "PoleLineError",
    "JumpContext",
    "make_jump_context",
    "mode_transform",
    "flux_transform",
    "flux_transform_limit",
    "jump",
    "q_branch",
    "branch_search",
    "branch_orbit_size",
]

#: relative padding used when refusing evaluation on the pole rays
_POLE_RAY_ATOL = 1e-9


class PoleLineError(DomainError):
    """Evaluation requested on (or too near) the pole rays Arg z = +-pi(1-alpha)."""


def _source_transform(rows, t0: float, s):
    """Truncated Laplace transform sum_m c_m integral_0^t0 e^(-s t) t^m dt (entire in s).

    The coefficients c_m lie along the last axis of ``rows`` and broadcast
    against ``s``: a (K, 1, M+1) table of K modes at N points gives (K, N).
    """
    rows = np.atleast_1d(rows)
    total = 0.0 + 0.0j
    for m in range(rows.shape[-1]):
        if np.any(rows[..., m] != 0):
            total = total + rows[..., m] * monomial_laplace_truncated(m, t0, s)
    return total


def _points(x) -> np.ndarray:
    """The points of a scalar or an array as a flat complex array."""
    return np.asarray(x, dtype=complex).ravel()


def _shaped(values: np.ndarray, like):
    """``values`` in the shape of ``like``: a complex for a scalar."""
    return complex(values[0]) if np.ndim(like) == 0 else values.reshape(np.shape(like))


def mode_transform(
    params: ModelParams,
    table: ModeTable,
    k: int,
    phi_k: complex,
    psi_k: complex,
    f_row,
    chi_row,
    s: complex,
    src_t0: float | None = None,
) -> tuple[complex, complex]:
    """(U_k(s), V_k(s)) by the closed formulas; valid wherever the denominator is nonzero.

    The formula itself is the analytic continuation, so Re s is unrestricted.
    """
    t0 = params.t0 if src_t0 is None else src_t0
    sp = _points(s)
    if (sp == 0).any():
        raise DomainError("mode_transform is singular at s = 0 (the s^(alpha-1) factor)")
    sa = _principal_power_array(sp, params.alpha)
    sam1 = _principal_power_array(sp, params.alpha - 1.0)
    F = _source_transform(f_row, t0, sp)
    X = _source_transform(chi_row, t0, sp)
    U, V = _mode_transform_core(params, table, k - 1, complex(phi_k), complex(psi_k), F, X, sa, sam1)
    return _shaped(U, s), _shaped(V, s)


def _mode_transform_core(params, table, j, phi_k, psi_k, F, X, sa, sam1):
    """Assemble U, V from s^alpha, s^(alpha-1) and source transforms; ``j`` may be a (K, 1) column."""
    lamb = table.lam_breve[j]
    lamh = table.lam_hat[j]
    den1 = sa + lamb
    den2 = sa + lamh
    mode = np.broadcast_to(np.asarray(j) + 1, np.broadcast(den1, den2).shape)
    zero = (np.abs(den1) < 1e-13 * np.maximum(lamb, 1.0)) | (np.abs(den2) < 1e-13 * np.maximum(lamh, 1.0))
    if zero.any():
        raise DomainError(f"evaluation at a zero of the mode-{mode[zero][0]} denominator")
    near = (np.abs(den2) < 1e-8 * table.lam[j]) | (np.abs(den1) < 1e-8 * table.lam[j])
    if near.any():
        warnings.warn(f"mode {mode[near][0]} transform evaluated near a denominator zero", stacklevel=3)
    lam = table.lam[j]
    nu = F + sam1 * phi_k
    nx = X + sam1 * psi_k
    U = ((sa + params.varkappa * lam + params.d) * nu - params.a * nx) / (den1 * den2)
    V = ((sa + params.kappa * lam + params.c) * nx - params.b * nu) / (den1 * den2)
    return U, V


@dataclass(frozen=True)
class JumpContext:
    """Everything the jump/branch/residue machinery needs, frozen at build time.

    The coupling ``params.a`` fixes the family: a = 0 gives the decoupled
    single-equation family (IP1, two R/G pairs per mode built on
    kappa lam_k + c), a != 0 the coupled family (IP2, four pairs per mode
    built on the root pair lam_breve/lam_hat).
    """

    params: ModelParams
    table: ModeTable
    phi: np.ndarray
    psi: np.ndarray
    src: SourceSpec

    @property
    def alpha(self) -> float:
        return self.params.alpha

    @property
    def K(self) -> int:
        return self.table.K

    @property
    def n_families(self) -> int:
        return 4 if self.params.coupled else 2

    # -- pole geometry ------------------------------------------------------
    def pole_radii(self, k: int) -> tuple[float, ...]:
        """Radii of the mode-k poles on the ray Arg z = pi (1 - alpha)."""
        j = k - 1
        if not self.params.coupled:
            return (self.params.kappa * self.table.lam[j] + self.params.c,)
        return (float(self.table.lam_breve[j]), float(self.table.lam_hat[j]))

    def pole(self, k: int, which: str = "breve") -> complex:
        """Upper-ray pole -e^(-i pi alpha) * radius for mode k."""
        radii = self.pole_radii(k)
        r = radii[0] if which == "breve" or len(radii) == 1 else radii[1]
        return -cmath.exp(-1j * math.pi * self.alpha) * r

    # -- entire components --------------------------------------------------
    def g_eval(self, k, j: int, w):
        """G_{k,j}(w): entire away from the simple pole of the initial-state terms at 0.

        ``k`` may be a (K, 1) column of modes against an array ``w``, here and in ``r_eval``.
        """
        gk = self.table.gamma_trace[k - 1]
        if j == 1:
            return _source_transform(self.src.f_coeffs[k - 1], self.src.t0, -w) * gk
        if j == 2:
            return -self.phi[k - 1] * gk / w
        if j == 3:
            return _source_transform(self.src.chi_coeffs[k - 1], self.src.t0, -w) * gk
        if j == 4:
            return -self.psi[k - 1] * gk / w
        raise ValueError(f"family index {j} outside 1..{self.n_families}")

    # -- rational components ------------------------------------------------
    def r_eval(self, k, j: int, z):
        """R_{k,j}(z): difference of the two cut-edge rational factors."""
        eplus = cmath.exp(1j * math.pi * self.alpha)
        eminus = cmath.exp(-1j * math.pi * self.alpha)
        if not self.params.coupled:
            mu = self.params.kappa * self.table.lam[k - 1] + self.params.c
            if j == 1:
                return 1.0 / (z * eplus + mu) - 1.0 / (z * eminus + mu)
            if j == 2:
                return z * eplus / (z * eplus + mu) - z * eminus / (z * eminus + mu)
            raise ValueError("ip1 has families j = 1, 2")
        lb = self.table.lam_breve[k - 1]
        lh = self.table.lam_hat[k - 1]
        lam = self.table.lam[k - 1]
        dp = (z * eplus + lb) * (z * eplus + lh)
        dm = (z * eminus + lb) * (z * eminus + lh)
        w = self.params.varkappa * lam + self.params.d
        if j == 1:
            return (z * eplus + w) / dp - (z * eminus + w) / dm
        if j == 2:
            return z * eplus * (z * eplus + w) / dp - z * eminus * (z * eminus + w) / dm
        if j == 3:
            return -self.params.a / dp + self.params.a / dm
        if j == 4:
            return -self.params.a * z * eplus / dp + self.params.a * z * eminus / dm
        raise ValueError("ip2 has families j = 1..4")

    def assert_off_pole_rays(self, z) -> None:
        """Raise PoleLineError naming the first point of ``z`` at 0 or on a pole ray."""
        z = _points(z)
        ray = math.pi * (1.0 - self.alpha)
        bad = (z == 0) | (np.abs(np.abs(np.angle(z)) - ray) <= _POLE_RAY_ATOL * max(1.0, ray))
        if bad.any():
            i = int(np.argmax(bad))
            raise PoleLineError(f"z[{i}] = {complex(z[i])!r} is 0 or on a pole ray Arg z = +-{ray:.12f}")


def make_jump_context(params: ModelParams, table: ModeTable, phi, psi, src: SourceSpec) -> JumpContext:
    return JumpContext(
        params=params,
        table=table,
        phi=as_coeffs(phi, table.K),
        psi=as_coeffs(psi, table.K),
        src=src,
    )


# ---------------------------------------------------------------------------
# transform, one-sided limits, jump
# ---------------------------------------------------------------------------


def _tail_bounds(ctx: JumpContext, s_for_bound: np.ndarray) -> np.ndarray:
    """tail[k-1, i] bounds the modes k+1..K of the flux series at point i (stopping rule).

    Per mode the numerator is bounded through the truncated-transform estimate
    max(1, e^(-Re s t0)) ||f_k||_L1 plus the initial-state terms, and the
    denominator through |s^a + root| >= c1 lam_k sin(a pi) (one factor in the
    decoupled family, two in the coupled one).
    """
    p = ctx.params
    growth = np.maximum(1.0, np.exp(np.minimum(-np.real(s_for_bound) * ctx.src.t0, 700.0)))
    t0pow = max(ctx.src.t0, ctx.src.t0 ** (ctx.src.degree + 1))
    l1 = (np.abs(ctx.src.f_coeffs).sum(axis=1) + np.abs(ctx.src.chi_coeffs).sum(axis=1)) * t0pow
    num = growth * l1[:, None] + (np.abs(ctx.phi) + np.abs(ctx.psi))[:, None]
    c1 = min(p.kappa, p.varkappa)
    power = 2 if p.coupled else 1
    den = (c1 * ctx.table.lam * math.sin(math.pi * p.alpha)) ** power
    per_mode = np.abs(ctx.table.gamma_trace)[:, None] * num / den[:, None]
    tails = np.cumsum(per_mode[::-1], axis=0)[::-1]  # tails[j] = sum of modes j+1.. plus own
    return np.concatenate([tails[1:], np.zeros((1, growth.size))])


def _mode_sum(terms: np.ndarray, tails: np.ndarray, rel_tail: float) -> np.ndarray:
    """Sum (K, N) mode terms in k order; a point adds no modes after the first k
    at which its tail bound falls below ``rel_tail`` of its partial sum."""
    total = np.zeros(terms.shape[1:], dtype=complex)
    active = np.ones(terms.shape[1:], dtype=bool)
    for term, tail in zip(terms, tails):
        total = np.where(active, total + term, total)
        active &= ~(tail < rel_tail * np.abs(total))
    return total


def flux_transform(ctx: JumpContext, s, rel_tail: float = 1e-12):
    """Laplace transform of the boundary flux: sum_k U_k(s) gamma_k.

    Valid on the slit plane; warns (via DomainError from the core) near poles.
    The k-sum stops once the per-mode bound falls below ``rel_tail`` of the
    partial sum, and always at the table's K.
    """
    sp = _points(s)
    if (sp == 0).any():
        raise DomainError("the flux transform is singular at s = 0")
    sa = _principal_power_array(sp, ctx.alpha)
    sam1 = _principal_power_array(sp, ctx.alpha - 1.0)
    return _shaped(_flux_sum(ctx, sp, sa, sam1, rel_tail), s)


def flux_transform_limit(ctx: JumpContext, r, side: Literal["+", "-"], rel_tail: float = 1e-12):
    """One-sided limit of the flux transform at s = -r from above (+) or below (-)."""
    rp = np.asarray(r, dtype=float).ravel()
    if (rp <= 0).any():
        raise DomainError("r must be positive")
    sgn = 1.0 if side == "+" else -1.0
    sa = rp**ctx.alpha * cmath.exp(sgn * 1j * math.pi * ctx.alpha)
    sam1 = -(rp ** (ctx.alpha - 1.0)) * cmath.exp(sgn * 1j * math.pi * ctx.alpha)
    return _shaped(_flux_sum(ctx, -rp, sa, sam1, rel_tail), r)


def _flux_sum(ctx: JumpContext, s, sa, sam1, rel_tail: float) -> np.ndarray:
    """The flux series at the points ``s``, all K modes as (K, N) arrays."""
    j = np.arange(ctx.K)[:, None]
    F = _source_transform(ctx.src.f_coeffs[:, None, :], ctx.src.t0, s)
    X = _source_transform(ctx.src.chi_coeffs[:, None, :], ctx.src.t0, s)
    U, _ = _mode_transform_core(ctx.params, ctx.table, j, ctx.phi[j], ctx.psi[j], F, X, sa, sam1)
    return _mode_sum(U * ctx.table.gamma_trace[j], _tail_bounds(ctx, s), rel_tail)


def jump(ctx: JumpContext, rho):
    """Jump of the flux transform across the negative axis, at rho = r^alpha > 0.

    Difference of the theta -> +pi and theta -> -pi limits of the transform,
    taken mode by mode under the series.
    """
    if (np.asarray(rho) <= 0).any():
        raise DomainError("rho must be positive")
    r = np.asarray(rho, dtype=float) ** (1.0 / ctx.alpha)
    return flux_transform_limit(ctx, r, "+") - flux_transform_limit(ctx, r, "-")


# ---------------------------------------------------------------------------
# branch functions and the dense-branch search
# ---------------------------------------------------------------------------


def branch_phase(alpha: float, n: int) -> complex:
    """e^(i 2 pi n / alpha) with the angle reduced before exponentiation."""
    frac = math.fmod(n / alpha, 1.0)
    return cmath.exp(2j * math.pi * frac)


def q_branch(ctx: JumpContext, n: int, z, rel_tail: float = 1e-12):
    """Q(n, z) = sum_k sum_j R_{k,j}(z) G_{k,j}(z^(1/alpha) e^(i 2 pi n / alpha)).

    Takes a scalar or an array ``z``; every point must lie off 0 and the pole
    rays.  Branch 0 on the positive real axis reproduces the jump series.
    """
    if n < 0:
        raise ValueError("branch index must be >= 0")
    zp = _points(z)
    ctx.assert_off_pole_rays(zp)
    w = _principal_power_array(zp, 1.0 / ctx.alpha) * branch_phase(ctx.alpha, n)
    k = np.arange(1, ctx.K + 1)[:, None]
    terms = sum(ctx.r_eval(k, j, zp) * ctx.g_eval(k, j, w) for j in range(1, ctx.n_families + 1))
    return _shaped(_mode_sum(terms, _tail_bounds(ctx, -np.abs(w)), rel_tail), z)


def branch_search(alpha: float, y: float, eps: float, n_max: int) -> int | None:
    """Smallest n <= n_max with |e^(i 2 pi n / alpha) - e^(i y)| < eps, or None.

    A plain linear scan; density of the fractional parts guarantees success for
    irrational alpha with unbounded n only, so a miss is a result, not an error.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if n_max < 1:
        return None
    n = np.arange(1, n_max + 1, dtype=float)
    frac = np.mod(n / alpha, 1.0)
    dist = 2.0 * np.abs(np.sin(math.pi * frac - y / 2.0))
    hits = np.nonzero(dist < eps)[0]
    return int(hits[0] + 1) if hits.size else None


def branch_orbit_size(alpha: float, n_max: int = 1000, tol: float = 1e-9) -> int:
    """Number of distinct branch points {e^(i 2 pi n / alpha)}: q for alpha = p/q."""
    n = np.arange(1, n_max + 1, dtype=float)
    frac = np.sort(np.mod(n / alpha, 1.0))
    gaps = np.diff(np.concatenate([frac, [frac[0] + 1.0]]))
    return int(np.sum(gaps > tol))
