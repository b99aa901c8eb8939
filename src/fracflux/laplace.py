"""Laplace-domain layer: mode transforms, boundary-flux transform, branch-cut jump,
the rational/entire function families behind it, and the dense-branch search.

With sources confined to (0, t0) the mode transforms are rational in s^alpha
times entire functions of s (truncated monomial transforms), so the flux
transform extends analytically to the slit plane and has one-sided limits on
the negative real axis.  The jump across the cut, reparametrized by
rho = r^alpha, is a series of products R_k(rho) G_k(rho^(1/alpha)) whose
entire components can be rotated to other branches of the 1/alpha power; that
rotation is the branch function evaluated here.

Evaluators are pure and a JumpContext is immutable; evaluating many (n, z)
points concurrently is the intended usage.  Series are summed in fixed k-order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .forward import SourceSpec
from .modes import ModelParams, ModeTable, as_coeffs
from .specfun import DomainError, monomial_laplace_truncated, principal_power

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


def _source_transform(row, t0: float, s: complex) -> complex:
    """Truncated Laplace transform sum_m c_m integral_0^t0 e^(-s t) t^m dt (entire in s)."""
    total = 0.0 + 0.0j
    for m, cm in enumerate(np.atleast_1d(row)):
        if cm != 0:
            total += cm * monomial_laplace_truncated(m, t0, s)
    return total


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
    if s == 0:
        raise DomainError("mode_transform is singular at s = 0 (the s^(alpha-1) factor)")
    sa = principal_power(s, params.alpha)
    sam1 = principal_power(s, params.alpha - 1.0)
    F = _source_transform(f_row, t0, s)
    X = _source_transform(chi_row, t0, s)
    return _mode_transform_core(
        params, table, k - 1, complex(phi_k), complex(psi_k), F, X, sa, sam1
    )


def _mode_transform_core(params, table, j, phi_k, psi_k, F, X, sa, sam1):
    """Assemble U, V from precomputed s^alpha, s^(alpha-1) and source transforms."""
    import warnings

    lamb = table.lam_breve[j]
    lamh = table.lam_hat[j]
    den1 = sa + lamb
    den2 = sa + lamh
    if abs(den1) < 1e-13 * max(lamb, 1.0) or abs(den2) < 1e-13 * max(lamh, 1.0):
        raise DomainError(f"evaluation at a zero of the mode-{j + 1} denominator")
    if abs(den2) < 1e-8 * table.lam[j] or abs(den1) < 1e-8 * table.lam[j]:
        warnings.warn(f"mode {j + 1} transform evaluated near a denominator zero", stacklevel=3)
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
    def g_eval(self, k: int, j: int, w: complex) -> complex:
        """G_{k,j}(w): entire away from the simple pole of the initial-state terms at 0."""
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
    def r_eval(self, k: int, j: int, z: complex) -> complex:
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

    def assert_off_pole_rays(self, z: complex) -> None:
        if z == 0:
            raise PoleLineError("z = 0 is excluded")
        ang = abs(cmath.phase(complex(z)))
        ray = math.pi * (1.0 - self.alpha)
        if abs(ang - ray) <= _POLE_RAY_ATOL * max(1.0, ray):
            raise PoleLineError(
                f"z lies on the pole rays Arg z = +-pi(1-alpha) = +-{ray:.12f}"
            )


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


def _tail_bounds(ctx: JumpContext, s_for_bound: complex) -> np.ndarray:
    """tail[k-1] bounds the modes k+1..K of the flux series (stopping rule).

    Per mode the numerator is bounded through the truncated-transform estimate
    max(1, e^(-Re s t0)) ||f_k||_L1 plus the initial-state terms, and the
    denominator through |s^a + root| >= c1 lam_k sin(a pi) (one factor in the
    decoupled family, two in the coupled one).
    """
    p = ctx.params
    growth = max(1.0, math.exp(min(-s_for_bound.real * ctx.src.t0, 700.0)))
    t0pow = max(ctx.src.t0, ctx.src.t0 ** (ctx.src.degree + 1))
    l1 = (np.abs(ctx.src.f_coeffs).sum(axis=1) + np.abs(ctx.src.chi_coeffs).sum(axis=1)) * t0pow
    num = growth * l1 + np.abs(ctx.phi) + np.abs(ctx.psi)
    c1 = min(p.kappa, p.varkappa)
    power = 2 if p.coupled else 1
    per_mode = np.abs(ctx.table.gamma_trace) * num / (c1 * ctx.table.lam * math.sin(math.pi * p.alpha)) ** power
    tails = np.cumsum(per_mode[::-1])[::-1]  # tails[j] = sum of modes j+1.. plus own
    return np.concatenate([tails[1:], [0.0]])


def flux_transform(ctx: JumpContext, s: complex, rel_tail: float = 1e-12) -> complex:
    """Laplace transform of the boundary flux: sum_k U_k(s) gamma_k.

    Valid on the slit plane; warns (via DomainError from the core) near poles.
    The k-sum stops once the per-mode bound falls below ``rel_tail`` of the
    partial sum, and always at the table's K.
    """
    s = complex(s)
    sa = principal_power(s, ctx.alpha)
    sam1 = principal_power(s, ctx.alpha - 1.0)
    return _flux_sum(ctx, s, sa, sam1, rel_tail)


def flux_transform_limit(ctx: JumpContext, r: float, side: Literal["+", "-"], rel_tail: float = 1e-12) -> complex:
    """One-sided limit of the flux transform at s = -r from above (+) or below (-)."""
    if r <= 0:
        raise DomainError("r must be positive")
    sgn = 1.0 if side == "+" else -1.0
    sa = r**ctx.alpha * cmath.exp(sgn * 1j * math.pi * ctx.alpha)
    sam1 = -(r ** (ctx.alpha - 1.0)) * cmath.exp(sgn * 1j * math.pi * ctx.alpha)
    return _flux_sum(ctx, -r, sa, sam1, rel_tail)


def _flux_sum(ctx: JumpContext, s: complex, sa: complex, sam1: complex, rel_tail: float) -> complex:
    total = 0.0 + 0.0j
    tails = _tail_bounds(ctx, s)
    for k in range(1, ctx.K + 1):
        j = k - 1
        F = _source_transform(ctx.src.f_coeffs[j], ctx.src.t0, s)
        X = _source_transform(ctx.src.chi_coeffs[j], ctx.src.t0, s)
        U, _ = _mode_transform_core(
            ctx.params, ctx.table, j, complex(ctx.phi[j]), complex(ctx.psi[j]), F, X, sa, sam1
        )
        total += U * ctx.table.gamma_trace[j]
        if tails[j] < rel_tail * abs(total):
            break
    return total


def jump(ctx: JumpContext, rho: float) -> complex:
    """Jump of the flux transform across the negative axis, at rho = r^alpha > 0.

    Difference of the theta -> +pi and theta -> -pi limits of the transform,
    taken mode by mode under the series.
    """
    if rho <= 0:
        raise DomainError("rho must be positive")
    r = rho ** (1.0 / ctx.alpha)
    return flux_transform_limit(ctx, r, "+") - flux_transform_limit(ctx, r, "-")


# ---------------------------------------------------------------------------
# branch functions and the dense-branch search
# ---------------------------------------------------------------------------


def branch_phase(alpha: float, n: int) -> complex:
    """e^(i 2 pi n / alpha) with the angle reduced before exponentiation."""
    frac = math.fmod(n / alpha, 1.0)
    return cmath.exp(2j * math.pi * frac)


def q_branch(ctx: JumpContext, n: int, z: complex, rel_tail: float = 1e-12) -> complex:
    """Q(n, z) = sum_k sum_j R_{k,j}(z) G_{k,j}(z^(1/alpha) e^(i 2 pi n / alpha)).

    Branch 0 on the positive real axis reproduces the jump series.
    """
    if n < 0:
        raise ValueError("branch index must be >= 0")
    ctx.assert_off_pole_rays(z)
    w = principal_power(z, 1.0 / ctx.alpha) * branch_phase(ctx.alpha, n)
    total = 0.0 + 0.0j
    tails = _tail_bounds(ctx, -abs(w))
    for k in range(1, ctx.K + 1):
        term = 0.0 + 0.0j
        for j in range(1, ctx.n_families + 1):
            term += ctx.r_eval(k, j, z) * ctx.g_eval(k, j, w)
        total += term
        if tails[k - 1] < rel_tail * abs(total):
            break
    return total


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
