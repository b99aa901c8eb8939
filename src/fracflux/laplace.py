"""Laplace-domain layer: the boundary-flux transform, the branch-cut jump, the
branch functions and entire function families behind them, and the dense-branch
search.

The only Laplace-plane quantity the package uses is the flux series
sum_k gamma_k U_k(s).  With sources confined to (0, t0), U_k is rational in
s^alpha times entire functions of s (truncated monomial transforms), so the
flux transform extends analytically to the slit plane and has one-sided limits
on the negative real axis.  The jump across the cut, reparametrized by
rho = r^alpha, is a series of products R_k(rho) G_k(rho^(1/alpha)) whose
entire components can be rotated to other branches of the 1/alpha power; that
rotation is the branch function evaluated here.  Both are differences of the
flux series on the two edges of the cut (``_cut_edges``).

Evaluators are pure and a JumpContext is immutable.  Every evaluator takes a
scalar or an array of points through one code path (a scalar is a one-point
array) and returns a complex or an array of the input's shape; the value at a
point does not depend, bit for bit, on the other points of its call.  Series
are summed over all K modes in fixed k-order.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .forward import SourceSpec
from .modes import ModelParams, ModeTable, as_coeffs
from .specfun import DomainError, _finite, _principal_power_array, monomial_laplace_truncated

__all__ = [
    "PoleLineError",
    "JumpContext",
    "make_jump_context",
    "flux_transform",
    "jump",
    "q_branch",
    "branch_search",
    "branch_orbit_size",
]

#: relative padding used when refusing evaluation on the pole rays
_POLE_RAY_ATOL = 1e-9
#: fractional parts of n / alpha closer than this count as one branch point
_ORBIT_TOL = 1e-9


class PoleLineError(DomainError):
    """Evaluation requested on (or too near) the pole rays Arg z = +-pi(1-alpha)."""


def _source_transforms(t0: float, s, *tables) -> list:
    """Truncated Laplace transforms sum_m c_m integral_0^t0 e^(-s t) t^m dt (entire in s), one per table.

    The coefficients c_m lie along the last axis of each table and broadcast
    against ``s``: a (K, 1, M+1) table of K modes at N points gives (K, N).
    Each monomial transform is evaluated once for all the tables.
    """
    tables = [np.atleast_1d(rows) for rows in tables]
    totals = [0.0 + 0.0j] * len(tables)
    for m in range(max(rows.shape[-1] for rows in tables)):
        used = [m < rows.shape[-1] and np.any(rows[..., m] != 0) for rows in tables]
        if any(used):
            L = monomial_laplace_truncated(m, t0, s)
            totals = [tot + rows[..., m] * L if u else tot for tot, rows, u in zip(totals, tables, used)]
    return totals


def _points(x) -> np.ndarray:
    """The points of a scalar or an array as a flat complex array; a non-finite point raises DomainError."""
    return _finite(x, "points").ravel()


def _shaped(values: np.ndarray, like):
    """``values`` in the shape of ``like``: a complex for a scalar."""
    return complex(values[0]) if np.ndim(like) == 0 else values.reshape(np.shape(like))


@dataclass(frozen=True)
class JumpContext:
    """Everything the jump/branch/residue machinery needs, frozen at build time.

    The coupling ``params.a`` fixes the family: a = 0 gives the decoupled
    single-equation family (IP1, two entire components per mode, poles at
    kappa lam_k + c), a != 0 the coupled family (IP2, four components per
    mode, poles at the root pair lam_breve/lam_hat).
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

    # -- pole geometry ------------------------------------------------------
    def pole_radii(self, k: int) -> tuple[float, ...]:
        """Radii of the mode-k poles on the ray Arg z = pi (1 - alpha)."""
        j = self.table.row(k)
        if not self.params.coupled:
            return (self.params.kappa * self.table.lam[j] + self.params.c,)
        return (float(self.table.lam_breve[j]), float(self.table.lam_hat[j]))

    def pole(self, k: int, which: str = "breve") -> complex:
        """Upper-ray pole -e^(-i pi alpha) * radius for mode k."""
        radii = self.pole_radii(k)
        r = radii[0] if which == "breve" or len(radii) == 1 else radii[1]
        return -cmath.exp(-1j * math.pi * self.alpha) * r

    def g_eval(self, k, w) -> list:
        """[G_{k,1}(w), ..., G_{k,J}(w)], J = 2 (IP1) or 4 (IP2): entire away from the initial-state pole at 0.

        The residue closed forms of ``fracflux.inverse`` take them at a pole's 1/alpha power.  ``k`` may be
        a (K, 1) column of modes against an array ``w``; a mode outside 1..K raises ValueError.
        """
        i = self.table.row(k)
        gk = self.table.gamma_trace[i]
        F, X = _source_transforms(self.src.t0, -w, self.src.f_coeffs[i], self.src.chi_coeffs[i])
        return [F * gk, -self.phi[i] * gk / w, X * gk, -self.psi[i] * gk / w][: 4 if self.params.coupled else 2]

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
# transform, jump
# ---------------------------------------------------------------------------


def flux_transform(ctx: JumpContext, s):
    """Laplace transform of the boundary flux: sum_k U_k(s) gamma_k over all K modes.

    Valid on the slit plane; raises DomainError at s = 0 and at the zeros of
    a mode denominator, and warns near them.
    """
    sp = _points(s)
    if (sp == 0).any():
        raise DomainError("the flux transform is singular at s = 0")
    sa = _principal_power_array(sp, ctx.alpha)
    sam1 = _principal_power_array(sp, ctx.alpha - 1.0)
    return _shaped(_flux_sum(ctx, *_flux_sources(ctx, sp), sa, sam1), s)


def jump(ctx: JumpContext, rho):
    """Jump of the flux transform across the negative axis, at rho = r^alpha > 0.

    Difference of the theta -> +pi and theta -> -pi limits of the transform,
    taken mode by mode under the series.
    """
    rp = np.asarray(rho, dtype=float).ravel()
    if not (np.isfinite(rp) & (rp > 0)).all():
        raise DomainError("rho must be positive and finite")
    r = rp ** (1.0 / ctx.alpha)
    upper, lower = _cut_edges(ctx, r, r**ctx.alpha, r ** (ctx.alpha - 1.0))
    return _shaped(upper - lower, rho)


def _cut_edges(ctx: JumpContext, w, za, zam1) -> list:
    """The flux series on the upper, then the lower edge: s^alpha = za e^(+-i pi alpha), s^(alpha-1) =
    -zam1 e^(+-i pi alpha), and the source transforms at s = -w, shared by the two edges.  These are the
    limits at the cut point s = -w for za = w^alpha, zam1 = w^(alpha-1); ``q_branch`` rotates w."""
    F, X = _flux_sources(ctx, -w)
    phases = [cmath.exp(sign * 1j * math.pi * ctx.alpha) for sign in (1.0, -1.0)]
    return [_flux_sum(ctx, F, X, za * phase, -zam1 * phase) for phase in phases]


def _flux_sources(ctx: JumpContext, s) -> list:
    """(F, X): the f and chi source transforms of all K modes at the points ``s``, as (K, N) arrays."""
    return _source_transforms(ctx.src.t0, s, ctx.src.f_coeffs[:, None, :], ctx.src.chi_coeffs[:, None, :])


def _flux_sum(ctx: JumpContext, F, X, sa, sam1) -> np.ndarray:
    """sum_k gamma_k U_k from the (K, N) source transforms F, X and s^alpha, s^(alpha-1), summed in k order.

    U_k = ((s^alpha + varkappa lam_k + d)(F_k + s^(alpha-1) phi_k) - a (X_k + s^(alpha-1) psi_k))
    / ((s^alpha + lam_breve_k)(s^alpha + lam_hat_k)), valid wherever the denominator is nonzero: a zero
    raises DomainError and a near-zero warns.
    """
    p, t = ctx.params, ctx.table
    lamb, lamh, lam = t.lam_breve[:, None], t.lam_hat[:, None], t.lam[:, None]
    den1 = sa + lamb
    den2 = sa + lamh
    zero = (np.abs(den1) < 1e-13 * np.maximum(lamb, 1.0)) | (np.abs(den2) < 1e-13 * np.maximum(lamh, 1.0))
    if zero.any():
        raise DomainError(f"evaluation at a zero of the mode-{np.argwhere(zero)[0, 0] + 1} denominator")
    near = (np.abs(den2) < 1e-8 * lam) | (np.abs(den1) < 1e-8 * lam)
    if near.any():
        warnings.warn(f"mode {np.argwhere(near)[0, 0] + 1} transform evaluated near a denominator zero", stacklevel=3)
    nu = F + sam1 * ctx.phi[:, None]
    nx = X + sam1 * ctx.psi[:, None]
    U = ((sa + p.varkappa * lam + p.d) * nu - p.a * nx) / (den1 * den2)
    total = np.zeros(U.shape[1:], dtype=complex)  # from a complex zero, so a -0.0 part comes out +0.0
    for term in U * t.gamma_trace[:, None]:
        total = total + term
    return total


# ---------------------------------------------------------------------------
# branch functions and the dense-branch search
# ---------------------------------------------------------------------------


def branch_phase(alpha: float, n: int) -> complex:
    """e^(i 2 pi n / alpha) with the angle reduced before exponentiation."""
    frac = math.fmod(n / alpha, 1.0)
    return cmath.exp(2j * math.pi * frac)


def q_branch(ctx: JumpContext, n: int, z):
    """Q(n, z) = sum_k sum_j R_{k,j}(z) G_{k,j}(z^(1/alpha) e^(i 2 pi n / alpha)).

    The difference of the cut-edge series at za = z, zam1 = z / w, w = z^(1/alpha) e^(i 2 pi n / alpha).
    Takes a scalar or an array ``z``; every point must lie off 0 and the pole
    rays.  Branch 0 on the positive real axis reproduces the jump series.
    """
    if n < 0:
        raise ValueError("branch index must be >= 0")
    zp = _points(z)
    ctx.assert_off_pole_rays(zp)
    w = _principal_power_array(zp, 1.0 / ctx.alpha) * branch_phase(ctx.alpha, n)
    upper, lower = _cut_edges(ctx, w, zp, zp / w)
    return _shaped(upper - lower, z)


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


def branch_orbit_size(alpha: float, n_max: int = 1000) -> int:
    """Number of distinct branch points {e^(i 2 pi n / alpha)}: p for alpha = p/q in lowest terms."""
    n = np.arange(1, n_max + 1, dtype=float)
    frac = np.sort(np.mod(n / alpha, 1.0))
    gaps = np.diff(np.concatenate([frac, [frac[0] + 1.0]]))
    return int(np.sum(gaps > _ORBIT_TOL))
