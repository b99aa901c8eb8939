"""Model parameters, the 1-D Dirichlet eigensystem on (0, pi), and the coupled-root algebra.

The coupled system's Laplace-domain denominator factorizes as

    (s^a + kappa lam_k + c)(s^a + varkappa lam_k + d) - a b
        = (s^a + lam_breve_k)(s^a + lam_hat_k),

with the two roots given by the quadratic formula in ``s^a``.  The admissibility
inequalities guaranteeing real roots and the bounds
``c1 lam_k <= lam_hat_k <= lam_breve_k <= c2 lam_k`` are enforced here.

ModeTable instances are immutable after construction; all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import _gauss_legendre_panels

__all__ = [
    "AdmissibilityError",
    "AliasingError",
    "ModelParams",
    "ModeTable",
    "SpectralField",
    "SeparationReport",
    "build_mode_table",
    "eigenfunction",
    "analyze",
    "synthesize",
    "check_separation",
]


class AdmissibilityError(ValueError):
    """A model-parameter inequality is violated; the message names it."""


class AliasingError(ValueError):
    """Sample grid too coarse to resolve the requested mode count."""


@dataclass(frozen=True)
class ModelParams:
    """Scalar coefficients of the coupled system plus time windows.

    kappa, varkappa are the diffusivities; a, b couple the two equations;
    c, d are reaction coefficients; sources vanish after t0 and the flux is
    observed on (t0, t1).
    """

    alpha: float
    kappa: float
    varkappa: float
    a: float
    b: float
    c: float
    d: float
    t0: float
    t1: float

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise AdmissibilityError(f"requires 0 < alpha < 1, got alpha = {self.alpha}")
        # each check is written so that NaN and +-inf fail it; a*b is non-finite when a or b is
        if not (0.0 < self.kappa < math.inf and 0.0 < self.varkappa < math.inf):
            raise AdmissibilityError(
                f"requires finite kappa > 0 and varkappa > 0, got kappa = {self.kappa}, varkappa = {self.varkappa}"
            )
        if not (0.0 <= self.c < math.inf and 0.0 <= self.d < math.inf):
            raise AdmissibilityError(f"requires finite c >= 0 and d >= 0, got c = {self.c}, d = {self.d}")
        ab = self.a * self.b
        if not (math.isfinite(ab) and ab <= min(self.c**2, self.d**2)):
            raise AdmissibilityError(
                f"requires finite a, b with a*b <= min(c^2, d^2): a*b = {ab}, "
                f"min(c^2, d^2) = {min(self.c**2, self.d**2)}"
            )
        self._check_discriminant_all_modes()
        if not (0.0 < self.t0 < self.t1 < math.inf):
            raise AdmissibilityError(f"requires 0 < t0 < t1 < inf, got t0 = {self.t0}, t1 = {self.t1}")

    def _check_discriminant_all_modes(self) -> None:
        # ((kappa - varkappa) lam + c - d)^2 + 4ab >= 0 for every lam = k^2:
        # as a function of lam it is an upward parabola, so checking the
        # minimizer over lam >= lam_1 = 1 covers every mode.
        dk = self.kappa - self.varkappa
        ab4 = 4.0 * self.a * self.b
        if dk == 0.0:
            worst = (self.c - self.d) ** 2 + ab4
            lam_star = None
        else:
            lam_star = (self.d - self.c) / dk
            lam_eff = max(lam_star, 1.0)
            worst = (dk * lam_eff + self.c - self.d) ** 2 + ab4
        if worst < 0.0:
            where = "independent of the mode" if lam_star is None else f"near lam = {max(lam_star, 1.0):.6g}"
            raise AdmissibilityError(
                "requires ((kappa-varkappa)*lam + c - d)^2 + 4*a*b >= 0 for every eigenvalue; "
                f"minimum {worst:.6g} < 0 ({where})"
            )

    @property
    def coupled(self) -> bool:
        """Whether the equations couple (a != 0): the IP2 family; a = 0 is the scalar IP1 family."""
        return self.a != 0.0

    def discriminant(self, lam) -> np.ndarray:
        lam = np.asarray(lam, dtype=float)
        return ((self.kappa - self.varkappa) * lam + self.c - self.d) ** 2 + 4.0 * self.a * self.b

    @property
    def root_bound_constants(self) -> tuple[float, float]:
        """(c1, c2) with c1 lam_k <= lam_hat_k <= lam_breve_k <= c2 lam_k."""
        c1 = min(self.kappa, self.varkappa)
        c2 = 0.5 * (
            (self.kappa + self.varkappa)
            + (self.c + self.d)
            + math.sqrt((abs(self.kappa - self.varkappa) + abs(self.c - self.d)) ** 2 + 4.0 * abs(self.a * self.b))
        )
        return c1, c2


_NORM = math.sqrt(2.0 / math.pi)


def eigenfunction(k: int, x) -> np.ndarray:
    """Orthonormal Dirichlet eigenfunction sqrt(2/pi) sin(kx) on (0, pi)."""
    return _NORM * np.sin(k * np.asarray(x, dtype=float))


@dataclass(frozen=True)
class ModeTable:
    """Per-mode eigendata and coupled-root factorization for modes 1..K.

    Arrays are index-aligned (entry j corresponds to mode k = j + 1) and
    read-only.  ``gamma_trace`` holds the boundary trace values
    -sqrt(2/pi) k of the outward normal derivative at x = 0.
    """

    params: ModelParams
    K: int
    lam: np.ndarray
    gamma_trace: np.ndarray
    lam_breve: np.ndarray
    lam_hat: np.ndarray
    theta: np.ndarray
    zeta: np.ndarray

    def row(self, k):
        """The array index k - 1 of mode k, an int or an integer array; ValueError outside 1..K."""
        if np.any((np.asarray(k) < 1) | (np.asarray(k) > self.K)):
            raise ValueError(f"mode {k} outside 1..{self.K}")
        return k - 1


def build_mode_table(params: ModelParams, K: int) -> ModeTable:
    """Assemble eigenvalues, trace values, coupled roots and coupling weights."""
    if K < 1:
        raise ValueError("K must be >= 1")
    params.validate()
    k = np.arange(1, K + 1, dtype=float)
    lam = k**2
    disc = params.discriminant(lam)
    if (disc < 0).any():
        bad = int(k[disc < 0][0])
        raise AdmissibilityError(
            f"requires ((kappa-varkappa)*lam + c - d)^2 + 4*a*b >= 0; violated at mode k = {bad}"
        )
    sq = np.sqrt(disc)
    ssum = (params.kappa + params.varkappa) * lam + params.c + params.d
    ab = params.a * params.b
    # large root directly, small root through the exact product identity:
    # lam_breve lam_hat = (kappa lam + c)(varkappa lam + d) - ab, avoiding the
    # subtractive cancellation of (ssum - sq)/2
    lam_breve = 0.5 * (ssum + sq)
    lam_hat = ((params.kappa * lam + params.c) * (params.varkappa * lam + params.d) - ab) / lam_breve
    # same trick for the coupling weights, whose product is exactly ab
    diff = lam_breve - lam_hat
    dd = (params.varkappa - params.kappa) * lam + (params.d - params.c)
    theta = np.where(dd > 0, 0.5 * (diff + dd), np.nan)
    zeta = np.where(dd > 0, np.nan, 0.5 * (diff - dd))
    with np.errstate(invalid="ignore", divide="ignore"):
        theta = np.where(dd > 0, theta, np.where(zeta != 0, ab / zeta, 0.5 * (diff + dd)))
        zeta = np.where(dd > 0, np.where(theta != 0, ab / theta, 0.5 * (diff - dd)), zeta)
    gamma_trace = -_NORM * k
    for arr in (lam, gamma_trace, lam_breve, lam_hat, theta, zeta):
        arr.setflags(write=False)
    return ModeTable(
        params=params,
        K=K,
        lam=lam,
        gamma_trace=gamma_trace,
        lam_breve=lam_breve,
        lam_hat=lam_hat,
        theta=theta,
        zeta=zeta,
    )


@dataclass(frozen=True)
class SpectralField:
    """Coefficients of a function on (0, pi) against sqrt(2/pi) sin(kx), k = 1..K."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coeffs must be a non-empty 1-D array")
        if not np.all(np.isfinite(c)):
            raise ValueError("coeffs must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def K(self) -> int:
        return self.coeffs.size

    @classmethod
    def zero(cls, K: int) -> "SpectralField":
        return cls(np.zeros(K, dtype=complex))


def as_coeffs(field, K: int | None = None) -> np.ndarray:
    """Coerce a SpectralField or array to a coefficient vector, padding to K."""
    c = field.coeffs if isinstance(field, SpectralField) else np.asarray(field, dtype=complex)
    c = np.atleast_1d(c.astype(complex))
    if K is not None:
        if c.size > K:
            raise ValueError(f"field has {c.size} modes, table only {K}")
        if c.size < K:
            c = np.concatenate([c, np.zeros(K - c.size, dtype=complex)])
    return c


def analyze(fieldfunc, K: int, *, grid=None) -> SpectralField:
    """Project a function on (0, pi) onto the first K eigenfunctions.

    ``fieldfunc`` is either a callable evaluated at 10-point Gauss-Legendre
    nodes on max(8, K) panels, or an array of samples on ``grid`` (then at
    least ~10 K points are required and the integral is done by the trapezoid
    rule).
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if callable(fieldfunc):
        x, w = _gauss_legendre_panels(np.linspace(0.0, math.pi, max(8, K) + 1), 10)
        f = np.asarray(fieldfunc(x), dtype=complex)
    else:
        if grid is None:
            raise ValueError("array samples need an explicit grid")
        x = np.asarray(grid, dtype=float)
        f = np.asarray(fieldfunc, dtype=complex)
        if x.size < 10 * K:
            raise AliasingError(f"grid of {x.size} points cannot resolve K = {K} modes; need >= {10 * K}")
        w = np.gradient(x)  # trapezoid-type weights on a possibly non-uniform grid
    k = np.arange(1, K + 1)
    basis = _NORM * np.sin(np.outer(k, x))
    return SpectralField(basis @ (w * f))


def synthesize(field, x) -> np.ndarray:
    """Evaluate the truncated eigenfunction series at points x."""
    c = as_coeffs(field)
    x = np.asarray(x, dtype=float)
    k = np.arange(1, c.size + 1)
    vals = (c[:, None] * _NORM * np.sin(np.outer(k, x))).sum(axis=0)
    return vals.real if np.all(c.imag == 0) else vals


@dataclass(frozen=True)
class SeparationReport:
    """Cross-mode root collisions relevant to the coupled identification problem."""

    applicable: bool
    violations: tuple

    @property
    def ok(self) -> bool:
        return (not self.applicable) or len(self.violations) == 0


def check_separation(table: ModeTable) -> SeparationReport:
    """List pairs (k, n), k != n, with colliding coupled roots.

    The condition requires lam_breve_k != lam_breve_n, lam_hat_k != lam_hat_n
    and lam_hat_k != lam_breve_n across distinct modes; roots within 1e-9 of
    max(|root|, 1) collide.  With a = 0 the
    coupled problem decouples and the condition is not applicable.
    """
    if not table.params.coupled:
        return SeparationReport(applicable=False, violations=())
    violations = []
    br, ha = table.lam_breve, table.lam_hat
    for kind, left, right in (
        ("breve=breve", br, br),
        ("hat=hat", ha, ha),
        ("hat=breve", ha, br),
    ):
        diff = np.abs(left[:, None] - right[None, :])
        scale = np.maximum(np.abs(left[:, None]), np.abs(right[None, :]))
        hit = diff <= 1e-9 * np.maximum(scale, 1.0)
        np.fill_diagonal(hit, False)
        for i, j in zip(*np.nonzero(hit)):
            violations.append((int(i + 1), int(j + 1), kind))
    return SeparationReport(applicable=True, violations=tuple(violations))
