"""Identification layer: residue checks on the branch-cut jump and least-squares
reconstruction of sources and initial states from boundary-flux data.

The residue checks verify numerically the identities behind the uniqueness
arguments: the contour integral of the branch function Q(0, .) around an
upper-ray pole equals a closed-form combination of the entire components
evaluated at the pole's 1/alpha power.  Reconstruction is honest finite
dimensional least squares: the forward flux map is linear in the unknown
coefficients, so columns are unit-coefficient flux responses and the normal
equations are solved through an SVD with an optional Tikhonov shift.
"""

from __future__ import annotations

import cmath
import json
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .forward import (
    ROOT_COALESCENCE_RTOL,
    FluxTrace,
    SourceSpec,
    _KernelBlock,
    _roots_coalesced,
    _trapezoid_weights,
    _used_rows,
)
from .laplace import JumpContext, q_branch
from .modes import ModelParams, ModeTable, SpectralField, build_mode_table, check_separation
from .specfun import DomainError

__all__ = [
    "GeometryError",
    "SeparationError",
    "ResidueReport",
    "Ip2ResidueResult",
    "ReconstructionResult",
    "residue_ip1",
    "residue_ip2",
    "lsq_reconstruct",
    "conditioning_probe",
    "ConditioningRow",
]


class GeometryError(ValueError):
    """Contour circle would touch a neighboring pole, a pole ray, or the cut."""


class SeparationError(ValueError):
    """Cross-mode root separation fails, so per-mode extraction is ill-posed."""


def _require_separation(table: ModeTable) -> None:
    """Raise SeparationError naming the first colliding pair of modes, if any."""
    sep = check_separation(table)
    if sep.applicable and sep.violations:
        k, m, kind = sep.violations[0]
        raise SeparationError(f"root separation fails for modes ({k}, {m}): {kind}")


@dataclass(frozen=True)
class ResidueReport:
    """Contour residue vs closed-form limit at one pole of the jump series."""

    mode: int
    pole: complex
    contour_value: complex
    closed_form: complex
    rel_error: float
    order: int = 1  # 2 marks the second contour moment at a double pole

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "pole": [self.pole.real, self.pole.imag],
            "contour_value": [self.contour_value.real, self.contour_value.imag],
            "closed_form": [self.closed_form.real, self.closed_form.imag],
            "rel_error": self.rel_error,
            "order": self.order,
        }


def _pole_gap(ctx: JumpContext, n: int, which: str) -> float:
    """Smallest distance from the chosen pole to any other singular structure.

    Considered: the other poles on the same ray, the mirrored lower ray, the
    branch cut of z^(1/alpha) on the negative real axis, and the origin.
    """
    radii = []
    for k in range(1, ctx.K + 1):
        radii.extend(ctx.pole_radii(k))
    target = dict(zip(("breve", "hat"), ctx.pole_radii(n)))
    r0 = target.get(which, ctx.pole_radii(n)[0])
    # a near-coalescent partner root counts as the same pole (the circle must
    # enclose it), not as a neighbor to stay away from
    same = 2.0 * ROOT_COALESCENCE_RTOL * max(r0, 1.0)
    gaps = [abs(r - r0) for r in radii if abs(r - r0) > same]
    alpha = ctx.alpha
    # distance to the mirrored ray Arg z = -pi(1-alpha) and to the cut Arg z = pi
    for raw in (2.0 * math.pi * (1.0 - alpha), math.pi * alpha):
        dtheta = min(raw, 2.0 * math.pi - raw)
        gaps.append(r0 * math.sin(dtheta) if dtheta < math.pi / 2 else r0)
    gaps.append(r0)  # origin
    return min(gaps)


def _safe_radius(ctx: JumpContext, r0: float, gap: float) -> float:
    """Circle radius: well inside the pole gap, and small enough that the image
    of the circle under z -> z^(1/alpha) swings by O(1) only.

    The entire components grow like exp(Re z^(1/alpha)); letting that factor
    vary around the circle turns rounding error in the branch-series
    evaluations into the dominant residue error, and the rounding floor of the
    moment itself also scales linearly with the radius.  |d(z^(1/a))/dz| =
    r0^(1/a-1)/a at the pole, so the cap below keeps the swing near 1/2.
    """
    return min(0.4 * gap, 0.5 * ctx.alpha * r0 ** ((ctx.alpha - 1.0) / ctx.alpha))


#: trapezoid nodes on a residue circle
_CONTOUR_NODES = 64


def _contour_moment(ctx: JumpContext, center: complex, radius: float, order: int) -> complex:
    """(1/2 pi i) contour integral of (z - center)^(order-1) Q(0, z) on a circle.

    One ``q_branch`` call takes every node; the nodes are summed in node order.
    """
    e = np.exp(1j * (2.0 * math.pi * np.arange(_CONTOUR_NODES) / _CONTOUR_NODES))
    terms = q_branch(ctx, 0, center + radius * e) * (radius * e) ** (order - 1) * radius * e
    return complex(np.cumsum(terms, axis=0)[-1] / _CONTOUR_NODES)


def residue_ip1(ctx: JumpContext, n: int) -> ResidueReport:
    """Contour residue of Q(0, .) at the mode-n pole vs its closed form (a = 0 family).

    The closed form is e^(-i pi alpha) G_{n,1}(z_n^(1/alpha)) + z_n G_{n,2}(z_n^(1/alpha)).
    Other modes contribute no residue at z_n because the eigenvalues are simple.
    """
    if ctx.params.coupled:
        raise ValueError("residue_ip1 needs an ip1 context (a = 0)")
    ctx.table.row(n)
    rad = _safe_radius(ctx, ctx.pole_radii(n)[0], _pole_gap(ctx, n, "breve"))
    pole = ctx.pole(n)
    contour = _contour_moment(ctx, pole, rad, order=1)
    g1, g2 = ctx.g_eval(n, pole ** (1.0 / ctx.alpha))
    closed = cmath.exp(-1j * math.pi * ctx.alpha) * g1 + pole * g2
    rel = abs(contour - closed) / max(abs(closed), 1e-30)
    return ResidueReport(mode=n, pole=pole, contour_value=contour, closed_form=closed, rel_error=rel)


@dataclass(frozen=True)
class Ip2ResidueResult:
    """Residues at the two mode-n poles plus the extracted pair of scalar relations.

    ``relation_violation`` is the maximum mismatch between each relation value
    recovered from its contour residue and the same expression evaluated
    directly from the stored coefficients; it vanishes for consistent data.
    ``system_matrix`` is the 2x2 extraction system for (phi_n, psi_n)-type
    pairs, with determinant a (lam_breve - lam_hat) up to sign.
    """

    report_breve: ResidueReport
    report_hat: ResidueReport | None
    relation_violation: float
    system_matrix: np.ndarray
    system_determinant: float
    coalescent: bool

    def to_json_dict(self) -> dict:
        return {
            "report_breve": self.report_breve.to_json_dict(),
            "report_hat": None if self.report_hat is None else self.report_hat.to_json_dict(),
            "relation_violation": self.relation_violation,
            "system_matrix": [[v.real for v in row] for row in np.asarray(self.system_matrix)],
            "system_determinant": self.system_determinant,
            "coalescent": self.coalescent,
        }


def _relation_direct(ctx: JumpContext, n: int, root: float, w: complex) -> complex:
    """(vkap lam_n + d - root)(G1 - root G2)(w) - a (G3 - root G4)(w), from coefficients."""
    p = ctx.params
    lam = ctx.table.lam[n - 1]
    pref = p.varkappa * lam + p.d - root
    g1, g2, g3, g4 = ctx.g_eval(n, w)
    return pref * (g1 - root * g2) - p.a * (g3 - root * g4)


def residue_ip2(ctx: JumpContext, n: int) -> Ip2ResidueResult:
    """Residues at both mode-n poles of the coupled jump series with extraction checks.

    Distinct roots give two simple poles whose residues encode the two scalar
    relations; coalescent roots give one double pole handled through the second
    contour moment.  Refuses when the cross-mode separation condition fails.
    """
    if not ctx.params.coupled:
        raise ValueError("residue_ip2 needs an ip2 context (a != 0)")
    _require_separation(ctx.table)
    ctx.table.row(n)

    p = ctx.params
    lam = ctx.table.lam[n - 1]
    lb = float(ctx.table.lam_breve[n - 1])
    lh = float(ctx.table.lam_hat[n - 1])
    epa = cmath.exp(-1j * math.pi * ctx.alpha)
    system = np.array(
        [[p.varkappa * lam + p.d - lb, -p.a], [p.varkappa * lam + p.d - lh, -p.a]], dtype=float
    )
    det = float(np.linalg.det(system))

    if _roots_coalesced(lb, lh):
        gap = _pole_gap(ctx, n, "breve")
        # the circle must enclose both nearly-merged poles
        rad = max(_safe_radius(ctx, lb, gap), 10.0 * abs(lb - lh))
        if rad >= 0.99 * gap:
            raise GeometryError(f"cannot separate the merged pole pair from neighbors (gap {gap:.3g})")
        pole = ctx.pole(n, "breve")
        w = pole ** (1.0 / ctx.alpha)
        second = _contour_moment(ctx, pole, rad, order=2)
        closed = epa**2 * _relation_direct(ctx, n, lb, w)
        rel = abs(second - closed) / max(abs(closed), 1e-30)
        rep = ResidueReport(mode=n, pole=pole, contour_value=second, closed_form=closed, rel_error=rel, order=2)
        return Ip2ResidueResult(
            report_breve=rep,
            report_hat=None,
            relation_violation=rel,
            system_matrix=system,
            system_determinant=det,
            coalescent=True,
        )

    reports = []
    extracted = []
    direct = []
    for root, other, which in ((lb, lh, "breve"), (lh, lb, "hat")):
        gap = _pole_gap(ctx, n, which)
        rad = _safe_radius(ctx, root, gap)
        pole = ctx.pole(n, which)
        w = pole ** (1.0 / ctx.alpha)
        contour = _contour_moment(ctx, pole, rad, order=1)
        rel_direct = _relation_direct(ctx, n, root, w)
        closed = epa * rel_direct / (other - root)
        rel = abs(contour - closed) / max(abs(closed), 1e-30)
        reports.append(
            ResidueReport(mode=n, pole=pole, contour_value=contour, closed_form=closed, rel_error=rel)
        )
        extracted.append(contour * (other - root) / epa)
        direct.append(rel_direct)
    scale = max(max(abs(v) for v in direct), 1e-30)
    violation = max(abs(e - d) for e, d in zip(extracted, direct)) / scale
    return Ip2ResidueResult(
        report_breve=reports[0],
        report_hat=reports[1],
        relation_violation=violation,
        system_matrix=system,
        system_determinant=det,
        coalescent=False,
    )


# ---------------------------------------------------------------------------
# least-squares reconstruction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReconstructionResult:
    """Least-squares estimate of the unknowns with misfit and conditioning data."""

    phi_hat: SpectralField
    psi_hat: SpectralField
    f_hat: SourceSpec
    chi_hat: SourceSpec
    residual_norm: float
    condition_number: float
    regularization: float
    singular_values: np.ndarray = field(repr=False)

    def to_json_dict(self) -> dict:
        def cvec(a):
            return [[v.real, v.imag] for v in np.asarray(a).ravel()]

        return {
            "phi_hat": cvec(self.phi_hat.coeffs),
            "psi_hat": cvec(self.psi_hat.coeffs),
            "f_hat": [cvec(row) for row in self.f_hat.f_coeffs],
            "chi_hat": [cvec(row) for row in self.chi_hat.chi_coeffs],
            "residual_norm": self.residual_norm,
            "condition_number": self.condition_number,
            "regularization": self.regularization,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def _flux_columns(params: ModelParams, table: ModeTable, degree: int, t: np.ndarray):
    """Unit-coefficient flux responses: gamma_k times u_k with one unknown set to 1.

    Columns come in per-mode blocks: f_(k,0..M), phi_k and, when a != 0,
    chi_(k,0..M), psi_k.  All columns contract one ``forward._KernelBlock`` of
    the K modes; setting unknown j of every mode to 1 at once gives column j of
    every block.
    """
    K, n = table.K, (2 if params.coupled else 1) * (degree + 2)
    rows = _used_rows(params, table, *_split_unknowns(np.ones((K, n)), degree, params.coupled))
    block = _KernelBlock(params, table, t.astype(complex), params.t0, rows)
    cols = np.empty((K, n, t.size), dtype=complex)
    for j, unit in enumerate(np.eye(n, dtype=complex)):
        u, _ = block.contract(*_split_unknowns(np.tile(unit, (K, 1)), degree, params.coupled))
        cols[:, j] = table.gamma_trace[:, None] * u
    return list(cols.reshape(K * n, t.size))


def _split_unknowns(x: np.ndarray, M: int, coupled: bool):
    """(phi, psi, f, chi) from the (K, per-mode block) table of unknowns; psi and chi are 0 when a = 0."""
    if coupled:
        return x[:, M + 1], x[:, 2 * M + 3], x[:, : M + 1], x[:, M + 2 : 2 * M + 3]
    return x[:, M + 1], np.zeros(len(x), dtype=complex), x[:, : M + 1], np.zeros((len(x), M + 1), dtype=complex)


def _weighted_design(params: ModelParams, table: ModeTable, degree: int, t: np.ndarray):
    """(A sqrt(w), sqrt(w)): the design matrix with rows scaled by trapezoid weights w on t."""
    if (np.diff(t) <= 0).any():
        raise DomainError("data grid must be strictly increasing")
    A = np.column_stack(_flux_columns(params, table, degree, t))
    sw = np.sqrt(_trapezoid_weights(t))
    return A * sw[:, None], sw


def _legendre_to_monomial(t0: float, degree: int) -> np.ndarray:
    """T with monomial_coeffs = T @ legendre_coeffs, shifted Legendre on (0, t0)."""
    T = np.zeros((degree + 1, degree + 1))
    for j in range(degree + 1):
        c = np.zeros(j + 1)
        c[j] = 1.0
        leg = np.polynomial.legendre.Legendre(c, domain=[0.0, t0])
        T[: j + 1, j] = leg.convert(kind=np.polynomial.Polynomial).coef
    return T


def _precondition_blocks(t0: float, degree: int, K: int, coupled: bool) -> np.ndarray:
    """Block-diagonal right preconditioner: orthogonal source basis per mode.

    Monomials on (0, t0) are themselves badly conditioned; re-expressing each
    source block in shifted Legendre polynomials strips that part of the
    conditioning without changing the least-squares solution in exact
    arithmetic.  Initial-state columns are left untouched.  The diagonal
    follows the per-mode layout of _split_unknowns: [T, 1] per mode, or
    [T, 1, T, 1] when coupled.
    """
    n = degree + 2
    P = np.eye(n)  # one source row and its initial state: [T, 1]
    P[: n - 1, : n - 1] = _legendre_to_monomial(t0, degree)
    return np.kron(np.eye(K * (2 if coupled else 1)), P)


def lsq_reconstruct(
    data: FluxTrace,
    params: ModelParams,
    table: ModeTable,
    degree: int,
    mu: float = 0.0,
) -> ReconstructionResult:
    """Tikhonov-regularized least squares for (f, phi) or (f, chi, phi, psi).

    The coupling fixes the unknowns: a = 0 (IP1) recovers (f, phi) and
    a != 0 (IP2) recovers all four, after refusing with SeparationError when
    the cross-mode root separation fails.

    The design matrix is the linear flux map, one column per unit coefficient.
    With mu > 0 the SVD filter x = V diag(s / (s^2 + mu)) U^H b acts on the raw
    coefficients; at mu = 0 the pseudo-inverse is computed on a preconditioned
    matrix (orthogonal source basis per mode plus column equilibration), which
    leaves the solution unchanged in exact arithmetic but avoids losing the
    well-determined directions to rounding.  The misfit norm is trapezoid
    weighted on the data grid; ``condition_number`` is the ratio of extreme
    singular values of the weighted design matrix.
    """
    if mu < 0:
        raise ValueError("regularization must be >= 0")
    _require_separation(table)
    t = np.asarray(data.time_grid, dtype=float)
    if t.size < 2:
        raise ValueError("need at least two flux samples")
    if (t <= params.t0).any() or (t >= params.t1).any():
        raise DomainError("data grid must lie inside the observation window (t0, t1)")

    Aw, sw = _weighted_design(params, table, degree, t)
    bw = np.asarray(data.values, dtype=complex) * sw

    s_raw = np.linalg.svd(Aw, compute_uv=False)
    cond = float(s_raw[0] / s_raw[-1]) if s_raw[-1] > 0 else math.inf
    if mu == 0.0:
        # pure pseudo-inverse: preconditioning cannot change the solution in
        # exact arithmetic, so strip the monomial-basis and column-scale parts
        # of the conditioning before factorizing
        B = _precondition_blocks(params.t0, degree, table.K, params.coupled)
        Ab = Aw @ B
        cn = np.linalg.norm(Ab, axis=0)
        cn[cn == 0] = 1.0
        U, s, Vh = np.linalg.svd(Ab / cn, full_matrices=False)
        if s[-1] <= 1e-12 * s[0]:
            rank = int(np.sum(s > 1e-12 * s[0]))
            warnings.warn(
                f"design matrix numerically rank deficient: rank {rank} of {s.size}", stacklevel=2
            )
        y = Vh.conj().T @ ((U.conj().T @ bw) / s)
        x = B @ (y / cn)
    else:
        # Tikhonov penalizes the documented coefficient norm, so solve in the
        # original variables
        U, s, Vh = np.linalg.svd(Aw, full_matrices=False)
        filt = s / (s**2 + mu)
        x = Vh.conj().T @ (filt * (U.conj().T @ bw))
    residual = float(np.linalg.norm(Aw @ x - bw))

    phi_hat, psi_hat, f_hat, chi_hat = _split_unknowns(x.reshape(table.K, -1), degree, params.coupled)
    return ReconstructionResult(
        phi_hat=SpectralField(phi_hat),
        psi_hat=SpectralField(psi_hat),
        f_hat=SourceSpec(degree=degree, t0=params.t0, f_coeffs=f_hat, chi_coeffs=np.zeros_like(f_hat)),
        chi_hat=SourceSpec(degree=degree, t0=params.t0, f_coeffs=np.zeros_like(chi_hat), chi_coeffs=chi_hat),
        residual_norm=residual,
        condition_number=cond,
        regularization=float(mu),
        singular_values=s_raw,
    )


@dataclass(frozen=True)
class ConditioningRow:
    alpha: float
    sigma_min: float
    condition_number: float


def conditioning_probe(
    alphas,
    base_params: ModelParams,
    K: int,
    degree: int,
    data_grid,
) -> list[ConditioningRow]:
    """Smallest singular value and condition number of the design matrix per alpha.

    Exploratory output: nothing quantitative connects rational alpha to finite-K
    degeneracy; the rows just report the numbers, deterministically.
    """
    t = np.asarray(data_grid, dtype=float)
    rows = []
    for a in alphas:
        params = replace(base_params, alpha=float(a))
        table = build_mode_table(params, K)
        Aw, _ = _weighted_design(params, table, degree, t)
        s = np.linalg.svd(Aw, compute_uv=False)
        rows.append(
            ConditioningRow(
                alpha=float(a),
                sigma_min=float(s[-1]),
                condition_number=float(s[0] / s[-1]) if s[-1] > 0 else math.inf,
            )
        )
    return rows
