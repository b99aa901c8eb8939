"""Closed-form solver: mode solutions, flux, residual self-check, complex extension."""

import math
import pathlib

import numpy as np
import pytest

from fracflux.forward import (
    SourceSpec,
    _KernelBlock,
    boundary_flux,
    convolve_kernel_quadrature,
    extend_complex,
    fractional_residual,
    mode_estimate_constant,
    solve,
)
from fracflux.modes import ModelParams, SpectralField, build_mode_table
from fracflux.specfun import DomainError, PrabhakarParams, prabhakar, prabhakar_array

ROOT = pathlib.Path(__file__).resolve().parents[1]


def decoupled_params(**kw):
    base = dict(alpha=0.6, kappa=1.0, varkappa=1.0, a=0.0, b=0.0, c=0.0, d=0.0, t0=1.0, t1=3.0)
    base.update(kw)
    return ModelParams(**base)


def coupled_params(**kw):
    base = dict(alpha=0.7, kappa=1.0, varkappa=2.0, a=0.5, b=0.3, c=1.0, d=2.0, t0=1.0, t1=2.5)
    base.update(kw)
    return ModelParams(**base)


def rand_setup(params, K, M, seed=0, complex_data=False):
    rng = np.random.default_rng(seed)
    shape = (K,)
    phi = rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_data else 0)
    psi = rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_data else 0)
    f = rng.normal(size=(K, M + 1))
    chi = rng.normal(size=(K, M + 1))
    src = SourceSpec(degree=M, t0=params.t0, f_coeffs=f, chi_coeffs=chi)
    return SpectralField(phi.astype(complex)), SpectralField(psi.astype(complex)), src


def mode_solve(p, table, k, phi_k, psi_k, f_row, chi_row, grid):
    """(u_k, v_k) from ``solve`` with every coefficient outside mode k set to 0."""
    phi, psi, f, chi = (np.zeros((table.K,) + np.shape(x), dtype=complex) for x in (phi_k, psi_k, f_row, chi_row))
    phi[k - 1], psi[k - 1], f[k - 1], chi[k - 1] = phi_k, psi_k, f_row, chi_row
    src = SourceSpec(degree=f.shape[1] - 1, t0=p.t0, f_coeffs=f, chi_coeffs=chi)
    traj = solve(p, table, phi, psi, src, grid)
    return traj.u_modes[k - 1], traj.v_modes[k - 1]


def q_rows(p, table, z):
    """The q rows of every mode's kernel block at the one time z."""
    every, none = np.ones(table.K, dtype=bool), np.zeros((table.K, 0), dtype=bool)
    return _KernelBlock(p, table, np.array([z], dtype=complex), p.t0, (every, every, none, none)).q[:, 0]


@pytest.mark.parametrize("k", [0, 5])
@pytest.mark.parametrize("call", ["residue_ip1", "residue_ip2", "g_eval"])
def test_mode_index_outside_1_to_K_rejected(call, k):
    # all three go through ModeTable.row
    from fracflux import inverse
    from fracflux.laplace import make_jump_context

    p = decoupled_params(c=0.5) if call == "residue_ip1" else coupled_params()
    t = build_mode_table(p, 4)
    phi, psi, src = rand_setup(p, 4, 1)
    ctx = make_jump_context(p, t, phi, psi, src)
    calls = {
        "residue_ip1": lambda: inverse.residue_ip1(ctx, k),
        "residue_ip2": lambda: inverse.residue_ip2(ctx, k),
        "g_eval": lambda: ctx.g_eval(k, 1.5 + 0.5j),
    }
    with pytest.raises(ValueError, match=rf"mode {k} outside 1\.\.4"):
        calls[call]()


@pytest.mark.parametrize("t0", [math.nan, math.inf, 0.0])
def test_source_t0_must_be_positive_and_finite(t0):
    with pytest.raises(ValueError, match="t0 must be positive and finite"):
        SourceSpec.zero(2, 1, t0)


class TestQkWk:
    def test_qk_at_zero_vanishes(self):
        p = coupled_params()
        t = build_mode_table(p, 3)
        assert q_rows(p, t, 0.0)[0] == 0

    def test_distinct_root_form(self):
        p = coupled_params()
        t = build_mode_table(p, 2)
        z = 0.8
        q = q_rows(p, t, z)[0]
        lb, lh = t.lam_breve[0], t.lam_hat[0]
        e = lambda lam: prabhakar(PrabhakarParams(p.alpha, 1.0, 1.0), -lam * z**p.alpha)
        assert q == pytest.approx((e(lh) - e(lb)) / (lb - lh), rel=1e-12)

    def test_branch_agreement_near_coalescence(self):
        # nearly merged roots: divided difference vs the gamma=2 branch, both
        # checked against the integral mean of E^2 over [lam_hat, lam_breve]
        alpha, z = 0.7, 1.3
        za = z**alpha
        for gap in (1e-6, 1e-7):
            lb, lh = 2.0 + gap, 2.0
            xs = np.linspace(lh, lb, 129)
            mids = 0.5 * (xs[1:] + xs[:-1])
            pq = PrabhakarParams(alpha, alpha + 1.0, 2.0)
            q_int = za * np.mean(prabhakar_array(pq, -mids * za))
            q_dd = (
                prabhakar(PrabhakarParams(alpha, 1.0, 1.0), -lh * za)
                - prabhakar(PrabhakarParams(alpha, 1.0, 1.0), -lb * za)
            ) / (lb - lh)
            q_g2 = za * prabhakar(pq, -lb * za)
            assert q_dd == pytest.approx(q_int, rel=2e-6)
            assert q_g2 == pytest.approx(q_int, rel=2e-6)

    def test_solution_continuous_across_branch_switch(self):
        # lam_breve - lam_hat just above / below the coalescence threshold
        thr = 1e-6 * 2.0  # mode 1: lam_breve ~ 2
        vals = []
        for s in (1.25 * thr, 0.8 * thr):
            p = decoupled_params(kappa=1.0, varkappa=1.0, c=1.0, d=1.0, a=s / 2, b=s / 2)
            # S = sqrt((c-d)^2 + 4ab) = s for c = d
            t = build_mode_table(p, 1)
            u, v = mode_solve(p, t, 1, 1.0, 0.5, [0.3], [0.1], [0.5, 2.0])
            vals.append(np.concatenate([u, v]))
        assert np.abs(vals[0] - vals[1]).max() < 1e-5


class TestModeSolution:
    def test_pure_exponential_kernel_case(self):
        # no coupling, no reaction: u_k(t) = E_{a,1}(-kappa lam_k t^a) phi_k
        p = decoupled_params()
        t = build_mode_table(p, 3)
        grid = np.array([0.0, 0.4, 1.7])
        u, v = mode_solve(p, t, 2, 1.0, 0.0, [0.0], [0.0], grid)
        expect = prabhakar_array(PrabhakarParams(p.alpha, 1.0, 1.0), -4.0 * grid**p.alpha)
        assert np.abs(u - expect).max() < 1e-12
        assert np.abs(v).max() == 0

    def test_all_zero_inputs(self):
        p = coupled_params()
        t = build_mode_table(p, 2)
        u, v = mode_solve(p, t, 1, 0.0, 0.0, [0.0, 0.0], [0.0, 0.0], np.linspace(0, 2, 9))
        assert np.all(u == 0) and np.all(v == 0)

    def test_constant_source_frozen_value(self):
        # f_1 = 1 on (0,1), lam_1 = 1, alpha = 0.6: u_1(2) computed by graded
        # quadrature and high-precision series before the build
        p = decoupled_params()
        t = build_mode_table(p, 1)
        u, v = mode_solve(p, t, 1, 0.0, 0.0, [1.0], [0.0], [2.0])
        assert u[0] == pytest.approx(0.11274347426992318, rel=1e-12)

    def test_full_convolution_identity_vs_quadrature(self):
        p = coupled_params()
        t = build_mode_table(p, 3)
        lb = t.lam_breve[1]
        for tt in (0.6, 1.0, 2.3):
            for m in (0, 2):
                closed_full = math.factorial(m) * tt ** (p.alpha + m) * prabhakar(
                    PrabhakarParams(p.alpha, p.alpha + m + 1, 1.0), -lb * tt**p.alpha
                )
                quad = convolve_kernel_quadrature(p.alpha, lb, 1.0, m, tt, t0=1e9)
                assert quad == pytest.approx(closed_full, rel=1e-10)

    def test_truncated_source_conv_vs_quadrature(self):
        # the t > t0 branch of the closed form against the graded-panel rule
        alpha, lam, t0 = 0.55, 3.0, 1.0
        for gamma_ml in (1.0, 2.0):
            for m in (0, 1, 3):
                for tt in (0.5, 0.98, 1.0, 1.7, 3.5):
                    quad = convolve_kernel_quadrature(alpha, lam, gamma_ml, m, tt, t0)
                    from fracflux.forward import _source_convolutions

                    wanted = [(np.array([lam]), np.ones((1, m + 1), dtype=bool))]
                    (convs,) = _source_convolutions(alpha, gamma_ml, wanted, np.array([tt], dtype=complex), t0)
                    closed = convs[m][0, 0]
                    assert quad == pytest.approx(closed, rel=2e-9, abs=1e-13)


class TestSolve:
    @pytest.mark.parametrize("grid", [[0.0, 1.0, math.inf], [0.0, math.nan, 2.0]])
    def test_non_finite_time_rejected(self, grid):
        p = coupled_params()
        t = build_mode_table(p, 2)
        with pytest.raises(DomainError, match="time grid"):
            solve(p, t, SpectralField.zero(2), SpectralField.zero(2), SourceSpec.zero(2, 0, p.t0), grid)

    def test_zero_data_zero_trajectory(self):
        p = coupled_params()
        t = build_mode_table(p, 3)
        traj = solve(p, t, SpectralField.zero(3), SpectralField.zero(3), SourceSpec.zero(3, 2, p.t0), [0, 1, 2])
        assert np.all(traj.u_modes == 0) and np.all(traj.v_modes == 0)

    def test_initial_conditions_exact(self):
        p = coupled_params()
        t = build_mode_table(p, 4)
        phi, psi, src = rand_setup(p, 4, 2, seed=3, complex_data=True)
        traj = solve(p, t, phi, psi, src, np.linspace(0, 2, 11))
        assert np.abs(traj.u_modes[:, 0] - phi.coeffs).max() < 1e-8
        assert np.abs(traj.v_modes[:, 0] - psi.coeffs).max() < 1e-8

    def test_decoupling_at_a_zero(self):
        p = decoupled_params(c=0.5)
        t = build_mode_table(p, 3)
        _, psi, src = rand_setup(p, 3, 2, seed=4)
        phi = SpectralField(np.array([1.0, -0.5, 0.25], dtype=complex))
        grid = np.linspace(0, 2.5, 13)
        traj1 = solve(p, t, phi, psi, src, grid)
        src0 = SourceSpec(degree=2, t0=p.t0, f_coeffs=src.f_coeffs, chi_coeffs=np.zeros_like(src.chi_coeffs))
        traj2 = solve(p, t, phi, SpectralField.zero(3), src0, grid)
        assert np.array_equal(traj1.u_modes, traj2.u_modes)  # u blind to (psi, chi)

    def test_swap_symmetry(self):
        # exchanging (kappa, c, phi, f, a) with (varkappa, d, psi, chi, b) swaps u and v
        p = coupled_params()
        ps = ModelParams(
            alpha=p.alpha, kappa=p.varkappa, varkappa=p.kappa, a=p.b, b=p.a, c=p.d, d=p.c, t0=p.t0, t1=p.t1
        )
        t = build_mode_table(p, 3)
        ts = build_mode_table(ps, 3)
        phi, psi, src = rand_setup(p, 3, 2, seed=5)
        src_sw = SourceSpec(degree=2, t0=p.t0, f_coeffs=src.chi_coeffs, chi_coeffs=src.f_coeffs)
        grid = np.linspace(0, 2.5, 9)
        traj = solve(p, t, phi, psi, src, grid)
        traj_sw = solve(ps, ts, psi, phi, src_sw, grid)
        assert np.abs(traj.u_modes - traj_sw.v_modes).max() < 1e-11
        assert np.abs(traj.v_modes - traj_sw.u_modes).max() < 1e-11

    def test_linearity(self):
        p = coupled_params()
        t = build_mode_table(p, 3)
        phi1, psi1, src1 = rand_setup(p, 3, 2, seed=6)
        phi2, psi2, src2 = rand_setup(p, 3, 2, seed=7)
        grid = np.linspace(0, 2.5, 9)
        c1, c2 = 0.7, -1.3
        combo = solve(
            p,
            t,
            SpectralField(c1 * phi1.coeffs + c2 * phi2.coeffs),
            SpectralField(c1 * psi1.coeffs + c2 * psi2.coeffs),
            SourceSpec(
                degree=2,
                t0=p.t0,
                f_coeffs=c1 * src1.f_coeffs + c2 * src2.f_coeffs,
                chi_coeffs=c1 * src1.chi_coeffs + c2 * src2.chi_coeffs,
            ),
            grid,
        )
        t1 = solve(p, t, phi1, psi1, src1, grid)
        t2 = solve(p, t, phi2, psi2, src2, grid)
        lin = c1 * t1.u_modes + c2 * t2.u_modes
        scale = np.abs(lin).max()
        assert np.abs(combo.u_modes - lin).max() / scale < 1e-10

    def test_mode_decay_homogeneous(self):
        # |u_k(t)| (1 + lam_k t^a) stays bounded across k at fixed t > 0
        p = decoupled_params()
        K = 40
        t = build_mode_table(p, K)
        traj = solve(p, t, SpectralField(np.ones(K, complex)), SpectralField.zero(K), SourceSpec.zero(K, 0, p.t0), [1.0])
        weighted = np.abs(traj.u_modes[:, 0]) * (1.0 + t.lam * 1.0**p.alpha)
        assert weighted[20:].max() <= weighted[:5].max() + 1e-12

    def test_mode_estimate_constant_finite(self):
        p = coupled_params()
        t = build_mode_table(p, 4)
        phi, psi, src = rand_setup(p, 4, 2, seed=8)
        traj = solve(p, t, phi, psi, src, np.linspace(0, 2.5, 21))
        c0 = mode_estimate_constant(traj, phi, psi, src)
        assert 0 < c0 < 50


class TestBoundaryFlux:
    def test_zero_state_zero_flux(self):
        p = coupled_params()
        t = build_mode_table(p, 3)
        traj = solve(p, t, SpectralField.zero(3), SpectralField.zero(3), SourceSpec.zero(3, 1, p.t0), np.linspace(0, 2.5, 21))
        assert np.all(boundary_flux(traj, t).values == 0)

    def test_single_mode_flux_is_trace_value(self):
        p = coupled_params()
        t = build_mode_table(p, 3)
        grid = np.linspace(0, 2.5, 21)
        from fracflux.forward import StateTrajectory

        u = np.zeros((3, grid.size), dtype=complex)
        u[1] = 1.0  # constant unit mode k = 2
        traj = StateTrajectory(time_grid=grid, u_modes=u, v_modes=np.zeros_like(u), params=p)
        flux = boundary_flux(traj, t)
        assert np.allclose(flux.values, -math.sqrt(2 / math.pi) * 2)

    def test_window_restriction(self):
        p = coupled_params()
        t = build_mode_table(p, 2)
        phi, psi, src = rand_setup(p, 2, 1, seed=9)
        traj = solve(p, t, phi, psi, src, np.linspace(0, 2.5, 26))
        flux = boundary_flux(traj, t)
        assert (flux.time_grid > p.t0).all() and (flux.time_grid < p.t1).all()

    def test_truncation_tail_vs_doubled_K(self):
        # smooth data: doubling the mode cutoff moves the flux by less than the
        # declared algebraic tail of the mode estimates
        p = coupled_params()
        K = 8
        phi_fn = lambda x: x * (math.pi - x)
        from fracflux.modes import analyze

        grid = np.linspace(0, 2.5, 11)
        vals = {}
        for Kk in (K, 2 * K):
            t = build_mode_table(p, Kk)
            phi = analyze(phi_fn, Kk)
            traj = solve(p, t, phi, SpectralField.zero(Kk), SourceSpec.zero(Kk, 0, p.t0), grid)
            vals[Kk] = boundary_flux(traj, t).values
        diff = np.abs(vals[K] - vals[2 * K]).max()
        # per-mode flux terms ~ gamma_k phi_k / (lam_k t^alpha); phi_k ~ k^-3 for
        # the parabola, so the tail above K is ~ sum k^-4
        tail_bound = np.sum([k ** (-4.0) for k in range(K + 1, 10 * K)]) / p.t0**p.alpha * 4
        assert diff < tail_bound


class TestFractionalResidual:
    def test_zero_data_zero_residual(self):
        p = coupled_params()
        t = build_mode_table(p, 2)
        traj = solve(p, t, SpectralField.zero(2), SpectralField.zero(2), SourceSpec.zero(2, 1, p.t0), np.linspace(0, 2, 65))
        rep = fractional_residual(traj, p, t, SpectralField.zero(2), SpectralField.zero(2), SourceSpec.zero(2, 1, p.t0))
        assert rep.res_u == 0 and rep.res_v == 0

    def test_refinement_study(self):
        p = coupled_params()
        K = 5
        t = build_mode_table(p, K)
        phi, psi, _ = rand_setup(p, K, 1, seed=10)
        # continuous source: vanishes at t0, so only the kink at a grid point remains
        f = np.zeros((K, 2))
        f[:, 0] = 0.7
        f[:, 1] = -0.7 / p.t0
        src = SourceSpec(degree=1, t0=p.t0, f_coeffs=f, chi_coeffs=0.5 * f)
        res = []
        for n in (100, 200, 400):
            grid = np.linspace(0, 2.0, n + 1)
            traj = solve(p, t, phi, psi, src, grid)
            rep = fractional_residual(traj, p, t, phi, psi, src)
            res.append(max(rep.res_u, rep.res_v))
        assert res[1] < res[0] and res[2] < res[1]
        assert res[0] / res[1] >= 1.5 and res[1] / res[2] >= 1.5

    def test_alpha_near_one_matches_classical_scale(self):
        # at alpha -> 1 the residual reflects the same discretization error the
        # classical exponential solution produces, qualitatively
        p = decoupled_params(alpha=0.99)
        t = build_mode_table(p, 1)
        phi = SpectralField(np.array([1.0 + 0j]))
        traj = solve(p, t, phi, SpectralField.zero(1), SourceSpec.zero(1, 0, p.t0), np.linspace(0, 2, 201))
        rep = fractional_residual(traj, p, t, phi, SpectralField.zero(1), SourceSpec.zero(1, 0, p.t0))
        assert rep.res_u < 1e-3

    def test_nonuniform_grid_rejected(self):
        p = coupled_params()
        t = build_mode_table(p, 1)
        grid = np.array([0.0, 0.1, 0.3, 0.7])
        traj = solve(p, t, SpectralField.zero(1), SpectralField.zero(1), SourceSpec.zero(1, 0, p.t0), grid)
        with pytest.raises(ValueError, match="uniform"):
            fractional_residual(traj, p, t, SpectralField.zero(1), SpectralField.zero(1), SourceSpec.zero(1, 0, p.t0))


class TestExtendComplex:
    def test_real_axis_matches_solver(self):
        p = coupled_params()
        t = build_mode_table(p, 3)
        phi, psi, src = rand_setup(p, 3, 2, seed=11)
        zs = np.array([1.3, 2.0, 2.4])
        u_ext, v_ext = extend_complex(p, t, phi, psi, src, zs.astype(complex))
        traj = solve(p, t, phi, psi, src, zs)
        assert np.abs(u_ext - traj.u_modes).max() < 1e-8
        assert np.abs(v_ext - traj.v_modes).max() < 1e-8

    def test_conjugate_symmetry(self):
        p = coupled_params()
        t = build_mode_table(p, 2)
        phi, psi, src = rand_setup(p, 2, 1, seed=12)
        z = 1.6 + 0.4j
        up, _ = extend_complex(p, t, phi, psi, src, z)
        dn, _ = extend_complex(p, t, phi, psi, src, np.conj(z))
        assert np.abs(up - np.conj(dn)).max() < 1e-12

    def test_cauchy_circle_mean(self):
        p = coupled_params()
        t = build_mode_table(p, 3)
        phi, psi, src = rand_setup(p, 3, 2, seed=13)
        for z0 in (1.8 + 0.0j, 2.2 + 0.3j, 1.5 - 0.25j):
            r = 0.12
            nodes = z0 + r * np.exp(2j * np.pi * np.arange(24) / 24)
            u_c, _ = extend_complex(p, t, phi, psi, src, nodes)
            u_0, _ = extend_complex(p, t, phi, psi, src, z0)
            assert np.abs(u_c.mean(axis=1) - u_0).max() < 1e-6

    def test_sector_lattice_needs_no_third_parabola(self, monkeypatch):
        # the pole of (s^alpha + xi)^(-gamma) crosses the contour route's fixed
        # parabola inside this lattice; the pole-aware parabola resolves those
        # points, which once fell back to an arbitrary-precision series
        from fracflux import specfun
        from fracflux.config import load_config

        cfg = load_config((ROOT / "configs" / "demo.cfg").read_text())
        p = cfg.model
        theta_max = min(math.pi, (2.0 - p.alpha) * math.pi / (2.0 * p.alpha))
        r = 0.1 * 20.0 ** ((np.arange(12) + 0.5) / 12)
        theta = 0.9 * theta_max * (2.0 * (np.arange(20) + 0.5) / 20 - 1.0)
        zs = (p.t0 + r[:, None] * np.exp(1j * theta[None, :])).ravel()
        narrow, unresolved = [], []
        original_sum, original_diag = specfun._contour_sum, specfun.prabhakar_diag

        def counted_sum(a, b, g, xi, has_pole, sstar, mu, h, n):
            if np.ndim(mu) == 0 and mu == specfun._NARROW_MU:
                narrow.append(xi.size)
            return original_sum(a, b, g, xi, has_pole, sstar, mu, h, n)

        def counted_diag(params, z):
            vals, est = original_diag(params, z)
            unresolved.append(int(np.sum(~(est <= specfun.TARGET))))
            return vals, est

        monkeypatch.setattr(specfun, "_contour_sum", counted_sum)
        monkeypatch.setattr(specfun, "prabhakar_diag", counted_diag)
        u, v = extend_complex(p, build_mode_table(p, cfg.K), cfg.phi, cfg.psi, cfg.source, zs)
        assert np.isfinite(u).all() and np.isfinite(v).all()
        assert unresolved and not sum(unresolved), f"{sum(unresolved)} points unresolved"
        assert not narrow, f"{sum(narrow) // 2} points reached the third parabola"

    def test_sector_enforced(self):
        p = coupled_params(alpha=0.8)
        t = build_mode_table(p, 2)
        phi, psi, src = rand_setup(p, 2, 1, seed=14)
        theta_max = (2 - p.alpha) * math.pi / (2 * p.alpha)
        bad = p.t0 + 0.5 * np.exp(1j * (theta_max + 0.05))
        for z in (bad, math.inf, complex(math.nan, 0.5)):
            with pytest.raises(DomainError):
                extend_complex(p, t, phi, psi, src, z)
