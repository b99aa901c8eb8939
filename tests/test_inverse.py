"""Residue identities and least-squares reconstruction."""

import json
import math

import numpy as np
import pytest

from fracflux.forward import FluxTrace, SourceSpec, boundary_flux, solve
from fracflux.inverse import (
    SeparationError,
    conditioning_probe,
    lsq_reconstruct,
    residue_ip1,
    residue_ip2,
)
from fracflux.laplace import make_jump_context
from fracflux.modes import ModelParams, SpectralField, build_mode_table
from fracflux.specfun import DomainError


def ip1_params(**kw):
    base = dict(alpha=0.7, kappa=1.0, varkappa=1.0, a=0.0, b=0.0, c=0.5, d=0.0, t0=1.0, t1=3.0)
    base.update(kw)
    return ModelParams(**base)


def ip2_params(**kw):
    base = dict(alpha=0.7, kappa=1.0, varkappa=2.0, a=0.5, b=0.3, c=1.0, d=2.0, t0=1.0, t1=3.0)
    base.update(kw)
    return ModelParams(**base)


def ip1_ctx(K=5, seed=0, **kw):
    p = ip1_params(**kw)
    t = build_mode_table(p, K)
    rng = np.random.default_rng(seed)
    phi = rng.normal(size=K)
    src = SourceSpec(degree=2, t0=p.t0, f_coeffs=rng.normal(size=(K, 3)), chi_coeffs=np.zeros((K, 3)))
    return make_jump_context(p, t, phi, np.zeros(K), src), p, t, phi, src


def ip2_ctx(K=5, seed=0, **kw):
    p = ip2_params(**kw)
    t = build_mode_table(p, K)
    rng = np.random.default_rng(seed)
    phi, psi = rng.normal(size=K), rng.normal(size=K)
    src = SourceSpec(degree=2, t0=p.t0, f_coeffs=rng.normal(size=(K, 3)), chi_coeffs=rng.normal(size=(K, 3)))
    return make_jump_context(p, t, phi, psi, src), p, t, phi, psi, src


class TestResidueIp1:
    def test_zero_data_both_zero(self):
        _, p, t, *_ = ip1_ctx()
        ctx = make_jump_context(p, t, np.zeros(5), np.zeros(5), SourceSpec.zero(5, 2, p.t0))
        rep = residue_ip1(ctx, 2)
        assert rep.contour_value == 0 and rep.closed_form == 0

    def test_single_mode_data(self):
        p = ip1_params()
        t = build_mode_table(p, 4)
        phi = np.zeros(4)
        phi[2] = 1.3
        f = np.zeros((4, 3))
        f[2] = [0.5, -0.2, 0.1]
        ctx = make_jump_context(p, t, phi, np.zeros(4), SourceSpec(degree=2, t0=p.t0, f_coeffs=f, chi_coeffs=np.zeros((4, 3))))
        rep = residue_ip1(ctx, 3)
        assert rep.rel_error < 1e-6

    def test_multi_mode_data_all_modes(self):
        ctx, *_ = ip1_ctx(K=8, seed=1)
        for n in range(1, 9):
            assert residue_ip1(ctx, n).rel_error < 1e-6

    def test_off_mode_residue_vanishes(self):
        ctx, p, t, phi, src = ip1_ctx(K=5, seed=2)
        phi2 = phi.copy()
        phi2[2] = 0.0
        f2 = src.f_coeffs.copy()
        f2[2] = 0.0
        ctx2 = make_jump_context(p, t, phi2, np.zeros(5), SourceSpec(degree=2, t0=p.t0, f_coeffs=f2, chi_coeffs=np.zeros((5, 3))))
        rep = residue_ip1(ctx2, 3)
        assert abs(rep.contour_value) < 1e-8

    def test_json_roundtrip(self):
        ctx, *_ = ip1_ctx()
        d = residue_ip1(ctx, 1).to_json_dict()
        parsed = json.loads(json.dumps(d))
        assert set(parsed) == {"mode", "pole", "contour_value", "closed_form", "rel_error", "order"}
        assert isinstance(parsed["pole"], list) and len(parsed["pole"]) == 2


class TestResidueIp2:
    def test_zero_data(self):
        _, p, t, *_ = ip2_ctx()
        ctx = make_jump_context(p, t, np.zeros(5), np.zeros(5), SourceSpec.zero(5, 2, p.t0))
        rr = residue_ip2(ctx, 1)
        assert rr.report_breve.contour_value == 0
        assert rr.report_hat.contour_value == 0

    def test_consistent_data_all_modes(self):
        ctx, *_ = ip2_ctx(K=6, seed=3)
        for n in range(1, 7):
            rr = residue_ip2(ctx, n)
            assert rr.report_breve.rel_error < 1e-6
            assert rr.report_hat.rel_error < 1e-6
            assert rr.relation_violation < 1e-6

    def test_system_determinant_formula(self):
        ctx, p, t, *_ = ip2_ctx(seed=4)
        for n in (1, 3):
            rr = residue_ip2(ctx, n)
            expected = p.a * (t.lam_breve[n - 1] - t.lam_hat[n - 1])
            assert abs(abs(rr.system_determinant) - abs(expected)) < 1e-9 * max(abs(expected), 1.0)
            assert rr.system_determinant != 0

    def test_system_regular_with_one_sided_coupling(self):
        # b = 0 but a != 0: roots stay distinct, so the extraction system must
        # be regular with determinant a (lam_breve - lam_hat) up to sign
        ctx, p, t, *_ = ip2_ctx(seed=4, kappa=1.0, varkappa=1.0, a=1.0, b=0.0, c=0.25, d=2.8)
        rr = residue_ip2(ctx, 2)
        expected = p.a * (t.lam_breve[1] - t.lam_hat[1])
        assert rr.system_determinant != 0
        assert abs(rr.system_determinant) == pytest.approx(abs(expected), rel=1e-12)

    def test_coalescent_double_pole(self):
        # kappa = varkappa, c = d, b = 0 gives exactly merged roots with a != 0
        p = ip2_params(kappa=1.0, varkappa=1.0, a=0.8, b=0.0, c=1.5, d=1.5)
        t = build_mode_table(p, 4)
        assert np.all(t.lam_breve == t.lam_hat)
        rng = np.random.default_rng(5)
        src = SourceSpec(degree=1, t0=p.t0, f_coeffs=rng.normal(size=(4, 2)), chi_coeffs=rng.normal(size=(4, 2)))
        ctx = make_jump_context(p, t, rng.normal(size=4), rng.normal(size=4), src)
        rr = residue_ip2(ctx, 2)
        assert rr.coalescent and rr.report_hat is None
        assert rr.report_breve.order == 2
        assert rr.report_breve.rel_error < 1e-6

    def test_separation_violation_refused(self):
        # b = 0, c = 0, d = 3 collides modes (2, 1)
        p = ip2_params(kappa=1.0, varkappa=1.0, a=1.0, b=0.0, c=0.0, d=3.0)
        t = build_mode_table(p, 5)
        ctx = make_jump_context(p, t, np.ones(5), np.ones(5), SourceSpec.zero(5, 1, p.t0))
        with pytest.raises(SeparationError, match=r"\(.*\)"):
            residue_ip2(ctx, 1)


class TestLsqReconstruct:
    def _simulate(self, p, table, phi, psi, src, n=400):
        grid = p.t0 + (p.t1 - p.t0) * np.geomspace(1e-4, 1.0, n + 1)[:-1]
        traj = solve(p, table, phi, psi, src, grid)
        return boundary_flux(traj, table)

    def test_ip1_inverse_crime(self):
        # long observation window: conditioning ~3e10, recovery ~1e-7
        p = ip1_params(alpha=0.9, t1=400.0)
        K, M = 5, 3
        table = build_mode_table(p, K)
        rng = np.random.default_rng(11)
        phi = SpectralField(rng.normal(size=K) + 0j)
        f = rng.normal(size=(K, M + 1))
        src = SourceSpec(degree=M, t0=p.t0, f_coeffs=f, chi_coeffs=np.zeros((K, M + 1)))
        data = self._simulate(p, table, phi, SpectralField.zero(K), src)
        res = lsq_reconstruct(data, p, table, M, mu=0.0)
        scale = max(np.abs(f).max(), np.abs(phi.coeffs).max())
        err = max(
            np.abs(res.f_hat.f_coeffs - f).max(), np.abs(res.phi_hat.coeffs - phi.coeffs).max()
        ) / scale
        assert err < 1e-6
        assert err <= res.condition_number * 1e-12  # finite-K identifiability scale
        assert res.residual_norm < 1e-10
        assert res.condition_number > 1.0

    def test_zero_data_ridge_gives_zero(self):
        p = ip1_params()
        table = build_mode_table(p, 3)
        grid = np.linspace(1.2, 2.8, 50)
        data = FluxTrace(time_grid=grid, values=np.zeros(50, dtype=complex))
        res = lsq_reconstruct(data, p, table, 2, mu=1e-6)
        assert np.all(res.f_hat.f_coeffs == 0)
        assert np.all(res.phi_hat.coeffs == 0)

    def test_noise_with_regularization_sweep(self):
        p = ip1_params(alpha=0.8, t1=6.0)
        K, M = 3, 1
        table = build_mode_table(p, K)
        rng = np.random.default_rng(12)
        phi = SpectralField(rng.normal(size=K) + 0j)
        src = SourceSpec(degree=M, t0=p.t0, f_coeffs=rng.normal(size=(K, M + 1)), chi_coeffs=np.zeros((K, M + 1)))
        data = self._simulate(p, table, phi, SpectralField.zero(K), src, n=200)
        noisy = data.values + 1e-3 * np.sqrt(np.mean(np.abs(data.values) ** 2)) * rng.standard_normal(200)
        misfits = []
        for mu in (1e-10, 1e-6, 1e-2):
            r = lsq_reconstruct(FluxTrace(data.time_grid, noisy), p, table, M, mu=mu)
            misfits.append(r.residual_norm)
            assert r.regularization == mu
        assert misfits[0] <= misfits[1] <= misfits[2]  # misfit grows with mu

    def test_ip2_separation_refused(self):
        p = ip2_params(kappa=1.0, varkappa=1.0, a=1.0, b=0.0, c=0.0, d=3.0)
        table = build_mode_table(p, 5)
        data = FluxTrace(time_grid=np.linspace(1.2, 2.8, 30), values=np.zeros(30, dtype=complex))
        with pytest.raises(SeparationError):
            lsq_reconstruct(data, p, table, 1)

    def test_ip2_small_recovery(self):
        # small coupled instance: exact recovery is conditioning-limited, so
        # only a loose tolerance is meaningful here (see the acceptance notes)
        p = ip2_params(kappa=1.0, varkappa=1.0, a=2.0, b=-2.0, c=0.0, d=4.5, alpha=0.82, t1=8.0)
        K, M = 3, 1
        table = build_mode_table(p, K)
        rng = np.random.default_rng(13)
        phi = SpectralField(rng.normal(size=K) + 0j)
        psi = SpectralField(rng.normal(size=K) + 0j)
        src = SourceSpec(degree=M, t0=p.t0, f_coeffs=rng.normal(size=(K, M + 1)), chi_coeffs=rng.normal(size=(K, M + 1)))
        data = self._simulate(p, table, phi, psi, src, n=300)
        res = lsq_reconstruct(data, p, table, M, mu=0.0)
        scale = np.abs(phi.coeffs).max()
        err = max(
            np.abs(res.f_hat.f_coeffs - src.f_coeffs).max(),
            np.abs(res.chi_hat.chi_coeffs - src.chi_coeffs).max(),
            np.abs(res.phi_hat.coeffs - phi.coeffs).max(),
            np.abs(res.psi_hat.coeffs - psi.coeffs).max(),
        )
        assert err / scale < 1e-4
        assert err / scale <= res.condition_number * 1e-12
        assert res.residual_norm < 1e-9

    def test_result_json_contract(self):
        p = ip1_params()
        table = build_mode_table(p, 2)
        data = FluxTrace(time_grid=np.linspace(1.2, 2.8, 30), values=np.zeros(30, dtype=complex))
        res = lsq_reconstruct(data, p, table, 1, mu=1e-8)
        parsed = json.loads(res.to_json())
        assert set(parsed) == {
            "phi_hat",
            "psi_hat",
            "f_hat",
            "chi_hat",
            "residual_norm",
            "condition_number",
            "regularization",
        }
        assert parsed["f_hat"][0][0] == [0.0, 0.0]  # complex as [re, im]

    def test_data_outside_window_rejected(self):
        p = ip1_params()
        table = build_mode_table(p, 2)
        data = FluxTrace(time_grid=np.linspace(0.5, 2.0, 30), values=np.zeros(30, dtype=complex))
        with pytest.raises(Exception):
            lsq_reconstruct(data, p, table, 1)

    def test_non_increasing_times_rejected(self):
        # the trapezoid weights assume increasing times
        p = ip1_params()
        grid = np.linspace(1.2, 2.8, 40)
        grid[[10, 11]] = grid[[11, 10]]
        data = FluxTrace(time_grid=grid, values=np.ones(40, dtype=complex))
        with pytest.raises(DomainError, match="strictly increasing"):
            lsq_reconstruct(data, p, build_mode_table(p, 2), 1)


class TestConditioningProbe:
    def test_three_alphas(self):
        p = ip1_params()
        grid = np.linspace(1.2, 2.8, 60)
        rows = conditioning_probe([0.5, 1 / math.sqrt(2), 0.75], p, K=3, degree=1, data_grid=grid)
        assert len(rows) == 3
        assert all(r.sigma_min > 0 for r in rows)
        assert all(r.condition_number >= 1 for r in rows)

    def test_single_unknown_sigma_is_column_norm(self):
        p = ip1_params()
        grid = np.linspace(1.2, 2.8, 40)
        rows = conditioning_probe([0.7], p, K=1, degree=0, data_grid=grid)
        from fracflux.inverse import _flux_columns

        table = build_mode_table(p, 1)
        cols = _flux_columns(p, table, 0, grid)
        A = np.column_stack(cols)
        w = np.empty(grid.size)
        w[1:-1] = 0.5 * (grid[2:] - grid[:-2])
        w[0] = 0.5 * (grid[1] - grid[0])
        w[-1] = 0.5 * (grid[-1] - grid[-2])
        s = np.linalg.svd(A * np.sqrt(w)[:, None], compute_uv=False)
        assert rows[0].sigma_min == pytest.approx(s[-1], rel=1e-12)

    def test_deterministic(self):
        p = ip1_params()
        grid = np.linspace(1.2, 2.8, 40)
        r1 = conditioning_probe([0.6, 0.7], p, K=2, degree=1, data_grid=grid)
        r2 = conditioning_probe([0.6, 0.7], p, K=2, degree=1, data_grid=grid)
        assert all(a == b for a, b in zip(r1, r2))

    def test_non_increasing_grid_rejected(self):
        p = ip1_params()
        grid = np.append(np.linspace(1.2, 2.8, 40), 2.0)
        with pytest.raises(DomainError, match="strictly increasing"):
            conditioning_probe([0.7], p, K=2, degree=1, data_grid=grid)


class TestKernelBlock:
    """Forward solver and design matrix contract the same kernel block of all modes."""

    @staticmethod
    def _unknowns(K, M, which, seed):
        # per-mode blocks in column order: f_(k,0..M), phi_k[, chi_(k,0..M), psi_k]
        rng = np.random.default_rng(seed)
        f = rng.normal(size=(K, M + 1)) + 1j * rng.normal(size=(K, M + 1))
        phi = rng.normal(size=K) + 1j * rng.normal(size=K)
        chi = rng.normal(size=(K, M + 1)) if which == "ip2" else np.zeros((K, M + 1))
        psi = rng.normal(size=K) if which == "ip2" else np.zeros(K)
        blocks = [np.r_[f[k], phi[k]] if which == "ip1" else np.r_[f[k], phi[k], chi[k], psi[k]] for k in range(K)]
        src = SourceSpec(degree=M, t0=1.0, f_coeffs=f, chi_coeffs=chi)
        return np.concatenate(blocks), SpectralField(phi), SpectralField(psi + 0j), src

    @pytest.mark.parametrize(
        "which, params",
        [
            ("ip1", ip1_params()),  # theta = a = b = 0: the w-kernels are skipped
            ("ip2", ip2_params()),  # distinct roots
            ("ip2", ip2_params(kappa=1.0, varkappa=1.0, a=0.5, b=-0.5, c=1.0, d=0.0)),  # coalescent roots
        ],
    )
    def test_flux_of_solve_equals_design_matrix_product(self, which, params):
        from fracflux.forward import _roots_coalesced
        from fracflux.inverse import _flux_columns

        K, M = 3, 2
        table = build_mode_table(params, K)
        if params.b < 0:
            assert all(_roots_coalesced(lb, lh) for lb, lh in zip(table.lam_breve, table.lam_hat))
        x, phi, psi, src = self._unknowns(K, M, which, seed=21)
        grid = np.linspace(1.05, 2.95, 37)
        h = boundary_flux(solve(params, table, phi, psi, src, grid), table).values
        A = np.column_stack(_flux_columns(params, table, M, grid))
        assert np.abs(h - A @ x).max() <= 1e-12 * np.abs(h).max()

    @staticmethod
    def _record_prabhakar(monkeypatch):
        from fracflux import specfun

        calls = []
        original = specfun.prabhakar_diag

        def counted(params, z, *args, **kwargs):
            calls.append((params, np.size(z)))
            return original(params, z, *args, **kwargs)

        monkeypatch.setattr(specfun, "prabhakar_diag", counted)
        return calls

    @staticmethod
    def _check_calls(calls, kernels, max_points):
        # one call per distinct (alpha, beta, gamma), holding every mode and
        # both grids, and no more points than one call per mode and kernel took
        params = [p for p, _ in calls]
        assert len(params) == len(set(params)) == kernels
        assert sum(n for _, n in calls) <= max_points

    def test_lsq_call_count_ip1(self, monkeypatch):
        # grid entirely past t0: E1 plus the full and the shifted convolution of
        # every order 0..M, and nothing multiplied by zero
        p = ip1_params()
        K, M = 3, 2
        table = build_mode_table(p, K)
        grid = np.linspace(1.2, 2.8, 30)
        data = FluxTrace(time_grid=grid, values=np.ones(30, dtype=complex))
        calls = self._record_prabhakar(monkeypatch)
        lsq_reconstruct(data, p, table, M)
        self._check_calls(calls, M + 2, K * (2 * (M + 1) + 1) * grid.size)

    def test_solve_evaluates_each_kernel_once(self, monkeypatch):
        # coupled data on a grid on both sides of t0: every kernel is needed
        p = ip2_params()
        K, M = 3, 2
        table = build_mode_table(p, K)
        _, phi, psi, src = self._unknowns(K, M, "ip2", seed=5)
        calls = self._record_prabhakar(monkeypatch)
        grid = np.linspace(0.0, 2.9, 30)
        solve(p, table, phi, psi, src, grid)
        # per mode: E1, the lam_hat half of q, and two kernels' full and shifted convolutions
        past = np.count_nonzero(grid > p.t0)
        self._check_calls(calls, M + 2, K * ((2 + 2 * (M + 1)) * grid.size + 2 * (M + 1) * past))
