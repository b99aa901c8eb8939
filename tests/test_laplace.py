"""Laplace-domain layer: transforms, cut limits, jump, branch machinery."""

import cmath
import math

import numpy as np
import pytest

from _oracles import flux_transform_by_quadrature
from fracflux.forward import SourceSpec
from fracflux.laplace import (
    PoleLineError,
    branch_orbit_size,
    branch_phase,
    branch_search,
    flux_transform,
    jump,
    make_jump_context,
    q_branch,
)
from fracflux.modes import ModelParams, build_mode_table
from fracflux.specfun import DomainError


def coupled_params(**kw):
    base = dict(alpha=0.7, kappa=1.0, varkappa=2.0, a=0.5, b=0.3, c=1.0, d=2.0, t0=1.0, t1=2.5)
    base.update(kw)
    return ModelParams(**base)


def make_ctx(problem="ip2", K=4, seed=0, **kw):
    if problem == "ip1":
        kw.setdefault("a", 0.0)
        kw.setdefault("b", 0.0)
        kw.setdefault("c", 0.5)
        kw.setdefault("varkappa", 1.0)
        kw.setdefault("d", 0.0)
    p = coupled_params(**kw)
    t = build_mode_table(p, K)
    rng = np.random.default_rng(seed)
    phi = rng.normal(size=K)
    psi = rng.normal(size=K) if problem == "ip2" else np.zeros(K)
    src = SourceSpec(
        degree=2,
        t0=p.t0,
        f_coeffs=rng.normal(size=(K, 3)),
        chi_coeffs=rng.normal(size=(K, 3)) if problem == "ip2" else np.zeros((K, 3)),
    )
    return make_jump_context(p, t, phi, psi, src), p, t, phi, psi, src


def one_hot(p, t, phi, psi, src, k):
    """The context in which only mode k carries data: its flux transform is gamma_k U_k."""
    keep = np.arange(t.K) == k - 1
    f, chi = (np.where(keep[:, None], c, 0.0) for c in (src.f_coeffs, src.chi_coeffs))
    one = SourceSpec(degree=src.degree, t0=src.t0, f_coeffs=f, chi_coeffs=chi)
    return make_jump_context(p, t, np.where(keep, phi, 0.0), np.where(keep, psi, 0.0), one)


class TestModeTransform:
    """The mode-k transform U_k, read through ``flux_transform`` on a one-hot context."""

    def test_zero_data_zero_transform(self):
        _, p, t, *_ = make_ctx()
        zero = SourceSpec.zero(4, 2, p.t0)
        for k in range(1, t.K + 1):
            assert flux_transform(one_hot(p, t, np.zeros(4), np.zeros(4), zero, k), 1.5 + 0.5j) == 0

    def test_decoupled_single_factor_structure(self):
        # with a = 0 the transform collapses to (F + s^(a-1) phi)/(s^a + kappa lam + c)
        _, p, t, *_ = make_ctx("ip1")
        from fracflux.laplace import _source_transforms
        from fracflux.specfun import principal_power

        s = 2.0 + 1.0j
        k = 2
        f_row = [1.0, -0.5, 0.25]
        src = SourceSpec(degree=2, t0=p.t0, f_coeffs=np.tile(f_row, (4, 1)), chi_coeffs=np.zeros((4, 3)))
        U = flux_transform(one_hot(p, t, np.full(4, 0.7), np.zeros(4), src, k), s) / t.gamma_trace[k - 1]
        num = _source_transforms(p.t0, s, f_row)[0] + principal_power(s, p.alpha - 1.0) * 0.7
        expect = num / (principal_power(s, p.alpha) + p.kappa * t.lam[k - 1] + p.c)
        assert U == pytest.approx(expect, rel=1e-13)

    def test_matches_time_domain_quadrature(self):
        _, p, t, phi, psi, src = make_ctx(seed=2)
        s = 1.0 + 0.0j
        ctx1 = one_hot(p, t, phi, psi, src, 3)
        ref1 = flux_transform_by_quadrature(p, t, ctx1.phi, ctx1.psi, ctx1.src, [s], T=80.0)[0]
        got = flux_transform(ctx1, s)
        assert abs(got - ref1) < 1e-4 * abs(ref1)

    def test_singular_at_origin(self):
        _, p, t, *_ = make_ctx()
        ctx1 = one_hot(p, t, np.ones(4), np.zeros(4), SourceSpec.zero(4, 2, p.t0), 1)
        with pytest.raises(DomainError):
            flux_transform(ctx1, 0.0)


class TestFluxTransform:
    def test_zero_data(self):
        ctx, *_ = make_ctx(seed=1)
        zero_ctx = make_jump_context(
            ctx.params, ctx.table, np.zeros(4), np.zeros(4), SourceSpec.zero(4, 2, ctx.params.t0)
        )
        assert flux_transform(zero_ctx, 2.0) == 0

    def test_matches_quadrature_on_re_axis(self):
        ctx, p, t, phi, psi, src = make_ctx(seed=3)
        svals = np.linspace(0.5, 5.0, 10)
        ref = flux_transform_by_quadrature(p, t, phi, psi, src, svals, T=100.0)
        got = np.array([flux_transform(ctx, s) for s in svals])
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-4

    def test_one_sided_limits_exist_and_differ(self):
        # read through their difference at s = -1.3: with real data the two limits
        # reflect, so the jump between them is finite, nonzero and purely imaginary
        ctx, p, *_ = make_ctx(seed=4)
        jv = jump(ctx, 1.3**p.alpha)
        assert np.isfinite([jv.real, jv.imag]).all()
        assert jv != 0
        assert abs(jv.real) <= 1e-12 * abs(jv)


class TestJump:
    def test_zero_data(self):
        ctx, p, t, *_ = make_ctx()
        zero_ctx = make_jump_context(p, t, np.zeros(4), np.zeros(4), SourceSpec.zero(4, 2, p.t0))
        for rho in (0.5, 1.0, 2.0):
            assert jump(zero_ctx, rho) == 0

    @pytest.mark.parametrize("problem", ["ip1", "ip2"])
    def test_matches_eps_extrapolated_two_sided_difference(self, problem):
        ctx, p, *_ = make_ctx(problem, seed=5)
        for rho in (0.4, 1.0, 2.7):
            r = rho ** (1.0 / p.alpha)
            jv = jump(ctx, rho)
            d = [
                flux_transform(ctx, complex(-r, e)) - flux_transform(ctx, complex(-r, -e))
                for e in (1e-2, 1e-3, 1e-4)
            ]
            extrap = (10.0 * d[2] - d[1]) / 9.0  # first-order Richardson in eps
            assert abs(jv - extrap) / abs(jv) < 1e-5

    def test_conjugate_antisymmetry_real_data(self):
        ctx, p, *_ = make_ctx(seed=6)
        rho = 1.1
        jv = jump(ctx, rho)
        upper = flux_transform(ctx, -(rho ** (1.0 / p.alpha)))  # the principal branch takes Arg = +pi there
        assert jv == pytest.approx(2j * upper.imag, rel=1e-12)

    def test_rho_positive_required(self):
        ctx, *_ = make_ctx()
        for rho in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                jump(ctx, rho)


class TestBranchFunction:
    @pytest.mark.parametrize("problem", ["ip1", "ip2"])
    def test_branch_zero_reproduces_jump(self, problem):
        ctx, *_ = make_ctx(problem, seed=7)
        for rho in (0.5, 1.0, 2.0):
            assert q_branch(ctx, 0, rho) == pytest.approx(jump(ctx, rho), rel=1e-10)

    @pytest.mark.parametrize("problem", ["ip1", "ip2"])
    @pytest.mark.parametrize("n", [1, 3])
    def test_rotated_branch_residues_match_closed_forms(self, problem, n):
        # near a pole z_k only the rational factors of Q(n, .) are singular, so its
        # contour moment is the residue closed form of fracflux.inverse with the
        # entire components at the rotated point z_k^(1/alpha) e^(i 2 pi n / alpha),
        # a check that does not go through the cut-edge series
        from fracflux import inverse

        ctx, p, *_ = make_ctx(problem, seed=19)
        epa = cmath.exp(-1j * math.pi * p.alpha)
        e = np.exp(2j * math.pi * np.arange(64) / 64)
        for k in (1, 2, 3):
            radii = dict(zip(("breve", "hat"), ctx.pole_radii(k)))
            for which, root in radii.items():
                pole = ctx.pole(k, which)
                rad = inverse._safe_radius(ctx, root, inverse._pole_gap(ctx, k, which))
                contour = np.mean(q_branch(ctx, n, pole + rad * e) * rad * e)
                w = pole ** (1.0 / p.alpha) * branch_phase(p.alpha, n)
                if problem == "ip1":
                    g1, g2 = ctx.g_eval(k, w)
                    closed = epa * g1 + pole * g2
                else:
                    other = radii["hat" if which == "breve" else "breve"]
                    closed = epa * inverse._relation_direct(ctx, k, root, w) / (other - root)
                assert abs(contour - closed) <= 1e-12 * abs(closed), (k, which)

    def test_zero_data_all_branches(self):
        ctx, p, t, *_ = make_ctx()
        zero_ctx = make_jump_context(p, t, np.zeros(4), np.zeros(4), SourceSpec.zero(4, 2, p.t0))
        for n in (0, 1, 5, 20):
            assert q_branch(zero_ctx, n, 1.3) == 0

    def test_pole_ray_rejected(self):
        ctx, p, *_ = make_ctx()
        z = 2.0 * cmath.exp(1j * math.pi * (1 - p.alpha))
        with pytest.raises(PoleLineError):
            q_branch(ctx, 0, z)
        with pytest.raises(PoleLineError):
            q_branch(ctx, 0, 0.0)

    def test_pole_geometry(self):
        # every advertised pole sits on the ray Arg z = pi (1 - alpha)
        for problem in ("ip1", "ip2"):
            ctx, p, *_ = make_ctx(problem, seed=8)
            for k in range(1, ctx.K + 1):
                for which in ("breve", "hat")[: len(ctx.pole_radii(k))]:
                    pole = ctx.pole(k, which)
                    assert abs(cmath.phase(pole) - math.pi * (1 - p.alpha)) < 1e-12

    def test_g_family_entire_beyond_explicit_pole(self):
        # winding integral of G_{k,1} + G_{k,2} around 0 equals the explicit
        # -phi_k gamma_k residue; G_{k,1} alone contributes nothing
        ctx, p, t, phi, *_ = make_ctx(seed=9)
        k = 2
        nodes = 64
        th = 2 * np.pi * np.arange(nodes) / nodes
        r0 = 0.7
        zs = r0 * np.exp(1j * th)
        gs = [ctx.g_eval(k, z) for z in zs]
        total = sum(g[0] * z + g[1] * z for z, g in zip(zs, gs)) / nodes
        expected = -phi[k - 1] * t.gamma_trace[k - 1]
        assert abs(total - expected) < 1e-8
        only_entire = sum(g[0] * z for z, g in zip(zs, gs)) / nodes
        assert abs(only_entire) < 1e-10

    @pytest.mark.parametrize("problem", ["ip1", "ip2"])
    @pytest.mark.parametrize("k", [0, 5])
    @pytest.mark.parametrize("call", ["g_eval", "pole_radii", "pole"])
    def test_mode_index_outside_1_to_K_rejected(self, call, k, problem):
        # k = 0 once read mode K through k - 1 = -1, and k = K + 1 ended in an IndexError
        ctx, *_ = make_ctx(problem, K=4)
        calls = {
            "g_eval": lambda: ctx.g_eval(k, 1.5 + 0.5j),
            "pole_radii": lambda: ctx.pole_radii(k),
            "pole": lambda: ctx.pole(k),
        }
        with pytest.raises(ValueError, match=rf"mode {k} outside 1\.\.4"):
            calls[call]()
        column = np.arange(4)[:, None] + (0 if k == 0 else 2)  # modes 0..3 or 2..5
        with pytest.raises(ValueError, match=r"outside 1\.\.4"):
            ctx.g_eval(column, np.array([1.5 + 0.5j]))


class TestBranchSearch:
    def test_exact_hit_by_construction(self):
        alpha = 1.0 / math.sqrt(2.0)
        y = 2.0 * math.pi * math.fmod(1.0 / alpha, 1.0)
        assert branch_search(alpha, y, 1e-12, 10) == 1

    def test_scan_value_verified_by_oracle(self):
        # brute scan before the build found 408 as the first index for y = 0
        assert branch_search(1.0 / math.sqrt(2.0), 0.0, 0.01, 5000) == 408

    def test_rational_alpha_unreachable(self):
        assert branch_search(0.5, math.pi / 2, 0.1, 10000) is None

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            branch_search(0.7, 0.0, 0.0, 100)

    def test_orbit_sizes_rational(self):
        # branch factors e^(2 pi i n / alpha) for alpha = p/q in lowest terms
        # take exactly p distinct values (fractional parts of n q / p)
        assert branch_orbit_size(0.5) == 1
        assert branch_orbit_size(0.75) == 3
        assert branch_orbit_size(2.0 / 3.0) == 2
        assert branch_orbit_size(0.8) == 4

    def test_orbit_size_irrational_fills_scan(self):
        assert branch_orbit_size(1.0 / math.sqrt(2.0), n_max=500) == 500

    def test_branch_phase_reduction(self):
        # the phase is reduced before exponentiation, so huge n stay accurate
        alpha = 0.7
        n = 4900
        direct = cmath.exp(2j * math.pi * (n / alpha - math.floor(n / alpha)))
        assert branch_phase(alpha, n) == pytest.approx(direct, abs=1e-9)


class TestArrayPath:
    """Every evaluator takes an array of points through one code path; a
    point's value does not depend, bit for bit, on the other points of its call."""

    @staticmethod
    def off_ray_points(rng, alpha, n):
        # |z|^(1/alpha) from 0.3 to 6 straddles |w| = m + 1 for every source degree m
        radii = rng.uniform(0.3, 6.0, n) ** alpha
        ray = math.pi * (1.0 - alpha)
        angles = rng.uniform(-math.pi, math.pi, n)
        angles = np.where(np.abs(np.abs(angles) - ray) < 1e-3, angles + 0.01, angles)
        return radii * np.exp(1j * angles)

    @staticmethod
    def assert_splits_match(fn, zs):
        joint = fn(zs)
        for i in range(0, zs.size, 3):
            z = zs[i : i + 1 + i % 3]  # one to three points split off the joint call
            assert fn(z).tobytes() == joint[i : i + z.size].tobytes(), z

    #: (problem, K)
    CASES = [("ip1", 4), ("ip2", 4), ("ip2", 30)]

    @pytest.mark.parametrize("problem, K", CASES)
    def test_q_branch_split_calls_match_the_joint_call_bitwise(self, problem, K):
        ctx, p, *_ = make_ctx(problem, K=K, seed=11)
        zs = self.off_ray_points(np.random.default_rng(12), p.alpha, 60)
        for n in (0, 3):
            self.assert_splits_match(lambda z: q_branch(ctx, n, z), zs)

    @pytest.mark.parametrize("problem, K", CASES)
    def test_flux_transform_split_calls_match_the_joint_call_bitwise(self, problem, K):
        ctx, *_ = make_ctx(problem, K=K, seed=13)
        rng = np.random.default_rng(14)
        ss = rng.uniform(0.2, 6.0, 60) * np.exp(1j * rng.uniform(-0.99, 0.99, 60) * math.pi)
        self.assert_splits_match(lambda s: flux_transform(ctx, s), ss)
        self.assert_splits_match(lambda rho: jump(ctx, rho), rng.uniform(0.2, 3.0, 30))

    def test_array_call_equals_scalar_calls(self):
        ctx, p, *_ = make_ctx(seed=15)
        zs = self.off_ray_points(np.random.default_rng(16), p.alpha, 12)
        vals = q_branch(ctx, 0, zs.reshape(3, 4))
        assert vals.shape == (3, 4)
        assert vals.ravel().tolist() == [q_branch(ctx, 0, complex(z)) for z in zs]
        assert isinstance(q_branch(ctx, 0, complex(zs[0])), complex)

    def test_pole_line_error_names_the_element_on_the_ray(self):
        ctx, p, *_ = make_ctx()
        zs = self.off_ray_points(np.random.default_rng(17), p.alpha, 5)
        zs[3] = 2.0 * cmath.exp(-1j * math.pi * (1 - p.alpha))
        with pytest.raises(PoleLineError, match=r"z\[3\]"):
            q_branch(ctx, 0, zs)

    @pytest.mark.parametrize("x", [math.nan, math.inf, complex(1.0, math.nan)])
    @pytest.mark.parametrize("call", ["flux_transform", "q_branch"])
    def test_non_finite_point_rejected(self, call, x):
        ctx, *_ = make_ctx()
        calls = {
            "flux_transform": lambda: flux_transform(ctx, [1.0, x]),
            "q_branch": lambda: q_branch(ctx, 0, [1.0, x]),
        }
        with pytest.raises(DomainError, match="finite"):
            calls[call]()

    @pytest.mark.parametrize(
        "problem, kw, moments",
        [
            ("ip1", {}, 1),
            ("ip2", {}, 2),  # distinct roots: one simple pole each
            ("ip2", dict(kappa=1.0, varkappa=1.0, a=0.8, b=0.0, c=1.5, d=1.5), 1),  # one double pole
        ],
    )
    def test_one_q_branch_call_per_contour_moment(self, monkeypatch, problem, kw, moments):
        from fracflux import inverse

        ctx, *_ = make_ctx(problem, seed=18, **kw)
        calls = []
        original = inverse.q_branch

        def counted(ctx, n, z, *args, **kwargs):
            calls.append(np.size(z))
            return original(ctx, n, z, *args, **kwargs)

        monkeypatch.setattr(inverse, "q_branch", counted)
        for mode in (1, 2):
            calls.clear()
            if problem == "ip1":
                rep = inverse.residue_ip1(ctx, mode)
            else:
                rr = inverse.residue_ip2(ctx, mode)
                assert rr.coalescent == (moments == 1)
                rep = rr.report_breve
            assert calls == [inverse._CONTOUR_NODES] * moments
            assert rep.rel_error < 1e-6
