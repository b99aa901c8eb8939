"""Prabhakar engine and special-function utilities."""

import math
import pathlib
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from _oracles import prabhakar_reference
from fracflux.specfun import (
    AccuracyError,
    DomainError,
    PrabhakarParams,
    laplace_identity_residual,
    monomial_laplace_truncated,
    prabhakar,
    prabhakar_array,
    prabhakar_diag,
    principal_power,
    sector_decay_report,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]


class TestPrabhakarValues:
    def test_exponential_case(self):
        p = PrabhakarParams(1.0, 1.0, 1.0)
        assert prabhakar(p, 0.7) == pytest.approx(math.exp(0.7), rel=1e-12)

    def test_value_at_zero_is_reciprocal_gamma(self):
        for beta in (1.0, 0.4, 2.2):
            p = PrabhakarParams(0.5, beta, 2.0)
            assert prabhakar(p, 0.0) == pytest.approx(1.0 / math.gamma(beta), rel=1e-15)

    def test_erfc_identity(self):
        # E_{1/2,1}(-x) = exp(x^2) erfc(x), confirmed against the direct
        # high-precision series before the build
        p = PrabhakarParams(0.5, 1.0, 1.0)
        assert prabhakar(p, -1.0) == pytest.approx(0.4275835761558070044, rel=1e-11)
        x = np.linspace(0.1, 5.0, 12)
        vals = prabhakar_array(p, -x)
        ref = np.exp(x**2) * erfc(x)
        assert np.max(np.abs(vals - ref) / ref) < 1e-8

    @pytest.mark.parametrize(
        "alpha,beta,gamma,xmax",
        [(0.3, 1.0, 1.0, 5.0), (0.6, 0.6, 2.0, 25.0), (0.85, 1.7, 2.0, 40.0)],
    )
    def test_against_reference_series_across_regimes(self, alpha, beta, gamma, xmax):
        # the reference series costs |z|**(1/alpha) digits, so cap x per alpha
        p = PrabhakarParams(alpha, beta, gamma)
        for x in np.geomspace(0.3, xmax, 4):
            ref = prabhakar_reference(alpha, beta, gamma, -x)
            assert prabhakar(p, -x) == pytest.approx(ref, rel=5e-10)

    def test_complex_sector_argument(self):
        p = PrabhakarParams(0.6, 1.0, 2.0)
        z = -(18.0 + 8.5j)
        ref = prabhakar_reference(0.6, 1.0, 2.0, z)
        assert prabhakar(p, z) == pytest.approx(ref, rel=1e-9)

    def test_reference_resolves_exponentially_small_values(self):
        # E^3_{1,1}(z) = 1F1(3; 1; z) is 1.786e-40 at z = -100, below the
        # cancellation of its series; too few digits returned 1.648e-35
        import mpmath as mp

        ref = prabhakar_reference(1.0, 1.0, 3.0, -100.0)
        assert ref == pytest.approx(complex(mp.hyp1f1(3, 1, -100)), rel=1e-12)

    def test_error_estimates_reported(self):
        p = PrabhakarParams(0.6, 1.0, 1.0)
        vals, est = prabhakar_diag(p, [-0.5, -50.0, -800.0])
        assert est.max() < 1e-10
        assert np.isfinite(vals).all()

    def test_accuracy_failure_raises_with_estimate(self):
        # far outside every route: huge argument in the growth direction, where
        # no route resolves the point, so it raises at once
        for gamma in (1.0, 2.0):
            p = PrabhakarParams(0.3, 1.0, gamma)
            start = time.perf_counter()
            with pytest.raises(AccuracyError, match="no route resolved it") as exc:
                prabhakar(p, 1.0e4)
            assert time.perf_counter() - start < 2.0
            assert exc.value.error_estimate == math.inf
            # an exit-3 message names the kernel as well as the argument
            assert f"(alpha, beta, gamma) = (0.3, 1.0, {gamma})" in str(exc.value)
            assert "z=(10000+0j)" in str(exc.value)

    @pytest.mark.parametrize("z", [math.nan, math.inf, complex(1.0, math.nan)])
    def test_non_finite_argument_rejected_before_any_route(self, monkeypatch, z):
        from fracflux import specfun

        def no_route(*args):
            raise AssertionError("a route ran on a non-finite argument")

        for route in ("_asym_route", "_series_route", "_contour_route"):
            monkeypatch.setattr(specfun, route, no_route)
        with pytest.raises(DomainError, match=re.escape(f"z must be finite, got {complex(z)!r}")):
            prabhakar_array(PrabhakarParams(0.5, 1.0, 1.0), [0.5, z])

    def test_non_finite_beta_rejected(self):
        for beta in (math.nan, math.inf):
            with pytest.raises(DomainError, match="beta must be finite"):
                PrabhakarParams(0.5, beta, 1.0)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            PrabhakarParams(1.2, 1.0, 1.0)
        with pytest.raises(DomainError):
            PrabhakarParams(0.5, -0.1, 1.0)
        # the solver builds gamma 1 and 2 only
        for gamma in (0.0, 0.5, 1.5, 3.0, math.nan):
            with pytest.raises(DomainError, match="gamma must be 1 or 2"):
                PrabhakarParams(0.5, 1.0, gamma)


@settings(max_examples=30, deadline=None)
@given(
    alpha=st.floats(0.3, 0.95),
    # keep |z|**(1/alpha) modest so even out-of-sector angles stay cheap
    r=st.floats(0.05, 4.0),
    ang=st.floats(-3.1, 3.1),
    gamma=st.sampled_from([1.0, 2.0]),
)
def test_conjugation_symmetry(alpha, r, ang, gamma):
    p = PrabhakarParams(alpha, 1.0, gamma)
    z = r * np.exp(1j * ang)
    up = prabhakar(p, z)
    dn = prabhakar(p, np.conj(z))
    assert up == pytest.approx(np.conj(dn), rel=0, abs=0)  # exact by construction


class TestPoleBand:
    """Arguments whose pole s* of (s^alpha + xi)^(-gamma), xi = -z, lies near the
    contour route's fixed parabola: Re sqrt(s*) from 0.5 to 1.5 times sqrt(2 pi),
    Arg(-z) up to 0.99 of the half-angle, over the solver's beta range
    alpha .. 2 alpha + M + 1 (M = 3)."""

    @staticmethod
    def band(alpha):
        half = (2.0 - alpha) * math.pi / 2.0
        zs = []
        for phi in np.linspace((1.0 - alpha) * math.pi + 0.02, 0.99 * half, 4):
            arg_pole = (phi - math.pi) / alpha
            for rel in np.linspace(0.5, 1.5, 5):  # rel = 1 puts s* on the parabola
                pole = 2.0 * math.pi * rel**2 / math.cos(arg_pole / 2.0) ** 2
                if pole <= 36.0:  # |z|^(1/alpha) bounds the cost of the reference series
                    zs.append(-(pole**alpha) * np.exp(1j * phi))
        return np.array(zs)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9, 0.99])
    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    def test_values_and_contour_estimates(self, alpha, gamma):
        from fracflux.specfun import TARGET, _contour_route

        zs = self.band(alpha)
        for beta in np.linspace(alpha, 2.0 * alpha + 4.0, 3):
            vals, _ = prabhakar_diag(PrabhakarParams(alpha, beta, gamma), zs)
            cvals, cest = _contour_route(alpha, beta, gamma, zs)
            assert (cest <= TARGET).all()  # the contour route resolves every point of the band
            for z, v, cv, ce in zip(zs, vals, cvals, cest):
                ref = prabhakar_reference(alpha, beta, gamma, z)
                assert abs(v - ref) <= 1e-10 * abs(ref)
                assert abs(cv - ref) <= ce * abs(ref)


class TestAccuracySweep:
    """The accuracy contract over the solver's argument domain: alpha from 0.1 to
    0.99, gamma in {1, 2}, beta from alpha to 2 alpha + M + 1 (M = 3), |z| from
    0.05 to 40**alpha and Arg(-z) from 0 to 0.99 of the half-angle.  Every kernel
    is evaluated on the whole 8 x 6 polar lattice; a seeded sample of 6 lattice
    points per kernel is checked against the reference series, which costs
    milliseconds per point."""

    @pytest.mark.parametrize("alpha", [0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.99])
    def test_values_and_estimates_against_reference(self, alpha):
        half = (2.0 - alpha) * math.pi / 2.0
        radii = np.geomspace(0.05, 40.0**alpha, 8)
        angles = np.linspace(0.0, 0.99, 6) * half
        zs = -(radii[:, None] * np.exp(1j * angles[None, :])).ravel()
        rng = np.random.default_rng(round(100 * alpha))
        for gamma in (1.0, 2.0):
            for beta in (alpha, 1.0, alpha + 1.0, 2.0 * alpha + 1.0, 2.0 * alpha + 4.0):
                vals, est = prabhakar_diag(PrabhakarParams(alpha, beta, gamma), zs)
                assert (est <= 1e-10).all()
                for i in rng.choice(zs.size, 6, replace=False):
                    ref = prabhakar_reference(alpha, beta, gamma, zs[i])
                    err = abs(vals[i] - ref) / abs(ref)
                    assert err <= 1e-10, (beta, gamma, zs[i], err)
                    assert err <= est[i], (beta, gamma, zs[i], err, est[i])


class TestAsymptoticRounding:
    """Points where the asymptotic route is exact to a few eps, so its estimate is
    its rounding bound alone.  There the argument x = b - a (gamma + k) of
    1/Gamma lies near or on a pole of Gamma, and the rounding of x was once the
    largest error and missing from the estimate."""

    @pytest.mark.parametrize(
        "alpha, beta, gamma, r",
        [
            # a crime kernel: x rounds onto the pole -8 at k = 10, and the cut lies past it
            (0.9, 1.9, 1.0, 30.0),
            (0.9, 1.9, 1.0, 60.0),
            (0.99, 0.99, 2.0, 60.0),
        ],
    )
    def test_estimate_bounds_the_error(self, alpha, beta, gamma, r):
        from fracflux.specfun import _asym_route

        zs = r * np.exp(1j * np.linspace(0.0, math.pi, 13)[9:])  # Arg z / pi = 0.75, 0.833, 0.917, 1
        vals, est = _asym_route(alpha, beta, gamma, zs)
        for z, v, e in zip(zs, vals, est):
            ref = prabhakar_reference(alpha, beta, gamma, z)
            assert abs(v - ref) <= e * abs(ref), (z, abs(v - ref) / abs(ref), e)

    @pytest.mark.parametrize("alpha", [0.7, 0.9, 0.99])
    def test_estimate_bounds_an_argument_rounded_onto_a_pole(self, alpha):
        # b - a (g + k) is the integer -m in doubles but not exactly, so term k
        # comes out as 0 though it is not, and the estimate must count the
        # rounding of that argument
        from fractions import Fraction

        from fracflux.specfun import _asym_route

        beta, gamma, k, m = {0.7: (1.5, 2.0, 3, 2), 0.9: (2.7, 2.0, 1, 0), 0.99: (2.95, 2.0, 3, 2)}[alpha]
        assert beta - alpha * (gamma + k) == -m
        assert Fraction(beta) - Fraction(alpha) * int(gamma + k) != -m
        zs = -np.geomspace(20.0, min(60.0, 150.0**alpha), 3)  # their cuts lie at k = 19 or later
        vals, est = _asym_route(alpha, beta, gamma, zs)
        for z, v, e in zip(zs, vals, est):
            ref = prabhakar_reference(alpha, beta, gamma, z)
            assert abs(v - ref) <= e * abs(ref), (z, abs(v - ref) / abs(ref), e)


class TestAsymptoticEarlyStop:
    """``_asym_route`` sums its expansion a block of rows at a time and drops a
    point once it is provably past its envelope minimum or its envelope is
    negligible.  It must give the cut of the full 70-term table: alpha from 0.1
    to 1, beta from alpha to 4.9, gamma in {1, 2}, |s*| = |z|^(1/alpha) from 4
    to 1e4 and Arg(-z) up to 0.9995 of the half-angle."""

    def test_matches_the_full_table(self):
        from _oracles import asym_route_full_table
        from fracflux.specfun import TARGET, _asym_route

        accepted_total = moved_total = 0
        for alpha in (0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.9, 0.99, 1.0):
            angles = np.linspace(0.0, 0.9995, 13) * (2.0 - alpha) * math.pi / 2.0
            zs = -(np.geomspace(4.0, 1e4, 40)[:, None] ** alpha * np.exp(1j * angles[None, :])).ravel()
            for beta in (alpha, 1.0, alpha + 1.0, 2.0 * alpha + 1.0, 2.0 * alpha + 2.3, alpha + 3.0, 4.9):
                for gamma in (1.0, 2.0):
                    key = (alpha, beta, gamma)
                    vals, est = _asym_route(alpha, beta, gamma, zs)
                    ref_vals, ref_est = asym_route_full_table(alpha, beta, gamma, zs)
                    accepted = ref_est <= TARGET
                    assert ((est <= TARGET) == accepted).all(), key
                    # a later, smaller envelope row than a negligible one moves
                    # the estimate by at most 100 times the negligible fraction
                    assert (est <= ref_est + 100.0 * 2.0**-60).all(), key
                    # and never below it: the table's rounding bound counts the
                    # terms rounded onto a pole of Gamma, and so must the route's
                    assert (est[accepted] >= ref_est[accepted] - 100.0 * 2.0**-60).all(), key
                    # a point that stops past its minimum keeps the table's
                    # cut, hence its estimate and its value, bit for bit
                    same_est = est.view(np.int64) == ref_est.view(np.int64)
                    same_val = (vals.view(np.int64).reshape(-1, 2) == ref_vals.view(np.int64).reshape(-1, 2)).all(1)
                    assert (same_val | ~same_est | ~accepted).all(), key
                    moved = accepted & ~same_val
                    rel = np.abs(vals[moved] - ref_vals[moved]) / np.abs(ref_vals[moved])
                    assert (rel <= 1e-16).all(), (key, rel.max())
                    accepted_total += accepted.sum()
                    moved_total += moved.sum()
        assert accepted_total > 40000  # the lattice reaches the accepted region
        assert moved_total <= accepted_total // 1000, moved_total


class TestGammaPort:
    """``_rgamma`` and ``_gamma``, the ports of scipy's that the evaluator calls,
    and ``_psi`` and ``math.lgamma``, which feed the asymptotic route's rounding
    weights and stop tables."""

    def test_bit_identical_to_the_scipy_table(self):
        # tests/data/gamma_table.txt holds scipy 1.17.1's values, written by
        # _oracles.write_gamma_table; the values of bench/reference rest on them
        from _oracles import gamma_table_points
        from fracflux.specfun import _gamma, _rgamma

        lines = (ROOT / "tests" / "data" / "gamma_table.txt").read_text().splitlines()
        rows = [line.split() for line in lines if not line.startswith("#")]
        assert [r[0] for r in rows] == [x.hex() for x in gamma_table_points()]
        got = [(x, _rgamma(float.fromhex(x)).hex(), _gamma(float.fromhex(x)).hex()) for x, _, _ in rows]
        wrong = [(want, have) for want, have in zip(map(tuple, rows), got) if want != have]
        assert not wrong, wrong[:5]

    def test_psi_and_lgamma_on_the_asymptotic_table(self):
        # near a zero of psi or of log Gamma the rounding of the argument alone
        # moves the value by more than 1e-13 of itself: at b - a (g + k) =
        # 1 - 0.73 * 49, where psi is -3.7e-4, scipy's psi is off by 2.0e-12
        # relative and _psi by 2.5e-12.  The error is therefore measured
        # against max(|value|, 1), which is relative where |value| >= 1
        import mpmath as mp

        from _oracles import asym_table_args, solver_gamma_params
        from fracflux.specfun import _psi

        worst_psi = worst_lgamma = 0.0
        with mp.workdps(30):
            for a, b, g in solver_gamma_params(alphas=(0.1, 0.45, 0.73, 0.9, 0.99)):
                for x in asym_table_args(a, b, g):
                    if not (x <= 0.0 and x.is_integer()):
                        ref = float(mp.digamma(x))
                        worst_psi = max(worst_psi, abs(_psi(x) - ref) / max(abs(ref), 1.0))
                    y = x if x > 0.0 else 1.0 - x
                    ref = float(mp.loggamma(y))
                    worst_lgamma = max(worst_lgamma, abs(math.lgamma(y) - ref) / max(abs(ref), 1.0))
        assert worst_psi <= 1e-13 and worst_lgamma <= 1e-13, (worst_psi, worst_lgamma)


class TestBatchInvariance:
    """A point's value and estimate do not depend on the other points of its
    call, so the solver may put every kernel of one (alpha, beta, gamma) into one
    call.  Points come from the solver's domain: alpha from 0.1 to 0.99, gamma in
    {1, 2}, beta from alpha to 2 alpha + 4, |Arg(-z)| below 0.99 of the
    half-angle (a quarter of them on the negative real axis), |z| from 0.05 to
    1000."""

    @staticmethod
    def points(rng, alpha, n):
        half = (2.0 - alpha) * math.pi / 2.0
        radii = np.exp(rng.uniform(math.log(0.05), math.log(1e3), n))
        angles = np.where(rng.random(n) < 0.25, 0.0, rng.uniform(-0.99, 0.99, n) * half)
        return -radii * np.exp(1j * angles)

    @staticmethod
    def assert_splits_match(p, zs):
        vals, est = prabhakar_diag(p, zs)
        for i in range(0, zs.size, 3):
            z = zs[i : i + 1 + i % 3]  # one to three points split off the joint call
            v, e = prabhakar_diag(p, z)
            assert v.tobytes() == vals[i : i + z.size].tobytes(), (p, z)
            assert e.tobytes() == est[i : i + z.size].tobytes(), (p, z)

    def test_split_calls_match_the_joint_call_bitwise(self):
        rng = np.random.default_rng(6)
        for _ in range(12):
            alpha = rng.uniform(0.1, 0.99)
            p = PrabhakarParams(alpha, rng.uniform(alpha, 2.0 * alpha + 4.0), float(rng.choice([1.0, 2.0])))
            self.assert_splits_match(p, self.points(rng, alpha, 48))

    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    def test_third_parabola_points_mixed_with_ordinary_ones(self, monkeypatch, gamma):
        # alpha = 0.99 on the negative real axis at |z|^(1/alpha) of 15 to 40:
        # the values are small against the contour terms, and only the contour
        # route's third, narrow parabola resolves some of these points
        from fracflux import specfun

        narrow = []
        original = specfun._contour_sum

        def counted(a, b, g, xi, has_pole, sstar, mu, h, n):
            if np.ndim(mu) == 0 and mu == specfun._NARROW_MU:
                narrow.append(xi.size)
            return original(a, b, g, xi, has_pole, sstar, mu, h, n)

        monkeypatch.setattr(specfun, "_contour_sum", counted)
        rng = np.random.default_rng(8)
        zs = np.concatenate([-np.geomspace(15.0, 40.0, 12) ** 0.99, self.points(rng, 0.99, 36)])
        rng.shuffle(zs)
        self.assert_splits_match(PrabhakarParams(0.99, 1.0, gamma), zs)
        assert narrow and max(narrow) >= 3  # several such points in the joint call

    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    def test_asymptotic_active_set_mixed_in_one_call(self, gamma):
        # the asymptotic route drops each point from its active set on its own
        # stop rule.  At alpha = 0.3, |s*| = |z|^(1/alpha) of 4.5 to 12 stops past
        # the envelope minimum, 25 to 50 runs to the 70-row cap, and 1e11 to 1e12
        # stops on a negligible row of the first block
        rng = np.random.default_rng(9)
        half = (2.0 - 0.3) * math.pi / 2.0
        pows = np.concatenate([np.geomspace(4.5, 12.0, 8), np.geomspace(25.0, 50.0, 8), np.geomspace(1e11, 1e12, 8)])
        zs = -(pows**0.3) * np.exp(1j * rng.uniform(-0.99, 0.99, pows.size) * half)
        zs = np.concatenate([zs, self.points(rng, 0.3, 24)])
        rng.shuffle(zs)
        self.assert_splits_match(PrabhakarParams(0.3, 1.0, gamma), zs)


class TestRouteOrder:
    """The asymptotic route runs first, only where its expansion holds; the
    series gets only the points it leaves."""

    @pytest.mark.parametrize("alpha", [0.1, 0.2, 0.3])
    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    def test_asymptotic_route_declines_small_arguments_at_the_sector_edge(self, alpha, gamma):
        # the pole term |s*|^(1 - beta) e^(s*) / alpha is huge here and cancels
        # against the branch-cut integral, which swamps the relative estimate
        from fracflux.specfun import TARGET, _asym_route

        beta = 2.0 * alpha + 4.0
        zs = -np.geomspace(0.05, 0.4, 8) * np.exp(0.98j * (2.0 - alpha) * math.pi / 2.0)
        _, est = _asym_route(alpha, beta, gamma, zs)
        assert (est > TARGET).all()
        vals, _ = prabhakar_diag(PrabhakarParams(alpha, beta, gamma), zs)
        for z, v in zip(zs, vals):
            ref = prabhakar_reference(alpha, beta, gamma, z)
            assert abs(v - ref) <= 1e-10 * abs(ref)

    def test_series_gets_no_point_the_asymptotic_route_takes(self, monkeypatch):
        # the crime kernels E^1_{0.9, beta}(-lam t^0.9) on the crime time grids
        from fracflux import specfun
        from fracflux.config import load_config
        from fracflux.modes import build_mode_table

        cfg = load_config((ROOT / "configs" / "ip1_crime.cfg").read_text())
        table = build_mode_table(cfg.model, cfg.K)
        alpha = cfg.model.alpha
        t = np.concatenate([cfg.time_grid(), cfg.observation_grid()])
        zs = -np.concatenate([lam * t**alpha for lam in np.unique(np.r_[table.lam_breve, table.lam_hat])])
        handed = []
        original = specfun._series_route

        def counted(a, b, g, z):
            handed.append(np.array(z))
            return original(a, b, g, z)

        monkeypatch.setattr(specfun, "_series_route", counted)
        for beta in (1.0, 1.9, 2.9, 3.9, 4.9):
            handed.clear()
            prabhakar_diag(PrabhakarParams(alpha, beta, 1.0), zs)
            series_points = np.concatenate(handed)
            assert series_points.size  # the small arguments still need the series
            _, est = specfun._asym_route(alpha, beta, 1.0, series_points)
            assert not (est <= specfun.TARGET).any(), f"beta {beta}: {np.sum(est <= specfun.TARGET)} points"

    @pytest.mark.parametrize("beta,gamma", [(2.0, 1.0), (3.0, 2.0)])
    def test_alpha_one_against_kummer(self, beta, gamma):
        # E^g_{1,b}(z) = 1F1(g; b; z) / Gamma(b).  On the negative real axis the
        # pole s* = z of (s + xi)^(-g) belongs to the asymptotic expansion, which
        # runs before the series and adds its residue
        import mpmath as mp

        x = np.geomspace(4.0, 60.0, 6)
        vals = prabhakar_array(PrabhakarParams(1.0, beta, gamma), -x)
        with mp.workdps(40):
            refs = [complex(mp.hyp1f1(gamma, beta, -xv) * mp.rgamma(beta)) for xv in x]
        for v, ref in zip(vals, refs):
            assert abs(v - ref) <= 1e-10 * abs(ref)

    def test_mpmath_series_against_kummer_at_fractional_gamma(self):
        # the series coefficients are Gamma(g + n) / (Gamma(g) n!), 1 at n = 0
        import mpmath as mp

        from fracflux.specfun import _mp_series_scalar

        with mp.workdps(40):
            ref = complex(mp.hyp1f1(1.5, 1.0, -10.0))
        assert _mp_series_scalar(1.0, 1.0, 1.5, -10.0) == pytest.approx(ref, rel=1e-12)

    def test_points_past_the_sector_edge_resolve_in_double_precision(self):
        # just outside the sector, past the series radius, these six points once
        # went to an arbitrary-precision series that cost 25 s without a budget
        p = PrabhakarParams(0.99, 0.99, 1.0)
        zs = -np.linspace(20.0, 600.0, 6) * np.exp(1.02j * p.sector_half_angle)
        start = time.perf_counter()
        vals, est = prabhakar_diag(p, zs)
        assert time.perf_counter() - start < 2.0
        assert (est <= 1e-10).all()
        for z, v, e in zip(zs[:3], vals, est):  # the reference costs about 1.5 s at |z| = 20, 136, 252
            ref = prabhakar_reference(0.99, 0.99, 1.0, z)
            assert abs(v - ref) <= e * abs(ref)

    @pytest.mark.parametrize("r", [10.0, 25.0, 40.0])
    def test_unresolved_point_raises_at_once(self, r):
        # on the positive real axis the residue e^(s*) at |s*| = r^(1/alpha) >= 2154
        # overflows a double: every route declines the point and it raises at
        # once, with an infinite estimate rather than a bare ValueError
        for gamma in (1.0, 2.0):
            p = PrabhakarParams(0.3, 1.0, gamma)
            start = time.perf_counter()
            with pytest.raises(AccuracyError, match="no route resolved it") as exc:
                prabhakar(p, r)
            assert time.perf_counter() - start < 2.0
            assert exc.value.error_estimate == math.inf


class TestOutOfSector:
    """Arguments outside the sector, |Arg z| < alpha pi / 2, where the pole s* of
    (s^alpha + xi)^(-gamma) lies in the right half-plane and its residue e^(s*)
    dominates the value.  The series route's safety factor holds only inside the
    sector: when it still took these points up to |z| = 60, one estimate of this
    sample fell below its error by a factor 3.1.  The contour route takes them,
    with the residue added outside its parabola."""

    def test_values_and_estimates_against_reference(self):
        rng = np.random.default_rng(2)
        for _ in range(14):
            alpha = rng.uniform(0.1, 0.99)
            p = PrabhakarParams(alpha, rng.uniform(alpha, 2.0 * alpha + 4.0), float(rng.choice([1.0, 2.0])))
            pole = math.exp(rng.uniform(math.log(30.0), math.log(150.0)))  # |s*| = |z|^(1/alpha)
            z = pole**alpha * np.exp(1j * rng.uniform(-0.99, 0.99) * alpha * math.pi / 2.0)
            vals, est = prabhakar_diag(p, [z])
            assert est[0] <= 1e-10, (p, z)
            ref = prabhakar_reference(p.alpha, p.beta, p.gamma, z)
            assert abs(vals[0] - ref) <= est[0] * abs(ref), (p, z, abs(vals[0] - ref) / abs(ref), est[0])

    def test_small_poles_against_reference(self):
        # |s*| from 0.05 to 30, the positive real axis included: points the
        # series took while it ran outside the sector, now the contour's
        rng = np.random.default_rng(5)
        for _ in range(14):
            alpha = rng.uniform(0.1, 0.99)
            p = PrabhakarParams(alpha, rng.uniform(alpha, 2.0 * alpha + 4.0), float(rng.choice([1.0, 2.0])))
            pole = math.exp(rng.uniform(math.log(0.05), math.log(30.0)))
            z = pole**alpha * np.exp(1j * rng.uniform(0.0, 0.99) * alpha * math.pi / 2.0)
            vals, est = prabhakar_diag(p, [z, z.real])
            for zi, v, e in zip((z, z.real), vals, est):
                assert e <= 1e-10, (p, zi)
                ref = prabhakar_reference(p.alpha, p.beta, p.gamma, zi)
                assert abs(v - ref) <= e * abs(ref), (p, zi, abs(v - ref) / abs(ref), e)

    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    def test_alpha_one_and_small_poles(self, gamma):
        # E^g_{1,b}(x) = 1F1(g; b; x) / Gamma(b) on the positive axis, and
        # (0.9, 0.9) at |s*| from 0.26 to 28: outside the sector, where the
        # contour takes the points and adds the residue of their pole
        import mpmath as mp

        for x in (0.5, 2.0, 10.0):
            for beta in (2.0, 0.7):
                with mp.workdps(40):
                    ref = complex(mp.hyp1f1(gamma, beta, x) * mp.rgamma(beta))
                vals, est = prabhakar_diag(PrabhakarParams(1.0, beta, gamma), [x])
                assert est[0] <= 1e-10 and abs(vals[0] - ref) <= est[0] * abs(ref), (x, beta)
        p = PrabhakarParams(0.9, 0.9, gamma)
        for z in (1.0, 0.3, 5.0 * np.exp(0.6j * 0.9 * math.pi / 2.0), 20.0 * np.exp(-0.3j * 0.9 * math.pi / 2.0)):
            vals, est = prabhakar_diag(p, [z])
            ref = prabhakar_reference(0.9, 0.9, gamma, z)
            assert est[0] <= 1e-10 and abs(vals[0] - ref) <= est[0] * abs(ref), z


class TestDerivativeRecurrences:
    # d/dz E^1_{a,1} = E^2_{a,a+1} and d/dz E^1_{a,a} = E^2_{a,2a}
    @pytest.mark.parametrize("alpha", [0.45, 0.7])
    @pytest.mark.parametrize("pair", [((1.0, 1.0), (1.0 + 1, 2.0)), ((1.0, 0.0), (0.0, 0.0))])
    def test_recurrence_vs_central_difference(self, alpha, pair):
        if pair[0][1] == 0.0:  # (beta_lo, beta_hi) = (alpha, 2 alpha)
            lo = PrabhakarParams(alpha, alpha, 1.0)
            hi = PrabhakarParams(alpha, 2 * alpha, 2.0)
        else:
            lo = PrabhakarParams(alpha, 1.0, 1.0)
            hi = PrabhakarParams(alpha, alpha + 1.0, 2.0)
        h = 3e-5
        for z0 in (-0.7, -3.0, 0.4):
            fd = (prabhakar(lo, z0 + h) - prabhakar(lo, z0 - h)) / (2 * h)
            assert fd == pytest.approx(prabhakar(hi, z0), rel=1e-6)


class TestPrincipalPower:
    def test_examples(self):
        assert principal_power(-1.0, 0.5) == pytest.approx(1j, abs=1e-15)
        assert principal_power(4.0, 0.5) == pytest.approx(2.0, rel=1e-15)
        assert principal_power(-8.0, 1.0 / 3.0) == pytest.approx(1.0 + math.sqrt(3.0) * 1j, rel=1e-14)

    def test_negative_real_axis_uses_upper_edge(self):
        # Arg(-x) = +pi regardless of the imaginary zero's sign
        assert principal_power(complex(-2.0, -0.0), 0.5).imag > 0

    def test_zero_base(self):
        assert principal_power(0.0, 1.5) == 0
        with pytest.raises(DomainError):
            principal_power(0.0, -1.0)

    @settings(max_examples=40, deadline=None)
    @given(r=st.floats(0.01, 100.0), ang=st.floats(-3.14, 3.14), b=st.floats(0.05, 3.0))
    def test_modulus_and_angle(self, r, ang, b):
        z = r * np.exp(1j * ang)
        w = principal_power(z, b)
        assert abs(w) == pytest.approx(r**b, rel=1e-12)
        # the defining identity; the stored angle of w itself may wrap
        assert w == pytest.approx(r**b * np.exp(1j * b * np.angle(z)), rel=1e-11)


class TestSectorDecay:
    @pytest.mark.parametrize("gamma,expected", [(1.0, 1.0), (2.0, 2.0)])
    def test_fitted_exponent_matches_order(self, gamma, expected):
        p = PrabhakarParams(0.6, 1.0, gamma)
        theta = 0.4 * p.sector_half_angle
        rep = sector_decay_report(p, theta, [1.0, 10.0, 100.0, 1000.0, 10000.0])
        assert abs(rep.fitted_exponent - expected) < 0.1
        assert rep.c_theta > 0

    def test_radius_zero_bound(self):
        p = PrabhakarParams(0.5, 1.3, 1.0)
        rep = sector_decay_report(p, 0.2, [0.0])
        assert rep.c_theta >= 1.0 / math.gamma(1.3) - 1e-12

    def test_bound_holds_across_samples(self):
        p = PrabhakarParams(0.7, 1.0, 1.0)
        theta = 0.8 * p.sector_half_angle
        rep = sector_decay_report(p, theta, np.geomspace(0.1, 1e3, 12))
        zs = np.geomspace(0.1, 1e3, 12)[None, :] * np.exp(1j * np.linspace(-theta, theta, 5))[:, None]
        mags = np.abs(prabhakar_array(p, -zs))
        assert (mags * (1 + np.abs(zs)) <= rep.c_theta * (1 + 1e-12)).all()

    def test_argument_errors(self):
        p = PrabhakarParams(0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            sector_decay_report(p, 0.1, [])
        with pytest.raises(DomainError):
            sector_decay_report(p, p.sector_half_angle * 1.01, [1.0])


class TestLaplaceIdentity:
    def test_exponential_closed_form(self):
        # gamma = beta = alpha = 1: transform of e^(-lam t) is 1/(s + lam)
        p = PrabhakarParams(1.0, 1.0, 1.0)
        assert laplace_identity_residual(p, lam=3.0, s=2.0, t_cut=40.0) < 1e-8

    @pytest.mark.parametrize("beta,gamma", [(1.0, 1.0), (0.6, 1.0), (1.6, 2.0)])
    def test_fractional_cases(self, beta, gamma):
        p = PrabhakarParams(0.6, beta, gamma)
        assert laplace_identity_residual(p, lam=2.0, s=1.0, t_cut=60.0) < 1e-6
        assert laplace_identity_residual(p, lam=2.0, s=2.0 + 1.0j, t_cut=60.0) < 1e-6

    def test_small_cutoff_rejected(self):
        p = PrabhakarParams(0.6, 1.0, 1.0)
        with pytest.raises(AccuracyError, match="increase t_cut"):
            laplace_identity_residual(p, lam=2.0, s=0.05, t_cut=2.0)


class TestMonomialTransforms:
    def test_against_quadrature(self):
        import scipy.integrate as si

        t0 = 1.3
        for m in range(4):
            for s in (0.0, 0.7, -2.0, 3.0 + 4.0j, 25.0, -1.0 + 30.0j):
                got = monomial_laplace_truncated(m, t0, s)
                re = si.quad(lambda t: (np.exp(-s * t) * t**m).real, 0, t0, limit=200)[0]
                im = si.quad(lambda t: (np.exp(-s * t) * t**m).imag, 0, t0, limit=200)[0]
                assert got == pytest.approx(re + 1j * im, rel=1e-9, abs=1e-12)

    def test_incomplete_gamma_matches_mpmath(self):
        import mpmath as mp

        for n in (1, 3, 5):
            for w in (0.5, 10.0, 30.0, 2.0 + 2.0j, -5.0 + 1.0j, 40.0 + 3.0j):
                got = w**n * monomial_laplace_truncated(n - 1, 1.0, w)
                ref = complex(mp.gammainc(n, 0, mp.mpmathify(w)))
                assert got == pytest.approx(ref, rel=1e-11)

    def test_lattice_against_closed_form(self):
        # |w| <= 40 on 73 angles, n = 1..4, radii on both sides of |w| = n and of
        # |w| = 20; the reference is the closed form at 60 digits, since
        # mp.gammainc(n, 0, w) can recurse without end on complex w
        import mpmath as mp

        radii = [0.3, 0.9, 1.1, 1.9, 2.1, 2.9, 3.1, 3.9, 4.1, 7.0, 13.0, 19.5, 20.5, 30.0, 40.0]
        ws = (np.array(radii)[:, None] * np.exp(1j * np.linspace(-math.pi, math.pi, 73))).ravel()
        # points where the former series branch (every |w| <= 20) lost up to 8 digits
        ws = np.concatenate([ws, [-1.70 - 19.45j, -19.0 + 5.0j, -20.0]])
        with mp.workdps(60):
            for n in range(1, 5):
                ref = []
                for w in ws:
                    wm = mp.mpc(complex(w))
                    part = mp.fsum(wm**j / mp.factorial(j) for j in range(n))
                    ref.append(mp.factorial(n - 1) * (1 - mp.exp(-wm) * part))
                mono = monomial_laplace_truncated(n - 1, 1.0, ws)
                for w, r, m in zip(ws, ref, mono):
                    rm = r / mp.mpc(complex(w)) ** n
                    assert abs(mp.mpc(m) - rm) <= 1e-13 * abs(rm), (n, w)
        assert -20.0 * monomial_laplace_truncated(0, 1.0, -20.0) == pytest.approx(1.0 - math.exp(20.0), rel=1e-14)

    def test_split_calls_match_the_joint_call_bitwise(self):
        # |s t0| from 0 to 8 straddles |w| = m + 1 on both sides of the imaginary axis
        rng = np.random.default_rng(19)
        t0 = 1.3
        ss = rng.uniform(0.0, 8.0, 90) / t0 * np.exp(1j * rng.uniform(-math.pi, math.pi, 90))
        for m in range(4):
            joint = monomial_laplace_truncated(m, t0, ss)
            for i in range(0, ss.size, 3):
                s = ss[i : i + 1 + i % 3]
                assert monomial_laplace_truncated(m, t0, s).tobytes() == joint[i : i + s.size].tobytes(), (m, s)
            assert monomial_laplace_truncated(m, t0, complex(ss[5])) == joint[5]

    def test_entire_in_s_near_zero(self):
        # removable singularity at s = 0 filled by the series branch
        vals = monomial_laplace_truncated(2, 1.0, np.array([1e-14, 1e-8, 1e-3]))
        assert vals[0] == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            monomial_laplace_truncated(-1, 1.0, 1.0)
        with pytest.raises(DomainError):
            monomial_laplace_truncated(0, 0.0, 1.0)
        # a non-finite t0 or s is refused rather than returned as NaN
        for t0, s in [(1.0, math.nan), (math.nan, 1.0), (math.inf, 1.0), (1.0, [1.0, complex(1.0, math.inf)])]:
            with pytest.raises(DomainError, match="must be positive and finite|s must be finite"):
                monomial_laplace_truncated(0, t0, s)
        for m in (math.nan, math.inf):
            with pytest.raises(DomainError, match="non-negative integer"):
                monomial_laplace_truncated(m, 1.0, 1.0)
