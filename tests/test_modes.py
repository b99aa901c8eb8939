"""Model admissibility, eigensystem, coupled-root algebra, spectral projections."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracflux.modes import (
    AdmissibilityError,
    AliasingError,
    ModelParams,
    SpectralField,
    analyze,
    build_mode_table,
    check_separation,
    eigenfunction,
    synthesize,
)


def coupled_params(**kw):
    base = dict(alpha=0.7, kappa=1.0, varkappa=2.0, a=0.5, b=0.3, c=1.0, d=2.0, t0=1.0, t1=2.5)
    base.update(kw)
    return ModelParams(**base)


class TestAdmissibility:
    def test_valid_params_pass(self):
        coupled_params()

    @pytest.mark.parametrize(
        "kw,fragment",
        [
            (dict(alpha=1.2), "0 < alpha < 1"),
            (dict(kappa=-1.0), "kappa > 0"),
            (dict(c=-0.5), "c >= 0"),
            (dict(a=3.0, b=2.0, c=1.0, d=1.0), "a*b <= min(c^2, d^2)"),
            (dict(t0=2.0, t1=1.0), "0 < t0 < t1"),
        ],
    )
    def test_violations_name_the_inequality(self, kw, fragment):
        with pytest.raises(AdmissibilityError, match=None) as exc:
            coupled_params(**kw)
        assert fragment in str(exc.value)

    @pytest.mark.parametrize(
        "kw",
        [{key: math.nan} for key in ("kappa", "varkappa", "a", "b", "c", "d")]
        + [dict(kappa=math.inf), dict(t1=math.inf)],
        ids=lambda kw: ",".join(f"{key}={value}" for key, value in kw.items()),
    )
    def test_non_finite_coefficient_rejected(self, kw):
        with pytest.raises(AdmissibilityError, match="finite|inf"):
            coupled_params(**kw)

    def test_discriminant_violation_detected(self):
        # kappa = varkappa with (c-d)^2 + 4ab < 0: roots would be complex
        with pytest.raises(AdmissibilityError) as exc:
            coupled_params(kappa=1.0, varkappa=1.0, a=2.0, b=-2.0, c=1.0, d=1.0)
        assert "4*a*b" in str(exc.value)

    def test_negative_ab_with_separation_is_admissible(self):
        coupled_params(kappa=1.0, varkappa=1.0, a=2.0, b=-2.0, c=0.0, d=4.5)


class TestModeTable:
    def test_decoupled_equal_diffusivities(self):
        p = ModelParams(alpha=0.5, kappa=1.0, varkappa=1.0, a=0.0, b=0.0, c=0.0, d=0.0, t0=1.0, t1=2.0)
        t = build_mode_table(p, 3)
        assert t.lam_breve[0] == t.lam_hat[0] == 1.0
        assert t.theta[0] == t.zeta[0] == 0.0

    def test_decoupled_distinct_diffusivities(self):
        p = ModelParams(alpha=0.5, kappa=1.0, varkappa=2.0, a=0.0, b=0.0, c=0.0, d=0.0, t0=1.0, t1=2.0)
        t = build_mode_table(p, 1)
        assert t.lam_breve[0] == pytest.approx(2.0)
        assert t.lam_hat[0] == pytest.approx(1.0)
        assert t.theta[0] == pytest.approx(1.0)
        assert t.zeta[0] == pytest.approx(0.0)

    def test_trace_values(self):
        t = build_mode_table(coupled_params(), 5)
        assert t.gamma_trace[2] == pytest.approx(-math.sqrt(2.0 / math.pi) * 3, rel=1e-14)
        assert t.gamma_trace[2] == pytest.approx(-2.3936, abs=1e-4)

    def test_eigenvalues_and_multiplicity(self):
        t = build_mode_table(coupled_params(), 10)
        assert np.array_equal(t.lam, np.arange(1, 11) ** 2)

    def test_factorization_identity_random_s(self):
        p = coupled_params()
        t = build_mode_table(p, 100)
        rng = np.random.default_rng(0)
        # the identity is polynomial in s^alpha, so test it at raw complex points
        sa = rng.normal(size=100) + 1j * rng.normal(size=100)
        for k in (1, 7, 50, 100):
            j = k - 1
            lhs = (sa + p.kappa * t.lam[j] + p.c) * (sa + p.varkappa * t.lam[j] + p.d) - p.a * p.b
            rhs = (sa + t.lam_breve[j]) * (sa + t.lam_hat[j])
            scale = np.abs(rhs) + 1.0
            assert np.max(np.abs(lhs - rhs) / scale) < 1e-9

    def test_root_bounds(self):
        p = coupled_params()
        t = build_mode_table(p, 1000)
        c1, c2 = p.root_bound_constants
        assert (c1 * t.lam <= t.lam_hat + 1e-9 * t.lam).all()
        assert (t.lam_hat <= t.lam_breve).all()
        assert (t.lam_breve <= c2 * t.lam * (1 + 1e-12)).all()

    def test_denominator_lower_bound_on_cut(self):
        # |s^alpha + lam| >= c1 lam_1 sin(alpha pi) along the negative axis
        p = coupled_params()
        t = build_mode_table(p, 30)
        c1 = min(p.kappa, p.varkappa)
        r = np.geomspace(1e-3, 1e4, 200)
        sa = r**p.alpha * np.exp(1j * math.pi * p.alpha)
        for lam_fam in (t.lam_breve, t.lam_hat):
            vals = np.abs(sa[:, None] + lam_fam[None, :])
            assert (vals >= c1 * t.lam[None, :] * math.sin(p.alpha * math.pi) * (1 - 1e-12)).all()

    @settings(max_examples=25, deadline=None)
    @given(
        kappa=st.floats(0.2, 3.0),
        varkappa=st.floats(0.2, 3.0),
        ab=st.floats(0.0, 0.9),
        c=st.floats(1.0, 3.0),
        d=st.floats(1.0, 3.0),
    )
    def test_theta_zeta_product_is_ab(self, kappa, varkappa, ab, c, d):
        p = ModelParams(alpha=0.6, kappa=kappa, varkappa=varkappa, a=ab, b=1.0, c=c, d=d, t0=1.0, t1=2.0)
        t = build_mode_table(p, 8)
        scale = np.maximum(np.abs(t.theta * t.zeta), 1.0)
        assert np.max(np.abs(t.theta * t.zeta - ab) / scale) < 5e-13


class TestSpectralProjection:
    def test_orthonormality_gram(self):
        K = 12
        x = np.linspace(0, math.pi, 4001)
        w = np.gradient(x)
        basis = np.stack([eigenfunction(k, x) for k in range(1, K + 1)])
        gram = basis @ (w[:, None] * basis.T)
        assert np.max(np.abs(gram - np.eye(K))) < 1e-8

    def test_analyze_pure_mode(self):
        f = lambda x: eigenfunction(2, x)
        field = analyze(f, 4)
        assert np.abs(field.coeffs - np.array([0, 1, 0, 0])).max() < 1e-12

    def test_synthesize_zero(self):
        assert np.all(synthesize(SpectralField.zero(4), np.linspace(0, math.pi, 11)) == 0)

    def test_parabola_coefficients(self):
        # x(pi - x) against the normalized sine basis: sqrt(2/pi) 2 (1-(-1)^k)/k^3,
        # value checked against high-resolution quadrature before the build
        field = analyze(lambda x: x * (math.pi - x), 3)
        norm = math.sqrt(2.0 / math.pi)
        expected = np.array([norm * 4.0, 0.0, norm * 4.0 / 27.0])
        assert np.abs(field.coeffs - expected).max() < 1e-12
        assert field.coeffs[0].real == pytest.approx(3.19153824321, abs=1e-9)

    def test_roundtrip_bandlimited(self):
        rng = np.random.default_rng(1)
        c = rng.normal(size=6)
        f = lambda x: synthesize(c.astype(complex), x)
        back = analyze(f, 6)
        assert np.abs(back.coeffs - c).max() < 1e-11

    def test_parseval(self):
        field = analyze(lambda x: x * (math.pi - x), 40)
        x = np.linspace(0, math.pi, 20001)
        l2sq = np.trapezoid((x * (math.pi - x)) ** 2, x)
        assert np.sum(np.abs(field.coeffs) ** 2) == pytest.approx(l2sq, rel=1e-6)

    def test_sampled_input_and_aliasing(self):
        x = np.linspace(0, math.pi, 400)
        y = eigenfunction(1, x)
        field = analyze(y, 3, grid=x)
        assert field.coeffs[0].real == pytest.approx(1.0, abs=1e-4)
        with pytest.raises(AliasingError):
            analyze(y, 50, grid=x)


class TestSeparation:
    def test_equal_diffusivities_generic_no_violations(self):
        p = coupled_params(kappa=1.0, varkappa=1.0, a=0.5, b=0.3, c=1.0, d=2.0)
        t = build_mode_table(p, 100)
        rep = check_separation(t)
        assert rep.applicable and rep.ok

    def test_known_collision_detected(self):
        # b = 0: root families are {lam_k + c} and {lam_n + d}; with c = 0,
        # d = 3 mode pair (2, 1) collides: 4 + 0 = 1 + 3
        p = coupled_params(kappa=1.0, varkappa=1.0, a=1.0, b=0.0, c=0.0, d=3.0)
        t = build_mode_table(p, 10)
        rep = check_separation(t)
        assert not rep.ok
        assert any({v[0], v[1]} == {1, 2} for v in rep.violations)

    def test_a_zero_not_applicable(self):
        p = coupled_params(a=0.0, b=0.0)
        rep = check_separation(build_mode_table(p, 10))
        assert not rep.applicable and rep.ok
