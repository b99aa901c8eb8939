"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear.  Two sub-criteria are implemented exactly as specified but cannot pass
(see the strict xfail reasons); they print FAIL lines with the measured
numbers and are reported as expected failures so the rest of the suite stays
actionable.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import erfc

from _oracles import flux_transform_by_quadrature
from fracflux.forward import SourceSpec, boundary_flux, extend_complex, fractional_residual, solve
from fracflux.inverse import lsq_reconstruct, residue_ip1, residue_ip2
from fracflux.laplace import branch_orbit_size, branch_search, flux_transform, jump, make_jump_context
from fracflux.modes import ModelParams, SpectralField, build_mode_table
from fracflux.specfun import PrabhakarParams, laplace_identity_residual, prabhakar_array


def report(num: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def coupled_params(**kw):
    base = dict(alpha=0.7, kappa=1.0, varkappa=2.0, a=0.5, b=0.3, c=1.0, d=2.0, t0=1.0, t1=2.5)
    base.update(kw)
    return ModelParams(**base)


def test_criterion_01_special_function_identities():
    start = time.time()
    z = np.linspace(-3.0, 3.0, 20)
    e_exp = float(np.max(np.abs(prabhakar_array(PrabhakarParams(1.0, 1.0, 1.0), z) - np.exp(z)) / np.exp(z)))

    x = np.linspace(0.1, 5.0, 25)
    ref = np.exp(x**2) * erfc(x)
    e_erfc = float(np.max(np.abs(prabhakar_array(PrabhakarParams(0.5, 1.0, 1.0), -x) - ref) / ref))

    e_der = 0.0
    h = 3e-5
    for alpha in (0.45, 0.7):
        for lo, hi in (
            (PrabhakarParams(alpha, 1.0, 1.0), PrabhakarParams(alpha, alpha + 1.0, 2.0)),
            (PrabhakarParams(alpha, alpha, 1.0), PrabhakarParams(alpha, 2.0 * alpha, 2.0)),
        ):
            for z0 in (-0.8, -2.5, 0.5):
                fd = (
                    prabhakar_array(lo, [z0 + h])[0] - prabhakar_array(lo, [z0 - h])[0]
                ) / (2.0 * h)
                an = prabhakar_array(hi, [z0])[0]
                e_der = max(e_der, abs(fd - an) / abs(an))

    e_zero = 0.0
    for beta in (1.0, 0.45, 1.45, 2.4):
        got = prabhakar_array(PrabhakarParams(0.45, beta, 2.0), [0.0])[0]
        e_zero = max(e_zero, abs(got - 1.0 / math.gamma(beta)) * math.gamma(beta))

    ok = e_exp <= 1e-10 and e_erfc <= 1e-8 and e_der <= 1e-6 and e_zero <= 5e-15
    assert report(
        "1",
        ok,
        f"exp {e_exp:.1e} (<=1e-10), erfc {e_erfc:.1e} (<=1e-8), "
        f"derivative recurrences {e_der:.1e} (<=1e-6), value at 0 {e_zero:.1e} (<=5e-15) "
        f"[{time.time() - start:.1f}s < 5s]",
    )
    assert time.time() - start < 5.0


def test_criterion_02_laplace_identity_grid():
    start = time.time()
    worst = 0.0
    for alpha in (0.45, 0.6, 0.8):
        for beta, gamma in ((1.0, 1.0), (alpha, 1.0), (alpha + 1.0, 2.0)):
            p = PrabhakarParams(alpha, beta, gamma)
            for lam in (0.5, 2.0, 10.0):
                for s in (1.0 + 0.0j, 2.0 + 1.0j):
                    worst = max(worst, laplace_identity_residual(p, lam, s, t_cut=80.0))
    ok = worst <= 1e-6
    assert report("2", ok, f"transform identity residual on 3x3x3 grid x {{1, 2+i}}: max {worst:.1e} (<=1e-6) [{time.time() - start:.1f}s < 30s]")
    assert time.time() - start < 30.0


def test_criterion_03_coupling_algebra():
    start = time.time()
    p = coupled_params()
    t = build_mode_table(p, 1000)
    rng = np.random.default_rng(0)
    sa = rng.normal(size=100) + 1j * rng.normal(size=100)
    e_fact = 0.0
    for j in range(100):  # k <= 100
        lhs = (sa + p.kappa * t.lam[j] + p.c) * (sa + p.varkappa * t.lam[j] + p.d) - p.a * p.b
        rhs = (sa + t.lam_breve[j]) * (sa + t.lam_hat[j])
        e_fact = max(e_fact, float(np.max(np.abs(lhs - rhs) / (np.abs(rhs) + 1.0))))
    c1, c2 = p.root_bound_constants
    bounds_ok = bool(
        (c1 * t.lam <= t.lam_hat * (1 + 1e-12)).all()
        and (t.lam_hat <= t.lam_breve).all()
        and (t.lam_breve <= c2 * t.lam * (1 + 1e-12)).all()
    )
    e_tz = float(np.max(np.abs(t.theta * t.zeta - p.a * p.b)))
    ok = e_fact <= 1e-9 and bounds_ok and e_tz <= 5e-13
    assert report(
        "3",
        ok,
        f"factorization {e_fact:.1e} (<=1e-9), root bounds k<=1000 {'hold' if bounds_ok else 'VIOLATED'}, "
        f"theta*zeta-ab {e_tz:.1e} (rounding) [{time.time() - start:.1f}s < 5s]",
    )
    assert time.time() - start < 5.0


def test_criterion_04_forward_self_consistency():
    start = time.time()
    p = coupled_params()
    K = 5
    t = build_mode_table(p, K)
    rng = np.random.default_rng(10)
    phi = SpectralField(rng.normal(size=K) + 0j)
    psi = SpectralField(rng.normal(size=K) + 0j)
    f = np.zeros((K, 2))
    f[:, 0] = rng.normal(size=K)
    f[:, 1] = -f[:, 0] / p.t0  # sources continuous at shutdown
    src = SourceSpec(degree=1, t0=p.t0, f_coeffs=f, chi_coeffs=0.5 * f)

    residuals = []
    for n in (200, 400, 800, 1600):
        grid = np.linspace(0.0, 2.0, n + 1)
        traj = solve(p, t, phi, psi, src, grid)
        rep = fractional_residual(traj, p, t, phi, psi, src)
        residuals.append(max(rep.res_u, rep.res_v))
    ratios = [residuals[i] / residuals[i + 1] for i in range(3)]

    grid = np.linspace(0.0, 2.0, 41)
    traj = solve(p, t, phi, psi, src, grid)
    e_ic = max(
        float(np.abs(traj.u_modes[:, 0] - phi.coeffs).max()),
        float(np.abs(traj.v_modes[:, 0] - psi.coeffs).max()),
    )

    phi2 = SpectralField(rng.normal(size=K) + 0j)
    src2 = SourceSpec(degree=1, t0=p.t0, f_coeffs=rng.normal(size=(K, 2)), chi_coeffs=rng.normal(size=(K, 2)))
    combo = solve(
        p,
        t,
        SpectralField(0.6 * phi.coeffs - 1.1 * phi2.coeffs),
        SpectralField(0.6 * psi.coeffs),
        SourceSpec(degree=1, t0=p.t0, f_coeffs=0.6 * f - 1.1 * src2.f_coeffs, chi_coeffs=0.6 * 0.5 * f - 1.1 * src2.chi_coeffs),
        grid,
    )
    lin = 0.6 * traj.u_modes - 1.1 * solve(p, t, phi2, SpectralField.zero(K), src2, grid).u_modes
    e_lin = float(np.abs(combo.u_modes - lin).max() / np.abs(lin).max())

    pd = coupled_params(a=0.0)
    td = build_mode_table(pd, K)
    traj_full = solve(pd, td, phi, psi, src, grid)
    src_u = SourceSpec(degree=1, t0=p.t0, f_coeffs=f, chi_coeffs=np.zeros_like(f))
    traj_dec = solve(pd, td, phi, SpectralField.zero(K), src_u, grid)
    e_dec = float(np.abs(traj_full.u_modes - traj_dec.u_modes).max())

    ok = all(r >= 1.5 for r in ratios) and e_ic <= 1e-8 and e_lin <= 1e-10 and e_dec <= 1e-10
    assert report(
        "4",
        ok,
        f"residual ratios per halving {[f'{r:.2f}' for r in ratios]} (>=1.5), IC {e_ic:.1e} (<=1e-8), "
        f"linearity {e_lin:.1e} (<=1e-10), a=0 decoupling {e_dec:.1e} (<=1e-10) [{time.time() - start:.1f}s < 60s]",
    )
    assert time.time() - start < 60.0


def test_criterion_05_transform_consistency():
    start = time.time()
    p = coupled_params()
    K = 4
    t = build_mode_table(p, K)
    rng = np.random.default_rng(3)
    phi = rng.normal(size=K)
    psi = rng.normal(size=K)
    src = SourceSpec(degree=2, t0=p.t0, f_coeffs=rng.normal(size=(K, 3)), chi_coeffs=rng.normal(size=(K, 3)))
    ctx = make_jump_context(p, t, phi, psi, src)
    svals = np.linspace(0.5, 5.0, 10)
    ref = flux_transform_by_quadrature(p, t, phi, psi, src, svals, T=100.0)
    got = np.array([flux_transform(ctx, s) for s in svals])
    worst = float(np.max(np.abs(got - ref) / np.abs(ref)))
    ok = worst <= 1e-4
    assert report("5", ok, f"flux transform vs time-domain quadrature at 10 points: max rel {worst:.1e} (<=1e-4) [{time.time() - start:.1f}s < 60s]")
    assert time.time() - start < 60.0


def test_criterion_06_jump_equivalence():
    start = time.time()
    p = coupled_params()
    K = 4
    t = build_mode_table(p, K)
    rng = np.random.default_rng(5)
    src = SourceSpec(degree=2, t0=p.t0, f_coeffs=rng.normal(size=(K, 3)), chi_coeffs=rng.normal(size=(K, 3)))
    ctx = make_jump_context(p, t, rng.normal(size=K), rng.normal(size=K), src)
    worst = 0.0
    for rho in np.geomspace(0.3, 4.0, 10):
        r = rho ** (1.0 / p.alpha)
        jv = jump(ctx, float(rho))
        d = [
            flux_transform(ctx, complex(-r, e)) - flux_transform(ctx, complex(-r, -e))
            for e in (1e-2, 1e-3, 1e-4)
        ]
        extrap = (10.0 * d[2] - d[1]) / 9.0
        worst = max(worst, abs(jv - extrap) / abs(jv))
    ok = worst <= 1e-5
    assert report("6", ok, f"jump vs eps-extrapolated two-sided limits at 10 rho: max rel {worst:.1e} (<=1e-5) [{time.time() - start:.1f}s < 30s]")
    assert time.time() - start < 30.0


def test_criterion_07_residue_identities():
    start = time.time()
    K = 8
    p1 = ModelParams(alpha=0.7, kappa=1.0, varkappa=1.0, a=0.0, b=0.0, c=0.5, d=0.0, t0=1.0, t1=2.5)
    t1 = build_mode_table(p1, K)
    rng = np.random.default_rng(7)
    phi = rng.normal(size=K)
    src1 = SourceSpec(degree=2, t0=p1.t0, f_coeffs=rng.normal(size=(K, 3)), chi_coeffs=np.zeros((K, 3)))
    ctx1 = make_jump_context(p1, t1, phi, np.zeros(K), src1)
    e_ip1 = max(residue_ip1(ctx1, n).rel_error for n in range(1, 9))

    phi_off = phi.copy()
    phi_off[2] = 0.0
    f_off = src1.f_coeffs.copy()
    f_off[2] = 0.0
    ctx_off = make_jump_context(
        p1, t1, phi_off, np.zeros(K), SourceSpec(degree=2, t0=p1.t0, f_coeffs=f_off, chi_coeffs=np.zeros((K, 3)))
    )
    e_off = abs(residue_ip1(ctx_off, 3).contour_value)

    p2 = coupled_params()
    t2 = build_mode_table(p2, K)
    src2 = SourceSpec(degree=2, t0=p2.t0, f_coeffs=rng.normal(size=(K, 3)), chi_coeffs=rng.normal(size=(K, 3)))
    ctx2 = make_jump_context(p2, t2, rng.normal(size=K), rng.normal(size=K), src2)
    e_ip2 = 0.0
    e_rel = 0.0
    for n in range(1, 9):
        rr = residue_ip2(ctx2, n)
        e_ip2 = max(e_ip2, rr.report_breve.rel_error, rr.report_hat.rel_error)
        e_rel = max(e_rel, rr.relation_violation)

    ok = e_ip1 <= 1e-6 and e_ip2 <= 1e-6 and e_rel <= 1e-6 and e_off <= 1e-8
    assert report(
        "7",
        ok,
        f"decoupled residues n<=8 {e_ip1:.1e} (<=1e-6), coupled both poles {e_ip2:.1e} (<=1e-6), "
        f"2x2 relation violation {e_rel:.1e} (<=1e-6), off-mode residue {e_off:.1e} (<=1e-8) "
        f"[{time.time() - start:.1f}s < 60s]",
    )
    assert time.time() - start < 60.0


def test_criterion_08a_inverse_crime_decoupled():
    start = time.time()
    p = ModelParams(alpha=0.9, kappa=1.0, varkappa=1.0, a=0.0, b=0.0, c=0.5, d=0.0, t0=1.0, t1=400.0)
    K, M = 5, 3
    t = build_mode_table(p, K)
    rng = np.random.default_rng(11)
    phi = SpectralField(rng.normal(size=K) + 0j)
    f = rng.normal(size=(K, M + 1))
    src = SourceSpec(degree=M, t0=p.t0, f_coeffs=f, chi_coeffs=np.zeros((K, M + 1)))
    grid = p.t0 + (p.t1 - p.t0) * np.geomspace(1e-4, 1.0, 401)[:-1]
    traj = solve(p, t, phi, SpectralField.zero(K), src, grid)
    data = boundary_flux(traj, t)
    res = lsq_reconstruct(data, p, t, M, mu=0.0)
    scale = max(np.abs(f).max(), np.abs(phi.coeffs).max())
    err = max(
        float(np.abs(res.f_hat.f_coeffs - f).max()), float(np.abs(res.phi_hat.coeffs - phi.coeffs).max())
    ) / scale
    ok = err <= 1e-6
    assert report(
        "8a",
        ok,
        f"decoupled inverse crime, 25 unknowns from 400 noiseless samples: rel err {err:.1e} (<=1e-6), "
        f"condition number {res.condition_number:.1e} [{time.time() - start:.1f}s < 60s]",
    )
    assert time.time() - start < 60.0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "coupled inverse crime at K=5, M=3 (50 unknowns from one real boundary-flux "
        "trace) is conditioning-limited: over ~150 admissible parameter sets the "
        "weighted design matrix never conditioned better than ~1e14, and the "
        "double-precision pseudo-inverse error floor cond*eps then sits near 1e-3, "
        "far above the 1e-5 target; recovery to 1e-5 would need higher-precision "
        "matrix assembly and factorization well outside the 60 s budget"
    ),
)
def test_criterion_08b_inverse_crime_coupled():
    start = time.time()
    p = ModelParams(alpha=0.9, kappa=1.0, varkappa=1.0, a=2.0, b=-2.0, c=0.0, d=4.5, t0=1.0, t1=20.0)
    K, M = 5, 3
    t = build_mode_table(p, K)
    rng = np.random.default_rng(11)
    phi = SpectralField(rng.normal(size=K) + 0j)
    psi = SpectralField(rng.normal(size=K) + 0j)
    f = rng.normal(size=(K, M + 1))
    chi = rng.normal(size=(K, M + 1))
    src = SourceSpec(degree=M, t0=p.t0, f_coeffs=f, chi_coeffs=chi)
    grid = p.t0 + (p.t1 - p.t0) * np.geomspace(1e-4, 1.0, 401)[:-1]
    traj = solve(p, t, phi, psi, src, grid)
    data = boundary_flux(traj, t)
    res = lsq_reconstruct(data, p, t, M, mu=0.0)
    scale = max(np.abs(f).max(), np.abs(chi).max(), np.abs(phi.coeffs).max(), np.abs(psi.coeffs).max())
    err = max(
        float(np.abs(res.f_hat.f_coeffs - f).max()),
        float(np.abs(res.chi_hat.chi_coeffs - chi).max()),
        float(np.abs(res.phi_hat.coeffs - phi.coeffs).max()),
        float(np.abs(res.psi_hat.coeffs - psi.coeffs).max()),
    ) / scale
    ok = err <= 1e-5
    assert report(
        "8b",
        ok,
        f"coupled inverse crime, 50 unknowns: rel err {err:.1e} (<=1e-5), "
        f"condition number {res.condition_number:.1e}; conditioning-limited, "
        f"see xfail reason [{time.time() - start:.1f}s < 60s]",
    )


def test_criterion_09a_dense_branch_search():
    start = time.time()
    alpha = 1.0 / math.sqrt(2.0)
    found = []
    for j in range(8):
        y = 2.0 * math.pi * j / 8.0
        n = branch_search(alpha, y, 0.01, 5000)
        if n is not None:
            assert abs(np.exp(2j * math.pi * np.mod(n / alpha, 1.0)) - np.exp(1j * y)) < 0.01
        found.append(n)
    missing = branch_search(0.5, math.pi / 2.0, 0.1, 10000)
    ok = all(n is not None for n in found) and missing is None
    assert report(
        "9a",
        ok,
        f"dense search at alpha=1/sqrt(2): hits {found} within n<=5000; "
        f"unreachable target at alpha=1/2 correctly not found [{time.time() - start:.1f}s < 5s]",
    )
    assert time.time() - start < 5.0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the branch factors e^(2 pi i n / alpha) at alpha = 1/2 are e^(4 pi i n) = 1 "
        "for every n, a single-point orbit; the required count of exactly 2 matches "
        "rotation by alpha rather than by 1/alpha (for alpha = p/q in lowest terms "
        "the factors take p distinct values, not q)"
    ),
)
def test_criterion_09b_rational_orbit_count():
    size = branch_orbit_size(0.5)
    ok = size == 2
    assert report("9b", ok, f"branch-factor orbit at alpha=1/2 has {size} distinct value(s), required exactly 2")


def test_criterion_10_analytic_extension():
    start = time.time()
    p = coupled_params()
    K = 3
    t = build_mode_table(p, K)
    rng = np.random.default_rng(13)
    phi = SpectralField(rng.normal(size=K) + 0j)
    psi = SpectralField(rng.normal(size=K) + 0j)
    src = SourceSpec(degree=2, t0=p.t0, f_coeffs=rng.normal(size=(K, 3)), chi_coeffs=rng.normal(size=(K, 3)))

    zr = np.array([1.3, 1.9, 2.6])
    u_ext, v_ext = extend_complex(p, t, phi, psi, src, zr.astype(complex))
    traj = solve(p, t, phi, psi, src, zr)
    e_real = max(
        float(np.abs(u_ext - traj.u_modes).max()), float(np.abs(v_ext - traj.v_modes).max())
    )

    e_cauchy = 0.0
    for z0 in (1.8 + 0.0j, 2.3 + 0.35j, 1.6 - 0.3j):
        nodes = z0 + 0.12 * np.exp(2j * np.pi * np.arange(24) / 24.0)
        u_c, _ = extend_complex(p, t, phi, psi, src, nodes)
        u_0, _ = extend_complex(p, t, phi, psi, src, z0)
        e_cauchy = max(e_cauchy, float(np.abs(u_c.mean(axis=1) - u_0).max()))

    ok = e_real <= 1e-8 and e_cauchy <= 1e-6
    assert report(
        "10",
        ok,
        f"complex extension vs real-axis solver {e_real:.1e} (<=1e-8), "
        f"circle-mean analyticity at 3 interior points {e_cauchy:.1e} (<=1e-6) [{time.time() - start:.1f}s < 30s]",
    )
    assert time.time() - start < 30.0
