import importlib.util
import math
import pathlib

import numpy as np
import pytest
from scipy.integrate import quad

from confheat.kernel import (
    BoundCertificate,
    HeatKernelParams,
    chapman_kolmogorov_residual,
    density,
    density_at_distance,
    fit_condition_certificate,
    gaussian_tail_1d,
    sample_transition,
    tail_mass,
    tau,
    verify_dominating_bound,
)
from confheat.rng import substream


def test_density_stated_values():
    assert density(HeatKernelParams(1, 0.25), [0.0], [0.0]) == pytest.approx(math.pi**-0.5, rel=1e-12)
    assert density(HeatKernelParams(2, 1.0), [0.0, 0.0], [2.0, 0.0]) == pytest.approx(
        math.exp(-1.0) / (4.0 * math.pi), rel=1e-12
    )
    # coincident points: only the normalization survives
    for d, t in [(1, 0.1), (2, 1.0), (3, 10.0)]:
        x = np.zeros(d)
        assert density(HeatKernelParams(d, t), x, x) == pytest.approx((4 * math.pi * t) ** (-d / 2))


def test_density_symmetry_and_normalization():
    rng = substream(5, 1)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        t = float(rng.uniform(0.05, 5.0))
        x = rng.standard_normal(d)
        y = rng.standard_normal(d)
        p = HeatKernelParams(d, t)
        assert density(p, x, y) == density(p, y, x)
    # d=1 closed-form normalization by quadrature
    val, _ = quad(lambda y: density(HeatKernelParams(1, 0.7), [0.3], [y]), -30, 30)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_density_rejects_bad_input():
    with pytest.raises(ValueError):
        density(HeatKernelParams(2, 1.0), [0.0, np.nan], [0.0, 0.0])
    with pytest.raises(ValueError):
        density(HeatKernelParams(2, 1.0), [0.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        HeatKernelParams(0, 1.0)
    with pytest.raises(ValueError):
        HeatKernelParams(1, 0.0)


def test_tail_mass_stated_values():
    assert tail_mass(HeatKernelParams(3, 0.8), 0.0) == 1.0
    assert tail_mass(HeatKernelParams(1, 0.5), 2.0) == pytest.approx(gaussian_tail_1d(2.0, 0.5), rel=1e-12)
    assert tail_mass(HeatKernelParams(1, 0.5), 2.0) == pytest.approx(0.04550026, rel=1e-6)
    assert tail_mass(HeatKernelParams(2, 1.0), 2.0) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_tail_mass_normalization_exact_across_params():
    for d in (1, 2, 3):
        for t in (0.1, 1.0, 10.0):
            assert tail_mass(HeatKernelParams(d, t), 0.0) == 1.0


def test_tail_mass_monotone():
    p = HeatKernelParams(2, 0.5)
    rs = np.linspace(0.0, 6.0, 25)
    vals = [tail_mass(p, r) for r in rs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    ts = np.linspace(0.05, 5.0, 25)
    vals_t = [tail_mass(HeatKernelParams(2, t), 1.5) for t in ts]
    assert all(a < b for a, b in zip(vals_t, vals_t[1:]))


def test_tau_is_tail_mass_at_endpoint():
    assert tau(2, 0.25, 1.0) == tail_mass(HeatKernelParams(2, 0.25), 1.0)
    # monotone in delta: the sup over t <= delta is the endpoint value
    assert tau(2, 0.1, 1.0) < tau(2, 0.2, 1.0)


def test_sample_transition_moments():
    rng = substream(11, 2)
    p = HeatKernelParams(1, 0.5)
    draws = np.array([sample_transition(p, [0.0], rng)[0] for _ in range(20000)])
    var = draws.var(ddof=1)
    se_var = var * math.sqrt(2.0 / (len(draws) - 1))
    assert abs(var - 1.0) <= 3 * se_var
    p2 = HeatKernelParams(2, 1.0)
    pts = np.array([sample_transition(p2, [0.0, 0.0], rng) for _ in range(20000)])
    se_mean = math.sqrt(2.0) / math.sqrt(len(pts))
    assert np.all(np.abs(pts.mean(axis=0)) <= 3 * se_mean)


def test_sample_transition_degenerates_to_start():
    rng = substream(12, 2)
    x = np.array([0.7, -0.3])
    out = sample_transition(HeatKernelParams(2, 1e-14), x, rng)
    assert np.allclose(out, x, atol=1e-5)


def test_chapman_kolmogorov_examples_and_random():
    r = chapman_kolmogorov_residual(HeatKernelParams(1, 0.5), HeatKernelParams(1, 0.5), [0.0], [1.0])
    direct = density(HeatKernelParams(1, 1.0), [0.0], [1.0])
    assert direct == pytest.approx((4 * math.pi) ** -0.5 * math.exp(-0.25), rel=1e-12)
    assert r <= 1e-10 * direct + 1e-30
    rng = substream(3, 9)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        t, s = rng.uniform(0.05, 3.0, size=2)
        x = rng.standard_normal(d)
        y = rng.standard_normal(d)
        resid = chapman_kolmogorov_residual(HeatKernelParams(d, t), HeatKernelParams(d, s), x, y)
        ref = density(HeatKernelParams(d, t + s), x, y)
        assert resid <= 1e-10 * ref + 1e-30


def test_chapman_kolmogorov_quadrature_crosscheck():
    t = s = 0.25
    val, _ = quad(
        lambda z: density(HeatKernelParams(1, t), [0.0], [z]) * density(HeatKernelParams(1, s), [z], [0.0]),
        -20,
        20,
        epsabs=1e-12,
    )
    assert val == pytest.approx(density(HeatKernelParams(1, t + s), [0.0], [0.0]), abs=1e-8)


def test_verify_dominating_bound_pass_and_fail():
    p = HeatKernelParams(1, 1.0)
    grid = [(1.0, float(r)) for r in range(11)]
    # sup_r p(1,0,r) e^{r^1.5} sits at r=9 (where 1.5 sqrt(r) = r/2) and equals
    # (4 pi)^{-1/2} e^{6.75} ~ 241, so C_t=250 holds and C_t=10 must fail there
    cert = BoundCertificate(c_t=250.0, eps_t=0.5)
    report = verify_dominating_bound(p, grid, cert)
    assert report.passed and report.worst_ratio <= 1.0
    ten = verify_dominating_bound(p, grid, BoundCertificate(c_t=10.0, eps_t=0.5))
    assert not ten.passed and ten.worst_pair == (1.0, 9.0)
    # a C_t below the r=0 value must fail with worst ratio > 1 at r=0
    low = BoundCertificate(c_t=0.9 * (4 * math.pi) ** -0.5, eps_t=0.5)
    report_bad = verify_dominating_bound(p, [(1.0, 0.0)], low)
    assert not report_bad.passed and report_bad.worst_ratio > 1.0
    assert report_bad.worst_pair == (1.0, 0.0)


def test_verify_dominating_bound_window_input_error():
    p = HeatKernelParams(1, 1.0)
    cert = BoundCertificate(c_t=10.0, eps_t=0.5, theta_t=0.25)
    with pytest.raises(ValueError):
        verify_dominating_bound(p, [(2.0, 1.0)], cert)
    with pytest.raises(ValueError):
        verify_dominating_bound(p, [], cert)
    # plain (C1) certificates only cover s = t
    with pytest.raises(ValueError):
        verify_dominating_bound(p, [(0.5, 1.0)], BoundCertificate(c_t=10.0, eps_t=0.5))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_fitted_certificate_verifies(dim):
    p = HeatKernelParams(dim, 1.0)
    cert = fit_condition_certificate(p)
    s_values = np.linspace(p.t - cert.theta_t * 0.98, p.t + cert.theta_t * 0.98, 7)
    grid = [(float(s), float(r)) for s in s_values for r in np.linspace(0.0, 20.0, 101)]
    report = verify_dominating_bound(p, grid, cert)
    assert report.passed
    # (C3): tau(0.25, r) <= C e^{-r} across r in [0, 20]
    assert cert.tail_delta == 0.25
    for r in np.linspace(0.0, 20.0, 201):
        assert tau(dim, 0.25, float(r)) <= cert.tail_c * math.exp(-float(r))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_tail_constants_match_scalar_loop(dim):
    # reference: per-radius scalar loops; np.exp may differ from math.exp in the last ulp
    p = HeatKernelParams(dim, 1.0)
    cert = fit_condition_certificate(p, margin=1.0)
    loop_c = max(tau(dim, 0.25, float(r)) * math.exp(float(r)) for r in np.arange(0.0, 25.01, 0.01))
    assert cert.tail_c == pytest.approx(loop_c, rel=1e-14)
    radii = np.linspace(0.0, 20.0, 81)
    report = verify_dominating_bound(p, [(1.0, float(r)) for r in radii], cert)
    ratios = [tau(dim, 0.25, float(r)) / (cert.tail_c * math.exp(-float(r))) for r in radii]
    k = int(np.argmax(ratios))
    assert report.tail_worst_ratio == pytest.approx(ratios[k], rel=1e-14)
    assert report.tail_worst_r == float(radii[k])


def scalar_bound_ratios(params, grid, cert):
    """Reference: the per-pair loop over the grid, with math.exp."""
    worst, worst_pair = -math.inf, None
    for s, r in grid:
        if s <= 0:
            raise ValueError(f"grid time must be positive, got {s}")
        if r < 0:
            raise ValueError(f"grid radius must be nonnegative, got {r}")
        if cert.theta_t is not None:
            if not (params.t - cert.theta_t < s < params.t + cert.theta_t):
                raise ValueError(
                    f"grid time {s} outside the certified window "
                    f"({params.t - cert.theta_t}, {params.t + cert.theta_t})"
                )
        elif abs(s - params.t) > 1.0e-12 * max(1.0, params.t):
            raise ValueError(f"certificate without theta_t only covers s = t, got s = {s}")
        ratio = density_at_distance(params, r, t=s) / (cert.c_t * math.exp(-(r ** (1.0 + cert.eps_t))))
        if ratio > worst:
            worst, worst_pair = ratio, (float(s), float(r))
    return worst, worst_pair


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_bound_ratios_match_scalar_loop(dim):
    rng = np.random.default_rng(50 + dim)
    for t in (0.25, 1.0, 2.0):
        params = HeatKernelParams(dim, t)
        cert = fit_condition_certificate(params, eps_t=float(rng.uniform(0.2, 0.5)))
        s_values = params.t + cert.theta_t * 0.98 * np.linspace(-1.0, 1.0, 9)
        grid = [(float(s), float(r)) for s in s_values for r in np.linspace(0.0, 20.0, 81)]
        grid += [(float(s), float(r)) for s, r in zip(rng.choice(s_values, 50), rng.uniform(0.0, 20.0, 50))]
        report = verify_dominating_bound(params, grid, cert)
        worst, worst_pair = scalar_bound_ratios(params, grid, cert)
        assert report.worst_ratio == pytest.approx(worst, rel=1e-14)
        assert report.worst_pair == worst_pair
        plain = BoundCertificate(c_t=cert.c_t, eps_t=cert.eps_t)
        at_t = [(params.t, r) for _, r in grid]
        report = verify_dominating_bound(params, at_t, plain)
        worst, worst_pair = scalar_bound_ratios(params, at_t, plain)
        assert report.worst_ratio == pytest.approx(worst, rel=1e-14) and report.worst_pair == worst_pair


def test_bound_ratio_errors_match_scalar_loop():
    params = HeatKernelParams(1, 1.0)
    windowed = BoundCertificate(c_t=10.0, eps_t=0.5, theta_t=0.25)
    plain = BoundCertificate(c_t=10.0, eps_t=0.5)
    wide = BoundCertificate(c_t=10.0, eps_t=0.5, theta_t=2.0)  # its window reaches below s = 0
    ok = (1.1, 2.0)
    cases = [
        (wide, [ok, (-0.5, 1.0)]),
        (wide, [ok, (0.0, 1.0)]),
        (windowed, [ok, (0.0, 1.0), (2.0, -1.0)]),
        (windowed, [ok, (-1.0, -1.0)]),
        (windowed, [ok, (1.2, -0.5), (0.0, 1.0)]),
        (windowed, [ok, (2.0, 1.0)]),
        (windowed, [(1.0, 0.0), (0.75, 1.0)]),
        (plain, [(1.0, 0.0), (1.1, 1.0)]),
        (plain, [(1, 0), (0, 1)]),
    ]
    for cert, grid in cases:
        with pytest.raises(ValueError) as ref:
            scalar_bound_ratios(params, grid, cert)
        with pytest.raises(ValueError) as info:
            verify_dominating_bound(params, grid, cert)
        assert str(info.value) == str(ref.value)


def test_fit_certificates_script_passes(capsys):
    script = pathlib.Path(__file__).parent.parent / "scripts" / "fit_certificates.py"
    spec = importlib.util.spec_from_file_location("fit_certificates", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main() == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 13 and "FAIL" not in out  # header + 3 dims x 4 times
