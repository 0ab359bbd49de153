import importlib.util
import math
import pathlib
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaincc, ndtr

from confheat.kernel import (
    BoundCertificate,
    HeatKernelParams,
    chapman_kolmogorov_residual,
    density,
    fit_condition_certificate,
    tail_mass,
    tau,
    verify_dominating_bound,
)
from confheat.points import Configuration, diffuse
from confheat.rng import substream


def _density_at_distance(params, r, t=None):
    """Oracle: p(t, x, y) as a function of r = |x - y| alone (radial form)."""
    tt = params.t if t is None else t
    return (4.0 * math.pi * tt) ** (-params.dim / 2.0) * math.exp(-r * r / (4.0 * tt))


def _gaussian_tail_1d(r, t):
    """Oracle: the two-sided normal tail 2 Phi-bar(r / sqrt(2t)), tail_mass for d = 1 written with ndtr."""
    return 2.0 * float(ndtr(-r / math.sqrt(2.0 * t)))


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


def test_gaussian_tail_1d_reference_values():
    # two-sided tail 2 * Phi-bar(r / sqrt(2t)); at t = 1/2 the argument is r
    assert _gaussian_tail_1d(0.0, 0.3) == 1.0
    assert _gaussian_tail_1d(2.0, 0.5) == pytest.approx(2.0 * 0.022750131948, rel=1e-9)


def test_density_at_distance_matches_density():
    p = HeatKernelParams(3, 0.7)
    x = np.array([0.3, -0.2, 1.0])
    y = np.array([-0.5, 0.4, 0.1])
    r = float(np.linalg.norm(x - y))
    assert _density_at_distance(p, r) == pytest.approx(density(p, x, y), rel=1e-14)


def test_tail_mass_stated_values():
    assert tail_mass(HeatKernelParams(3, 0.8), 0.0) == 1.0
    assert tail_mass(HeatKernelParams(1, 0.5), 2.0) == pytest.approx(_gaussian_tail_1d(2.0, 0.5), rel=1e-12)
    assert tail_mass(HeatKernelParams(1, 0.5), 2.0) == pytest.approx(0.04550026, rel=1e-6)
    assert tail_mass(HeatKernelParams(2, 1.0), 2.0) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_tail_mass_1d_erfc_agrees_with_gammaincc():
    # d = 1 evaluates Q(1/2, r^2/(4t)) as erfc(r / (2 sqrt t)).  At t = 1/4 and 1 both arguments are exact for
    # r = k/256, so only the two functions' own errors differ, out to Q(1/2, 400) = 5e-176; at other t the
    # two roundings of the argument differ by an ulp, which Q's relative condition number 2 x magnifies, so
    # those run to x = r^2/(4t) = 100 (Q = 2e-45)
    for t, x_max in [(0.25, 400.0), (1.0, 400.0), (0.3, 100.0), (0.01, 100.0), (7.0, 100.0)]:
        r = np.arange(0.0, math.sqrt(4.0 * t * x_max), 1.0 / 256.0)
        want = gammaincc(0.5, r * r / (4.0 * t))
        got = tail_mass(HeatKernelParams(1, t), r)
        assert got.shape == r.shape and got[0] == 1.0 and want[-1] > 0.0
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)


@mpmath.workdps(40)
@pytest.mark.parametrize("dim", [2, 3])
def test_tail_mass_closed_forms_against_mpmath(dim):
    # d = 2 and 3 evaluate Q(1, x) = e^-x and Q(3/2, x) = erfc(sqrt x) + 2 sqrt(x/pi) e^-x at x = r^2/(4t),
    # out to x = 100 as in the d = 1 test; mpmath takes the exact x of each float r and t
    for t in (0.25, 1.0, 0.3, 0.01, 7.0):
        r = np.linspace(0.0, math.sqrt(400.0 * t), 201)
        got = tail_mass(HeatKernelParams(dim, t), r)
        want = [float(mpmath.gammainc(mpmath.mpf(dim) / 2, mpmath.mpf(x) ** 2 / (4 * mpmath.mpf(t)), mpmath.inf,
                                      regularized=True)) for x in r]
        assert got.shape == r.shape and got[0] == 1.0 and want[-1] > 0.0
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_tail_mass_is_zero_where_the_exponent_overflows(dim):
    # r^2/4t past the float range: 0 with no overflow warning (warnings are errors here), where d = 3 read nan
    assert tail_mass(HeatKernelParams(dim, 0.25), 1e200) == 0.0
    assert tail_mass(HeatKernelParams(dim, 1e-300), 1e200) == 0.0
    got = tail_mass(HeatKernelParams(dim, 0.25), np.array([0.5, 1e200]))
    assert got[0] == tail_mass(HeatKernelParams(dim, 0.25), 0.5) and got[1] == 0.0


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
    # one heat step of 20000 particles from the origin: 20000 draws from p_{t,0}
    rng = substream(11, 2)
    draws = diffuse(Configuration.from_points(1, np.zeros((20000, 1))), 0.5, rng).positions[:, 0]
    var = draws.var(ddof=1)
    se_var = var * math.sqrt(2.0 / (len(draws) - 1))
    assert abs(var - 1.0) <= 3 * se_var
    pts = diffuse(Configuration.from_points(2, np.zeros((20000, 2))), 1.0, rng).positions
    se_mean = math.sqrt(2.0) / math.sqrt(len(pts))
    assert np.all(np.abs(pts.mean(axis=0)) <= 3 * se_mean)


def test_sample_transition_degenerates_to_start():
    rng = substream(12, 2)
    x = np.array([0.7, -0.3])
    out = diffuse(Configuration.from_points(2, [x]), 1e-14, rng).positions[0]
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


def test_certificate_overflow_is_its_own_value_error():
    # at t = 1e300 the maximizer r* = (2 s (1 + eps))^2 itself overflows, before any grid is built
    with pytest.raises(ValueError, match="dominating constant overflows for t=1e\\+300"):
        fit_condition_certificate(HeatKernelParams(2, 1e300))


def _window_edges(cert, t):
    """Times just inside both ends of the certified window and the maximizer r*(s) of the bound's ratio there."""
    eps = cert.eps_t
    return [(s, (2.0 * s * (1.0 + eps)) ** (1.0 / (1.0 - eps)))
            for s in (t - cert.theta_t * (1 - 1e-9), t + cert.theta_t * (1 - 1e-9))]


@pytest.mark.parametrize("t", [0.25, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_certificate_holds_at_window_edges_at_the_maximizer(dim, t):
    # the supremum over the window sits at an edge, at r*(s): there the ratio is 1/margin
    params = HeatKernelParams(dim, t)
    cert = fit_condition_certificate(params)
    report = verify_dominating_bound(params, _window_edges(cert, t), cert)
    assert report.passed and report.worst_ratio <= 1.0 / 1.1 * (1 + 1e-6), report


@pytest.mark.parametrize("eps_t", [1.0, 1.5, 0.0, -0.5])
def test_certificate_refuses_eps_t_outside_unit_interval(eps_t):
    # for eps_t > 1, r^(1+eps) - r^2/(4s) is unbounded above: no finite constant exists
    with pytest.raises(ValueError, match="eps_t must lie in"):
        fit_condition_certificate(HeatKernelParams(2, 1.0), eps_t=eps_t)


@pytest.mark.parametrize("t", [0.25, 1.0, 2.0])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_closed_form_constant_is_the_fine_grid_maximum(dim, t):
    # oracle: sup over r of p(s, r) e^(r^(1+eps)) on a 1e-4 step grid at each window edge, with no margin.
    # Where r* lies on the grid (r* = 81 at t = 2) the two agree up to rounding: the grid's exponent
    # r^(1+eps) - r^2/(4s) cancels 729 - 546.75, about 1e-13 relative
    params = HeatKernelParams(dim, t)
    cert = fit_condition_certificate(params, margin=1.0)
    grid_max = 0.0
    for s in (t - cert.theta_t, t + cert.theta_t):
        r_star = (2.0 * s * (1.0 + cert.eps_t)) ** (1.0 / (1.0 - cert.eps_t))
        r = np.arange(0.0, 2.0 * r_star + 1.0, 1e-4)
        vals = (4.0 * math.pi * s) ** (-dim / 2.0) * np.exp(r ** (1.0 + cert.eps_t) - r * r / (4.0 * s))
        grid_max = max(grid_max, float(vals.max()))
    assert grid_max <= cert.c_t * (1 + 1e-12) and cert.c_t <= grid_max * (1 + 1e-8)


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
    """Reference: the per-pair loop over the grid, each ratio the exp of its log: the log of the oracle density
    where it is positive, the log of its radial form where it underflows."""
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
        density = _density_at_distance(params, r, t=s)
        if density > 0:
            log_density = math.log(density)
        else:  # underflowed: the log of the radial form
            log_density = -r * r / (4.0 * s) - params.dim / 2.0 * math.log(4.0 * math.pi * s)
        ratio = math.exp(log_density + r ** (1.0 + cert.eps_t) - math.log(cert.c_t))
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


def test_bound_ratio_is_finite_where_density_and_bound_underflow():
    # d = 2, t = 3 near the window edge at r = 182: p(s, r) and C_t e^(-r^1.5) both underflow to 0, while their
    # quotient is e^-0.1568 = 0.855.  At r = 800 the tail mass and e^-r underflow too, and the tail ratio is 0
    params = HeatKernelParams(2, 3.0)
    cert = fit_condition_certificate(params)
    s, r = 4.49985, 182.24
    assert _density_at_distance(params, r, t=s) == 0.0 and math.exp(-(r ** 1.5)) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_dominating_bound(params, [(s, r), (s, 800.0)], cert)
    assert report.worst_pair == (s, r) and report.tail_worst_ratio == 0.0
    exact = mpmath.exp(mpmath.mpf(r) ** 1.5 - mpmath.mpf(r) ** 2 / (4 * s) - mpmath.log(4 * mpmath.pi * s)
                       - mpmath.log(cert.c_t))
    assert report.passed and report.worst_ratio == pytest.approx(float(exact), rel=1e-10)
    assert report.worst_ratio == pytest.approx(math.exp(-0.1568), rel=1e-3)


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
