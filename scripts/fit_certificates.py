#!/usr/bin/env python3
"""Fit and verify dominating-bound certificates across dimensions and times.

Prints one row per (d, t): the kernel-bound constants (C_t, eps_t, theta_t)
and the exponential-tail constants (C, delta), each re-verified after fitting
on a dense grid plus the kernel bound's maximizer at both window edges.  Exits
nonzero if any certificate fails its own check.
"""
from __future__ import annotations

import sys

import numpy as np

from confheat.kernel import HeatKernelParams, fit_condition_certificate, verify_dominating_bound


def main() -> int:
    failures = 0
    print(f"{'d':>2} {'t':>5} {'eps_t':>6} {'theta_t':>8} {'C_t':>12} {'tail C':>10} {'delta':>6} {'worst':>9}")
    for d in (1, 2, 3):
        for t in (0.25, 0.5, 1.0, 2.0):
            params = HeatKernelParams(d, t)
            cert = fit_condition_certificate(params)
            s_values = params.t + cert.theta_t * 0.98 * np.linspace(-1.0, 1.0, 9)
            grid = [(float(s), float(r)) for s in s_values for r in np.linspace(0.0, 20.0, 81)]
            # the supremum sits at a window edge, at the maximizer r*(s) = (2s(1+eps))^(1/(1-eps))
            for s in (t - cert.theta_t * (1 - 1e-9), t + cert.theta_t * (1 - 1e-9)):
                grid.append((s, (2.0 * s * (1.0 + cert.eps_t)) ** (1.0 / (1.0 - cert.eps_t))))
            report = verify_dominating_bound(params, grid, cert)
            ok = report.passed
            failures += 0 if ok else 1
            print(
                f"{d:>2} {t:>5.2f} {cert.eps_t:>6.2f} {cert.theta_t:>8.3f} {cert.c_t:>12.4e} "
                f"{cert.tail_c:>10.4f} {cert.tail_delta:>6.2f} {max(report.worst_ratio, report.tail_worst_ratio):>9.3e}"
                + ("" if ok else "  FAIL")
            )
    if failures:
        print(f"{failures} certificate(s) failed verification")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
