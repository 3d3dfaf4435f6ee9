"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criteria mix exact
identity checks, oracle equivalence and seeded Monte Carlo trend bounds;
nothing is calibrated at runtime.  Criteria 1-9 and 12 run the checks of
`polylab.checks` that `polylab verify` also runs, at the sizes, seeds and
runtime budgets pinned here; criteria 10 and 11 are checked only here.
"""

import math
import time

from polylab import checks, pathcount, simulator
from polylab.constants import E, L


def _report(number: int, name: str, passed: bool, elapsed: float, budget: float, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number:02d} {name}: {status} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert passed, f"criterion {number} ({name}) failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded runtime budget"


def test_criterion_01_stanley_oracle_equivalence():
    start = time.monotonic()
    ok, detail = checks.stanley_oracle(n_max=4, l_max=8)
    _report(1, "stanley_oracle_equivalence", ok, time.monotonic() - start, 60, detail)


def test_criterion_02_stanley_identity():
    start = time.monotonic()
    ok, detail = checks.identity_residuals(range(1, 11))
    _report(2, "stanley_identity", ok, time.monotonic() - start, 10, detail)


def test_criterion_03_constant_bookkeeping():
    start = time.monotonic()
    ok, detail = checks.constants()
    _report(3, "constant_bookkeeping", ok, time.monotonic() - start, 5, detail)


def test_criterion_04_product_criterion_machine_precision():
    start = time.monotonic()
    ok, detail = checks.product_criterion((2, 4, 8, 16, 32, 64))
    _report(4, "product_criterion", ok, time.monotonic() - start, 30, detail)


def test_criterion_05_partial_products():
    start = time.monotonic()
    ok, detail = checks.partial_products(range(1, 65))
    _report(5, "partial_products", ok, time.monotonic() - start, 60, detail)


def test_criterion_06_effective_step_inequalities():
    start = time.monotonic()
    ok, detail = checks.coarse_graining(range(1, 65))
    _report(6, "effective_step_inequalities", ok, time.monotonic() - start, 10, detail)


def test_criterion_07_scalar_envelope_claims():
    start = time.monotonic()
    ok, detail = checks.scalar_claims(1e-4)
    _report(7, "scalar_envelope_claims", ok, time.monotonic() - start, 20, detail)


def test_criterion_08_overlap_kernel():
    start = time.monotonic()
    grid = [(l, k, x) for l in range(1, 9) for k in range(l + 1) for x in (0.5, 1.0, 2.0)]
    cells = [(l, k, x, 1000 + cell) for cell, (l, k, x) in enumerate(grid)]
    ok, detail = checks.overlap_kernels(g_steps=100000, l_step=1)
    if ok:
        ok, detail = checks.overlap_mc(cells, 10**6)
    _report(8, "overlap_kernel", ok, time.monotonic() - start, 300, detail)


def test_criterion_09_simulator_oracle():
    start = time.monotonic()
    ok, detail = checks.simulator_oracle(n_max=4, seeds=25)
    _report(9, "simulator_oracle", ok, time.monotonic() - start, 30, detail)


def test_criterion_10_convergence_trends():
    start = time.monotonic()
    _, summary10 = simulator.run_trials(10, 50, base_seed=42)
    _, summary16 = simulator.run_trials(16, 50, base_seed=42)
    ok = summary16.mean_m_n < summary10.mean_m_n
    ok = ok and summary16.mean_m_n > 0.75 * E and summary10.mean_m_n > 0.75 * E
    ok = ok and abs(summary16.mean_length_ratio - L) < abs(summary10.mean_length_ratio - L)
    ok = ok and 1.0 <= summary16.mean_length_ratio <= 1.5
    ok = ok and 0.4 <= summary16.mean_first_half_fraction <= 0.6
    means, ses = summary16.profile_bin_mean, summary16.profile_bin_se
    for i in range(19):
        if math.isnan(means[i]) or math.isnan(means[i + 1]):
            continue
        if means[i + 1] + ses[i + 1] < means[i] - ses[i]:
            ok = False
    # backstep placement: the middle of the strand carries more backsteps
    # than the first tenth, at the one-standard-error level
    mid = summary16.backstep_decile_mean[5]
    mid_se = summary16.backstep_decile_se[5]
    first = summary16.backstep_decile_mean[0]
    first_se = summary16.backstep_decile_se[0]
    ok = ok and mid + mid_se >= first - first_se
    _report(10, "convergence_trends", ok, time.monotonic() - start, 600)


def test_criterion_11_length_concentration():
    start = time.monotonic()
    ok = True
    for n in (40, 80):
        dist = pathcount.length_weight_distribution(n, 3 * n)
        if abs(dist.argmax_length - round(L * n)) > 2:
            ok = False
    lo40, up40 = pathcount.concentration_tail_mass(40, 0.2, 2.5)
    lo80, up80 = pathcount.concentration_tail_mass(80, 0.2, 2.5)
    # the lower tail is identically 0 at this (a, eps): (L - a*eps)n < n
    ok = ok and lo40 == 0.0 and lo80 == 0.0
    ok = ok and up80 < up40
    ok = ok and (lo80 + up80) < (lo40 + up40)
    _report(11, "length_concentration", ok, time.monotonic() - start, 120)


def test_criterion_12_directed_overlap_envelopes():
    start = time.monotonic()
    ok, detail = checks.directed_overlap(n_max=7)
    _report(12, "directed_overlap_envelopes", ok, time.monotonic() - start, 60, detail)
