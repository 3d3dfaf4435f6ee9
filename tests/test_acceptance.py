"""Acceptance suite: every check of `polylab.checks.CHECKS` at pinned sizes.

Run with `pytest tests/test_acceptance.py -v -s`; each row prints a PASS/FAIL
line.  `ACCEPTANCE` maps each check name to its criterion number, its
arguments (sizes, seeds, tolerances) and its runtime budget in seconds.
`polylab verify` runs the same functions at the sizes of `CHECKS`.  Criteria
mix exact identity checks, oracle equivalence and seeded Monte Carlo trend
bounds; nothing is calibrated at runtime.
"""

import time

import pytest

from polylab import checks

_OVERLAP_GRID = [(l, k, x) for l in range(1, 9) for k in range(l + 1) for x in (0.5, 1.0, 2.0)]

ACCEPTANCE = {
    "stanley_oracle": (1, (4, 8), 60),
    "identity_residuals": (2, (range(1, 11),), 10),
    "constants": (3, (), 5),
    "product_criterion": (4, ((2, 4, 8, 16, 32, 64),), 30),
    "partial_products": (5, (range(1, 65),), 60),
    "coarse_graining": (6, (range(1, 65),), 10),
    "scalar_claims": (7, (1e-4,), 20),
    "overlap_kernels": (8, (100000, 1), 20),
    "overlap_mc": (8, ([(l, k, x, 1000 + cell) for cell, (l, k, x) in enumerate(_OVERLAP_GRID)], 10**6), 280),
    "simulator_oracle": (9, (4, 25), 30),
    "convergence_trends": (10, (10, 16), 600),
    "length_concentration": (11, (), 120),
    "directed_overlap": (12, (7,), 60),
    "m_bound": (13, (10,), 5),
    "length_ratio_inverse": (14, (200,), 5),
    "shift_inequality": (15, (), 5),
    "substrand_identities": (16, (), 5),
}


@pytest.mark.parametrize("name", ACCEPTANCE)
def test_criterion(name):
    assert set(ACCEPTANCE) == {check.name for check in checks.CHECKS}
    number, args, budget = ACCEPTANCE[name]
    run = next(check.run for check in checks.CHECKS if check.name == name)
    start = time.monotonic()
    passed, detail = run(*args)
    elapsed = time.monotonic() - start
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number:02d} {name}: {status} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert passed, f"criterion {number} ({name}) failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded runtime budget"
