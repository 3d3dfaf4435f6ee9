"""Acceptance suite: every check of `polylab.checks.CHECKS` at pinned sizes.

Run with `pytest tests/test_acceptance.py -v -s`; each row prints a PASS/FAIL
line.  `ACCEPTANCE` maps each check name to its criterion number and its
runtime budget in seconds.  A row runs its check at the arguments of
`polylab verify` (`Check.args`) unless `SIZES` pins its own.  Criteria mix
exact identity checks, oracle equivalence and seeded Monte Carlo trend
bounds; nothing is calibrated at runtime.
"""

import time

import pytest

from polylab import checks

_OVERLAP_GRID = [(l, k, x) for l in range(1, 9) for k in range(l + 1) for x in (0.5, 1.0, 2.0)]

ACCEPTANCE = {
    "stanley_oracle": (1, 60),
    "identity_residuals": (2, 10),
    "constants": (3, 5),
    "product_criterion": (4, 30),
    "partial_products": (5, 60),
    "coarse_graining": (6, 10),
    "scalar_claims": (7, 20),
    "overlap_kernels": (8, 20),
    "overlap_mc": (8, 280),
    "simulator_oracle": (9, 30),
    "convergence_trends": (10, 600),
    "length_concentration": (11, 120),
    "directed_overlap": (12, 60),
    "m_bound": (13, 5),
    "length_ratio_inverse": (14, 5),
    "shift_inequality": (15, 5),
    "substrand_identities": (16, 5),
}

# the checks whose acceptance arguments are not those of `polylab verify`
SIZES = {
    "identity_residuals": (range(1, 11),),
    "overlap_kernels": (100000,),
    "overlap_mc": ([(l, k, x, 1000 + cell) for cell, (l, k, x) in enumerate(_OVERLAP_GRID)], 10**6),
    "convergence_trends": (10, 16),
}


def test_sizes_differ_from_the_full_battery():
    verify_args = {check.name: check.args for check in checks.CHECKS}
    for name, args in SIZES.items():
        assert args != verify_args[name], name


def test_only_resized_checks_take_arguments():
    # a size both runs share is a constant of `polylab.checks`, not an argument
    assert {check.name for check in checks.CHECKS if check.args} == set(SIZES)


@pytest.mark.parametrize("name", ACCEPTANCE)
def test_criterion(name):
    assert set(ACCEPTANCE) == {check.name for check in checks.CHECKS}
    number, budget = ACCEPTANCE[name]
    check = next(check for check in checks.CHECKS if check.name == name)
    args = SIZES.get(name, check.args)
    start = time.monotonic()
    passed, detail = check.run(*args)
    elapsed = time.monotonic() - start
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number:02d} {name}: {status} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert passed, f"criterion {number} ({name}) failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded runtime budget"
