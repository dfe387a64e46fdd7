"""Acceptance battery: one test per criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` (or `coslaw suite`) to see
the per-criterion table.  The completeness-oracle criterion dominates the
runtime (it performs 40 full solver runs at 2000 restarts each).
"""

import pytest

from coslaw.acceptance import CRITERIA

BUDGET_SECONDS = {
    "A1": 10.0,  # family residual sweep
    "A5": 60.0,  # lemma battery
    "A7": 300.0,  # completeness oracle
}


@pytest.mark.parametrize("criterion", CRITERIA, ids=[c.cid for c in CRITERIA])
def test_criterion(criterion, request):
    # A7's run is shared with the golden grid test in test_solver.py
    result = request.getfixturevalue("a7_run")[0] if criterion.cid == "A7" else criterion.run()
    tag = "PASS" if result.passed else "FAIL"
    print(f"[{tag}] {result.cid} {result.description} ({result.seconds:.2f}s): {result.detail}")
    assert result.passed, f"{result.cid}: {result.detail}"
    budget = BUDGET_SECONDS.get(result.cid)
    if budget is not None:
        assert result.seconds < budget, (
            f"{result.cid} took {result.seconds:.1f}s, budget {budget}s"
        )
