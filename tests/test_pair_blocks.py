"""Row-blocked pair scans: with PAIR_BLOCK_CELLS patched small, every scan
gives the answer of its one-block scan, witnesses, maxima and exceptions
included."""

import math
from fractions import Fraction
from unittest import mock

import pytest

from coslaw import analysis, functions, semigroups
from coslaw.analysis import _float_scan, check_G_properties, residual
from coslaw.exactnum import ExpPoly
from coslaw.families import ConditionViolation, FamilyDescriptor, _check_condition_ii, construct
from coslaw.fixtures import get_fixture
from coslaw.functions import NullSets, ScalarFunction, law_failure, nonzero_product
from coslaw.semigroups import (
    InvolutiveAutomorphism,
    ProceduralSemigroup,
    is_central,
    product_set,
    validate,
    validate_automorphism,
)

N = 6  # window 0..5: 36 cells; 12 cells are blocks of rows (0, 1), (2, 3), (4, 5)
ID = InvolutiveAutomorphism("id", rule=lambda x: x)


def _cells(n=N):
    """A carrier on 0..n-1 whose products are all distinct: x*y = 100x + y."""
    return ProceduralSemigroup("cells", tuple(range(n)), compose_rule=lambda x, y: 100 * x + y,
                               contains_rule=lambda x: isinstance(x, int) and x >= 0)


def _sums(n=N):
    """(N0, +) on 0..n-1: products repeat across rows."""
    return ProceduralSemigroup("sums", tuple(range(n)), compose_rule=lambda x, y: x + y,
                               contains_rule=lambda x: isinstance(x, int) and x >= 0)


def _outcome(run):
    try:
        return run()
    except Exception as e:  # noqa: BLE001 - the exception is the outcome
        return "raised", type(e), str(e)


def _blocked(run, block=12):
    """run() under the default budget, where every scan here is one block,
    and under `block` cells; both outcomes, which must agree.  `run` builds
    its own carrier, so no cached table is shared."""
    whole = _outcome(run)
    with mock.patch.object(semigroups, "PAIR_BLOCK_CELLS", block):
        blocked = _outcome(run)
    assert repr(blocked) == repr(whole)  # a NaN report is not equal to itself
    return blocked


def _at(p, value=1, zero=0):
    """A rule function that is `value` at the product p and `zero` elsewhere."""
    return lambda x: value if x == p else zero


@pytest.mark.parametrize("cell", [(0, 0), (2, 0), (3, 5), (5, 5)])
def test_witness_at_the_first_and_last_cell_of_a_block(cell):
    p = 100 * cell[0] + cell[1]

    def nonzero():
        s = _cells()
        return nonzero_product(s, s.elements, s.elements, ScalarFunction(s, rule=_at(p)))

    def law(zero):
        s = _cells()
        zeros = [zero] * N
        return law_failure(s, s.elements, s.elements, _at(p, zero + 1, zero), zeros, zeros)

    assert _blocked(nonzero) == cell
    # packed (int values) and walked (float values)
    assert _blocked(lambda: law(0)) == (*cell, 1, 0)
    assert _blocked(lambda: law(0.0)) == (*cell, 1.0, 0.0)


def test_a_product_first_seen_in_a_later_block():
    # rows 0, 1 make the sums 0..6; 7 is first seen at (2, 5), in the second block
    def nonzero():
        s = _sums()
        return nonzero_product(s, s.elements, s.elements, ScalarFunction(s, rule=_at(7)))

    def law():
        s = _sums()
        ones = [1.0] * N
        return law_failure(s, s.elements, s.elements, _at(7, 2.0, 1.0), ones, ones)

    assert _blocked(nonzero) == (2, 5)
    assert _blocked(law) == (2, 5, 2.0, 1.0)


def test_a_rule_that_raises_raises_the_one_block_exception():
    n = 8  # 64 cells, the float scan's least; 16 cells are blocks of two rows

    def rule(p):
        if p in (11, 13):  # 11 is first seen at (4, 7), in the third block; 13 in the fourth
            raise ArithmeticError(f"undefined at {p}")
        return 0.0

    def scans():
        s = _sums(n)
        h, zeros = ScalarFunction(s, rule=rule), [0.0] * n
        # residual's float scan hands the exception over to the loop
        return [_outcome(lambda: nonzero_product(s, s.elements, s.elements, h)),
                _outcome(lambda: law_failure(s, s.elements, s.elements, h, zeros, zeros)),
                _outcome(lambda: residual(s, ID, 1, h, ScalarFunction(s, rule=lambda x: 0.0)))]

    assert _blocked(scans, block=16) == [("raised", ArithmeticError, "undefined at 11")] * 3


def _float_pair(s, gv):
    """g from the values `gv` at each sum, f = 0: every defect is
    g(x + y) - g(x)g(y), which is g(x + y) where g is 0 on the window."""
    return ScalarFunction(s, rule=gv.__getitem__), ScalarFunction(s, rule=lambda x: 0.0)


def test_a_maximum_tied_across_blocks_is_the_first():
    n = 8  # 64 cells, the float scan's least; 16 cells are blocks of two rows
    gv = [0.0] * (2 * n - 1)
    gv[9] = gv[13] = 2.5  # first seen at (2, 7), in the second block, and at (6, 7), in the fourth

    def scan():
        s = _sums(n)
        g, f = _float_pair(s, gv)
        rep = residual(s, ID, 1, g, f)
        return rep, _float_scan(s, s.elements, s.elements, {x: g(x) for x in s.elements},
                                {x: 0.0 for x in s.elements}, g, f.scale(1))

    rep, scanned = _blocked(scan, block=16)
    assert rep == scanned and rep.worst_pair == (2, 7) and rep.max_residual == 2.5


@pytest.mark.parametrize("value, want", [(math.nan, "report"), (complex(1.5e308, 1.5e308), "raised")])
def test_a_nan_or_an_overflow_in_a_later_block_hands_over_to_the_loop(value, want):
    n = 8
    gv = [0.0] * (2 * n - 1)
    gv[12] = value  # first seen at (5, 7), in the third block of two rows

    def scan():
        s = _sums(n)
        g, f = _float_pair(s, gv)
        window = {x: g(x) for x in s.elements}
        handed = _float_scan(s, s.elements, s.elements, window, {x: 0.0 for x in s.elements}, g, f.scale(1))
        return handed, _outcome(lambda: residual(s, ID, 1, g, f))

    handed, rep = _blocked(scan, block=16)
    assert handed is None
    if want == "report":
        assert math.isnan(rep.max_residual) and rep.worst_pair == (5, 7)
    else:
        assert rep[:2] == ("raised", OverflowError)


def _exp_pair(s, bump_at=None):
    """Family 6 on (N0, +): f = 2e**x, g = e**(2x), exact; with g bumped by 1
    at the sum `bump_at`."""
    g = ScalarFunction(s, rule=lambda x: ExpPoly.exp(2 * x) + (1 if x == bump_at else 0))
    return g, ScalarFunction(s, rule=lambda x: ExpPoly({x: 2}))


@pytest.mark.parametrize("bump_at", [None, 10])
def test_a_packed_pass_and_a_packed_failure_in_a_later_block(bump_at):
    verdicts = []
    real = functions.packed_law_holds

    def spy(*args, **kwargs):
        verdicts.append(real(*args, **kwargs))
        return verdicts[-1]

    def scans():
        verdicts.clear()
        s = _sums()
        g, f = _exp_pair(s, bump_at)
        rep = residual(s, ID, 2, g, f)
        chi = ScalarFunction(s, rule=ExpPoly.exp)
        h = ScalarFunction(s, rule=lambda x: x * ExpPoly.exp(x) + (1 if x == bump_at else 0))
        hw, cw = [h(x) for x in s.elements], [chi(x) for x in s.elements]
        bad = law_failure(s, s.elements, s.elements, h, hw, cw, cw, hw)
        return rep, bad, list(verdicts)

    with mock.patch.object(functions, "packed_law_holds", spy), \
            mock.patch.object(analysis, "packed_law_holds", spy):
        whole = scans()
        with mock.patch.object(semigroups, "PAIR_BLOCK_CELLS", 12):
            blocked = scans()
    assert blocked[:2] == whole[:2]
    if bump_at is None:
        assert whole[0].mode == "exact" and whole[0].max_residual == 0.0 and whole[1] is None
        assert blocked[2] == [True] * 3 + [True] * 3  # residual's three blocks, then the sine law's
    else:
        # the sum 10 is the product of (5, 5) only, in the third block: the
        # first two pass packed
        assert whole[0].worst_pair == (5, 5) and whole[1][:2] == (5, 5)
        assert blocked[2] == [True, True, False] * 2


@pytest.mark.parametrize("side", ["xy", "yx"])
def test_condition_ii_failing_on_either_side(side):
    xs, units = (0, 1, 2), (3, 4, 5)
    p = 100 * 2 + 4 if side == "xy" else 100 * 4 + 2  # the pair (2, 4) either way

    def check():
        s = _cells()
        ns = NullSets(i_chi=frozenset(xs), i_chi_sq=frozenset(), p_chi=frozenset(), certified="window")
        _check_condition_ii(s, ns, ScalarFunction(s, rule=_at(p)), units)

    raised = _blocked(check, block=3)
    assert raised[:2] == ("raised", ConditionViolation)
    assert raised[2] == "condition (II) fails: h(2*4 side) != 0"


def test_the_former_pair_stream_callers_agree_with_one_block():
    def scans():
        fx = get_fixture("real-line", window=12)
        s, neg = fx.carrier, fx.sigma("neg")
        pair = construct(s, neg, FamilyDescriptor(8, 2, chi=fx.character("exp", lam=1.25)))
        report = check_G_properties(s, neg, 2, pair.g, pair.f)
        odd = ScalarFunction(s, rule=lambda x: x)
        return (report.ok, report.counterexamples, sorted(product_set(s, s.elements)),
                validate_automorphism(s, neg), is_central(s, pair.g), is_central(s, odd))

    ok, counterexamples, *rest = _blocked(scans, block=20)
    assert ok and not any(counterexamples.values())


def test_validate_names_closure_cells_across_blocks():
    def report():
        sub = ProceduralSemigroup("sub", tuple(range(2, 2 + N)), compose_rule=lambda x, y: x - y,
                                  contains_rule=lambda x: isinstance(x, int) and x >= 2)
        return validate(sub)

    window = range(2, 2 + N)
    assert _blocked(report) == [("closure", x, y) for x in window for y in window if x - y < 2]
    assert _blocked(lambda: validate(_sums())) == []


def test_the_g_symmetry_pass_names_both_cells_across_blocks():
    # on leftzero2 (xy = x) with g = f, alpha = 1/2, every defect is g(x)/2
    # and G = g/2: a residual of 0.4 passes tol 0.5, and G(0) - G(1) = 0.8 does not
    def check():
        fx = get_fixture("leftzero2")
        g = ScalarFunction(fx.carrier, values=[0.8, -0.8])
        return check_G_properties(fx.carrier, fx.sigma("id"), 0.5, g, g, tol=0.5).counterexamples

    assert _blocked(check, block=2)["symmetry"] == [(0, 1), (1, 0)]


def test_a_rule_functions_memo_is_cleared_at_the_budget():
    calls = []
    s = _sums()
    f = ScalarFunction(s, rule=lambda x: calls.append(x) or Fraction(x, 3))
    with mock.patch.object(functions, "PAIR_BLOCK_CELLS", 3):
        assert [f(x) for x in (0, 1, 2, 0, 3, 4, 0)] == [Fraction(x, 3) for x in (0, 1, 2, 0, 3, 4, 0)]
        assert len(f._memo) <= 3
    # 0 is evaluated again only after the memo was cleared at the fourth value
    assert calls == [0, 1, 2, 3, 4, 0]
