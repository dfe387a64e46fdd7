"""Residual verification, structural identities, lemma harnesses, classifier."""

import cmath
import dataclasses
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from coslaw import analysis, families, functions
from coslaw.analysis import (
    NotASolution,
    VerificationReport,
    check_G_properties,
    check_dependence_lemma,
    check_parity_lemma,
    check_linear_dependence,
    classify,
    residual,
)
from coslaw.exactnum import Cyc, ExpPoly
from coslaw.families import (
    FamilyDescriptor,
    InvalidDescriptor,
    _sine_law_failure,
    construct,
    function_vanishing_on_products,
)
from coslaw.fixtures import get_fixture
from coslaw.functions import ScalarFunction, linear_combination, null_sets
from coslaw.semigroups import FiniteSemigroup, InvolutiveAutomorphism, ProceduralSemigroup, pair_blocks

F = Fraction
DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# residual
# ---------------------------------------------------------------------------


def test_zero_pair_has_zero_residual(finite_fixture):
    s = finite_fixture.carrier
    z = ScalarFunction(s, values=[0] * s.order)
    rep = residual(s, finite_fixture.sigma(), 0.7 + 0.2j, z, z)
    assert rep.max_residual == 0.0
    assert rep.pair_count == s.order**2


def test_family8_c3_residual_matches_direct_oracle():
    # oracle: evaluate the defect over all 9 pairs with explicit cube roots
    w = cmath.exp(2j * cmath.pi / 3)
    chi_vals = [1, w, w * w]
    inv = [0, 2, 1]
    alpha = 2
    f_vals = [(1 + alpha) / 2 * chi_vals[x] - (1 - alpha) / 2 * chi_vals[inv[x]] for x in range(3)]
    g_vals = [(1 + alpha) / 2 * chi_vals[x] + (1 - alpha) / 2 * chi_vals[inv[x]] for x in range(3)]
    cayley = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    worst = 0.0
    for x, y in itertools.product(range(3), repeat=2):
        xsy = cayley[x][inv[y]]
        defect = g_vals[xsy] - g_vals[x] * g_vals[y] + f_vals[x] * f_vals[y] - alpha * f_vals[xsy]
        worst = max(worst, abs(defect))
    assert worst < 1e-14  # the closed form solves the equation

    fx = get_fixture("c3")
    pair = construct(fx.carrier, fx.sigma("inv"), FamilyDescriptor(8, 2, chi=fx.characters["chi2"]))
    rep = residual(fx.carrier, fx.sigma("inv"), 2, pair.g, pair.f)
    assert rep.mode == "exact" and rep.max_residual == 0.0
    for x in range(3):
        assert abs(complex(pair.f(x)) - f_vals[x]) < 1e-12
        assert abs(complex(pair.g(x)) - g_vals[x]) < 1e-12


def test_character_with_zero_f_is_solution():
    # g = chi sigma-even, f = 0: g(x sigma(y)) = g(x)g(y) for any alpha
    fx = get_fixture("c2")
    s, sig = fx.carrier, fx.sigma()
    g = fx.characters["chi2"].fn
    f = ScalarFunction(s, values=[0, 0])
    rep = residual(s, sig, 0.3 + 1j, g, f)
    assert rep.max_residual == 0.0


def test_residual_detects_non_solution():
    fx = get_fixture("c2")
    s = fx.carrier
    g = ScalarFunction(s, values=[2.0, 3.0])
    f = ScalarFunction(s, values=[1.0, 1.0])
    rep = residual(s, fx.sigma(), 0, g, f)
    assert rep.max_residual > 0.1
    assert rep.worst_pair is not None


@pytest.mark.parametrize("g_values", [(float("nan"), float("nan")), (1.0, float("nan"))])
def test_residual_nan_defect_fails(g_values):
    fx = get_fixture("c2")
    s = fx.carrier
    g = ScalarFunction(s, values=list(g_values))
    f = ScalarFunction(s, values=[0.0, 0.0])
    rep = residual(s, fx.sigma(), 0, g, f)
    assert not math.isfinite(rep.max_residual)
    assert rep.worst_pair in set(itertools.product(s.elements, repeat=2))
    assert not rep.ok()


# Residual cases whose full reports are pinned in tests/data/residual-reports.json.
# Each builder returns the arguments of `residual`.


def _heisenberg_family8(perturb: bool):
    h = get_fixture("heisenberg", window=2)
    flip = h.sigma("flip")
    pair = construct(h.carrier, flip, FamilyDescriptor(8, 3, chi=h.character("exp", a=1, b=-2)))
    f = pair.f
    if perturb:  # an exact bump at one point makes it a non-solution
        f = f + function_vanishing_on_products(h.carrier, {(1, 0, -1): F(1, 3)})
    return h.carrier, flip, 3, pair.g, f


def _real_line_family8():
    rl = get_fixture("real-line", window=16)
    neg = rl.sigma("neg")
    d = FamilyDescriptor(8, 2 + 0.5j, chi=rl.character("exp", lam=1.25))
    pair = construct(rl.carrier, neg, d)
    return rl.carrier, neg, d.alpha, pair.g, pair.f


def _c3_float_family8():
    c3 = get_fixture("c3")
    inv = c3.sigma("inv")
    d = FamilyDescriptor(8, 0.3 + 0.7j, chi=c3.characters["chi2"])
    pair = construct(c3.carrier, inv, d)
    return c3.carrier, inv, d.alpha, pair.g, pair.f


def _c3_nan():
    c3 = get_fixture("c3")
    g = ScalarFunction(c3.carrier, values=[1.0, float("nan"), 0.5])
    f = ScalarFunction(c3.carrier, values=[0.25, 0.5, 0.75])
    return c3.carrier, c3.sigma("inv"), 1.5, g, f


RESIDUAL_CASES = {
    "heisenberg-family8-exact": lambda: _heisenberg_family8(False),
    "heisenberg-family8-perturbed": lambda: _heisenberg_family8(True),
    "real-line-family8-float": _real_line_family8,
    "c3-family8-float": _c3_float_family8,
    "c3-nan": _c3_nan,
}


def residual_record(rep) -> dict:
    """A report as JSON, bit for bit: the float as hex, the pair as repr."""
    return {
        "max_residual": float.hex(rep.max_residual),
        "worst_pair": repr(rep.worst_pair),
        "pair_count": rep.pair_count,
        "mode": rep.mode,
    }


@pytest.mark.parametrize("case", sorted(RESIDUAL_CASES))
def test_residual_report_matches_recorded(case):
    recorded = json.loads((DATA / "residual-reports.json").read_text())[case]
    assert residual_record(residual(*RESIDUAL_CASES[case]())) == recorded


def test_residual_takes_an_exact_alpha_beyond_float_range():
    # alpha*f comes from f.scale(alpha), whose spec cannot hold 10**400 as a float
    h = get_fixture("heisenberg", window=1)
    z = ScalarFunction(h.carrier, rule=lambda t: 0, spec={"rule": "const", "value": [0.0, 0.0]})
    rep = residual(h.carrier, h.sigma("flip"), 10**400, z, z)
    assert (rep.max_residual, rep.mode) == (0.0, "exact")


def _exp_pair_on_sums(window, bump=None):
    """g = 2*e**x, f = e**x/2 on (N, +) with sigma = id and alpha = -7/2:
    2 = 2**2 - (1/2)**2 + alpha/2, so the pair solves the equation.  At 0
    the values are the int 2 and the Fraction 1/2; elsewhere `ExpPoly`s.
    `bump` adds 1/3 to f at that window point."""
    s = ProceduralSemigroup(
        name="sums", window=window, compose_rule=lambda x, y: x + y,
        contains_rule=lambda x: isinstance(x, int) and x >= 0,
    )

    def g_rule(x):
        return 2 if x == 0 else ExpPoly({x: 2})

    def f_rule(x):
        v = F(1, 2) if x == 0 else ExpPoly({x: F(1, 2)})
        return v + F(1, 3) if x == bump else v

    sid = InvolutiveAutomorphism("id", rule=lambda x: x)
    return s, sid, F(-7, 2), ScalarFunction(s, rule=g_rule), ScalarFunction(s, rule=f_rule)


def test_residual_of_a_scan_mixing_int_fraction_and_exppoly_values():
    s, sid, alpha, g, f = _exp_pair_on_sums((0, 1, 2, 3))
    assert residual(s, sid, alpha, g, f) == VerificationReport(0.0, (0, 0), 16, "exact")
    # a bump at 2 breaks every pair that touches it; the worst defect, first
    # in pair order, is the one the oracle finds
    s, sid, alpha, g, f = _exp_pair_on_sums((0, 1, 2, 3), bump=2)
    defects = {
        (x, y): g(x + y) - g(x) * g(y) + f(x) * f(y) - alpha * f(x + y)
        for x in s.elements for y in s.elements
    }
    worst = max(abs(d) for d in defects.values())
    first = next(p for p, d in defects.items() if abs(d) == worst)
    assert worst > 0
    assert residual(s, sid, alpha, g, f) == VerificationReport(worst, first, 16, "exact")


def test_residual_of_an_empty_window_is_an_exact_zero():
    s, sid, alpha, g, f = _exp_pair_on_sums(())
    assert residual(s, sid, alpha, g, f) == VerificationReport(0.0, None, 0, "exact")


def test_residual_does_not_pack_float_values(monkeypatch):
    def refuse(*args):
        raise AssertionError("float values were packed")

    monkeypatch.setattr(functions, "pack_scan", refuse)
    rep = residual(*_c3_float_family8())
    assert rep.mode == "float" and rep.ok()
    # an exact alpha with float window values bails out before any product
    c3 = get_fixture("c3")
    g = ScalarFunction(c3.carrier, values=[1.0, 1.0, 1.0])
    assert residual(c3.carrier, c3.sigma("inv"), F(1, 2), g, g.scale(0)).mode == "float"


def _naturals_like(window):
    return ProceduralSemigroup(
        name="naturals", window=window, compose_rule=lambda x, y: x * y,
        contains_rule=lambda x: isinstance(x, int) and x >= 2,
    )


def test_residual_domain_error_when_sigma_leaves_the_carrier():
    s = _naturals_like(tuple(range(2, 9)))
    down = InvolutiveAutomorphism("down", rule=lambda x: x - 1)  # maps 2 to 1
    one = ScalarFunction(s, rule=lambda x: 1)
    with pytest.raises(ValueError, match="domain"):
        residual(s, down, 0, one, one)
    c2 = FiniteSemigroup(cayley=((0, 1), (1, 0)))
    bad = InvolutiveAutomorphism("bad", perm=(0, 5))
    z = ScalarFunction(c2, values=[0, 0])
    with pytest.raises(IndexError):
        residual(c2, bad, 0, z, z)


def _sums(k, rule=None):
    """(N0, +) windowed to 0..k-1; `rule` replaces the sum."""
    return ProceduralSemigroup(
        name="sums", window=tuple(range(k)), compose_rule=rule or (lambda x, y: x + y),
        contains_rule=lambda x: isinstance(x, int) and x >= 0,
    )


SUMS_ID = InvolutiveAutomorphism("id", rule=lambda x: x)
_rational = st.one_of(st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=6))
_exact = st.one_of(
    _rational,
    st.dictionaries(st.integers(-3, 3), st.fractions(min_value=-9, max_value=9, max_denominator=6),
                    max_size=3).map(ExpPoly),
)
_rational_bump = st.one_of(st.integers(1, 5), st.just(F(-1, 3)))
_bump = st.one_of(_rational_bump, st.just(ExpPoly({-1: 2})))
_coefficient = st.one_of(st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=5))


@st.composite
def _pairwise_scans(draw):
    """A window 0..k-1 of (N0, +) and exact values on 0..2k-2 (every product)
    of a residual pair (family 1: g = alpha*f) and of a sine-law pair
    (h(x) = b*x*chi(x), chi(x) = c**x e**(a*x)).  `mode` keeps them solutions
    ("zero"), bumps them at 2k-2, which only the pair (k-1, k-1) reaches
    ("one"), bumps them at a random point ("some") or replaces g and h by
    random values ("random").  With `combo`, g and f are nodes over random
    exact bases instead of value rules: f a linear combination of them, g
    alpha*f (`f.scale(alpha)`, or the combination with the coefficients
    times alpha, sharing f's bases), a bump a further base added to g, and a
    random g a combination of f's bases and one of its own.  With
    `rational`, every value, alpha and bump is an int or Fraction, so each
    scan packs at degree 0."""
    mode = draw(st.sampled_from(["zero", "one", "some", "random"]))
    k = draw(st.integers(2 if mode == "one" else 1, 5))  # 2k-2 is no window point
    top = 2 * k - 1
    rational = draw(st.booleans())
    values, bumps = (_rational, _rational_bump) if rational else (_exact, _bump)
    alpha = draw(st.sampled_from([1, -1, F(-1)] + ([] if rational else [ExpPoly.const(1)])))
    fv = draw(st.lists(values, min_size=top, max_size=top))
    gv = [alpha * v for v in fv]
    a = 0 if rational else draw(st.integers(-2, 2))
    b = draw(st.fractions(min_value=-4, max_value=4, max_denominator=3))
    c = draw(st.sampled_from([1, 2, F(-1, 2), F(3)]))
    chi = [ExpPoly({a * x: c**x}) if a else c**x for x in range(top)]
    hv = [b * x * chi[x] for x in range(top)]
    combo = None
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        bases = draw(st.lists(st.lists(values, min_size=top, max_size=top), min_size=n, max_size=n))
        coefs = draw(st.lists(_coefficient, min_size=n, max_size=n))
        combo = {"bases": bases, "coefs": coefs, "flat": draw(st.booleans()), "bump": None}
    if mode == "random":
        gv = draw(st.lists(values, min_size=top, max_size=top))
        hv = draw(st.lists(values, min_size=top, max_size=top))
        if combo:
            combo["random"] = draw(st.lists(_coefficient, min_size=n + 1, max_size=n + 1))
    elif mode != "zero":
        at = top - 1 if mode == "one" else draw(st.integers(0, top - 1))
        bump = draw(bumps)
        gv[at] = gv[at] + bump
        hv[at] = hv[at] + draw(bumps)
        if combo:
            combo["bump"] = (at, bump)
    return k, mode, alpha, gv, fv, hv, chi, combo


def _combo_pair(s, alpha, gv, combo):
    """(g, f) of `_pairwise_scans`' combo draw on the carrier s."""
    bases = [ScalarFunction(s, rule=v.__getitem__) for v in combo["bases"]]
    f = linear_combination(list(zip(combo["coefs"], bases)))
    if "random" in combo:
        own = ScalarFunction(s, rule=gv.__getitem__)
        return linear_combination(list(zip(combo["random"], bases + [own]))), f
    if combo["flat"] and not isinstance(alpha, ExpPoly):
        g = linear_combination([(alpha * c, base) for c, base in zip(combo["coefs"], bases)])
    else:
        g = f.scale(alpha)
    if combo["bump"] is not None:
        at, bump = combo["bump"]
        g = g + ScalarFunction(s, rule=lambda x: bump if x == at else 0)
    return g, f


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_pairwise_scans())
def test_packed_and_symbolic_scans_give_the_same_verdicts(data):
    k, mode, alpha, gv, fv, hv, chi, combo = data
    s = _sums(k)
    g, f, h, ch = (ScalarFunction(s, rule=v.__getitem__) for v in (gv, fv, hv, chi))
    if combo:
        g, f = _combo_pair(s, alpha, gv, combo)
    rep, bad = residual(s, SUMS_ID, alpha, g, f), _sine_law_failure(s, h, ch)
    # the only packer: patched out, both scans take the symbolic path
    with mock.patch.object(functions, "pack_scan", lambda *args: None):
        assert residual(s, SUMS_ID, alpha, g, f) == rep
        assert _sine_law_failure(s, h, ch) == bad
    if mode == "zero":
        assert rep == VerificationReport(0.0, (0, 0), k * k, "exact") and bad is None
        # ... and the packed scans alone said so, with no symbolic fallback
        elems = s.elements
        gw, fw = {x: g(x) for x in elems}, {x: f(x) for x in elems}
        assert analysis._packed_defects_vanish(s, elems, elems, alpha, gw, fw, g, f.scale(alpha))
        hw, cw = list(map(h, elems)), list(map(ch, elems))
        assert functions.packed_law_holds(next(pair_blocks(s, elems, elems)), ((1, h),), hw, cw, cw, hw)
    if mode == "one":
        assert rep.worst_pair == (k - 1, k - 1) and rep.max_residual > 0
        assert bad[:2] == (k - 1, k - 1)


def _counting_sums(k):
    s = _sums(k)
    calls = []

    def rule(x, y):
        calls.append((x, y))
        return x + y

    return dataclasses.replace(s, compose_rule=rule), calls


def _exp_family6(s, a1, a2, alpha):
    """Family 6 on (N0, +): f = alpha*e**(a1*x), g = e**(a2*x)."""
    g = ScalarFunction(s, rule=lambda x: ExpPoly.exp(a2 * x))
    return g, ScalarFunction(s, rule=lambda x: ExpPoly({a1 * x: alpha}))


def test_a_repeated_exact_scan_takes_each_window_product_once():
    s, calls = _counting_sums(9)
    n = len(s.elements)
    for a1, a2 in ((1, 2), (-1, 3)):
        rep = residual(s, SUMS_ID, F(2, 3), *_exp_family6(s, a1, a2, F(2, 3)))
        assert rep.ok() and rep.mode == "exact"
        # the first scan builds the carrier's pair table: n^2 products, not
        # 2n^2; the second reads it
        assert len(calls) == (n * n if a1 == 1 else 0)
        calls.clear()
    # the sine law scans the window with itself: sigma = id's table again
    chi = ScalarFunction(s, rule=lambda x: ExpPoly.exp(x))
    h = ScalarFunction(s, rule=lambda x: x * ExpPoly.exp(x))
    assert _sine_law_failure(s, h, chi) is None and calls == []
    s, calls = _counting_sums(9)
    assert _sine_law_failure(s, h, chi) is None and len(calls) == n * n


def test_equal_carriers_with_different_rules_keep_their_own_pair_tables():
    s = _sums(6)
    other = dataclasses.replace(s, compose_rule=max)
    assert s == other  # carrier equality ignores compose_rule
    g, f = _exp_family6(s, 1, 2, 3)
    chi = ScalarFunction(s, rule=lambda x: ExpPoly.exp(x))
    h = ScalarFunction(s, rule=lambda x: x * ExpPoly.exp(x))
    assert residual(s, SUMS_ID, 3, g, f).max_residual == 0.0
    assert _sine_law_failure(s, h, chi) is None
    assert residual(other, SUMS_ID, 3, g, f).max_residual > 0
    assert _sine_law_failure(other, h, chi)[:2] == (1, 1)


def test_null_sets_domain_error_on_an_element_outside_the_carrier():
    # null_sets reads no sigma; the carrier refuses the bad window element
    # when it is built, before null_sets runs
    ident = InvolutiveAutomorphism("id", rule=lambda x: x)
    with pytest.raises(ValueError, match="domain"):
        s = _naturals_like(tuple(range(1, 13)))
        null_sets(s, ident, ScalarFunction(s, rule=lambda x: x % 2))


# ---------------------------------------------------------------------------
# G properties
# ---------------------------------------------------------------------------


def test_g_properties_on_family_solutions(finite_fixture):
    fx = finite_fixture
    s = fx.carrier
    for sigma in fx.sigmas:
        f = ScalarFunction(s, values=[complex(k + 1, k) for k in range(s.order)])
        pair = construct(s, sigma, FamilyDescriptor(1, -1), free_f=f)
        rep = check_G_properties(s, sigma, -1, pair.g, pair.f)
        assert rep.ok


def test_g_properties_sigma_id_trivial():
    fx = get_fixture("c3")
    s, sig = fx.carrier, fx.sigma("id")
    chi = fx.characters["chi2"]
    pair = construct(s, sig, FamilyDescriptor(4, F(1, 2), q=F(1, 2), branch=1, chi=chi))
    rep = check_G_properties(s, sig, F(1, 2), pair.g, pair.f)
    assert rep.ok and not rep.counterexamples["sigma_on_triples"]


@pytest.mark.parametrize("name, window, params, alpha", [
    ("real-line", None, {"lam": 1}, 2),
    ("heisenberg", 1, {"a": 1, "b": 2}, 3),
])
def test_g_properties_on_procedural_family8(name, window, params, alpha):
    fx = get_fixture(name, window=window)
    s, sig = fx.carrier, fx.sigmas[0]
    pair = construct(s, sig, FamilyDescriptor(8, alpha, chi=fx.character("exp", **params)))
    assert check_G_properties(s, sig, alpha, pair.g, pair.f).ok


@pytest.mark.parametrize("name, window, sigma, chi", [
    ("c3", None, "inv", {}),
    ("heisenberg", 2, "flip", {"a": 1, "b": 2}),
], ids=["c3", "heisenberg"])
def test_g_properties_keeps_no_pair_table_but_the_residuals(name, window, sigma, chi):
    # the products xy and xyz come from one left_rows pass, which keeps nothing
    fx = get_fixture(name, window=window)
    s, sig = fx.carrier, fx.sigma(sigma)
    chi = fx.character("exp", **chi) if chi else fx.characters["chi2"]
    pair = construct(s, sig, FamilyDescriptor(8, 3, chi=chi))
    vars(s).pop("_pair_tables", None)
    assert check_G_properties(s, sig, 3, pair.g, pair.f).ok
    elems = s.checked(s.elements)
    assert list(vars(s)["_pair_tables"]) == [(elems, s.checked(map(sig, elems)))]


def test_g_properties_flags_non_solution():
    fx = get_fixture("c2")
    s = fx.carrier
    g = ScalarFunction(s, values=[2.0, 3.0])
    f = ScalarFunction(s, values=[1.0, 5.0])
    rep = check_G_properties(s, fx.sigma(), 1, g, f)
    assert not rep.hypothesis_ok


# ---------------------------------------------------------------------------
# linear dependence
# ---------------------------------------------------------------------------


def test_dependence_scaled():
    fx = get_fixture("c3")
    g = ScalarFunction(fx.carrier, values=[1.0, 2.0, 3.0])
    f = g.scale(3)
    dep, (c1, c2) = check_linear_dependence(f, g)
    assert dep
    assert abs(3 * c1 + c2) < 1e-9 and (abs(c1) + abs(c2)) > 0


def test_dependence_exact_witness():
    fx = get_fixture("c3")
    g = ScalarFunction(fx.carrier, values=[F(1), F(2), F(3)])
    f = g.scale(F(3))
    dep, (c1, c2) = check_linear_dependence(f, g)
    assert dep and c1 * F(3) + c2 * F(1) == 0


def test_independent_characters():
    fx = get_fixture("c2")
    f = fx.characters["chi1"].fn
    g = fx.characters["chi2"].fn
    # oracle: the 2x2 determinant at (e, g) is 1*(-1) - 1*1 = -2 != 0
    dep, _ = check_linear_dependence(f, g)
    assert not dep


def test_zero_f_dependent():
    fx = get_fixture("c2")
    f = ScalarFunction(fx.carrier, values=[0, 0])
    g = ScalarFunction(fx.carrier, values=[1, 2])
    dep, wit = check_linear_dependence(f, g)
    assert dep and wit == (1, 0)


def test_float_dependence_of_zero_and_of_independent_functions():
    s = get_fixture("c2").carrier
    zero = ScalarFunction(s, values=[0.0, 0.0])
    assert check_linear_dependence(zero, zero) == (True, (1, 0))
    e1, e2 = ScalarFunction(s, values=[1.0, 0.0]), ScalarFunction(s, values=[0.0, 1.0])
    assert check_linear_dependence(e1, e2) == (False, None)


def test_dependence_mixed_exact_types_divide_as_complex():
    # ExpPoly / Cyc has no exact quotient, so the pivot ratio is complex
    assert analysis._div(ExpPoly.exp(1), Cyc.rational(1, 1)) == pytest.approx(math.e / (1 + 1j))
    h = get_fixture("heisenberg", window=1)
    f = h.character("exp", a=1, b=2).fn
    g = ScalarFunction(h.carrier, rule=lambda t: Cyc.rational(1, 1))
    assert check_linear_dependence(f, g) == (False, None)
    assert check_linear_dependence(g, f) == (False, None)


# ---------------------------------------------------------------------------
# dependence-lemma harness
# ---------------------------------------------------------------------------


def _null3_equation_solutions(beta):
    """Oracle: grid-search solutions of f(xy) = beta f(x)f(y) - beta g(x)g(y)
    on the 3-element null semigroup with g = 0 on S^2 = {z}."""
    s = get_fixture("null3").carrier
    grid = [0, 1, -1, 1j]
    found = []
    for fv in itertools.product(grid, repeat=3):
        for g1, g2 in itertools.product(grid, repeat=2):
            gv = (0, g1, g2)
            if all(abs(v) == 0 for v in gv):
                continue
            ok = all(
                abs(fv[s.compose(x, y)] - beta * fv[x] * fv[y] + beta * gv[x] * gv[y]) < 1e-12
                for x in range(3)
                for y in range(3)
            )
            if ok:
                found.append((fv, gv))
    return found


def test_dependence_lemma_on_null3_grid():
    fx = get_fixture("null3")
    s, sig = fx.carrier, fx.sigma("id")
    beta = 1
    sols = _null3_equation_solutions(beta)
    assert sols  # the grid contains non-trivial instances
    for fv, gv in sols:
        f = ScalarFunction(s, values=list(fv))
        g = ScalarFunction(s, values=list(gv))
        rep = check_dependence_lemma(s, sig, beta, f, g)
        assert rep.hypothesis_ok and rep.ok  # dependence confirmed


def test_dependence_lemma_vacuous_cases():
    fx = get_fixture("null3")
    s, sig = fx.carrier, fx.sigma("id")
    zero = ScalarFunction(s, values=[0, 0, 0])
    some = ScalarFunction(s, values=[0, 1, 1])
    rep = check_dependence_lemma(s, sig, 1, some, zero)  # g = 0: hypotheses fail
    assert not rep.hypothesis_ok
    # f = 0 cannot satisfy the equation with g != 0 (g(x)^2 = 0 forces g = 0),
    # but the dependence conclusion itself is trivially true
    rep2 = check_dependence_lemma(s, sig, 1, zero, some)
    assert not rep2.hypothesis_ok
    dep, wit = check_linear_dependence(zero, some)
    assert dep and wit == (1, 0)


def test_dependence_lemma_refusals_name_the_failed_hypothesis():
    fx = get_fixture("c2")
    s, sig = fx.carrier, fx.sigma("id")
    f = ScalarFunction(s, values=[1, 1])
    rep = check_dependence_lemma(s, sig, 0, f, ScalarFunction(s, values=[0, 1]))
    assert (rep.hypothesis_ok, rep.hypothesis_detail) == (False, "hypothesis fails: beta = 0")
    # g(0*1) = g(1) = 1: g does not vanish on S^2
    rep = check_dependence_lemma(s, sig, 1, f, ScalarFunction(s, values=[0, 1]))
    assert (rep.hypothesis_ok, rep.hypothesis_detail) == (False, "hypothesis fails: g(0*1) != 0")


# ---------------------------------------------------------------------------
# parity-lemma harness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("chis, coefficients, detail", [
    (("chi2", "chi2"), (1, 1, 1, -1), "need two different non-zero chi"),
    (("chi2", "chi3"), (0, 1, 1, -1), "a1, a2 must be non-zero"),
    (("chi2", "chi3"), (1, 1, 0, 0), "g = 0"),
], ids=["same-chi", "a1-zero", "g-zero"])
def test_parity_lemma_refusals_name_the_failed_hypothesis(chis, coefficients, detail):
    fx = get_fixture("c3")
    chi1, chi2 = (fx.characters[name] for name in chis)
    rep = check_parity_lemma(chi1, chi2, *coefficients, fx.sigma("inv"))
    assert (rep.hypothesis_ok, rep.hypothesis_detail) == (False, f"hypothesis fails: {detail}")


def test_parity_lemma_even_odd_combination():
    fx = get_fixture("c3")
    inv = fx.sigma("inv")
    chi, chi_star = fx.characters["chi2"], fx.characters["chi3"]
    rep = check_parity_lemma(chi, chi_star, 1, 1, 2, -2, inv)
    assert rep.hypothesis_ok and "(1)" in rep.hypothesis_detail and rep.ok


def test_parity_lemma_swapped_parities():
    fx = get_fixture("c3")
    inv = fx.sigma("inv")
    chi, chi_star = fx.characters["chi2"], fx.characters["chi3"]
    rep = check_parity_lemma(chi, chi_star, 1, -1, 2, 2, inv)
    assert rep.hypothesis_ok and "(2)" in rep.hypothesis_detail and rep.ok


def test_parity_lemma_sigma_id_vacuous():
    fx = get_fixture("c2")
    rep = check_parity_lemma(
        fx.characters["chi1"], fx.characters["chi2"], 1, 1, 1, -1, fx.sigma("id")
    )
    assert not rep.hypothesis_ok  # no non-zero odd functions under sigma = id


def test_parity_lemma_real_line_parity():
    rl = get_fixture("real-line")
    neg = rl.sigma("neg")
    chi1 = rl.character("exp", lam=1.0)
    chi2 = rl.character("exp", lam=-1.0)
    rep = check_parity_lemma(chi1, chi2, 1, 1, 1, -1, neg)
    assert rep.hypothesis_ok and "(1)" in rep.hypothesis_detail and rep.ok


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------


def test_classify_family6():
    fx = get_fixture("c2")
    s, sig = fx.carrier, fx.sigma()
    d = FamilyDescriptor(6, 2, chi1=fx.characters["chi1"], chi2=fx.characters["chi2"])
    pair = construct(s, sig, d)
    res = classify(s, sig, 2, pair.g, pair.f)
    assert res.family_tag == 6
    assert res.descriptor.chi1.same_as(fx.characters["chi1"])
    assert res.match_residual == 0.0


def test_classify_family2_on_null3():
    fx = get_fixture("null3")
    s, sig = fx.carrier, fx.sigma("id")
    g = function_vanishing_on_products(s, {1: 1.0, 2: -2.0})
    pair = construct(s, sig, FamilyDescriptor(2, 0), free_f=g)
    res = classify(s, sig, 0, pair.g, pair.f)
    assert res.family_tag == 2


def test_classify_family8_on_c3():
    fx = get_fixture("c3")
    s, sig = fx.carrier, fx.sigma("inv")
    pair = construct(s, sig, FamilyDescriptor(8, 1j, chi=fx.characters["chi3"]))
    res = classify(s, sig, 1j, pair.g, pair.f)
    assert res.family_tag == 8
    assert not res.descriptor.chi.same_as(res.descriptor.chi.star(sig))


def test_classify_zero_solution_is_family4():
    fx = get_fixture("leftzero2")
    s = fx.carrier
    z = ScalarFunction(s, values=[0, 0])
    res = classify(s, fx.sigma(), 0.5, z, z)
    assert res.family_tag == 4
    assert abs(complex(res.descriptor.q) + 0.5) < 1e-12  # q = -alpha


def test_classify_respects_order_family1_first():
    fx = get_fixture("null3")
    s, sig = fx.carrier, fx.sigma("id")
    g = function_vanishing_on_products(s, {1: 1.0})
    pair = construct(s, sig, FamilyDescriptor(1, 1), free_f=g)
    res = classify(s, sig, 1, pair.g, pair.f)
    assert res.family_tag == 1  # also a family-2 shape, but 1 is tested first


def test_classify_rejects_non_solution():
    fx = get_fixture("c2")
    s = fx.carrier
    g = ScalarFunction(s, values=[2.0, 3.0])
    with pytest.raises(NotASolution):
        classify(s, fx.sigma(), 0, g, g)


def test_classify_requires_finite_carrier():
    rl = get_fixture("real-line")
    z = ScalarFunction(rl.carrier, rule=lambda x: 0)
    with pytest.raises(TypeError):
        classify(rl.carrier, rl.sigma("neg"), 0, z, z)


def test_classify_sigma_id_specialization():
    # with sigma = id the evenness conditions hold vacuously: families 5-7
    # classify exactly as in the untwisted catalogue
    fx = get_fixture("c3")
    s, sig = fx.carrier, fx.sigma("id")
    evens = [fx.characters["chi1"], fx.characters["chi2"]]
    d = FamilyDescriptor(5, 0.5, q=1.5, branch=1, chi1=evens[0], chi2=evens[1])
    pair = construct(s, sig, d)
    res = classify(s, sig, 0.5, pair.g, pair.f)
    assert res.family_tag == 5


def test_classify_family7_degenerate_overlaps_family4():
    # h = 0 collapses family 7 onto f = alpha*chi, g = chi, which the fixed
    # order files under family 4 (q = alpha); the rebuilt pair must agree
    from coslaw.families import HSpec

    fx = get_fixture("c2")
    s, sig = fx.carrier, fx.sigma()
    d = FamilyDescriptor(7, 0.75, branch=1, chi=fx.characters["chi2"], h_spec=HSpec())
    pair = construct(s, sig, d)
    res = classify(s, sig, 0.75, pair.g, pair.f)
    assert res.family_tag == 4
    rebuilt = construct(s, sig, res.descriptor)
    assert rebuilt.g.max_diff(pair.g) < 1e-12
    assert rebuilt.f.max_diff(pair.f) < 1e-12


def test_classify_exact_mode_round_trip():
    fx = get_fixture("c2")
    s, sig = fx.carrier, fx.sigma()
    d = FamilyDescriptor(5, 0, q=F(3, 4), branch=1,
                         chi1=fx.characters["chi1"], chi2=fx.characters["chi2"])
    pair = construct(s, sig, d)
    res = classify(s, sig, 0, pair.g, pair.f)
    assert res.family_tag == 5 and res.match_residual == 0.0
    rebuilt = construct(s, sig, res.descriptor)
    assert rebuilt.g.equal_to(pair.g, tol=0) and rebuilt.f.equal_to(pair.f, tol=0)


def test_classify_rejects_a_pair_whose_g_matches_but_f_does_not():
    """g is family 4's g for the q that f's value at x0 gives, so the
    candidate passes on g; f is off at the other point, so f's diff still
    decides and the candidate is rejected."""
    fx = get_fixture("c2")
    s, sig = fx.carrier, fx.sigma()
    d = FamilyDescriptor(4, 0.5, q=1.5, branch=1, chi=fx.characters["chi2"])
    pair = construct(s, sig, d)
    f = ScalarFunction(s, values=[complex(pair.f(0)), complex(pair.f(1)) + 0.25])
    assert classify(s, sig, 0.5, pair.g, pair.f).family_tag == 4
    # f(x0) is unchanged, so family 4's candidate rebuilds this very g
    assert construct(s, sig, d).g.max_diff(pair.g) == 0.0
    assert construct(s, sig, d).f.max_diff(f) == 0.25
    res = classify(s, sig, 0.5, pair.g, f, _verified_residual=0.0)
    assert res.family_tag == "unclassified" and res.match_residual == math.inf


def test_classify_match_residual_is_the_max_of_both_diffs():
    """On solver output, where the diffs are rounding noise of either sign
    of g_diff - f_diff, the winner's match_residual is max(g_diff, f_diff)
    of the candidate rebuilt from its descriptor."""
    from coslaw.solver import SolverConfig, find_solutions

    fx = get_fixture("c2")
    s, sig = fx.carrier, fx.sigma()
    sols = find_solutions(s, sig, 0.5, SolverConfig(restarts=200, seed=42))
    larger = set()
    for e in sols.entries:
        pair = e.as_pair(s, 0.5)
        res = classify(s, sig, 0.5, pair.g, pair.f)
        rebuilt = construct(s, sig, res.descriptor)
        g_diff, f_diff = rebuilt.g.max_diff(pair.g), rebuilt.f.max_diff(pair.f)
        assert res.match_residual == max(g_diff, f_diff)
        larger.add("g" if g_diff > f_diff else "f" if f_diff > g_diff else "=")
    assert larger == {"g", "f", "="}


def test_classify_rejects_a_nan_in_g():
    fx = get_fixture("c2")
    s, sig = fx.carrier, fx.sigma()
    chi = fx.characters["chi1"].fn
    g = ScalarFunction(s, values=[math.nan, 1.0])
    assert classify(s, sig, 0.5, chi, chi.scale(0.5)).family_tag == 4
    for f in (chi.scale(0.5), g):
        res = classify(s, sig, 0.5, g, f, _verified_residual=0.0)
        assert res.family_tag == "unclassified" and res.match_residual == math.inf


def test_classify_tests_vanishing_on_products_once(monkeypatch):
    """Families 2 and 3 share one scan of g on S^2 in `_candidates`; where g
    does not vanish there, neither is constructed."""
    calls = []
    real = families._s2_failure

    def counting(s, g):
        calls.append(g)
        return real(s, g)

    monkeypatch.setattr(families, "_s2_failure", counting)
    monkeypatch.setattr(analysis, "_s2_failure", counting)
    c2, null3 = get_fixture("c2"), get_fixture("null3")
    d = FamilyDescriptor(6, 2, chi1=c2.characters["chi1"], chi2=c2.characters["chi2"])
    pair = construct(c2.carrier, c2.sigma("id"), d)
    assert classify(c2.carrier, c2.sigma("id"), 2, pair.g, pair.f).family_tag == 6
    assert calls == [pair.g]
    calls.clear()
    g = ScalarFunction(null3.carrier, values=[0, F(1, 2), 3])
    assert classify(null3.carrier, null3.sigma("id"), F(1, 3), g, g).family_tag == 2
    assert calls == [g, g]  # classify's scan, then construct's check of family 2


def test_classify_attempts_follow_the_decision_order(monkeypatch):
    """Every candidate `classify` constructs, in order: a stub `construct`
    that rejects everything logs the whole stream; the real one logs the
    prefix up to the hit."""
    order = (1, 2, 3, 4, 6, 8, 5, 7)
    c3, c2, null3 = get_fixture("c3"), get_fixture("c2"), get_fixture("null3")
    # families 2 and 3 are candidates only where g vanishes on S^2: null3's
    # S^2 is {0}
    vanishing = ScalarFunction(null3.carrier, values=[0, 1, 2])
    cases = (
        (c3, "inv", F(1, 2), FamilyDescriptor(8, F(1, 2), chi=c3.characters["chi3"])),
        (c2, "id", 1, FamilyDescriptor(6, 1, chi1=c2.characters["chi1"], chi2=c2.characters["chi2"])),
        (null3, "id", F(1, 2), FamilyDescriptor(2, F(1, 2), free=vanishing)),
    )
    real = analysis.construct
    seen = set()
    for fx, sigma, alpha, d in cases:
        s, sig = fx.carrier, fx.sigma(sigma)
        pair = real(s, sig, d)
        want = classify(s, sig, alpha, pair.g, pair.f)
        logs, results = {}, {}
        for reject in (False, True):
            log = logs[reject] = []

            def logged(s, sigma, d, log=log, reject=reject):
                log.append((d.family, d.free))
                if reject:
                    raise InvalidDescriptor("rejected by the test")
                return real(s, sigma, d)

            monkeypatch.setattr(analysis, "construct", logged)
            results[reject] = classify(s, sig, alpha, pair.g, pair.f)
            monkeypatch.setattr(analysis, "construct", real)
        assert results[False].as_json() == want.as_json()
        assert results[True].family_tag == "unclassified"
        full = logs[True]
        ranks = [order.index(family) for family, _ in full]
        assert ranks == sorted(ranks)
        assert full[-1][0] == 7  # the stream reaches family 7
        assert logs[False] == full[: len(logs[False])]
        assert logs[False][-1][0] == want.family_tag
        for family, free in full:
            if family in (2, 3):
                assert free is pair.g
            elif family == 1:
                assert free is pair.f
            else:
                assert free is None
        seen.update(family for family, _ in full)
    assert seen == set(order)
