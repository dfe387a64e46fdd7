"""Scalar functions: parity decomposition, characters, null sets."""

import cmath
import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coslaw import functions
from coslaw.exactnum import VERIFY_TOL, Cyc, ExpPoly, values_equal
from coslaw.families import FamilyDescriptor, construct
from coslaw.fixtures import FIXTURE_NAMES, get_fixture
from coslaw.functions import (
    MultiplicativeFunction,
    NullSets,
    ScalarFunction,
    character_table,
    check_pchi_lemma,
    enumerate_multiplicative,
    even_part,
    is_additive,
    is_multiplicative,
    law_failure,
    linear_combination,
    nonzero_product,
    null_sets,
    odd_part,
    star,
)
from coslaw.semigroups import FiniteSemigroup, InvolutiveAutomorphism, ProceduralSemigroup

F = Fraction

complex_values = st.complex_numbers(
    min_magnitude=0, max_magnitude=4, allow_nan=False, allow_infinity=False
)


# ---------------------------------------------------------------------------
# star and parity
# ---------------------------------------------------------------------------


def test_star_identity_sigma():
    fx = get_fixture("c3")
    f = ScalarFunction(fx.carrier, values=[1.0, 2.0, 3.0])
    assert star(f, fx.sigma("id")).equal_to(f)


def test_star_exponential_on_real_line():
    rl = get_fixture("real-line")
    chi = rl.character("exp", lam=1.25)
    st_fn = star(chi.fn, rl.sigma("neg"))
    for x in rl.carrier.elements[:8]:
        assert abs(st_fn(x) - cmath.exp(-1.25j * x)) < 1e-12


def test_star_is_involution():
    rl = get_fixture("real-line")
    f = rl.character("exp", lam=2 + 1j).fn
    twice = star(star(f, rl.sigma("neg")), rl.sigma("neg"))
    assert twice.equal_to(f, tol=1e-12)


def test_euler_split_on_grid():
    # oracle: cos and i*sin evaluated independently via cmath
    rl = get_fixture("real-line")
    neg = rl.sigma("neg")
    f = rl.character("exp", lam=1.0).fn
    ev, od = even_part(f, neg), odd_part(f, neg)
    for x in rl.carrier.elements:
        assert abs(ev(x) - cmath.cos(x)) < 1e-12
        assert abs(od(x) - 1j * cmath.sin(x)) < 1e-12


@given(st.lists(complex_values, min_size=3, max_size=3),
       st.lists(complex_values, min_size=3, max_size=3),
       complex_values, complex_values)
def test_star_linearity_and_decomposition(fv, gv, a, b):
    fx = get_fixture("c3")
    sig = fx.sigma("inv")
    f = ScalarFunction(fx.carrier, values=fv)
    g = ScalarFunction(fx.carrier, values=gv)
    lin = star(linear_combination([(a, f), (b, g)]), sig)
    direct = linear_combination([(a, star(f, sig)), (b, star(g, sig))])
    assert lin.max_diff(direct) < 1e-9
    recomposed = even_part(f, sig) + odd_part(f, sig)
    assert recomposed.max_diff(f) < 1e-9
    # even part of an odd part vanishes
    assert even_part(odd_part(f, sig), sig).is_zero(tol=1e-9)
    # even/odd parts are sigma-even / sigma-odd pointwise
    ev, od = even_part(f, sig), odd_part(f, sig)
    for x in fx.carrier.elements:
        assert abs(ev(x) - ev(sig(x))) < 1e-9
        assert abs(od(x) + od(sig(x))) < 1e-9


# ---------------------------------------------------------------------------
# linear combination nodes
# ---------------------------------------------------------------------------


def _same_bits(a, b) -> bool:
    """Equal type and repr: tells -0.0 from 0.0 and keeps a NaN part."""
    return (type(a), repr(a)) == (type(b), repr(b))


def _float_bases():
    """real-line-like (R, +) on four points, sigma = x -> -x, and three
    bases: p complex with complex(inf, 0) at 1.0, q float, r float."""
    s = ProceduralSemigroup(
        name="line", window=(-1.0, 0.5, 1.0, 2.0), compose_rule=lambda x, y: x + y,
        contains_rule=lambda x: isinstance(x, float),
    )
    neg = InvolutiveAutomorphism("neg", rule=lambda x: -x)
    pv = {-1.0: 0.3 + 0.7j, 0.5: -1.1 + 0.1j, 1.0: complex(float("inf"), 0), 2.0: 2.9 - 0.4j,
          -0.5: 0.2j, -2.0: -0.9 + 0.0j}
    qv = {x: 0.1 * x + 0.7 for x in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)}
    rv = {x: 1.0 / (3.0 + x) for x in qv}
    p, q, r = (ScalarFunction(s, rule=v.__getitem__) for v in (pv, qv, rv))
    return s, neg, p, q, r


def test_float_and_complex_nodes_keep_the_expressions_bits():
    s, neg, p, q, r = _float_bases()
    third, c = F(1, 3), 0.1
    a = p.scale(c) + q                                   # c*p + q
    b = a.scale(1 / 3)                                   # (1/3)*(c*p + q)
    mix = linear_combination([(third, q), (2.5, a), (-0.7j, r)])
    d = b + mix                                          # nested sum kept
    e = d - p.scale(1j)
    plain = q + p                                        # no coefficient on either
    ev, od = even_part(e, neg), odd_part(e, neg)
    twice = e.scale(0.3).scale(7.0)                      # 7.0*(0.3*e), not 2.1*e

    def e_by_hand(x):
        ax = c * p(x) + q(x)
        mixx = third * q(x) + 2.5 * ax + -0.7j * r(x)
        return (1 / 3) * ax + mixx + -1 * (1j * p(x))

    for x in s.elements:
        assert _same_bits(a(x), c * p(x) + q(x))
        assert _same_bits(e(x), e_by_hand(x))
        assert _same_bits(plain(x), q(x) + p(x))
        assert _same_bits(ev(x), F(1, 2) * e_by_hand(x) + F(1, 2) * e_by_hand(-x))
        assert _same_bits(od(x), F(1, 2) * e_by_hand(x) + F(-1, 2) * e_by_hand(-x))
        assert _same_bits(twice(x), 7.0 * (0.3 * e_by_hand(x)))
        assert _same_bits(star(e, neg)(x), e_by_hand(-x))
    # a term added by + is not multiplied by 1: 1*complex(inf, 0) is inf+nanj
    inf = complex(float("inf"), 0)
    assert p(1.0) == inf and _same_bits(plain(1.0), q(1.0) + inf)
    assert not cmath.isnan(plain(1.0)) and cmath.isnan((p.scale(1) + q)(1.0))


def test_an_integral_float_or_real_complex_heisenberg_exp_is_exact():
    h = get_fixture("heisenberg", window=1)
    exact = h.character("exp", a=1, b=2).fn
    same = h.character("exp", a=1.0, b=2 + 0j).fn
    assert same.spec == exact.spec
    for t in h.carrier.elements:
        assert isinstance(same(t), ExpPoly) and same(t) == exact(t)
    # not integral: complex floats
    assert isinstance(h.character("exp", a=1.5, b=2).fn((1, 0, 0)), complex)
    assert isinstance(h.character("exp", a=1, b=2 + 1j).fn((1, 0, 0)), complex)


def test_an_exact_family8_pair_is_one_node_over_two_bases():
    h = get_fixture("heisenberg", window=1)
    flip = h.sigma("flip")
    chi = h.character("exp", a=1, b=2)
    pair = construct(h.carrier, flip, FamilyDescriptor(8, F(1, 3), chi=chi))
    g, f = pair.g, pair.f
    # g = (2/3) chi + (1/3) chi*: one node, both parts bases (no nested level)
    assert [c for c, _ in g.terms] == [F(2, 3), F(1, 3)]
    assert g.terms[0][1] is chi.fn
    assert all(isinstance(part, ScalarFunction) and part.terms is None for _, part in g.terms)
    assert g.linear == g.terms
    star_chi = g.terms[1][1]
    assert f.terms == ((F(2, 3), chi.fn), (F(-1, 3), star_chi))
    # alpha*f nests f's terms once, and its linear form folds the coefficients
    af = f.scale(F(1, 3))
    assert af.terms == ((F(1, 3), f.terms),)
    assert af.linear == ((F(2, 9), chi.fn), (F(-1, 9), star_chi))
    # one memo: evaluating g fills g's and the bases', nothing in between
    x = (1, -1, 0)
    assert g(x) == F(2, 3) * chi.fn(x) + F(1, 3) * chi.fn(flip(x))
    assert list(g._memo) == [x] and x in chi.fn._memo and x in star_chi._memo


def test_a_node_with_an_inexact_coefficient_is_its_own_linear_form():
    s, neg, p, q, r = _float_bases()
    exact = linear_combination([(2, p), (F(1, 2), q)]) - r.scale(3)
    assert exact.linear == ((2, p), (F(1, 2), q), (-3, r))
    assert star(exact, neg).linear[0][1] is not p  # sigma went onto the bases
    for node in (p.scale(0.5), p + q.scale(1j), linear_combination([(1, p), (F(1), q)]).scale(1.0)):
        assert node.linear == ((1, node),)
    assert p.linear == ((1, p),)
    # dense functions stay value vectors
    c3 = get_fixture("c3").carrier
    dense = ScalarFunction(c3, values=[1, 2, 3])
    combo = linear_combination([(2, dense), (F(1, 2), dense)]) - dense.scale(3)
    assert combo.terms is None and combo.values == (F(-1, 2), F(-1), F(-3, 2))


def test_memo_is_skipped_for_an_unhashable_element():
    s, _, p, q, _ = _float_bases()
    calls = []
    fn = ScalarFunction(s, rule=lambda x: calls.append(x) or 1.0)
    node = fn + fn
    assert node([1]) == 2.0 and node([1]) == 2.0 and not node._memo
    assert node(0.5) == 2.0 and node(0.5) == 2.0 and list(node._memo) == [0.5]
    assert calls == [[1], [1], [1], [1], 0.5]


# ---------------------------------------------------------------------------
# multiplicative / additive validation
# ---------------------------------------------------------------------------


def test_zero_function_is_multiplicative(finite_fixture):
    s = finite_fixture.carrier
    assert is_multiplicative(s, ScalarFunction(s, values=[0] * s.order))


def test_parity_character_on_naturals():
    nat = get_fixture("naturals-from-2", window=60)
    assert is_multiplicative(nat.carrier, nat.characters["parity"])


def test_five_adic_count_is_additive_on_odds(monkeypatch):
    nat = get_fixture("naturals-from-2", window=60)
    odds = [x for x in nat.carrier.elements if x % 2]
    tests = []
    real = functions.values_equal
    monkeypatch.setattr(functions, "values_equal", lambda *a: tests.append(a) or real(*a))
    assert is_additive(nat.carrier, odds, nat.additive_rules["five-adic"])
    assert tests == []  # the packed scan answered; no pairwise fallback


def test_is_additive_fails_on_a_rule_off_at_one_product(monkeypatch):
    # 177 = 3 * 59 is no other product of odd window elements, so only the
    # pairs (3, 59) and (59, 3) fail
    nat = get_fixture("naturals-from-2", window=60)
    odds = [x for x in nat.carrier.elements if x % 2]
    five = nat.additive_rules["five-adic"]
    off = ScalarFunction(nat.carrier, rule=lambda x: five(x) + (x == 177))
    tests = []
    real = functions.values_equal
    monkeypatch.setattr(functions, "values_equal", lambda *a: tests.append(a) or real(*a))
    assert not is_additive(nat.carrier, odds, off)
    assert tests[-1] == (1, 0, VERIFY_TOL)  # the pairwise scan found the witness: A(177) = 1
    # float values take the pairwise scan only, with the same verdicts
    assert is_additive(nat.carrier, odds, lambda x: float(five(x)))
    assert not is_additive(nat.carrier, odds, lambda x: float(off(x)))


def test_is_additive_tests_a_dense_function_only_inside_its_subset():
    # on C3 = Z/3 the subset {0, 1} is not closed: 1 + 1 = 2 leaves it.  The
    # dense function's value at 2 is not tested; the rule's is, and fails
    s = get_fixture("c3").carrier
    assert [s.product(x, y) for x in (0, 1) for y in (0, 1)] == [0, 1, 1, 2]
    values = [0, 1, 5]
    assert is_additive(s, {0, 1}, ScalarFunction(s, values=values))
    assert not is_additive(s, {0, 1}, ScalarFunction(s, rule=values.__getitem__))
    assert not is_additive(s, {0, 1}, ScalarFunction(s, values=[1, 1, 5]))  # 0 + 0 = 0


# ---------------------------------------------------------------------------
# the pairwise-law scans against a brute-force oracle
# ---------------------------------------------------------------------------

_LAW_ORDER = 5  # the carriers below: random tables on 0..4, so products repeat
_LAW_VALUES = {
    "int": st.integers(-3, 3),
    "fraction": st.fractions(-2, 2, max_denominator=3),
    "exppoly": st.builds(lambda k, c: ExpPoly({k: c}), st.integers(-2, 2), st.integers(-2, 2)),
    "cyc": st.builds(lambda k, z: Cyc.zero() if z else Cyc.root_of_unity(F(k, 6)),
                     st.integers(0, 5), st.booleans()),
    "float": st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.5]),
    "nan": st.sampled_from([0.0, 1.0, -2.0, float("nan"), complex(1, -1)]),
}


@st.composite
def _law_scans(draw):
    """A random table carrier, row factors xs, columns `right` (xs itself or
    the images of xs under a random permutation), and values of one kind."""
    cayley = draw(st.lists(st.lists(st.integers(0, _LAW_ORDER - 1), min_size=_LAW_ORDER,
                                    max_size=_LAW_ORDER), min_size=_LAW_ORDER, max_size=_LAW_ORDER))
    s = FiniteSemigroup(cayley=cayley)
    xs = tuple(draw(st.lists(st.integers(0, _LAW_ORDER - 1), min_size=1, max_size=4, unique=True)))
    right = xs
    if draw(st.booleans()):
        perm = draw(st.permutations(range(_LAW_ORDER)))
        right = tuple(perm[y] for y in xs)
    value = _LAW_VALUES[draw(st.sampled_from(sorted(_LAW_VALUES)))]
    n = len(xs)
    row, col = st.lists(value, min_size=n, max_size=n), st.lists(value, min_size=n, max_size=n)
    a, b = draw(row), draw(col)
    form = draw(st.sampled_from(["one product", "two", "shared"]))
    c, d = {"one product": (None, None), "two": (draw(row), draw(col)), "shared": (b, a)}[form]
    # lhs is the right-hand side at each product's first cell, so the law
    # holds unless two cells of a product disagree, or lhs is bumped or
    # left untested (None) at one product
    lhs = {}
    for i, x in enumerate(xs):
        for j, r in enumerate(right):
            rhs = a[i] * b[j] if c is None else a[i] * b[j] + c[i] * d[j]
            lhs.setdefault(s.product(x, r), rhs)
    edit = draw(st.sampled_from(["none", "bump", "skip"]))
    if edit != "none":
        at = draw(st.sampled_from(sorted(lhs)))
        lhs[at] = None if edit == "skip" else lhs[at] + draw(value) + 1
    zeros = {p: draw(st.one_of(st.just(0), value)) for p in lhs}
    return s, xs, right, lhs, (a, b, c, d), zeros


def _oracle_law(s, xs, right, lhs, a, b, c, d):
    for i, x in enumerate(xs):
        for j, r in enumerate(right):
            v = lhs(s.product(x, r))
            if v is None:
                continue
            rhs = a[i] * b[j] if c is None else a[i] * b[j] + c[i] * d[j]
            if not values_equal(v, rhs, VERIFY_TOL):
                return i, j, v, rhs
    return None


def _oracle_nonzero(s, xs, right, h):
    return next(
        ((i, j) for i, x in enumerate(xs) for j, r in enumerate(right)
         if not values_equal(h(s.product(x, r)), 0, VERIFY_TOL)),
        None,
    )


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_law_scans())
def test_law_scans_name_the_oracles_first_pair(scan):
    s, xs, right, lhs, law, zeros = scan
    calls = []

    def counted(p):
        calls.append(p)
        return lhs[p]

    got = law_failure(s, xs, right, counted, *law)
    assert repr(got) == repr(_oracle_law(s, xs, right, lhs.get, *law))
    # the packed test evaluates each product once; the walk once more at most
    assert max(map(calls.count, calls), default=0) <= 2
    assert nonzero_product(s, xs, right, zeros.get) == _oracle_nonzero(s, xs, right, zeros.get)


# ---------------------------------------------------------------------------
# character enumeration
# ---------------------------------------------------------------------------


def _bool_mult_oracle():
    """Independent brute force over candidate values {0, +-1, +-i}."""
    s = get_fixture("bool-mult").carrier
    good = []
    for v0, v1 in itertools.product([0, 1, -1, 1j, -1j], repeat=2):
        vals = (v0, v1)
        if all(
            abs(vals[s.compose(x, y)] - vals[x] * vals[y]) < 1e-12
            for x in (0, 1)
            for y in (0, 1)
        ):
            good.append(vals)
    return sorted(good, key=lambda v: (v[0].real if isinstance(v[0], complex) else v[0],
                                       v[1].real if isinstance(v[1], complex) else v[1]))


def test_enumerate_bool_mult_matches_oracle():
    oracle = _bool_mult_oracle()
    assert len(oracle) == 3  # (0,0), (0,1), (1,1); (1,0) fails chi(0)=chi(0)chi(1)
    chars = enumerate_multiplicative(get_fixture("bool-mult").carrier)
    got = sorted(
        (round(complex(c(0)).real), round(complex(c(1)).real)) for c in chars
    )
    assert got == [(0, 0), (0, 1), (1, 1)]


def test_enumerate_c2():
    chars = enumerate_multiplicative(get_fixture("c2").carrier)
    assert len(chars) == 3
    values = {tuple(complex(c(x)) for x in (0, 1)) for c in chars}
    assert values == {(0j, 0j), (1 + 0j, 1 + 0j), (1 + 0j, -1 + 0j)}


def test_enumerate_c3():
    chars = enumerate_multiplicative(get_fixture("c3").carrier)
    assert len(chars) == 4
    w = cmath.exp(2j * cmath.pi / 3)
    nonzero = [c for c in chars if not c.is_zero]
    got = {tuple(complex(c(x)) for x in (0, 1, 2)) for c in nonzero}
    expect = {(1, 1, 1), (1, w, w * w), (1, w * w, w)}
    assert all(
        any(max(abs(a - b) for a, b in zip(g, e)) < 1e-12 for e in expect)
        for g in got
    )


def test_enumerated_characters_exactly_multiplicative(finite_fixture):
    for c in enumerate_multiplicative(finite_fixture.carrier):
        assert is_multiplicative(finite_fixture.carrier, c)


def test_enumeration_canonical_order_deterministic(finite_fixture):
    a = enumerate_multiplicative(finite_fixture.carrier)
    b = enumerate_multiplicative(finite_fixture.carrier)
    assert [c.phases for c in a] == [c.phases for c in b]


def test_enumeration_bound():
    from coslaw.semigroups import FiniteSemigroup

    big = FiniteSemigroup(cayley=tuple(tuple(0 for _ in range(7)) for _ in range(7)))
    with pytest.raises(ValueError, match="bound"):
        enumerate_multiplicative(big)


# ---------------------------------------------------------------------------
# character tables
# ---------------------------------------------------------------------------


def test_character_table_matches_its_definitions(finite_fixture):
    """Each fact of the table, against the per-character computation it
    replaces: parity through the star image, x0 by scanning for the first
    non-zero value, and the first pivot pair with a non-zero determinant,
    which every even pair has (two distinct non-zero characters are never
    proportional)."""
    s = finite_fixture.carrier
    nonzero = [c for c in enumerate_multiplicative(s) if not c.is_zero]
    for sigma in finite_fixture.sigmas:
        table = character_table(s, sigma)
        assert table is character_table(s, sigma)
        even = [c for c in nonzero if c.same_as(c.star(sigma))]
        assert len(table.even) == len(even)
        assert all(a is b for a, b in zip(table.even, even))
        assert [c.is_even(sigma) for c in nonzero] == [c in even for c in nonzero]
        twisted = [c for c in nonzero if not c.same_as(c.star(sigma))]
        assert len(table.twisted) == len(twisted)
        assert all(a is b for a, b in zip(table.twisted, twisted))
        for chi, (x0, v0) in zip(table.even, table.first_nonzero):
            assert x0 == next(x for x in s.elements if not values_equal(chi(x), 0))
            assert v0 is chi(x0)
        pairs = list(itertools.combinations(even, 2))
        assert len(table.even_pairs) == len(pairs)
        for (chi1, chi2), (t1, t2, pivots) in zip(pairs, table.even_pairs):
            assert t1 is chi1 and t2 is chi2
            want = None
            for x1, x2 in itertools.combinations(s.elements, 2):
                det = chi1(x1) * chi2(x2) - chi1(x2) * chi2(x1)
                if not values_equal(det, 0):
                    want = (x1, x2, det)
                    break
            assert want is not None and pivots == want


def test_character_table_is_keyed_by_the_permutation_not_the_name():
    s = get_fixture("c3").carrier
    plain = InvolutiveAutomorphism("sigma", perm=(0, 1, 2))
    flip = InvolutiveAutomorphism("sigma", perm=(0, 2, 1))
    a, b = character_table(s, plain), character_table(s, flip)
    assert a is not b
    assert [c.name for c in a.even] == ["chi1", "chi2", "chi3"]
    assert [c.name for c in b.even] == ["chi1"]
    assert character_table(s, InvolutiveAutomorphism("other", perm=(0, 2, 1))) is b
    # a sigma given by a rule on a finite carrier reads its permutation off
    assert character_table(s, InvolutiveAutomorphism("rule", rule=lambda x: (-x) % 3)) is b


def test_character_table_needs_a_finite_carrier():
    rl = get_fixture("real-line")
    with pytest.raises(TypeError):
        character_table(rl.carrier, rl.sigma("neg"))


def test_is_even_without_phases_compares_values():
    fx = get_fixture("c3")
    flip = fx.sigma("inv")
    for chi in fx.characters.values():
        bare = MultiplicativeFunction(fn=chi.fn, phases=None, name=chi.name)
        assert bare.is_even(flip) == chi.is_even(flip) == chi.same_as(chi.star(flip))


# ---------------------------------------------------------------------------
# null sets
# ---------------------------------------------------------------------------


def test_null_sets_nowhere_zero_character():
    fx = get_fixture("c3")
    ns = null_sets(fx.carrier, fx.sigma("id"), fx.characters["chi1"])
    assert ns.i_chi == frozenset() and ns.p_chi == frozenset()
    assert ns.certified == "exact"


def test_null_sets_bool_mult():
    fx = get_fixture("bool-mult")
    ns = null_sets(fx.carrier, fx.sigma("id"), fx.characters["chi1"])
    assert ns.i_chi == {0} and ns.i_chi_sq == {0} and ns.p_chi == frozenset()


def test_null_sets_naturals_parity():
    nat = get_fixture("naturals-from-2", window=50)
    ns = null_sets(nat.carrier, nat.sigma("id"), nat.characters["parity"])
    assert ns.i_chi == frozenset(range(2, 51, 2))
    assert ns.p_chi == frozenset(x for x in range(2, 51) if x % 4 == 2)
    assert ns.certified == "window"


def test_null_sets_reject_zero_character():
    fx = get_fixture("c2")
    with pytest.raises(ValueError, match="non-zero"):
        null_sets(fx.carrier, fx.sigma("id"), fx.characters["chi0"])


@pytest.mark.parametrize("fixture, window, params", [
    ("real-line", 8, {"lam": 10j}),
    ("heisenberg", 3, {"a": 7.5, "b": 0}),
], ids=["real-line", "heisenberg"])
def test_an_exp_character_below_the_tolerance_has_no_zeros(fixture, window, params):
    # e^(-10x) near x = pi and e^(7.5x) at x = -3 are within VERIFY_TOL of 0,
    # but a zero of chi is an exact zero
    fx = get_fixture(fixture, window=window)
    chi = fx.character("exp", **params)
    assert any(abs(chi(x)) <= VERIFY_TOL for x in fx.carrier.elements)
    ns = null_sets(fx.carrier, fx.sigma(), chi)
    assert ns.i_chi == ns.i_chi_sq == ns.p_chi == frozenset()


def test_a_character_without_phases_is_zero_only_at_exact_zeros():
    s = get_fixture("c2").carrier
    assert not MultiplicativeFunction(ScalarFunction(s, values=[1e-12, 1e-12])).is_zero
    assert MultiplicativeFunction(ScalarFunction(s, values=[0.0, 0])).is_zero


def test_null_sets_read_each_window_value_of_chi_once(monkeypatch):
    tests = []
    real = functions.values_equal
    monkeypatch.setattr(functions, "values_equal", lambda *a: tests.append(a[0]) or real(*a))
    fx = get_fixture("bool-mult")
    chi = next(c for c in enumerate_multiplicative(fx.carrier) if c.phases == (None, F(0)))
    ns = null_sets(fx.carrier, fx.sigma(), chi)
    assert ns.i_chi == {0} and len(tests) == fx.carrier.order
    # every window element a zero, the empty window included: the same error
    zero = ScalarFunction(fx.carrier, values=[0, 0])
    empty = ProceduralSemigroup(name="empty", window=(), compose_rule=lambda x, y: x * y,
                                contains_rule=lambda x: isinstance(x, int))
    one = ScalarFunction(empty, rule=lambda x: 1)
    for s, fn in ((fx.carrier, zero), (empty, one)):
        with pytest.raises(ValueError, match="non-zero multiplicative function"):
            null_sets(s, InvolutiveAutomorphism("id", rule=lambda x: x), fn)


def _escape_violations(s) -> int:
    """The products p of two window elements with escapes(p) for which some
    p*w or w*p, w a window element, is in the window."""
    elems, window, rule = s.elements, s.window_set, s.compose_rule
    escaping = [p for p in {rule(x, y) for x in elems for y in elems} if s.escapes(p)]
    assert escaping
    return sum(
        not window.isdisjoint(itertools.chain(map(rule, itertools.repeat(p), elems),
                                              map(rule, elems, itertools.repeat(p))))
        for p in escaping
    )


@pytest.mark.parametrize("window", [50, 200])
def test_escapes_rules_hold_against_compose_rule(window):
    named = [name for name in FIXTURE_NAMES if get_fixture(name).carrier.escapes is not None]
    assert "naturals-from-2" in named
    for name in named:
        s = get_fixture(name, window=window).carrier
        assert _escape_violations(s) == 0
        # the check has teeth: a rule that escapes too soon fails it
        early = dataclasses.replace(s, escapes=lambda x: x > window // 4)
        assert _escape_violations(early) > 0


@pytest.mark.parametrize("window", [50, 200])
def test_null_sets_skipping_escaping_rows_changes_nothing(window):
    nat = get_fixture("naturals-from-2", window=window)
    sigma, parity = nat.sigma("id"), nat.characters["parity"]
    full = dataclasses.replace(nat.carrier, escapes=None)  # every row built
    ns, ref = null_sets(nat.carrier, sigma, parity), null_sets(full, sigma, parity)
    assert ns == ref and list(ns.translates.items()) == list(ref.translates.items())
    assert check_pchi_lemma(nat.carrier, sigma, parity) == check_pchi_lemma(full, sigma, parity)


def test_null_sets_builds_no_row_for_an_escaping_translate():
    nat = get_fixture("naturals-from-2", window=200)
    calls = 0

    def rule(x, y):
        nonlocal calls
        calls += 1
        return x * y

    counts = []
    for escapes in (nat.carrier.escapes, None):
        s = dataclasses.replace(nat.carrier, compose_rule=rule, escapes=escapes)
        null_sets(s, nat.sigma("id"), nat.characters["parity"])
        counts.append(calls)
        calls = 0
    # I_chi^2 takes 100 * 100 products; then, for the 99 odd units u and the
    # 50 p = 2 mod 4, up and pu for each (u, p), and a 99-product row for
    # each distinct up: all 99 * 50 of them without the rule, the 105 with
    # up <= 200 with it
    assert counts == [10_000 + 9_900 + 105 * 99, 10_000 + 9_900 + 99 * 50 * 99]
    assert counts[1] == 509_950


def test_pchi_lemma_naturals():
    nat = get_fixture("naturals-from-2", window=50)
    rep = check_pchi_lemma(nat.carrier, nat.sigma("id"), nat.characters["parity"])
    assert rep.ok
    # spot witness: 3 outside I, 2 in P, so 6 must be in P
    ns = null_sets(nat.carrier, nat.sigma("id"), nat.characters["parity"])
    assert 2 in ns.p_chi and 6 in ns.p_chi


# multiplication mod 4: chi = x mod 2 has I_chi = {0, 2}, I_chi^2 = {0} and
# P_chi = {2}, the one finite case here with a non-empty P_chi
MUL4 = FiniteSemigroup(cayley=tuple(tuple(x * y % 4 for y in range(4)) for x in range(4)))


def _p_chi_by_definition(s, chi) -> set:
    """P_chi read off its definition: the p in I_chi \\ I_chi^2 with up, pv
    and upv in I_chi \\ I_chi^2 for all u, v outside I_chi."""
    i_chi = {x for x in s.elements if values_equal(chi(x), 0)}
    diff = i_chi - {s.product(x, y) for x in i_chi for y in i_chi}
    units = [u for u in s.elements if u not in i_chi]
    return {p for p in diff
            if all({s.product(u, p), s.product(p, v), s.product(s.product(u, p), v)} <= diff
                   for u in units for v in units)}


@pytest.mark.parametrize("cayley, p_chi, diff", [
    # chi1 is zero on {0, 1}; I_chi^2 = {0} and 2*1 = 0 lies in it
    (((0, 0, 0), (0, 0, 0), (0, 0, 2)), set(), {1}),
    # the null semigroup of order 2 times ((0,0,0),(0,0,1),(0,1,2)): 3 has
    # the translate 2*3 = 2*3*2 = 0 in I_chi^2
    (((0, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 1), (0, 1, 2, 0, 1, 2),
      (0, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 1), (0, 1, 2, 0, 1, 2)), {1, 4}, {1, 3, 4}),
], ids=["order-3-empty", "order-6-partial"])
def test_null_sets_drops_a_candidate_whose_translate_leaves_i_minus_i_squared(cayley, p_chi, diff):
    s = FiniteSemigroup(cayley=cayley)
    chi = enumerate_multiplicative(s)[1]
    sigma = InvolutiveAutomorphism("id", perm=tuple(s.elements))
    ns = null_sets(s, sigma, chi)
    assert ns.i_chi - ns.i_chi_sq == diff
    assert ns.p_chi == p_chi == _p_chi_by_definition(s, chi)
    assert check_pchi_lemma(s, sigma, chi).ok


def test_null_sets_keeps_the_window_translates_of_p_chi():
    chi = MultiplicativeFunction(ScalarFunction(MUL4, values=[0, 1, 0, 1]))
    ns = null_sets(MUL4, InvolutiveAutomorphism("id", perm=(0, 1, 2, 3)), chi)
    assert ns.p_chi == {2}
    # up and pu for each unit, then upv in (u, v) order
    assert ns.translates == {2: (
        (1, None, 2), (None, 1, 2), (3, None, 2), (None, 3, 2),
        (1, 1, 2), (1, 3, 2), (3, 1, 2), (3, 3, 2),
    )}
    # the kept translates are no part of the triple's value
    bare = NullSets(ns.i_chi, ns.i_chi_sq, ns.p_chi, ns.certified)
    assert ns == bare and hash(ns) == hash(bare) and repr(ns) == repr(bare)


def test_null_sets_keeps_only_window_translates_on_naturals():
    nat = get_fixture("naturals-from-2", window=50)
    ns = null_sets(nat.carrier, nat.sigma("id"), nat.characters["parity"])
    assert list(ns.translates) == list(ns.p_chi)
    for p, translates in ns.translates.items():
        assert all(x in nat.carrier.window_set for _, _, x in translates)
        assert all(x == (u or 1) * p * (v or 1) for u, v, x in translates)
    # p = 2: up = pu = 2u in the window for u = 3, 5, ..., 25
    one_sided = [t for t in ns.translates[2] if None in t[:2]]
    assert one_sided[:4] == [(3, None, 6), (None, 3, 6), (5, None, 10), (None, 5, 10)]
    assert len(one_sided) == 2 * 12


# check_pchi_lemma's (counterexamples, translates_checked, reflection_agrees,
# certified) on every finite fixture x sigma x non-zero character, on
# multiplication mod 4 and on the naturals
PCHI_REPORTS = {
    **{(name, sigma, chi): ([], 0, True, "exact") for name, sigma, chi in [
        ("c2", "id", "chi1"), ("c2", "id", "chi2"),
        ("c3", "id", "chi1"), ("c3", "id", "chi2"), ("c3", "id", "chi3"),
        ("c3", "inv", "chi1"), ("c3", "inv", "chi2"), ("c3", "inv", "chi3"),
        ("leftzero2", "id", "chi1"), ("leftzero2", "swap", "chi1"),
        ("null3", "id", "chi1"), ("null3", "swap", "chi1"),
        ("bool-mult", "id", "chi1"), ("bool-mult", "id", "chi2"),
    ]},
    ("mul4", "id", "chi1"): ([], 4, True, "exact"),
    ("mul4", "id", "chi2"): ([], 4, True, "exact"),
    ("mul4", "id", "chi3"): ([], 0, True, "exact"),
    ("naturals-from-2@50", "id", "parity"): ([], 36, True, "window"),
    ("naturals-from-2@200", "id", "parity"): ([], 210, True, "window"),
}


def _pchi_cases():
    for name in ("c2", "c3", "leftzero2", "null3", "bool-mult"):
        fx = get_fixture(name)
        for sigma in fx.sigmas:
            for chi in enumerate_multiplicative(fx.carrier):
                if not chi.is_zero:
                    yield (name, sigma.name, chi.name), fx.carrier, sigma, chi
    for chi in enumerate_multiplicative(MUL4):
        if not chi.is_zero:
            yield ("mul4", "id", chi.name), MUL4, InvolutiveAutomorphism("id", perm=(0, 1, 2, 3)), chi
    for window in (50, 200):
        nat = get_fixture("naturals-from-2", window=window)
        key = (f"naturals-from-2@{window}", "id", "parity")
        yield key, nat.carrier, nat.sigma("id"), nat.characters["parity"]


def test_pchi_lemma_reports_are_pinned():
    seen = {}
    for key, s, sigma, chi in _pchi_cases():
        rep = check_pchi_lemma(s, sigma, chi)
        seen[key] = (rep.counterexamples, rep.translates_checked, rep.reflection_agrees,
                     rep.certified)
    assert seen == PCHI_REPORTS


def test_pchi_lemma_with_sigma_id_makes_one_null_set_scan():
    nat = get_fixture("naturals-from-2", window=50)
    calls = 0

    def rule(x, y):
        nonlocal calls
        calls += 1
        return x * y

    s = dataclasses.replace(nat.carrier, compose_rule=rule)
    sigma, parity = nat.sigma("id"), nat.characters["parity"]
    null_sets(s, sigma, parity)  # builds and keeps the I_chi^2 pair table
    calls = 0
    null_sets(s, sigma, parity)
    one, calls = calls, 0
    check_pchi_lemma(s, sigma, parity)
    assert calls == one > 0


# {0, 1}^2 under coordinatewise multiplication, element i = (i & 1, i >> 1);
# swap exchanges the coordinates
BITS2 = FiniteSemigroup(cayley=tuple(tuple(i & j for j in range(4)) for i in range(4)))


@pytest.mark.parametrize("sigma, values, scans", [
    ((0, 1, 2, 3), [0, 1, 0, 1], 1),  # sigma = id
    ((0, 2, 1, 3), [0, 0, 0, 1], 1),  # an even chi
    ((0, 2, 1, 3), [0, 1, 0, 1], 2),  # chi o sigma has other zeros: its own scan
])
def test_pchi_lemma_scans_chi_o_sigma_only_for_other_zeros(monkeypatch, sigma, values, scans):
    seen = []
    real = functions.null_sets
    monkeypatch.setattr(functions, "null_sets", lambda *args: seen.append(args) or real(*args))
    chi = MultiplicativeFunction(ScalarFunction(BITS2, values=values))
    rep = check_pchi_lemma(BITS2, InvolutiveAutomorphism("s", perm=sigma), chi)
    assert len(seen) == scans and rep.ok


@settings(deadline=None)
@given(st.sampled_from(["c2", "c3", "leftzero2", "null3", "bool-mult"]))
def test_pchi_lemma_exhaustive_on_finite(name):
    fx = get_fixture(name)
    for sigma in fx.sigmas:
        for chi in enumerate_multiplicative(fx.carrier):
            if chi.is_zero:
                continue
            assert check_pchi_lemma(fx.carrier, sigma, chi).ok
