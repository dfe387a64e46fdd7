"""Family constructors: closed forms, invariants, and descriptor validation."""

import cmath
import dataclasses
import itertools
import re
from fractions import Fraction

import pytest

from coslaw import families, semigroups
from coslaw.acceptance import family_case_matrix
from coslaw.analysis import residual
from coslaw.exactnum import Cyc, ExpPoly, is_exact
from coslaw.families import (
    ConditionViolation,
    FamilyDescriptor,
    HSpec,
    InvalidDescriptor,
    _check_condition_i,
    _check_condition_ii,
    build_h,
    HALF,
    _half,
    construct,
    function_vanishing_on_products,
    sqrt_branch,
)
from coslaw.fixtures import NullPredicates, get_fixture
from coslaw.functions import MultiplicativeFunction, NullSets, ScalarFunction, is_even, null_sets, star
from coslaw.semigroups import FiniteSemigroup, InvolutiveAutomorphism, identity_automorphism

F = Fraction


# ---------------------------------------------------------------------------
# sqrt branch
# ---------------------------------------------------------------------------


def test_sqrt_branch_basics():
    assert sqrt_branch(1, 1) == 1
    assert sqrt_branch(0, 1) == 0 and sqrt_branch(0, -1) == 0
    assert sqrt_branch(-1, 1) == Cyc.rational(0, 1)  # principal: +i
    assert sqrt_branch(-1.0, 1) == 1j
    assert sqrt_branch(F(9, 4), -1) == F(-3, 2)
    w = sqrt_branch(2.0, 1)
    assert abs(w - cmath.sqrt(2)) < 1e-15
    with pytest.raises(ValueError):
        sqrt_branch(1, 2)


@pytest.mark.parametrize("z", [complex(-4, 0.0), complex(-4, -0.0)], ids=["plus-zero", "minus-zero"])
def test_sqrt_branch_on_the_negative_axis_takes_the_upper_root(z):
    # cmath.sqrt(complex(-4, -0.0)) is -2j; the principal branch is +2j either way
    assert sqrt_branch(z) == 2j and sqrt_branch(z, -1) == -2j


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def test_family1_any_nonzero_f(finite_fixture):
    s = finite_fixture.carrier
    f = ScalarFunction(s, values=[k + 1 for k in range(s.order)])
    for alpha in (1, -1):
        pair = construct(s, finite_fixture.sigma(), FamilyDescriptor(1, alpha), free_f=f)
        rep = residual(s, finite_fixture.sigma(), alpha, pair.g, pair.f)
        assert rep.mode == "exact" and rep.max_residual == 0.0
        assert pair.g.equal_to(f.scale(alpha))


def test_family1_rejects_bad_alpha():
    fx = get_fixture("c2")
    f = ScalarFunction(fx.carrier, values=[1, 1])
    with pytest.raises(InvalidDescriptor, match="alpha"):
        construct(fx.carrier, fx.sigma(), FamilyDescriptor(1, 2), free_f=f)


@pytest.mark.parametrize("descriptor, free, message", [
    (FamilyDescriptor(9, 1), False, "unknown family tag 9"),
    (FamilyDescriptor(4, 1), True, "family 4 is fully determined; free functions belong to 1-3"),
    (FamilyDescriptor(1, 1), False, "family 1 requires a free function argument"),
], ids=["tag", "free-for-4", "no-free-for-1"])
def test_construct_rejects_a_descriptor_its_family_cannot_take(descriptor, free, message):
    fx = get_fixture("c2")
    kw = {"free_f": ScalarFunction(fx.carrier, values=[1, 0])} if free else {}
    with pytest.raises(InvalidDescriptor, match=f"^{re.escape(message)}$"):
        construct(fx.carrier, fx.sigma("id"), descriptor, **kw)


def test_a_free_function_beside_the_descriptor_is_the_pair_provenance():
    # free_f replaces the descriptor's own function, in f and in the provenance
    fx = get_fixture("c2")
    s, sig = fx.carrier, fx.sigma("id")
    a, b = ScalarFunction(s, values=[1, 2]), ScalarFunction(s, values=[3, 5])
    pair = construct(s, sig, FamilyDescriptor(1, 1, free=a), free_f=b)
    assert pair.f.values == (3, 5) and pair.provenance.free is b
    assert construct(s, sig, pair.provenance).f.values == (3, 5)


def test_family4_one_element(one_element):
    s, sig = one_element
    from coslaw.functions import enumerate_multiplicative

    chi = enumerate_multiplicative(s)[1]
    q, alpha = F(3, 4), 0  # 1 + q^2 = 25/16, an exact square
    for branch in (1, -1):
        d = FamilyDescriptor(4, alpha, q=q, branch=branch, chi=chi)
        pair = construct(s, sig, d)
        assert pair.f(0) == F(3, 8)  # (q + alpha)/2
        assert pair.g(0) == (1 + branch * F(5, 4)) * F(1, 2)
        assert residual(s, sig, alpha, pair.g, pair.f).max_residual == 0.0


def test_family8_real_line_closed_form():
    rl = get_fixture("real-line")
    neg = rl.sigma("neg")
    lam, alpha = 1.0, 2
    pair = construct(rl.carrier, neg, FamilyDescriptor(8, alpha, chi=rl.character("exp", lam=lam)))
    for x in rl.carrier.elements:
        assert abs(pair.f(x) - (alpha * cmath.cos(lam * x) + 1j * cmath.sin(lam * x))) < 1e-12
        assert abs(pair.g(x) - (cmath.cos(lam * x) + 1j * alpha * cmath.sin(lam * x))) < 1e-12


def test_family8_star_identities():
    # the printed forms give f* = alpha(chi + chi*) - f and g* = (chi + chi*) - g
    fx = get_fixture("c3")
    s, sig = fx.carrier, fx.sigma("inv")
    chi = fx.characters["chi2"]
    alpha = F(1, 2)
    pair = construct(s, sig, FamilyDescriptor(8, alpha, chi=chi))
    chi_sum = chi.fn + star(chi.fn, sig)
    lhs_f = star(pair.f, sig) + pair.f
    lhs_g = star(pair.g, sig) + pair.g
    assert lhs_f.equal_to(chi_sum.scale(alpha), tol=0)
    assert lhs_g.equal_to(chi_sum, tol=0)


def test_family8_rejects_even_chi_and_bad_alpha():
    fx = get_fixture("c3")
    with pytest.raises(InvalidDescriptor, match="alpha"):
        construct(fx.carrier, fx.sigma("inv"), FamilyDescriptor(8, 1, chi=fx.characters["chi2"]))
    with pytest.raises(InvalidDescriptor, match="chi"):
        construct(fx.carrier, fx.sigma("id"), FamilyDescriptor(8, 2, chi=fx.characters["chi2"]))


def test_family5_rejects_q_at_alpha():
    fx = get_fixture("c2")
    ev = [fx.characters["chi1"], fx.characters["chi2"]]
    with pytest.raises(InvalidDescriptor, match="q"):
        construct(
            fx.carrier, fx.sigma(),
            FamilyDescriptor(5, 2, q=2, branch=1, chi1=ev[0], chi2=ev[1]),
        )


def test_family4_allows_q_at_alpha():
    # the boundary q = -alpha folds the zero solution into family 4
    fx = get_fixture("c2")
    d = FamilyDescriptor(4, F(1, 2), q=F(-1, 2), branch=-1, chi=fx.characters["chi1"])
    pair = construct(fx.carrier, fx.sigma(), d)
    assert pair.f.is_zero() and pair.g.is_zero()


def test_families_2_3_validate_vanishing():
    fx = get_fixture("null3")
    s = fx.carrier
    good = function_vanishing_on_products(s, {1: 1, 2: F(2, 3)})
    for fam, sign in ((2, 1), (3, -1)):
        pair = construct(s, fx.sigma(), FamilyDescriptor(fam, 0), free_f=good)
        assert residual(s, fx.sigma(), 0, pair.g, pair.f).max_residual == 0.0
        assert pair.f.equal_to(pair.g.scale(sign))
    bad = ScalarFunction(s, values=[1, 1, 1])  # does not vanish at z = 0
    with pytest.raises(InvalidDescriptor, match="vanish"):
        construct(s, fx.sigma(), FamilyDescriptor(2, 0), free_f=bad)
    with pytest.raises(InvalidDescriptor, match="non-zero"):
        construct(s, fx.sigma(), FamilyDescriptor(2, 0),
                  free_f=ScalarFunction(s, values=[0, 0, 0]))


def test_vanishing_on_products_reads_the_cached_pair_table(monkeypatch):
    """The first test of g on S^2 builds the carrier's pair table; later
    ones take no product and build no block.  A failing check names the
    first violated pair from the table too."""
    s = FiniteSemigroup(cayley=((0, 0, 0), (0, 0, 0), (0, 0, 0)))  # null3, an empty cache
    products, scans = [], []
    real_product, real_block = FiniteSemigroup.product, semigroups._pair_block

    def counting_product(self, x, y):
        products.append((x, y))
        return real_product(self, x, y)

    def counting_block(*args, **kwargs):
        scans.append(args)
        return real_block(*args, **kwargs)

    monkeypatch.setattr(FiniteSemigroup, "product", counting_product)
    monkeypatch.setattr(semigroups, "_pair_block", counting_block)
    good = function_vanishing_on_products(s, {1: 1, 2: F(2, 3)})
    bad = ScalarFunction(s, values=[1, 1, 1])
    assert families._s2_failure(s, good) is None
    assert len(products) == 9 and len(scans) == 1
    products.clear()
    scans.clear()
    assert families._s2_failure(s, good) is None
    assert families._s2_failure(s, bad) == (0, 0)
    assert construct(s, identity_automorphism(s), FamilyDescriptor(3, 0), free_f=good)
    assert products == [] and scans == []
    with pytest.raises(InvalidDescriptor, match=re.escape("does not vanish on S^2 (violated at 0*0)")):
        construct(s, identity_automorphism(s), FamilyDescriptor(2, 0), free_f=bad)
    assert products == [] and scans == []


def test_families_4567_produce_even_pairs():
    fx = get_fixture("c2")
    s, sig = fx.carrier, fx.sigma()
    ev = [fx.characters["chi1"], fx.characters["chi2"]]
    cases = [
        FamilyDescriptor(4, 0.5, q=1.5, branch=1, chi=ev[0]),
        FamilyDescriptor(5, 0.5, q=1.5, branch=-1, chi1=ev[0], chi2=ev[1]),
        FamilyDescriptor(6, 0.5, chi1=ev[0], chi2=ev[1]),
        FamilyDescriptor(7, 0.5, branch=1, chi=ev[0], h_spec=HSpec()),
    ]
    for d in cases:
        pair = construct(s, sig, d)
        assert is_even(pair.g, sig) and is_even(pair.f, sig)


def test_construct_rejects_odd_phaseless_and_foreign_characters():
    """Every character is checked in full: sigma-odd ones, hand-built ones
    without phases, and ones that equal a character of this carrier by
    `==` (which ignores values and carrier) but live on another one."""
    c3, c2 = get_fixture("c3"), get_fixture("c2")
    flip = c3.sigma("inv")
    twisted = c3.characters["chi2"]  # chi2 o inv = chi3
    with pytest.raises(InvalidDescriptor, match="sigma-even"):
        construct(c3.carrier, flip, FamilyDescriptor(4, F(1, 2), q=1, chi=twisted))
    # a hand-built copy without phases, under the name of the even chi1
    bare = MultiplicativeFunction(fn=twisted.fn, phases=None, name="chi1")
    for d in (FamilyDescriptor(4, F(1, 2), q=1, chi=bare),
              FamilyDescriptor(6, F(1, 2), chi1=c3.characters["chi1"], chi2=bare),
              FamilyDescriptor(7, F(1, 2), chi=bare, h_spec=HSpec())):
        with pytest.raises(InvalidDescriptor, match="sigma-even"):
            construct(c3.carrier, flip, d)
    # the trivial character of leftzero2 equals c2's chi1 by `==`
    foreign = get_fixture("leftzero2").characters["chi1"]
    assert foreign == c2.characters["chi1"] and foreign is not c2.characters["chi1"]
    for d in (FamilyDescriptor(4, F(1, 2), q=1, chi=foreign),
              FamilyDescriptor(5, F(1, 2), q=1, chi1=c2.characters["chi2"], chi2=foreign),
              FamilyDescriptor(8, 2, chi=foreign)):
        with pytest.raises(InvalidDescriptor, match="on this carrier"):
            construct(c2.carrier, c2.sigma(), d)
    # an even character without phases is accepted, with equal values
    even = c3.characters["chi1"]
    bare_even = MultiplicativeFunction(fn=even.fn, phases=None, name="chi1")
    want = construct(c3.carrier, flip, FamilyDescriptor(4, F(1, 2), q=1, chi=even))
    got = construct(c3.carrier, flip, FamilyDescriptor(4, F(1, 2), q=1, chi=bare_even))
    assert got.g.values == want.g.values and got.f.values == want.f.values


@pytest.mark.parametrize("v", [
    0.0, -0.0, 1.5, -3.25, 1e308, 5e-324, float("inf"), float("nan"),
    1.5 + 0j, -0.0 - 0.0j, complex(0.0, -0.0), 0.3 - 2.7j, complex("nan+1j"),
    complex(1e308, -1e308), 3, -7, F(3, 4), F(4, 2), Cyc.rational(1, 2),
])
def test_half_matches_fraction_scaling_bit_for_bit(v):
    # the reference: v * HALF through Fraction's own operators, then the
    # int collapse of simplify_scalar
    want = v * HALF
    if isinstance(want, Fraction) and want.denominator == 1:
        want = int(want)
    got = _half(v)
    assert type(got) is type(want)
    assert repr(got) == repr(want)


def test_families_2_to_8_are_abelian_and_central():
    # family 1 is exempt (f is arbitrary); everything else must be abelian
    from coslaw.semigroups import is_abelian_fn, is_central

    seen = set()
    for fx, sigma, d, free, predicates, _exact in family_case_matrix():
        if d.family == 1 or not fx.carrier.is_finite:
            continue
        key = (fx.name, sigma.name, d.family)
        if key in seen:
            continue
        seen.add(key)
        pair = construct(fx.carrier, sigma, d, free_f=free, predicates=predicates)
        assert is_central(fx.carrier, pair.g) and is_central(fx.carrier, pair.f)
        assert is_abelian_fn(fx.carrier, pair.g) and is_abelian_fn(fx.carrier, pair.f)


def _same_value(u, v) -> bool:
    """Exact values equal with ==, floats equal to the bit in both parts."""
    if is_exact(u) or is_exact(v):
        return is_exact(u) and is_exact(v) and u == v
    u, v = complex(u), complex(v)
    return (u.real.hex(), u.imag.hex()) == (v.real.hex(), v.imag.hex())


def _provenance_cases():
    for k, case in enumerate(family_case_matrix()):
        fx, sigma, d = case[:3]
        marks = ()
        if fx.name == "naturals-from-2" and d.family == 7:
            # the parity predicates are an argument of construct, not part
            # of the descriptor, so the provenance cannot rebuild h
            marks = pytest.mark.xfail(strict=True, raises=ValueError,
                                      reason="needs membership predicates")
        yield pytest.param(case, id=f"{k}-{fx.name}-{sigma.name}-family{d.family}", marks=marks)


@pytest.mark.parametrize("case", _provenance_cases())
def test_the_provenance_rebuilds_the_pair(case):
    fx, sigma, d, free, predicates, _exact = case
    pair = construct(fx.carrier, sigma, d, free_f=free, predicates=predicates)
    rebuilt = construct(fx.carrier, sigma, pair.provenance)
    for x in fx.carrier.elements:
        assert _same_value(pair.g(x), rebuilt.g(x)) and _same_value(pair.f(x), rebuilt.f(x)), x


# ---------------------------------------------------------------------------
# the piecewise sine-law solution
# ---------------------------------------------------------------------------


def test_build_h_naturals_piecewise():
    nat = get_fixture("naturals-from-2", window=60)
    s, sig = nat.carrier, nat.sigma()
    c = F(5, 3)
    h = build_h(
        s, sig, nat.characters["parity"],
        additive=nat.additive_rules["five-adic"], rho=c,
        predicates=nat.null_predicates["parity"],
    )
    assert h(15) == 1 and h(25) == 2 and h(3) == 0  # chi * (5-adic count) on odds
    assert h(4) == 0 and h(8) == 0  # 4N
    assert h(6) == c and h(58) == c  # 2N \ 4N
    chi = nat.characters["parity"]
    for x, y in itertools.product(s.elements, repeat=2):
        xy = s.compose(x, y)
        assert h(xy) == h(x) * chi(y) + h(y) * chi(x)


def test_build_h_finite_defaults_to_zero(finite_fixture):
    # finite additive parts vanish and P_chi is empty on the built-ins
    fx = finite_fixture
    for sigma in fx.sigmas:
        for name, chi in fx.characters.items():
            if chi.is_zero or not chi.is_even(sigma):
                continue
            h = build_h(fx.carrier, sigma, chi)
            assert h.is_zero()


def test_family7_with_zero_h_degenerates():
    fx = get_fixture("bool-mult")
    s, sig = fx.carrier, fx.sigma()
    chi = fx.characters["chi1"]
    d = FamilyDescriptor(7, F(1, 3), branch=1, chi=chi, h_spec=HSpec())
    pair = construct(s, sig, d)
    assert pair.f.equal_to(chi.fn.scale(F(1, 3)))
    assert pair.g.equal_to(chi.fn)
    assert residual(s, sig, F(1, 3), pair.g, pair.f).max_residual == 0.0


def test_family7_real_line_with_additive_h():
    rl = get_fixture("real-line")
    s, sig = rl.carrier, rl.sigma("id")
    chi = rl.character("exp", lam=0.75)
    h = build_h(s, sig, chi, additive=lambda x: x)
    d = FamilyDescriptor(7, 0.25, branch=-1, chi=chi, h=h)
    pair = construct(s, sig, d)
    rep = residual(s, sig, 0.25, pair.g, pair.f)
    assert rep.max_residual < 1e-9


def _swap_3_and_5(x: int) -> int:
    """The automorphism of (N>=2, *) that swaps the primes 3 and 5."""
    e3 = e5 = 0
    while x % 3 == 0:
        x, e3 = x // 3, e3 + 1
    while x % 5 == 0:
        x, e5 = x // 5, e5 + 1
    return x * 3**e5 * 5**e3


SWAP_3_5 = InvolutiveAutomorphism("swap-3-5", rule=_swap_3_and_5)


def test_build_h_rejects_asymmetric_rho():
    # parity is even under the swap, but rho = [3 | x] on P_chi = 2N \ 4N is
    # not: rho(6) = 1 while rho(sigma(6)) = rho(10) = 0
    nat = get_fixture("naturals-from-2", window=40)
    with pytest.raises(ConditionViolation, match=r"^rho is not sigma-symmetric at \d+$"):
        build_h(
            nat.carrier, SWAP_3_5, nat.characters["parity"],
            rho=lambda x: int(x % 3 == 0),
            predicates=nat.null_predicates["parity"],
        )


def test_build_h_rejects_asymmetric_additive_part():
    # the five-adic count is additive on the odd units, but A(3) = 0 while
    # A(sigma(3)) = A(5) = 1; 3 is the first unit of the window
    nat = get_fixture("naturals-from-2", window=40)
    with pytest.raises(ConditionViolation, match=r"^additive part is not sigma-symmetric at 3$"):
        build_h(
            nat.carrier, SWAP_3_5, nat.characters["parity"],
            additive=nat.additive_rules["five-adic"],
            predicates=nat.null_predicates["parity"],
        )


def test_build_h_on_naturals_needs_membership_predicates():
    nat = get_fixture("naturals-from-2", window=30)
    with pytest.raises(ValueError, match="needs membership predicates"):
        build_h(nat.carrier, nat.sigma("id"), nat.characters["parity"])


def test_build_h_rejects_a_non_additive_part():
    nat = get_fixture("naturals-from-2", window=30)
    with pytest.raises(ConditionViolation, match=r"^additive part fails A\(xy\) = A\(x\) \+ A\(y\)$"):
        build_h(
            nat.carrier, nat.sigma("id"), nat.characters["parity"],
            additive=lambda x: x, predicates=nat.null_predicates["parity"],
        )


def _even(x):
    return isinstance(x, int) and x % 2 == 0


def test_build_h_rejects_condition_i():
    # rho(x) = x is sigma-symmetric (sigma = id) but rho(3*2) = 6 != rho(2)chi(3) = 2
    nat = get_fixture("naturals-from-2", window=50)
    with pytest.raises(ConditionViolation, match=r"^condition \(I\) fails"):
        build_h(
            nat.carrier, nat.sigma(), nat.characters["parity"],
            rho=lambda x: x, predicates=nat.null_predicates["parity"],
        )


def test_build_h_condition_i_names_the_first_witness_in_p_major_order():
    # rho = [x > 10] fails at up = u*2 for every odd u > 5 and at many upv
    # (3*2*3 = 18 among them); the witness is the least p, then up and pv
    # over every u, then upv
    nat = get_fixture("naturals-from-2", window=50)
    with pytest.raises(ConditionViolation, match=r"^condition \(I\) fails at up = 7\*2$"):
        build_h(
            nat.carrier, nat.sigma(), nat.characters["parity"],
            rho=lambda x: 1 if x > 10 else 0, predicates=nat.null_predicates["parity"],
        )


@pytest.mark.parametrize("rho, witness", [
    ({2: 1, 6: 1, 7: 0, 30: 0}, "pv = 2*3"),
    ({2: 1, 6: 1, 7: 1, 30: 0}, "upv = 3*2*5"),
])
def test_condition_i_names_each_kind_of_translate(rho, witness):
    # condition (I) reads the translates null_sets kept; these are made up so
    # that pu differs from up and each kind of witness can come first
    ns = NullSets(frozenset({2}), frozenset(), frozenset({2}), "exact",
                  translates={2: ((3, None, 6), (None, 3, 7), (3, 5, 30))})
    with pytest.raises(ConditionViolation, match=rf"^condition \(I\) fails at {re.escape(witness)}$"):
        _check_condition_i(ns, lambda x: 1, rho.get, lambda x: True)


@pytest.mark.parametrize("row1", [(0, 0, 4, 0, 0), (0,) * 5])
def test_condition_ii_names_the_first_pair_with_either_product_non_zero(row1):
    # a made-up non-commutative table: h is non-zero only at 4 = 3*0 = 2*1
    # (and 1*2 in the first row1).  x runs over I_chi - P_chi = {0, 1}, y
    # over the units 2, 3, and (x, y) = (0, 3) is the first pair with h(xy)
    # or h(yx) non-zero, by its yx product; the xy order alone fails first at
    # (1, 2), or nowhere
    s = FiniteSemigroup(cayley=((0,) * 5, row1, (0, 4, 0, 0, 0), (4, 0, 0, 0, 0), (0,) * 5))
    ns = NullSets(frozenset({0, 1}), frozenset(), frozenset(), "exact")
    h = ScalarFunction(s, values=[0, 0, 0, 0, 1])
    with pytest.raises(ConditionViolation, match=r"^condition \(II\) fails: h\(0\*3 side\) != 0$"):
        _check_condition_ii(s, ns, h, (2, 3))
    _check_condition_ii(s, ns, ScalarFunction(s, values=[0, 0, 0, 0, 0]), (2, 3))


def test_build_h_scans_p_chi_translates_only_in_null_sets():
    # compose_rule calls on the naturals window 2..200: null_sets' translate
    # scan is the only three-factor one; build_h adds at most the pair scans
    # (sine law and condition (II)), two products per window pair
    nat = get_fixture("naturals-from-2", window=200)
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
    own, calls = calls, 0
    build_h(s, sigma, parity, additive=nat.additive_rules["five-adic"], rho=F(7, 3),
            predicates=nat.null_predicates["parity"])
    assert calls <= own + 2 * len(s.elements) ** 2
    # a repeat reads every pair scan's products (additivity, condition (II),
    # sine law) from the carrier's cached pair tables
    calls = 0
    build_h(s, sigma, parity, additive=nat.additive_rules["five-adic"], rho=F(7, 3),
            predicates=nat.null_predicates["parity"])
    assert calls == own


def test_build_h_rejects_condition_ii():
    # with P_chi declared as all of 2N, h = rho = 3 on every even product,
    # so h(xu) != 0 for x in the window's I_chi - P_chi = 4N and u odd
    nat = get_fixture("naturals-from-2", window=50)
    with pytest.raises(ConditionViolation, match=r"^condition \(II\) fails: h\(32\*3 side\) != 0$"):
        build_h(
            nat.carrier, nat.sigma(), nat.characters["parity"],
            rho=3, predicates=NullPredicates(in_i=_even, in_p=_even),
        )


@pytest.mark.parametrize("window", [50, 200])
def test_build_h_condition_ii_fails_at_a_single_product(window):
    # 196 = 4*49 = 28*7 is declared in P_chi, so h(196) = rho != 0 there and
    # nowhere else in (I_chi - P_chi) * units; no translate of P_chi is
    # 0 mod 4, so condition (I) passes
    nat = get_fixture("naturals-from-2", window=window)
    preds = NullPredicates(in_i=_even, in_p=lambda x: x % 4 == 2 or x == 196)
    with pytest.raises(ConditionViolation, match=r"^condition \(II\) fails: h\(4\*49 side\) != 0$"):
        build_h(nat.carrier, nat.sigma(), nat.characters["parity"], rho=3, predicates=preds)


# rho matches condition (I) on the window (every translate there is <= 50)
# but not beyond it, so only the sine law sees the difference; messages
# recorded before the packed sine-law scan
SINE_LAW_BUILD_H_PINS = [
    (1, 2, "sine addition law fails at (2, 27): 2 != 1"),
    (F(1, 3), F(1, 2), "sine addition law fails at (2, 27): Fraction(1, 2) != Fraction(1, 3)"),
    (1.0, 2.0, "sine addition law fails at (2, 27): 2.0 != 1.0"),
]


@pytest.mark.parametrize("inside, outside, message", SINE_LAW_BUILD_H_PINS)
def test_build_h_names_the_first_sine_law_failure(inside, outside, message):
    nat = get_fixture("naturals-from-2", window=50)
    with pytest.raises(ConditionViolation, match=f"^{re.escape(message)}$"):
        build_h(nat.carrier, nat.sigma("id"), nat.characters["parity"],
                additive=nat.additive_rules["five-adic"],
                rho=lambda x: inside if x <= 50 else outside,
                predicates=nat.null_predicates["parity"])


def _heisenberg_coords_h(t):
    """(x + y) e**x: a sine-law solution for chi = e**x, bumped at (2, 2, 3),
    the product of (1, 1, 1) with itself and of no other window pair."""
    v = (t[0] + t[1]) * ExpPoly.exp(t[0])
    return v + 1 if t == (2, 2, 3) else v


# (fixture, window, sigma, character, h) -> witness; recorded before the
# packed sine-law scan
SINE_LAW_FAMILY7_PINS = [
    ("c2", None, "id", "chi1", [0, 1], "(1, 1)"),
    ("c3", None, "inv", "chi1", [F(1, 2), 0, 0], "(0, 0)"),
    ("c3", None, "id", "chi2", [0, 1, 1], "(1, 1)"),
    ("heisenberg", 1, "id", {"a": 1, "b": 0}, lambda t: ExpPoly({t[0]: t[2]}),
     "((-1, -1, -1), (-1, -1, -1))"),
    ("heisenberg", 1, "id", {"a": 1, "b": 0}, _heisenberg_coords_h, "((1, 1, 1), (1, 1, 1))"),
]


@pytest.mark.parametrize("name, window, sigma, chi, h, witness", SINE_LAW_FAMILY7_PINS)
def test_family7_names_the_first_pair_where_a_given_h_fails(name, window, sigma, chi, h, witness):
    fx = get_fixture(name, window=window)
    s = fx.carrier
    chi = fx.character("exp", **chi) if isinstance(chi, dict) else fx.characters[chi]
    h = ScalarFunction(s, rule=h) if callable(h) else ScalarFunction(s, values=h)
    message = f"h fails the sine addition law at {witness}"
    with pytest.raises(InvalidDescriptor, match=f"^{re.escape(message)}$"):
        construct(s, fx.sigma(sigma), FamilyDescriptor(7, 2, branch=1, chi=chi, h=h))


def test_family7_accepts_a_given_exact_sine_law_solution():
    fx = get_fixture("heisenberg", window=1)
    h = ScalarFunction(fx.carrier, rule=lambda t: (t[0] + t[1]) * ExpPoly.exp(t[0]))
    d = FamilyDescriptor(7, 2, branch=1, chi=fx.character("exp", a=1, b=0), h=h)
    pair = construct(fx.carrier, fx.sigma("id"), d)
    assert residual(fx.carrier, fx.sigma("id"), 2, pair.g, pair.f).max_residual == 0.0


def test_construct_rejects_odd_h():
    rl = get_fixture("real-line")
    s, neg = rl.carrier, rl.sigma("neg")
    chi = rl.character("exp", lam=0)
    h_odd = ScalarFunction(s, rule=lambda x: x)  # additive but sigma-odd
    with pytest.raises(InvalidDescriptor, match="even"):
        construct(s, neg, FamilyDescriptor(7, 0.5, chi=chi, h=h_odd))
