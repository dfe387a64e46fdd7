"""File formats: semigroup tables, pair JSON, round trips."""

import json
import time
from fractions import Fraction

import pytest

from coslaw.exactnum import Cyc, read_fraction
from coslaw.families import (
    FamilyDescriptor,
    HSpec,
    SolutionPair,
    build_h,
    construct,
    function_vanishing_on_products,
)
from coslaw.fixtures import get_fixture
from coslaw.functions import ScalarFunction, linear_combination, star
from coslaw.serialize import (
    ParseError,
    function_from_json,
    load_pair,
    load_semigroup,
    pair_from_json,
    pair_to_json,
    save_pair,
    save_semigroup,
    scalar_from_json,
    scalar_to_json,
)

F = Fraction


def test_semigroup_file_round_trip(tmp_path):
    fx = get_fixture("c3")
    path = tmp_path / "c3.sg"
    save_semigroup(path, fx.carrier, fx.sigma("inv"))
    s, sigma = load_semigroup(path)
    assert s.cayley == fx.carrier.cayley
    assert sigma.perm == (0, 2, 1)


def test_semigroup_file_comments_and_no_sigma(tmp_path):
    path = tmp_path / "t.sg"
    path.write_text("# a comment\norder 2\n0 1  # inline comment\n1 0\n")
    s, sigma = load_semigroup(path)
    assert s.order == 2 and sigma is None


def test_load_rejects_non_associative_with_witness(tmp_path):
    path = tmp_path / "bad.sg"
    path.write_text("order 2\n1 1\n0 0\n")
    with pytest.raises(ParseError, match=r"associativity violation at \(0, 0, 0\)"):
        load_semigroup(path)


def test_load_rejects_bad_sigma_with_witness(tmp_path):
    # the swap is not an automorphism of bool-mult
    path = tmp_path / "bad_sigma.sg"
    path.write_text("order 2\n0 0\n0 1\nsigma 1 0\n")
    with pytest.raises(ParseError, match="sigma fails"):
        load_semigroup(path)


def test_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "short_row.sg"
    path.write_text("order 2\n0\n")
    with pytest.raises(ParseError) as err:
        load_semigroup(path)
    assert err.value.line == 2


def test_scalar_json_exact_round_trip():
    v = Cyc.rational(F(1, 3), F(-2, 7))
    out = scalar_to_json(v)
    assert out == ["1/3", "-2/7"]
    back = scalar_from_json(out)
    assert isinstance(back, Cyc) and back == v
    assert scalar_from_json(scalar_to_json(F(5, 2))) == F(5, 2)
    assert scalar_from_json(scalar_to_json(3)) == 3


def test_scalar_json_float_round_trip():
    z = 0.1 + 0.25j
    assert scalar_from_json(scalar_to_json(z)) == z


def test_pair_json_finite_exact_round_trip():
    fx = get_fixture("c2")
    s, sig = fx.carrier, fx.sigma()
    d = FamilyDescriptor(5, 0, q=F(3, 4), branch=1,
                         chi1=fx.characters["chi1"], chi2=fx.characters["chi2"])
    pair = construct(s, sig, d)
    data = pair_to_json(pair, "c2", "id")
    fx2, sig2, pair2 = pair_from_json(json.loads(json.dumps(data)))
    assert pair2.g.equal_to(pair.g, tol=0)
    assert pair2.f.equal_to(pair.f, tol=0)


def test_pair_json_real_line_round_trip(tmp_path):
    rl = get_fixture("real-line")
    neg = rl.sigma("neg")
    pair = construct(rl.carrier, neg, FamilyDescriptor(8, 2, chi=rl.character("exp", lam=1.0)))
    path = tmp_path / "pair.json"
    save_pair(path, pair, "real-line", "neg")
    fx2, sig2, pair2 = load_pair(path)
    assert sig2.name == "neg"
    assert pair2.g.max_diff(pair.g) < 1e-15
    assert pair2.f.max_diff(pair.f) < 1e-15


def test_function_without_spec_not_serializable():
    rl = get_fixture("real-line")
    f = ScalarFunction(rl.carrier, rule=lambda x: x)
    from coslaw.serialize import function_to_json

    with pytest.raises(ValueError, match="spec"):
        function_to_json(f)


def test_save_pair_without_a_spec_leaves_no_file(tmp_path):
    # a family-7 h built from an additive rule that has no spec
    rl = get_fixture("real-line", window=8)
    s, sig = rl.carrier, rl.sigma("id")
    chi = rl.character("exp", lam=1.0)
    h = build_h(s, sig, chi, additive=lambda x: x)
    pair = construct(s, sig, FamilyDescriptor(7, 1, chi=chi, h=h))
    path = tmp_path / "pair.json"
    with pytest.raises(ValueError, match="without a serializable spec"):
        save_pair(path, pair, "real-line", "id", window=8)
    assert not path.exists()


def test_naturals_h_pair_round_trip(tmp_path):
    from coslaw.families import HSpec

    nat = get_fixture("naturals-from-2", window=40)
    s, sig = nat.carrier, nat.sigma()
    d = FamilyDescriptor(
        7, 0.5, branch=1, chi=nat.characters["parity"],
        h_spec=HSpec(
            additive=nat.additive_rules["five-adic"], rho=0.25,
            spec={"rule": "h-piecewise", "c": [0.25, 0]},
        ),
    )
    pair = construct(s, sig, d, predicates=nat.null_predicates["parity"])
    path = tmp_path / "h_pair.json"
    save_pair(path, pair, "naturals-from-2", "id", window=40)
    fx2, sig2, pair2 = load_pair(path)
    assert pair2.g.max_diff(pair.g) < 1e-12
    assert pair2.f.max_diff(pair.f) < 1e-12


NESTED_WINDOWS = {"real-line": 12, "heisenberg": 1, "naturals-from-2": 30}


def _nested_pair(name):
    """g, f wrapping every rule the fixture can decode in combo/star specs."""
    fx = get_fixture(name, window=NESTED_WINDOWS[name])
    s, sigma = fx.carrier, fx.sigmas[0]
    const = ScalarFunction(s, rule=lambda x: 1.5j, spec={"rule": "const", "value": [0.0, 1.5]})
    support = function_vanishing_on_products(s, {x: 0.25 + k for k, x in enumerate(s.elements[:3])})
    if name == "real-line":
        named = [fx.character("exp", lam=0.5 - 1j).fn]
    elif name == "heisenberg":
        named = [fx.character("exp", a=1, b=-2).fn, fx.character("exp", a=0.5, b=1j).fn]
    else:
        f7 = construct(s, sigma, FamilyDescriptor(
            7, F(1, 2), chi=fx.characters["parity"],
            h_spec=HSpec(additive=fx.additive_rules["five-adic"], rho=F(3, 2),
                         spec=fx.h_specs["parity", "five-adic"](F(3, 2))),
        ), predicates=fx.null_predicates["parity"]).f
        five_adic = fx.rules["five-adic"]({"rule": "five-adic"})
        named = [fx.characters["parity"].fn, fx.characters["one"].fn, five_adic, f7]
    inner = linear_combination([(2, star(support, sigma)), (-1j, const)])
    g = linear_combination([(0.5, star(inner, sigma))] + [(k + 1, fn) for k, fn in enumerate(named)])
    f = -star(linear_combination([(1, g), (3, support)]), sigma)
    return fx, SolutionPair(g=g, f=f, alpha=0.5)


@pytest.mark.parametrize("name", sorted(NESTED_WINDOWS))
def test_nested_rule_specs_round_trip(name):
    fx, pair = _nested_pair(name)
    window = NESTED_WINDOWS[name]
    text = json.dumps(pair_to_json(pair, name, fx.sigmas[0].name, window=window))
    _, _, pair2 = pair_from_json(json.loads(text))
    assert json.dumps(pair_to_json(pair2, name, fx.sigmas[0].name, window=window)) == text
    for x in fx.carrier.elements:
        assert abs(complex(pair2.g(x)) - complex(pair.g(x))) < 1e-12
        assert abs(complex(pair2.f(x)) - complex(pair.f(x))) < 1e-12


def test_h_piecewise_without_the_additive_part():
    """The rho-only family-7 h: 0 off I_chi, rho on P_chi, 0 between; its
    spec is the five-adic one plus "additive": null, and decodes to it."""
    fx = get_fixture("naturals-from-2", window=40)
    s, sigma, parity = fx.carrier, fx.sigma(), fx.characters["parity"]
    spec = fx.h_specs["parity", None](F(3, 2))
    assert spec == {"rule": "h-piecewise", "c": [1.5, 0.0], "additive": None}
    h = function_from_json(fx, spec)
    built = construct(s, sigma, FamilyDescriptor(
        7, 1, chi=parity, h_spec=HSpec(rho=F(3, 2), spec=spec),
    ), predicates=fx.null_predicates["parity"])
    for x in (*s.elements, 4002, 1250):
        want = 1.5 if x % 4 == 2 else 0
        assert h(x) == want and built.f(x) - parity(x) == want
    assert built.f.spec["terms"][1]["fn"] is spec
    with_five_adic = function_from_json(fx, {"rule": "h-piecewise", "c": [1.5, 0.0]})
    assert with_five_adic(25) == 2 and h(25) == 0
    with pytest.raises(ParseError, match="additive"):
        pair_from_json({"fixture": "naturals-from-2", "sigma": "id", "alpha": [1, 0],
                        "g": {**spec, "additive": "five-adic"}, "f": spec})


@pytest.mark.parametrize("c", [F(7, 3), 0.25], ids=["exact", "float"])
@pytest.mark.parametrize("additive", ["five-adic", None])
def test_h_piecewise_decodes_to_the_h_build_h_makes(c, additive):
    """The decoder and `build_h` make h from one rule: the same values of
    the same types, inside the window and beyond it, for the rho the spec
    holds."""
    fx = get_fixture("naturals-from-2", window=40)
    parity = fx.characters["parity"]
    spec = fx.h_specs["parity", additive](c)
    decoded = function_from_json(fx, spec)
    points = range(2, 400)
    got = [decoded(x) for x in points]
    assert not parity.fn._memo  # the decoder reads the raw parity rule
    built = build_h(fx.carrier, fx.sigma(), parity, additive=fx.additive_rules.get(additive),
                    rho=complex(*spec["c"]), predicates=fx.null_predicates["parity"])
    assert [(type(v), v) for v in got] == [(type(built(x)), built(x)) for x in points]
    assert got[25 - 2] == (2 if additive else 0) and got[6 - 2] == complex(c)


def test_unknown_rule_is_parse_error():
    with pytest.raises(ParseError, match="unknown function rule 'parity'"):
        function_from_json(get_fixture("real-line"), {"rule": "parity"})


def test_read_fraction_reads_the_spellings_fraction_reads():
    assert read_fraction(" 3/4 ") == Fraction(3, 4)
    assert read_fraction("1_0e-1") == 1
    assert read_fraction("-0e1_000_000_000") == 0


@pytest.mark.parametrize("bad", ["e5", ".e5", "-e0", "0_e5", "_0e5", "0e5_", "1__0e5"])
def test_read_fraction_rejects_what_fraction_rejects(bad):
    with pytest.raises(ValueError):
        Fraction(bad)
    with pytest.raises(ValueError):
        read_fraction(bad)
    with pytest.raises(ValueError):
        scalar_from_json([bad, "0"])


@pytest.mark.parametrize("huge", ["1e309", "-1e309", " 1e1_000_000_000 ", "0.01e100000000"])
def test_read_fraction_rejects_huge_literals_without_the_power(huge):
    start = time.perf_counter()
    with pytest.raises(OverflowError, match="out of range"):
        read_fraction(huge)
    assert time.perf_counter() - start < 1.0
