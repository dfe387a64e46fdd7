"""Carriers: validation, product sets, automorphism enumeration, centrality."""

import dataclasses
import itertools
import operator

import numpy as np
import pytest
from hypothesis import given, strategies as st

from coslaw import semigroups
from coslaw.analysis import check_dependence_lemma, check_G_properties, residual
from coslaw.fixtures import get_fixture
from coslaw.functions import (
    MultiplicativeFunction,
    ScalarFunction,
    check_pchi_lemma,
    is_additive,
    is_multiplicative,
    null_sets,
)
from coslaw.semigroups import (
    FiniteSemigroup,
    InvolutiveAutomorphism,
    ProceduralSemigroup,
    enumerate_involutive_automorphisms,
    is_abelian_fn,
    is_central,
    pair_blocks,
    product_set,
    validate,
    validate_automorphism,
)

BOOL_MULT = FiniteSemigroup(cayley=((0, 0), (0, 1)))


def test_compose_absorbing_element():
    assert BOOL_MULT.compose(0, 1) == 0
    assert BOOL_MULT.compose(1, 1) == 1


def test_compose_naturals_fixture():
    nat = get_fixture("naturals-from-2", window=50)
    assert nat.carrier.compose(2, 3) == 6


@pytest.mark.parametrize(
    "name, least", [("real-line", 2), ("heisenberg", 1), ("naturals-from-2", 2), ("c2", 1)]
)
def test_fixture_window_below_minimum_is_rejected(name, least):
    # 0 is a window size, not "use the default"
    for window in (0, least - 1):
        with pytest.raises(ValueError, match="window must be at least"):
            get_fixture(name, window=window)
    assert get_fixture(name, window=least).carrier.elements


def test_fixture_window_default_and_smallest():
    assert len(get_fixture("real-line").carrier.elements) == 64
    assert len(get_fixture("heisenberg", window=1).carrier.elements) == 27
    assert tuple(get_fixture("naturals-from-2", window=2).carrier.elements) == (2,)


def test_compose_error_reporting():
    with pytest.raises(IndexError):
        BOOL_MULT.compose(0, 5)
    nat = get_fixture("naturals-from-2", window=50)
    with pytest.raises(ValueError, match="domain"):
        nat.carrier.compose(1, 3)  # 1 is outside N \ {1}


def test_checked_tests_each_element_and_product_tests_none():
    nat = get_fixture("naturals-from-2", window=20).carrier
    assert nat.checked(iter([2, 3])) == (2, 3)
    with pytest.raises(ValueError, match="domain"):
        nat.checked((2, 1))
    assert nat.product(1, 3) == 3  # the bare rule: no domain test
    assert BOOL_MULT.checked(range(2)) == (0, 1)
    with pytest.raises(IndexError):
        BOOL_MULT.checked([0, 5])
    for x, y in itertools.product(range(2), repeat=2):
        assert BOOL_MULT.product(x, y) == BOOL_MULT.compose(x, y)

def test_compose_heisenberg_matches_matrix_oracle():
    # oracle: multiply the 3x3 upper unitriangular integer matrices directly
    def mat(t):
        x, y, z = t
        return np.array([[1, x, z], [0, 1, y], [0, 0, 1]], dtype=object)

    h3 = get_fixture("heisenberg", window=2)
    assert h3.carrier.compose((1, 0, 0), (0, 1, 0)) == (1, 1, 1)
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = tuple(int(v) for v in rng.integers(-4, 5, size=3))
        b = tuple(int(v) for v in rng.integers(-4, 5, size=3))
        prod = mat(a) @ mat(b)
        expect = (prod[0, 1], prod[1, 2], prod[0, 2])
        assert h3.carrier.compose(a, b) == expect


def test_validate_fixtures_clean(any_fixture):
    assert validate(any_fixture.carrier) == []


def test_validate_c2_table():
    assert validate(FiniteSemigroup(cayley=((0, 1), (1, 0)))) == []


def test_validate_finds_associativity_violation():
    bad = FiniteSemigroup(cayley=((1, 1), (0, 0)))
    report = validate(bad)
    assert report  # oracle: (0,0,0) gives (00)0 = 1*0 = 0 but 0(00) = 0*1 = 1
    assert ("associativity", 0, 0, 0) in report


def test_validate_closure_violation():
    bad = FiniteSemigroup(cayley=((0, 2), (0, 0)))
    assert ("closure", 0, 1) in validate(bad)


def test_validate_reports_rule_products_outside_the_domain():
    sub = ProceduralSemigroup(
        "sub", tuple(range(2, 8)), compose_rule=lambda x, y: x - y,
        contains_rule=lambda x: isinstance(x, int) and x >= 2,
    )
    report = validate(sub)
    # x - y >= 2 only when y <= x - 2; any closure entry ends the check
    assert report == [("closure", x, y) for x in sub.window for y in sub.window if x - y < 2]


def test_validate_rejects_a_window_element_outside_the_domain():
    # the carrier refuses the window when it is built, before validate runs
    with pytest.raises(ValueError, match=r"^element outside domain of naturals: 1$"):
        validate(ProceduralSemigroup(
            "naturals", tuple(range(1, 8)), compose_rule=operator.mul,
            contains_rule=lambda x: isinstance(x, int) and x >= 2,
        ))


def _finite_validate(cayley):
    """The finite-table check that `validate` kept apart from the pair and
    triple scans before they served every carrier: a closure pass over
    the n^2 cells, then, if it found nothing, an associativity pass over
    the n^3 triples.  The reference for the shared scans."""
    report = []
    n = len(cayley)
    for x in range(n):
        for y in range(n):
            v = cayley[x][y]
            if not isinstance(v, int) or not 0 <= v < n:
                report.append(("closure", x, y))
    if report:
        return report
    for x, y, z in itertools.product(range(n), repeat=3):
        if cayley[cayley[x][y]][z] != cayley[x][cayley[y][z]]:
            report.append(("associativity", x, y, z))
    return report


def _small_tables():
    """Every 1- and 2-element table with entries in 0..n, then seeded random
    3-5-element tables: half in range, half with cells in -1..n."""
    for n in (1, 2):
        for cells in itertools.product(range(n + 1), repeat=n * n):
            yield [cells[i:i + n] for i in range(0, n * n, n)]
    rng = np.random.default_rng(22)
    for k in range(400):
        n = int(rng.integers(3, 6))
        low, high = (0, n) if k % 2 else (-1, n + 1)
        yield rng.integers(low, high, size=(n, n)).tolist()


def test_validate_matches_the_finite_reference_entry_for_entry():
    kinds = set()
    for cayley in _small_tables():
        s = FiniteSemigroup(cayley=cayley)
        report = validate(s)
        assert report == _finite_validate(s.cayley), cayley
        kinds.add(report[0][0] if report else "valid")
    assert kinds == {"closure", "associativity", "valid"}


def test_validate_checks_every_triple_of_a_table_above_the_sample_cap():
    n = 70
    cayley = [[0] * n for _ in range(n)]
    cayley[69][1] = 1  # (69*69)*1 = 0*1 = 0, but 69*(69*1) = 69*1 = 1
    s = FiniteSemigroup(cayley=cayley)
    assert validate(s) == _finite_validate(s.cayley) == [("associativity", 69, 69, 1)]
    # the same table as a window is sampled, and the sample skips 69 and 1
    window = ProceduralSemigroup("table", s.elements, compose_rule=s.product,
                                 contains_rule=s.contains_rule)
    sample = semigroups.triple_sample(window)
    assert len(sample) <= semigroups.TRIPLE_SAMPLE_CAP and 69 not in sample
    assert validate(window) == []


@pytest.mark.parametrize("cell", [1.0, "1", None, 1 + 0j])
def test_a_table_cell_that_is_not_an_integer_is_rejected(cell):
    with pytest.raises(ValueError, match="not an integer"):
        FiniteSemigroup(cayley=((0, cell), (1, 0)))


@pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.int32])
def test_numpy_integer_table_cells_are_taken_as_ints(dtype):
    s = FiniteSemigroup(cayley=np.array([[0, 1], [1, 0]], dtype=dtype))
    assert s.cayley == ((0, 1), (1, 0))
    assert all(type(v) is int for row in s.cayley for v in row)
    assert validate(s) == []


def test_product_set_naturals_is_composites():
    nat = get_fixture("naturals-from-2", window=50)
    s2 = product_set(nat.carrier, nat.carrier.elements)

    def is_prime(n):
        return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

    expect = frozenset(x for x in range(4, 51) if not is_prime(x))
    assert s2 == expect


def test_product_set_empty_and_group():
    c2 = get_fixture("c2").carrier
    assert product_set(c2, []) == frozenset()
    assert product_set(c2, [1]) == frozenset({0})  # g*g = e


@given(st.data())
def test_product_set_monotone(data):
    name = data.draw(st.sampled_from(["c2", "c3", "leftzero2", "null3", "bool-mult"]))
    s = get_fixture(name).carrier
    u = data.draw(st.sets(st.sampled_from(list(s.elements))))
    t = data.draw(st.sets(st.sampled_from(sorted(u)))) if u else set()
    assert product_set(s, t) <= product_set(s, u)


def _automorphism_oracle(s):
    """Independent brute force: nested-loop check over all permutations."""
    found = []
    for perm in itertools.permutations(range(s.order)):
        if any(perm[perm[x]] != x for x in range(s.order)):
            continue
        ok = True
        for x in range(s.order):
            for y in range(s.order):
                if perm[s.cayley[x][y]] != s.cayley[perm[x]][perm[y]]:
                    ok = False
        if ok:
            found.append(perm)
    return sorted(found)


def test_enumerate_involutive_automorphisms_c3():
    s = get_fixture("c3").carrier
    autos = enumerate_involutive_automorphisms(s)
    assert [a.perm for a in autos] == _automorphism_oracle(s)
    assert [a.perm for a in autos] == [(0, 1, 2), (0, 2, 1)]  # identity + inversion


def test_enumerate_involutive_automorphisms_leftzero():
    s = get_fixture("leftzero2").carrier
    autos = enumerate_involutive_automorphisms(s)
    assert [a.perm for a in autos] == [(0, 1), (1, 0)]


def test_identity_always_enumerated(finite_fixture):
    autos = enumerate_involutive_automorphisms(finite_fixture.carrier)
    assert autos[0].perm == tuple(range(finite_fixture.carrier.order))


def test_enumerated_sigmas_are_automorphisms(any_fixture):
    for sigma in any_fixture.sigmas:
        assert validate_automorphism(any_fixture.carrier, sigma) == []


def test_order_bound_enforced():
    big = FiniteSemigroup(cayley=tuple(tuple(0 for _ in range(9)) for _ in range(9)))
    with pytest.raises(ValueError, match="bound"):
        enumerate_involutive_automorphisms(big)


def test_is_central_constant(any_fixture):
    s = any_fixture.carrier
    if s.is_finite:
        f = ScalarFunction(s, values=[2.0] * s.order)
    else:
        f = ScalarFunction(s, rule=lambda x: 2.0)
    assert is_central(s, f)
    assert is_abelian_fn(s, f)


def test_left_zero_central_forced():
    s = get_fixture("leftzero2").carrier
    f = ScalarFunction(s, values=[1.0, 2.0])
    assert not is_central(s, f)  # f(ab) = f(a) != f(b) = f(ba)


def test_family8_values_abelian_on_c3():
    from coslaw.families import FamilyDescriptor, construct

    fx = get_fixture("c3")
    s, sig = fx.carrier, fx.sigma("inv")
    pair = construct(s, sig, FamilyDescriptor(8, 2, chi=fx.characters["chi2"]))
    assert is_abelian_fn(s, pair.g) and is_abelian_fn(s, pair.f)
    assert is_central(s, pair.g) and is_central(s, pair.f)


# ---------------------------------------------------------------------------
# scans: the carrier tests its window once, when it is built; a scan tests
# only the sigma-images and the products that become factors
# ---------------------------------------------------------------------------


def _counting_domain():
    """The domain test of the naturals from 2, and `calls`, which records
    every test."""
    calls = []

    def contains(x):
        calls.append(x)
        return isinstance(x, int) and x >= 2

    return contains, calls


def _counting_naturals(rule, low=2, n=30):
    """The naturals from 2 under `rule`, windowed to low..low+n-1; `calls`
    records every domain test after the carrier is built."""
    contains, calls = _counting_domain()
    s = ProceduralSemigroup("naturals", range(low, low + n), compose_rule=rule, contains_rule=contains)
    calls.clear()
    return s, calls


def test_a_carrier_tests_its_window_once_when_it_is_built():
    contains, calls = _counting_domain()
    s = ProceduralSemigroup("naturals", range(2, 8), compose_rule=operator.mul, contains_rule=contains)
    assert s.window == s.elements == (2, 3, 4, 5, 6, 7) and calls == list(s.window)
    # the first element outside the domain raises the message a scan gave
    # when each scan tested the window itself
    with pytest.raises(ValueError, match=r"^element outside domain of naturals: 1$"):
        ProceduralSemigroup("naturals", (3, 1, 0), compose_rule=operator.mul, contains_rule=contains)
    with pytest.raises(ValueError, match="outside domain of naturals: 1"):
        dataclasses.replace(s, window=(1, *s.window))


def test_residual_tests_only_the_sigma_images():
    s, calls = _counting_naturals(operator.mul)
    one = ScalarFunction(s, rule=lambda x: 1)
    assert residual(s, ID, 0, one, one.scale(0)).max_residual == 0.0
    assert calls == list(s.elements)  # one test per sigma-image, none per window element


def _fn(s, rule):
    return ScalarFunction(s, rule=rule)


def _is_prime(x):
    return x >= 2 and all(x % d for d in range(2, x))


ID = InvolutiveAutomorphism("id", rule=lambda x: x)
DOWN = InvolutiveAutomorphism("down", rule=lambda x: x - 1)  # maps 2 out of the carrier

# scan -> (product rule, run(s, sigma) -> verdict); every verdict is True on a
# window of the carrier, so each scan runs to its end
SCANS = {
    "is_central": (max, lambda s, sig: is_central(s, _fn(s, lambda x: x))),
    "is_abelian_fn": (max, lambda s, sig: is_abelian_fn(s, _fn(s, lambda x: x))),
    "is_multiplicative": (
        operator.mul, lambda s, sig: is_multiplicative(s, _fn(s, lambda x: x % 2))),
    "is_additive": (max, lambda s, sig: is_additive(s, s.elements, _fn(s, lambda x: 0))),
    "product_set": (operator.mul, lambda s, sig: product_set(s, s.elements)
                    == {x for x in s.elements if not _is_prime(x)}),
    "validate_automorphism": (operator.mul, lambda s, sig: validate_automorphism(s, sig) == []),
    "check_pchi_lemma": (operator.mul, lambda s, sig: check_pchi_lemma(
        s, sig, MultiplicativeFunction(_fn(s, lambda x: x % 2))).ok),
    # g vanishes on S^2 (no product is prime) and f = g solves the equation
    "check_dependence_lemma": (operator.mul, lambda s, sig: check_dependence_lemma(
        s, sig, 1, _fn(s, _is_prime), _fn(s, _is_prime)).ok),
    "check_G_properties": (max, lambda s, sig: check_G_properties(
        s, sig, 0, _fn(s, lambda x: 1), _fn(s, lambda x: 0)).ok),
}


@pytest.mark.parametrize("scan", SCANS)
def test_scans_test_each_element_once_per_scan(scan):
    rule, run = SCANS[scan]
    s, calls = _counting_naturals(rule)
    if scan == "check_pchi_lemma":
        # its null_sets call (one: chi o id has chi's zeros) tests each u*p
        # once in its three-factor loop
        null_sets(s, ID, MultiplicativeFunction(_fn(s, lambda x: x % 2)))
        own = -len(calls)
        calls.clear()
    else:
        own = 0
    assert run(s, ID)
    n = len(s.elements)
    # a few passes over the window (under max, every product of window
    # elements is one of them); testing each product's factors is >= 2 n^2
    assert own + len(calls) <= 8 * n


@pytest.mark.parametrize("scan", SCANS)
def test_scans_reject_a_window_element_outside_the_carrier(scan):
    # the carrier refuses the window when it is built, so the scan never starts
    rule, run = SCANS[scan]
    ran = []
    with pytest.raises(ValueError, match=r"^element outside domain of naturals: 1$"):
        s, _ = _counting_naturals(rule, low=1)
        ran.append(run(s, ID))
    assert ran == []


@pytest.mark.parametrize("scan", ["validate_automorphism", "check_dependence_lemma",
                                  "check_G_properties"])
def test_scans_reject_a_sigma_image_outside_the_carrier(scan):
    rule, run = SCANS[scan]
    s, _ = _counting_naturals(rule)
    with pytest.raises(ValueError, match="domain"):
        run(s, DOWN)


def test_scans_on_a_finite_carrier_raise_index_error():
    null2 = FiniteSemigroup(cayley=((0, 0), (0, 0)))
    bad = InvolutiveAutomorphism("bad", perm=(0, 5))
    g = ScalarFunction(null2, values=[0, 1])  # vanishes on S^2 = {0}
    z = ScalarFunction(null2, values=[0, 0])
    with pytest.raises(IndexError):
        product_set(null2, [0, 5])
    with pytest.raises(IndexError):
        validate_automorphism(null2, bad)
    with pytest.raises(IndexError):
        check_dependence_lemma(null2, bad, 1, g, g)
    with pytest.raises(IndexError):
        check_G_properties(null2, bad, 0, z, z)


def test_pair_blocks_order_and_factor_lists(monkeypatch):
    s, calls = _counting_naturals(operator.mul, n=3)  # window 2, 3, 4
    blocks = pair_blocks(s, (2, 3), (2, 3))
    assert "_pair_tables" not in vars(s)  # nothing is built before the first block is read
    (table,) = blocks
    assert table.products == (4, 6, 9) and table.index.tolist() == [[0, 1], [1, 2]]
    assert table.start == 0 and calls == []  # the caller checks the factors
    # above the budget: x-major blocks of whole rows, each with its own
    # first-seen products, kept by no one
    monkeypatch.setattr(semigroups, "PAIR_BLOCK_CELLS", 4)
    blocks = list(pair_blocks(s, (2, 3, 4), (2, 3)))
    assert [(b.start, b.products, b.index.tolist()) for b in blocks] == [
        (0, (4, 6, 9), [[0, 1], [1, 2]]), (2, (8, 12), [[0, 1]])]
    assert list(vars(s)["_pair_tables"]) == [((2, 3), (2, 3))]
    # a row longer than the budget is a block of its own
    assert [b.start for b in pair_blocks(s, (2, 3), (2, 3, 4, 5, 6))] == [0, 1]


def test_pair_table_products_index_and_dtype():
    s, calls = _counting_naturals(operator.mul, n=3)  # window 2, 3, 4
    (table,) = pair_blocks(s, (2, 3), (2, 3, 4))
    assert table.products == (4, 6, 8, 9, 12)  # first seen, x-major
    assert table.index.tolist() == [[0, 1, 2], [1, 3, 4]]
    assert table.index.dtype == np.uint8 and not table.index.flags.writeable
    assert calls == []  # the caller checks the factors
    (wide,) = pair_blocks(s, tuple(range(2, 30)), tuple(range(2, 30)))
    assert len(wide.products) > 256 and wide.index.dtype == np.uint16
    assert [wide.products[k] for k in wide.index[5]] == [7 * y for y in range(2, 30)]
    (empty,) = pair_blocks(s, (), (2, 3))
    assert empty.products == () and empty.index.shape == (0, 2)


@pytest.mark.parametrize("n, dtype", [(16, np.uint8), (17, np.uint16), (256, np.uint16), (257, np.uint32)])
def test_pair_table_index_is_narrowed_once_and_keeps_every_row(n, dtype):
    # x*y = 1000x + y: every cell a new product, so the positions outgrow
    # uint8 after 16 rows of 16 and uint16 after 256 rows of 256
    s, _ = _counting_naturals(lambda x, y: 1000 * x + y, n=n)
    (table,) = pair_blocks(s, s.elements, s.elements)
    assert table.index.dtype == dtype and not table.index.flags.writeable
    assert table.index.tolist() == [list(range(i * n, (i + 1) * n)) for i in range(n)]
    assert table.products[-1] == 1000 * s.elements[-1] + s.elements[-1]


def test_pair_table_is_built_once_per_carrier_instance():
    products = []

    def rule(x, y):
        products.append((x, y))
        return x * y

    s, _ = _counting_naturals(rule, n=4)
    (table,) = pair_blocks(s, s.elements, s.elements)
    assert len(products) == 16
    assert next(pair_blocks(s, s.elements, s.elements)) is table and len(products) == 16
    assert next(pair_blocks(s, s.elements, (2,))) is not table and len(products) == 20
    # an equal carrier (the rules are not compared) has a table of its own
    twin, _ = _counting_naturals(rule, n=4)
    assert twin == s and next(pair_blocks(twin, twin.elements, twin.elements)) is not table
    assert next(pair_blocks(BOOL_MULT, (0, 1), (1, 0))).products == (0, 1)
