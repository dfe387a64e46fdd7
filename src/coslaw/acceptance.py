"""Self-contained acceptance battery over the built-in fixtures.

Eight criteria, each returning a pass/fail result with detail:

  A1  family residuals exact (rational data) / < 1e-9 (float) everywhere
  A2  real-line closed forms for the twisted character pair
  A3  Heisenberg reproduction and degeneration of the even-character families
  A4  naturals null sets, piecewise h conditions and sine law on [2, 200]
  A5  lemma battery over >= 1000 randomized family-constructed solutions
  A6  character enumeration counts with exact multiplicativity
  A7  numerical completeness oracle: every found solution classifies
  A8  classifier round trip on 500 random descriptors within 1e-7

`run_all` prints one line per criterion and is what `coslaw suite` calls.
"""

from __future__ import annotations

import cmath
import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .analysis import (
    check_G_properties,
    check_dependence_lemma,
    check_parity_lemma,
    classify,
    residual,
)
from .families import (
    FamilyDescriptor,
    HSpec,
    InvalidDescriptor,
    build_h,
    construct,
    function_vanishing_on_products,
)
from .fixtures import FINITE_TABLES, Fixture, get_fixture
from .functions import (
    ScalarFunction,
    character_table,
    check_pchi_lemma,
    enumerate_multiplicative,
    is_multiplicative,
    null_sets,
)
from .semigroups import product_set
from .solver import CompletenessReport, SolverConfig, completeness_check

FINITE_FIXTURES = tuple(FINITE_TABLES)


@dataclass
class CriterionResult:
    cid: str
    description: str
    passed: bool
    detail: str
    seconds: float


@dataclass(frozen=True)
class Criterion:
    cid: str
    description: str
    fn: Callable

    def run(self) -> CriterionResult:
        t0 = time.perf_counter()
        try:
            passed, detail = self.fn()
        except Exception as e:  # a crash is a failure, not an abort
            passed, detail = False, f"{type(e).__name__}: {e}"
        return CriterionResult(
            self.cid, self.description, passed, detail, time.perf_counter() - t0
        )


# ---------------------------------------------------------------------------
# A1: family residuals
# ---------------------------------------------------------------------------


def family_case_matrix():
    """(fixture, sigma, descriptor, free, predicates, expect_exact) cases
    covering every family on every applicable fixture and sigma."""
    cases = []

    def add(fx, sigma, d, free=None, predicates=None, exact=False):
        cases.append((fx, sigma, d, free, predicates, exact))

    for name in FINITE_FIXTURES:
        fx = get_fixture(name)
        s = fx.carrier
        outside = sorted(set(s.elements) - product_set(s, s.elements))
        for sigma in fx.sigmas:
            table = character_table(s, sigma)
            evens = table.even
            ones = ScalarFunction(s, values=[k + 1 for k in range(s.order)])
            for alpha in (1, -1):
                add(fx, sigma, FamilyDescriptor(1, alpha), free=ones, exact=True)
            if outside:
                gfun = function_vanishing_on_products(s, {x: x + 1 for x in outside})
                add(fx, sigma, FamilyDescriptor(2, Fraction(1, 2)), free=gfun, exact=True)
                add(fx, sigma, FamilyDescriptor(3, Fraction(1, 2)), free=gfun, exact=True)
            for chi in evens:
                add(fx, sigma, FamilyDescriptor(4, Fraction(1, 2), q=Fraction(1, 2), branch=1, chi=chi), exact=True)
                add(fx, sigma, FamilyDescriptor(4, 0, q=Fraction(3, 4), branch=-1, chi=chi), exact=True)
                add(fx, sigma, FamilyDescriptor(4, 0.3 + 0.2j, q=1.1 - 0.4j, branch=1, chi=chi))
                add(fx, sigma, FamilyDescriptor(7, Fraction(1, 2), branch=1, chi=chi, h_spec=HSpec()), exact=True)
            for chi1, chi2 in itertools.combinations(evens, 2):
                add(fx, sigma, FamilyDescriptor(5, 0, q=Fraction(3, 4), branch=1, chi1=chi1, chi2=chi2), exact=True)
                add(fx, sigma, FamilyDescriptor(5, 1, q=Fraction(4, 3), branch=-1, chi1=chi1, chi2=chi2), exact=True)
                add(fx, sigma, FamilyDescriptor(5, 0.25, q=0.6 + 0.1j, branch=1, chi1=chi1, chi2=chi2))
                add(fx, sigma, FamilyDescriptor(6, 2, chi1=chi1, chi2=chi2), exact=True)
                add(fx, sigma, FamilyDescriptor(6, 0.5j, chi1=chi2, chi2=chi1))
            for chi in table.twisted:
                add(fx, sigma, FamilyDescriptor(8, 2, chi=chi), exact=True)
                add(fx, sigma, FamilyDescriptor(8, Fraction(1, 2), chi=chi), exact=True)
                add(fx, sigma, FamilyDescriptor(8, 0.3 + 1.0j, chi=chi))

    rl = get_fixture("real-line")
    neg, rid = rl.sigma("neg"), rl.sigma("id")
    ones_rl = function_vanishing_on_products(rl.carrier, {x: 1 for x in rl.carrier.elements})
    add(rl, neg, FamilyDescriptor(1, 1), free=ones_rl, exact=True)
    one_char = rl.character("exp", lam=0)
    add(rl, neg, FamilyDescriptor(4, 0.5, q=1.25, branch=1, chi=one_char))
    e1, e2 = rl.character("exp", lam=1.0), rl.character("exp", lam=2.0)
    add(rl, rid, FamilyDescriptor(4, 0.5, q=-0.75j, branch=-1, chi=e1))
    add(rl, rid, FamilyDescriptor(5, 0.5, q=1.2, branch=1, chi1=e1, chi2=e2))
    add(rl, rid, FamilyDescriptor(6, 1.5, chi1=e1, chi2=e2))
    h_lin = ScalarFunction(rl.carrier, rule=lambda x: x * cmath.exp(1j * x))
    add(rl, rid, FamilyDescriptor(7, 0.75, branch=-1, chi=e1, h=h_lin))
    add(rl, neg, FamilyDescriptor(8, 2, chi=e1))

    h3 = get_fixture("heisenberg", window=2)
    flip, hid = h3.sigma("flip"), h3.sigma("id")
    ones_h3 = function_vanishing_on_products(h3.carrier, {x: 1 for x in h3.carrier.elements})
    add(h3, flip, FamilyDescriptor(1, -1), free=ones_h3, exact=True)
    h_one = h3.character("exp", a=0, b=0)
    add(h3, flip, FamilyDescriptor(4, Fraction(1, 2), q=Fraction(1, 2), branch=1, chi=h_one), exact=True)
    ha, hb = h3.character("exp", a=1, b=0), h3.character("exp", a=0, b=1)
    add(h3, hid, FamilyDescriptor(5, 0, q=Fraction(3, 4), branch=1, chi1=ha, chi2=hb), exact=True)
    add(h3, hid, FamilyDescriptor(6, 3, chi1=ha, chi2=hb), exact=True)
    add(h3, flip, FamilyDescriptor(8, 3, chi=h3.character("exp", a=1, b=2)), exact=True)

    nat = get_fixture("naturals-from-2")
    nid = nat.sigma("id")
    primes = [x for x in nat.carrier.elements if all(x % d for d in range(2, x)) and x > 1]
    gnat = function_vanishing_on_products(nat.carrier, {p: 1 for p in primes})
    add(nat, nid, FamilyDescriptor(2, Fraction(1, 2)), free=gnat, exact=True)
    add(nat, nid, FamilyDescriptor(3, Fraction(1, 2)), free=gnat, exact=True)
    parity, one = nat.characters["parity"], nat.characters["one"]
    preds = nat.null_predicates["parity"]
    add(nat, nid, FamilyDescriptor(4, Fraction(1, 2), q=Fraction(1, 2), branch=-1, chi=parity), exact=True)
    add(nat, nid, FamilyDescriptor(5, 0, q=Fraction(3, 4), branch=1, chi1=one, chi2=parity), exact=True)
    add(nat, nid, FamilyDescriptor(6, 2, chi1=parity, chi2=one), exact=True)
    hspec = HSpec(additive=nat.additive_rules["five-adic"], rho=Fraction(5, 2))
    add(nat, nid, FamilyDescriptor(7, Fraction(1, 2), branch=1, chi=parity, h_spec=hspec),
        predicates=preds, exact=True)
    return cases


def _criterion_1():
    cases = family_case_matrix()
    failures = []
    n_exact = n_float = 0
    for fx, sigma, d, free, predicates, exact in cases:
        pair = construct(fx.carrier, sigma, d, free_f=free, predicates=predicates)
        rep = residual(fx.carrier, sigma, d.alpha, pair.g, pair.f)
        label = f"{fx.name}/{sigma.name}/family{d.family}"
        if exact:
            n_exact += 1
            if rep.mode != "exact" or rep.max_residual != 0.0:
                failures.append(f"{label}: expected exact 0, got {rep.max_residual:.2e} ({rep.mode})")
        else:
            n_float += 1
            if rep.max_residual >= 1e-9:
                failures.append(f"{label}: residual {rep.max_residual:.2e} >= 1e-9")
    detail = f"{n_exact} exact + {n_float} float cases"
    if failures:
        return False, detail + "; failures: " + "; ".join(failures[:5])
    return True, detail


# ---------------------------------------------------------------------------
# A2: real-line closed form
# ---------------------------------------------------------------------------


def _criterion_2():
    rl = get_fixture("real-line")
    neg = rl.sigma("neg")
    worst = 0.0
    for lam in (1.0, 2 + 1j):
        chi = rl.character("exp", lam=lam)
        for alpha in (0, 2, 1j):
            pair = construct(rl.carrier, neg, FamilyDescriptor(8, alpha, chi=chi))
            for x in rl.carrier.elements:
                f_ref = alpha * cmath.cos(lam * x) + 1j * cmath.sin(lam * x)
                g_ref = cmath.cos(lam * x) + 1j * alpha * cmath.sin(lam * x)
                worst = max(worst, abs(complex(pair.f(x)) - f_ref), abs(complex(pair.g(x)) - g_ref))
    return worst < 1e-12, f"max pointwise deviation {worst:.2e} (tol 1e-12)"


# ---------------------------------------------------------------------------
# A3: Heisenberg reproduction
# ---------------------------------------------------------------------------


def _criterion_3():
    h3 = get_fixture("heisenberg")
    flip = h3.sigma("flip")
    problems = []
    worst = 0.0
    for a, b in ((1, 0), (1, 2)):
        chi = h3.character("exp", a=a, b=b)
        pair = construct(h3.carrier, flip, FamilyDescriptor(8, 3, chi=chi))
        rep = residual(h3.carrier, flip, 3, pair.g, pair.f)
        worst = max(worst, rep.max_residual)
        if not rep.ok(1e-9):
            problems.append(f"(a,b)=({a},{b}) residual {rep.max_residual:.2e}")

    # even members of the character / additive families exist only at (0, 0),
    # so families 5-7 degenerate to constants: the solution list has exactly
    # the shapes zero, g = alpha*f, constants, and the twisted pair.
    grid = (0, 1, -1, 2, 1j, 1 - 1j)
    even_params = []
    for a, b in itertools.product(grid, repeat=2):
        chi = h3.character("exp", a=a, b=b)
        if chi.is_even(flip):
            even_params.append((a, b))
    if even_params != [(0, 0)]:
        problems.append(f"even characters at {even_params}, expected only (0, 0)")
    sym_additive = []
    for a, b in itertools.product(grid, repeat=2):
        ok = all(
            abs(complex(a * (-t[0]) + b * (-t[1])) - complex(a * t[0] + b * t[1])) < 1e-12
            for t in h3.carrier.elements
        )
        if ok:
            sym_additive.append((a, b))
    if sym_additive != [(0, 0)]:
        problems.append(f"flip-symmetric additive params {sym_additive}, expected only (0, 0)")

    shapes = 0
    one = h3.character("exp", a=0, b=0)
    zero_pair = construct(h3.carrier, flip, FamilyDescriptor(4, 3, q=-3, branch=-1, chi=one))
    if residual(h3.carrier, flip, 3, zero_pair.g, zero_pair.f).ok(1e-9):
        shapes += 1  # f = g = 0
    ones = function_vanishing_on_products(h3.carrier, {x: 1 for x in h3.carrier.elements})
    fam1 = construct(h3.carrier, flip, FamilyDescriptor(1, 1, free=ones))
    if residual(h3.carrier, flip, 1, fam1.g, fam1.f).ok(1e-9):
        shapes += 1  # g = alpha f
    const = construct(h3.carrier, flip, FamilyDescriptor(4, 3, q=1, branch=1, chi=one))
    if residual(h3.carrier, flip, 3, const.g, const.f).ok(1e-9):
        shapes += 1  # constants
    if not problems:
        shapes += 1  # the twisted character pair from above
    try:
        construct(h3.carrier, flip, FamilyDescriptor(6, 3, chi1=one, chi2=one))
        problems.append("family 6 accepted a single even character twice")
    except InvalidDescriptor:
        pass
    if shapes != 4:
        problems.append(f"expected 4 solution shapes, found {shapes}")
    if problems:
        return False, "; ".join(problems)
    return True, f"max residual {worst:.2e}; 4 solution shapes; even family at (0,0) only"


# ---------------------------------------------------------------------------
# A4: naturals null sets and piecewise h
# ---------------------------------------------------------------------------


def _criterion_4():
    nat = get_fixture("naturals-from-2", window=200)
    s, sigma = nat.carrier, nat.sigma("id")
    parity = nat.characters["parity"]
    ns = null_sets(s, sigma, parity)
    evens = frozenset(x for x in s.elements if x % 2 == 0)
    expect_p = frozenset(x for x in s.elements if x % 4 == 2)
    if ns.i_chi != evens:
        return False, "I_chi != evens on the window"
    if ns.p_chi != expect_p:
        missing = sorted(expect_p - ns.p_chi)[:5]
        extra = sorted(ns.p_chi - expect_p)[:5]
        return False, f"P_chi mismatch (missing {missing}, extra {extra})"
    c = Fraction(7, 3)
    h = build_h(
        s, sigma, parity,
        additive=nat.additive_rules["five-adic"],
        rho=c,
        predicates=nat.null_predicates["parity"],
    )  # raises ConditionViolation on any (I)/(II)/sine-law counterexample
    spot = (h(15) == 1) and (h(8) == 0) and (h(6) == c) and (h(25) == 2)
    if not spot:
        return False, "piecewise h values disagree with the 5-adic/rho form"
    return True, f"I = evens, P = 2N\\4N ({len(ns.p_chi)} elements); h conditions hold"


# ---------------------------------------------------------------------------
# A5: lemma battery
# ---------------------------------------------------------------------------


def _finite_combos() -> list:
    """(fixture, sigma) for every finite fixture and each of its sigmas."""
    return [(fx, sigma) for fx in map(get_fixture, FINITE_FIXTURES) for sigma in fx.sigmas]


def _random_solutions(combos: list, rng):
    """(fixture, sigma, descriptor, pair) without end: a random (fixture,
    sigma) of `combos`, a `_random_descriptor` on it and its constructed
    pair, skipping descriptors that `construct` refuses."""
    while True:
        fx, sigma = combos[int(rng.integers(len(combos)))]
        d = _random_descriptor(fx, sigma, rng)
        try:
            pair = construct(fx.carrier, sigma, d)
        except InvalidDescriptor:
            continue
        yield fx, sigma, d, pair


def _random_descriptor(fx: Fixture, sigma, rng) -> FamilyDescriptor:
    s = fx.carrier
    table = character_table(s, sigma)
    evens, twisted = table.even, table.twisted
    outside = sorted(set(s.elements) - product_set(s, s.elements))
    choices = [1, 4, 7]
    if outside:
        choices += [2, 3]
    if len(evens) >= 2:
        choices += [5, 6]
    if twisted:
        choices += [8]
    fam = int(rng.choice(choices))
    z = lambda: complex(rng.normal(), rng.normal())  # noqa: E731

    def rand_free(support):
        vals = {x: complex(rng.normal() + 0.5, rng.normal()) for x in support}
        return function_vanishing_on_products(s, vals)

    if fam == 1:
        alpha = 1 if rng.random() < 0.5 else -1
        return FamilyDescriptor(1, alpha, free=rand_free(s.elements))
    if fam in (2, 3):
        return FamilyDescriptor(fam, z(), free=rand_free(outside))
    if fam == 4:
        chi = evens[rng.integers(len(evens))]
        return FamilyDescriptor(4, z(), q=z(), branch=int(rng.choice((1, -1))), chi=chi)
    if fam == 5:
        i, j = rng.choice(len(evens), size=2, replace=False)
        alpha, q = z(), z()
        if abs(q - alpha) < 1e-3 or abs(q + alpha) < 1e-3:
            q += 1
        return FamilyDescriptor(5, alpha, q=q, branch=int(rng.choice((1, -1))),
                                chi1=evens[i], chi2=evens[j])
    if fam == 6:
        i, j = rng.choice(len(evens), size=2, replace=False)
        return FamilyDescriptor(6, z() + 1e-2, chi1=evens[i], chi2=evens[j])
    if fam == 7:
        chi = evens[rng.integers(len(evens))]
        return FamilyDescriptor(7, z(), branch=int(rng.choice((1, -1))), chi=chi,
                                h_spec=HSpec())
    chi = twisted[rng.integers(len(twisted))]
    alpha = z()
    if abs(alpha - 1) < 1e-3 or abs(alpha + 1) < 1e-3:
        alpha += 0.5
    return FamilyDescriptor(8, alpha, chi=chi)


def _criterion_5():
    rng = np.random.default_rng(20240815)
    counterexamples = 0
    combos = _finite_combos()
    # pchi lemma across every fixture / sigma / non-zero character
    for fx, sigma in combos:
        for chi in enumerate_multiplicative(fx.carrier):
            if chi.is_zero:
                continue
            rep = check_pchi_lemma(fx.carrier, sigma, chi)
            if not rep.ok:
                counterexamples += 1
    solutions = 1000
    for fx, sigma, d, pair in itertools.islice(_random_solutions(combos, rng), solutions):
        rep = check_G_properties(fx.carrier, sigma, d.alpha, pair.g, pair.f, tol=1e-7)
        if not rep.ok:
            counterexamples += 1
        if d.family in (2, 3):
            # these pairs satisfy the dependence-lemma hypotheses for any beta
            lrep = check_dependence_lemma(fx.carrier, sigma, 2.0, pair.f, pair.g, tol=1e-7)
            if lrep.hypothesis_ok and not lrep.ok:
                counterexamples += 1
    # parity-constrained two-character combinations on the twisted fixture
    c3 = get_fixture("c3")
    inv = c3.sigma("inv")
    chi, chi_star = c3.characters["chi2"], c3.characters["chi3"]
    for _ in range(100):
        a = complex(rng.normal() + 1.5, rng.normal())
        b = complex(rng.normal() + 1.5, rng.normal())
        rep1 = check_parity_lemma(chi, chi_star, a, a, b, -b, inv)
        rep2 = check_parity_lemma(chi, chi_star, a, -a, b, b, inv)
        if not (rep1.hypothesis_ok and rep1.ok and "(1)" in rep1.hypothesis_detail):
            counterexamples += 1
        if not (rep2.hypothesis_ok and rep2.ok and "(2)" in rep2.hypothesis_detail):
            counterexamples += 1
    ok = counterexamples == 0
    return ok, f"{solutions} randomized solutions, {counterexamples} counterexamples"


# ---------------------------------------------------------------------------
# A6: character enumeration counts
# ---------------------------------------------------------------------------


def _criterion_6():
    expected = {"bool-mult": 3, "c2": 3, "c3": 4}
    details = []
    for name, count in expected.items():
        fx = get_fixture(name)
        chars = enumerate_multiplicative(fx.carrier)
        if len(chars) != count:
            return False, f"{name}: {len(chars)} characters, expected {count}"
        for c in chars:
            if not is_multiplicative(fx.carrier, c):
                return False, f"{name}/{c.name} fails exact multiplicativity"
        details.append(f"{name}:{len(chars)}")
    return True, ", ".join(details)


# ---------------------------------------------------------------------------
# A7: completeness oracle
# ---------------------------------------------------------------------------


A7_CONFIG = SolverConfig(seed=42, restarts=2000)
A7_ALPHAS = (0, 0.5, 1, 2, 1j)


def _criterion_7():
    total = 0
    runs = 0
    for name in FINITE_FIXTURES:
        fx = get_fixture(name)
        for sigma in fx.sigmas:
            for alpha in A7_ALPHAS:
                rep: CompletenessReport = completeness_check(fx.carrier, sigma, alpha, A7_CONFIG)
                runs += 1
                total += rep.total
                if not rep.ok:
                    return False, (
                        f"{name}/{sigma.name}/alpha={alpha}: "
                        f"{len(rep.unclassified)} unclassified of {rep.total}"
                    )
    return True, f"{runs} solver runs, {total} solutions, all classified"


# ---------------------------------------------------------------------------
# A8: classifier round trip
# ---------------------------------------------------------------------------


def _criterion_8():
    rng = np.random.default_rng(7)
    worst = 0.0
    for fx, sigma, d, pair in itertools.islice(_random_solutions(_finite_combos(), rng), 500):
        result = classify(fx.carrier, sigma, d.alpha, pair.g, pair.f)
        if not result.classified:
            return False, f"unclassified construct: {fx.name}/{sigma.name}/family{d.family}"
        rebuilt = construct(fx.carrier, sigma, result.descriptor)
        m = max(rebuilt.g.max_diff(pair.g), rebuilt.f.max_diff(pair.f))
        worst = max(worst, m)
        if m > 1e-7:
            return False, (
                f"round trip off by {m:.2e} on {fx.name}/family{d.family} -> "
                f"{result.family_tag}"
            )
    return True, f"500 descriptors, worst reconstruction {worst:.2e} (tol 1e-7)"


CRITERIA = (
    Criterion("A1", "family residuals exact / < 1e-9 on all fixtures", _criterion_1),
    Criterion("A2", "real-line twisted-pair closed form to 1e-12", _criterion_2),
    Criterion("A3", "Heisenberg pair verifies; even families degenerate", _criterion_3),
    Criterion("A4", "naturals null sets and piecewise h on [2, 200]", _criterion_4),
    Criterion("A5", "lemma battery over 1000+ random solutions", _criterion_5),
    Criterion("A6", "character enumeration counts (exact)", _criterion_6),
    Criterion("A7", "completeness oracle: zero unclassified", _criterion_7),
    Criterion("A8", "classifier round trip on 500 descriptors", _criterion_8),
)


def run_all() -> list[CriterionResult]:
    results = []
    for crit in CRITERIA:
        res = crit.run()
        results.append(res)
        tag = "PASS" if res.passed else "FAIL"
        print(f"[{tag}] {res.cid}  {res.description}  ({res.seconds:.2f}s)")
        print(f"       {res.detail}")
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} criteria passed")
    return results
