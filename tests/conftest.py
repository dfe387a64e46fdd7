import pytest

from coslaw import acceptance, solver
from coslaw.fixtures import get_fixture
from coslaw.semigroups import FiniteSemigroup, identity_automorphism

FINITE_NAMES = ["c2", "c3", "leftzero2", "null3", "bool-mult"]
ALL_NAMES = FINITE_NAMES + ["real-line", "heisenberg", "naturals-from-2"]


@pytest.fixture(params=FINITE_NAMES)
def finite_fixture(request):
    return get_fixture(request.param)


@pytest.fixture(params=ALL_NAMES)
def any_fixture(request):
    if request.param == "naturals-from-2":
        return get_fixture(request.param, window=50)
    if request.param == "heisenberg":
        return get_fixture(request.param, window=2)
    return get_fixture(request.param)


@pytest.fixture
def one_element():
    s = FiniteSemigroup(cayley=((0,),))
    return s, identity_automorphism(s)


@pytest.fixture(scope="session")
def a7_run():
    """Criterion A7 run once for the session, through `Criterion.run`, so its
    budget still times the real computation.

    -> (CriterionResult, {(fixture, sigma, complex(alpha)): (CompletenessReport,
    SolutionSet)}) with one entry per completeness run it made.
    """
    runs = {}
    current = []  # the fixture name A7 resolved last
    found = []
    real_get, real_check, real_find = (
        acceptance.get_fixture, acceptance.completeness_check, solver.find_solutions)

    def get_fixture(name, *args):
        current[:] = [name]
        return real_get(name, *args)

    def find_solutions(*args):
        found.append(real_find(*args))
        return found[-1]

    def completeness_check(s, sigma, alpha, cfg):
        rep = real_check(s, sigma, alpha, cfg)
        runs[current[0], sigma.name, complex(alpha)] = rep, found.pop()
        return rep

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(acceptance, "get_fixture", get_fixture)
        mp.setattr(solver, "find_solutions", find_solutions)
        mp.setattr(acceptance, "completeness_check", completeness_check)
        criterion = next(c for c in acceptance.CRITERIA if c.cid == "A7")
        result = criterion.run()
    return result, runs
