"""Numerical solution enumeration: soundness, determinism, recall."""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from coslaw import solver
from coslaw.acceptance import A7_ALPHAS, FINITE_FIXTURES
from coslaw.analysis import NotASolution, classify, residual
from coslaw.families import FamilyDescriptor, construct
from coslaw.fixtures import get_fixture
from coslaw.semigroups import FiniteSemigroup, identity_automorphism
from coslaw.solver import (
    DEDUP_RADIUS,
    MAX_RESTARTS,
    NEWTON_MAX_ITERS,
    NEWTON_TOL,
    SolverConfig,
    _dedup,
    completeness_check,
    find_solutions,
)

FAST = SolverConfig(restarts=200, seed=42)
DATA = Path(__file__).parent / "data"


def _vec(entry):
    return np.array(entry.g_values + entry.f_values)


def test_one_element_semigroup(one_element):
    # single scalar equation g = g^2 - f^2 (alpha = 0): by hand the real
    # points include (g, f) = (0, 0) and (1, 0); all components are curves
    s, sig = one_element
    sols = find_solutions(s, sig, 0, FAST)
    vecs = [_vec(e) for e in sols.entries]
    assert any(np.abs(v - np.array([0, 0])).max() < 1e-8 for v in vecs)
    assert any(np.abs(v - np.array([1, 0])).max() < 1e-8 for v in vecs)
    for e in sols.entries:
        g, f = e.g_values[0], e.f_values[0]
        assert abs(g - (g * g - f * f)) < 1e-11
        assert e.rank_deficient  # 1 equation, 2 unknowns: every point on a curve


def test_soundness_independent_reverification():
    fx = get_fixture("c2")
    s, sig = fx.carrier, fx.sigma()
    sols = find_solutions(s, sig, 0.5, FAST)
    assert len(sols) > 0
    for e in sols.entries:
        pair = e.as_pair(s, 0.5)
        rep = residual(s, sig, 0.5, pair.g, pair.f)
        assert rep.max_residual <= NEWTON_TOL


def test_determinism_same_seed():
    fx = get_fixture("c2")
    s, sig = fx.carrier, fx.sigma()
    a = find_solutions(s, sig, 1j, FAST)
    b = find_solutions(s, sig, 1j, FAST)
    assert len(a) == len(b)
    for ea, eb in zip(a.entries, b.entries):
        assert ea.g_values == eb.g_values and ea.f_values == eb.f_values


def test_c2_alpha0_classifies_into_4_and_5():
    fx = get_fixture("c2")
    s, sig = fx.carrier, fx.sigma()
    sols = find_solutions(s, sig, 0, FAST)
    tags = set()
    for e in sols.entries:
        pair = e.as_pair(s, 0)
        res = classify(s, sig, 0, pair.g, pair.f)
        assert res.classified
        tags.add(res.family_tag)
    assert tags == {4, 5}


def test_family1_seed_recalled_alpha_one(finite_fixture):
    s = finite_fixture.carrier
    sig = finite_fixture.sigma()
    sols = find_solutions(s, sig, 1, FAST)
    # some returned entry must be a g = f pair (the seeded family-1 start)
    assert any(
        np.abs(np.array(e.g_values) - np.array(e.f_values)).max() < 1e-9
        and max(abs(v) for v in e.f_values) > 1e-6
        for e in sols.entries
    )


def test_seeded_family_recall_c3_inv():
    fx = get_fixture("c3")
    s, sig = fx.carrier, fx.sigma("inv")
    alpha = 2
    sols = find_solutions(s, sig, alpha, FAST)
    vecs = [_vec(e) for e in sols.entries]
    d = FamilyDescriptor(8, alpha, chi=fx.characters["chi2"])
    pair = construct(s, sig, d)
    target = np.array([complex(pair.g(x)) for x in range(3)] + [complex(pair.f(x)) for x in range(3)])
    assert any(np.abs(v - target).max() < DEDUP_RADIUS for v in vecs)


def test_seeded_family_recall_c2_battery():
    # every constructible descriptor leaves a representative within the
    # dedup radius of its constructed pair
    fx = get_fixture("c2")
    s, sig = fx.carrier, fx.sigma()
    ev = [fx.characters["chi1"], fx.characters["chi2"]]
    alpha = 0.5
    descriptors = [
        FamilyDescriptor(4, alpha, q=0, branch=1, chi=ev[0]),
        FamilyDescriptor(4, alpha, q=-alpha, branch=1, chi=ev[1]),
        FamilyDescriptor(5, alpha, q=1, branch=-1, chi1=ev[0], chi2=ev[1]),
        FamilyDescriptor(6, alpha, chi1=ev[0], chi2=ev[1]),
        FamilyDescriptor(6, alpha, chi1=ev[1], chi2=ev[0]),
    ]
    sols = find_solutions(s, sig, alpha, FAST)
    vecs = [_vec(e) for e in sols.entries]
    for d in descriptors:
        pair = construct(s, sig, d)
        target = np.array(
            [complex(pair.g(x)) for x in range(2)] + [complex(pair.f(x)) for x in range(2)]
        )
        assert any(np.abs(v - target).max() < DEDUP_RADIUS for v in vecs), d


def test_dedup_separation():
    fx = get_fixture("c2")
    s, sig = fx.carrier, fx.sigma()
    sols = find_solutions(s, sig, 2, FAST)
    vecs = [_vec(e) for e in sols.entries]
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            assert np.abs(vecs[i] - vecs[j]).max() >= DEDUP_RADIUS


def test_isolated_family8_not_rank_deficient():
    fx = get_fixture("c3")
    s, sig = fx.carrier, fx.sigma("inv")
    sols = find_solutions(s, sig, 2, FAST)
    d = FamilyDescriptor(8, 2, chi=fx.characters["chi2"])
    pair = construct(s, sig, d)
    target = np.array([complex(pair.g(x)) for x in range(3)] + [complex(pair.f(x)) for x in range(3)])
    hits = [e for e in sols.entries if np.abs(_vec(e) - target).max() < 1e-7]
    assert hits and not hits[0].rank_deficient


def test_completeness_null3_small():
    fx = get_fixture("null3")
    rep = completeness_check(fx.carrier, fx.sigma("id"), 0, FAST)
    assert rep.ok and rep.total > 0
    assert 2 in rep.tags or 3 in rep.tags  # vanishing-pair representatives show up


def test_order_bound():
    big = FiniteSemigroup(cayley=tuple(tuple(0 for _ in range(5)) for _ in range(5)))
    with pytest.raises(ValueError, match="order bound"):
        find_solutions(big, identity_automorphism(big), 0, FAST)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(restarts=0)


def test_config_bounds_the_restarts():
    # 4 KiB of Jacobians per start at the order bound; no solve runs here
    assert MAX_RESTARTS * 2 * 16 * 2 * solver.SOLVER_ORDER_BOUND**3 == 2**30
    assert SolverConfig(restarts=MAX_RESTARTS).restarts == MAX_RESTARTS
    for restarts in (MAX_RESTARTS + 1, 10**20):
        with pytest.raises(ValueError, match=f"restarts must be positive and at most {MAX_RESTARTS}"):
            SolverConfig(restarts=restarts)


def test_config_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be non-negative"):
        SolverConfig(seed=-1)
    assert SolverConfig(seed=0).seed == 0


def test_procedural_carrier_rejected():
    rl = get_fixture("real-line")
    with pytest.raises(TypeError):
        find_solutions(rl.carrier, rl.sigma("neg"), 0, FAST)


# ---------------------------------------------------------------------------
# dedup: the windowed scan against the plain greedy rule
# ---------------------------------------------------------------------------


def _dedup_oracle(sols, radius):
    """Greedy O(k^2) reference: in lexsort order, keep a row unless some kept
    row is within `radius` of it (max-norm of the complex difference)."""
    if len(sols) == 0:
        return sols
    keys = []
    for col in range(sols.shape[1] - 1, -1, -1):
        keys.append(sols[:, col].imag)
        keys.append(sols[:, col].real)
    sols = sols[np.lexsort(keys)]
    kept = []
    for row in sols:
        if all(np.abs(row - k).max() >= radius for k in kept):
            kept.append(row)
    return np.array(kept)


def _assert_dedup_matches(rows, radius):
    got, want = _dedup(rows, radius), _dedup_oracle(rows, radius)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    return got


def test_dedup_matches_oracle_on_solver_rows(monkeypatch):
    # c2/id at alpha 1/2 keeps ~2000 points on positive-dimensional components
    seen = []
    real = solver._dedup
    monkeypatch.setattr(solver, "_dedup", lambda rows, r: seen.append(rows) or real(rows, r))
    fx = get_fixture("c2")
    find_solutions(fx.carrier, fx.sigma("id"), 0.5, SolverConfig(restarts=2000, seed=42))
    (rows,) = seen
    assert len(rows) > 2000
    kept = _assert_dedup_matches(rows, 1e-6)
    assert len(kept) > 1000


def test_dedup_empty_and_single_row():
    r = 1e-6
    empty = np.empty((0, 4), dtype=complex)
    assert _dedup(empty, r).shape == (0, 4)
    _assert_dedup_matches(empty, r)
    one = np.array([[1 + 2j, 0, -3j, 0.5]])
    assert np.array_equal(_assert_dedup_matches(one, r), one)


def test_dedup_exact_duplicates():
    rng = np.random.default_rng(0)
    base = rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))
    rows = np.vstack([base, base, base[::-1]])
    assert len(_assert_dedup_matches(rows, 1e-6)) == 5


@pytest.mark.parametrize("col", [0, 1, 3])
def test_dedup_boundary_distances(col):
    r = 1e-6
    a = np.zeros((1, 4), dtype=complex)
    at_radius, inside = a.copy(), a.copy()
    at_radius[0, col] = r
    inside[0, col] = r * (1 - 1e-9)
    assert len(_assert_dedup_matches(np.vstack([a, at_radius]), r)) == 2
    assert len(_assert_dedup_matches(np.vstack([a, inside]), r)) == 1
    # the same along the imaginary axis, where the Re x0 window does not help
    at_radius_im, inside_im = a.copy(), a.copy()
    at_radius_im[0, col] = 1j * r
    inside_im[0, col] = 1j * r * (1 - 1e-9)
    assert len(_assert_dedup_matches(np.vstack([a, at_radius_im]), r)) == 2
    assert len(_assert_dedup_matches(np.vstack([a, inside_im]), r)) == 1


def test_dedup_rows_sharing_re_x0():
    rng = np.random.default_rng(1)
    r = 1e-6
    rows = (rng.integers(0, 3, size=(400, 4)) + 1j * rng.integers(0, 3, size=(400, 4))) * 0.6 * r
    rows[:, 0] = 0.25 + rows[:, 0].imag * 1j
    _assert_dedup_matches(rows, r)


@pytest.mark.parametrize("base", [0.0, 0.75, 2.5, 0.3, -1.3, 1e3])
def test_dedup_re_x0_one_radius_apart(base):
    # the float difference of Re x0 values one radius apart lands on either
    # side of the radius (it is below it for 0.3, -1.3 and 1e3)
    r = 1e-6
    rows = np.zeros((2, 4), dtype=complex)
    rows[:, 0] = [base, base - r]
    expected = 1 if base - (base - r) < r else 2
    assert len(_assert_dedup_matches(rows, r)) == expected


@pytest.mark.parametrize("base", [0.0, 0.75, -1.3, 1e3])
def test_dedup_re_x0_half_radius_chain(base):
    # Re x0 in steps of half a radius, other coordinates colliding on purpose,
    # so the window edge falls on kept rows
    rng = np.random.default_rng(2)
    r = 1e-6
    re0 = np.repeat(base + 0.5 * r * np.arange(60), 4)
    rows = (rng.integers(0, 2, size=(240, 4)) * 0.7 * r).astype(complex)
    rows[:, 0] = re0 + 1j * rng.integers(0, 2, size=240) * 0.4 * r
    _assert_dedup_matches(rows, r)


@pytest.mark.parametrize("seed", range(5))
def test_dedup_random_clusters(seed):
    rng = np.random.default_rng(seed)
    r = 1e-6
    centers = rng.normal(size=(20, 4)) + 1j * rng.normal(size=(20, 4))
    rows = centers[rng.integers(0, 20, size=300)]
    rows = rows + (rng.normal(size=rows.shape) + 1j * rng.normal(size=rows.shape)) * r
    _assert_dedup_matches(rows, r)


# ---------------------------------------------------------------------------
# Gauss-Newton: the scatter Jacobian and the chunked line search against the
# dense formula and the one-t-at-a-time line search
# ---------------------------------------------------------------------------


def _dense_jac(system, vals):
    """The Jacobian as three dense products against identity rows."""
    n = system.n
    eye = np.eye(n)
    EP, EX, EY = eye[system.P], eye[system.X], eye[system.Y]
    G, F = vals[:, :n], vals[:, n:]
    dG = (
        EP[None, :, :]
        - EX[None, :, :] * G[:, system.Y][:, :, None]
        - EY[None, :, :] * G[:, system.X][:, :, None]
    )
    dF = (
        EX[None, :, :] * F[:, system.Y][:, :, None]
        + EY[None, :, :] * F[:, system.X][:, :, None]
        - system.alpha * EP[None, :, :]
    )
    return np.concatenate([dG, dF], axis=2)


def _gauss_newton_oracle(system, starts):
    """Damped Gauss-Newton with one res call per halving of the pending rows."""
    vals = starts.astype(complex)
    m = vals.shape[0]
    active = np.ones(m, dtype=bool)
    for _ in range(NEWTON_MAX_ITERS):
        if not active.any():
            break
        idx = np.where(active)[0]
        Ei = system.res(vals[idx])
        J = _dense_jac(system, vals[idx])
        JH = J.conj().transpose(0, 2, 1)
        A = JH @ J
        b = -(JH @ Ei[:, :, None])[:, :, 0]
        ridge = 1e-14 * np.eye(A.shape[1])
        try:
            step = np.linalg.solve(A + ridge, b[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            step = np.stack(
                [np.linalg.lstsq(J[i], -Ei[i], rcond=None)[0] for i in range(len(idx))]
            )
        old_ss = (np.abs(Ei) ** 2).sum(axis=1)
        base = vals[idx]
        pending = np.arange(len(idx))
        t = 1.0
        for _halve in range(40):
            cand = base[pending] + t * step[pending]
            new_ss = (np.abs(system.res(cand)) ** 2).sum(axis=1)
            better = new_ss < old_ss[pending]
            vals[idx[pending[better]]] = cand[better]
            pending = pending[~better]
            if not len(pending):
                break
            t /= 2
        active[idx[pending]] = False
    final = np.abs(system.res(vals)).max(axis=1)
    return vals[final <= NEWTON_TOL]


@pytest.mark.parametrize(
    "name, sigma, alpha, seed",
    [
        # a row pending alone at some halving: its verdict comes from a one-row
        # residual sum, which numpy adds in another order than a batch's
        ("c3", "inv", 1j, 3),
        ("c3", "inv", 1j, 5),
        ("null3", "swap", 1j, 0),
        ("leftzero2", "swap", 1j, 0),
    ],
)
def test_gauss_newton_matches_oracle_bitwise(monkeypatch, name, sigma, alpha, seed):
    calls = []
    real = solver._gauss_newton
    monkeypatch.setattr(
        solver, "_gauss_newton", lambda *a: calls.append((a, real(*a))) or calls[-1][1]
    )
    fx = get_fixture(name)
    find_solutions(fx.carrier, fx.sigma(sigma), alpha, SolverConfig(seed=seed))
    ((args, got),) = calls
    want = _gauss_newton_oracle(*args)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _signed_zero_rows(rng, m, n):
    rows = rng.normal(size=(m, 2 * n)) + 1j * rng.normal(size=(m, 2 * n))
    re, im = rows.real.copy(), rows.imag.copy()
    for part in (re, im):
        part[rng.random(part.shape) < 0.25] = 0.0
        part[rng.random(part.shape) < 0.25] = -0.0
    return re + 1j * im


@pytest.mark.parametrize("name", FINITE_FIXTURES)
def test_scatter_jacobian_equals_dense_formula(name):
    rng = np.random.default_rng(7)
    fx = get_fixture(name)
    for sigma in fx.sigmas:
        for alpha in A7_ALPHAS:
            system = solver._System(fx.carrier, sigma, complex(alpha))
            rows = _signed_zero_rows(rng, 64, system.n)
            rows[0] = 0.0
            assert np.array_equal(system.jac(rows), _dense_jac(system, rows))
            assert system.jac(rows[:1]).shape == (1, system.n**2, 2 * system.n)


# ---------------------------------------------------------------------------
# A7 grid: the solver's answers are pinned
# ---------------------------------------------------------------------------


def test_a7_grid_matches_recorded_answers(a7_run):
    """Totals, family tags, rank-deficient and unclassified counts of every
    A7 completeness run, as recorded in tests/data/a7-grid.json."""
    golden = {
        (run["fixture"], run["sigma"], complex(*run["alpha"])): run
        for run in json.loads((DATA / "a7-grid.json").read_text())
    }
    result, runs = a7_run
    assert set(runs) == set(golden), f"A7 stopped early: {result.detail}"
    seen = set()
    for name in FINITE_FIXTURES:
        fx = get_fixture(name)
        for sigma in fx.sigmas:
            for alpha in A7_ALPHAS:
                key = (name, sigma.name, complex(alpha))
                rep, sols = runs[key]
                got = {
                    "total": rep.total,
                    "tags": sorted(([t, c] for t, c in rep.tags.items()), key=lambda tc: str(tc[0])),
                    "rank_deficient": sum(e.rank_deficient for e in sols.entries),
                    "unclassified": len(rep.unclassified),
                }
                want = {k: golden[key][k] for k in got}
                assert got == want, key
                seen.add(key)
    assert seen == set(golden)


# ---------------------------------------------------------------------------
# classify on the solver's output
# ---------------------------------------------------------------------------


def test_reverification_drops_a_nan_residual(monkeypatch):
    """A row whose re-verification reads NaN is dropped like one above
    NEWTON_TOL: `classify` takes the solver's verdict without scanning."""
    fx = get_fixture("c2")
    s, sig = fx.carrier, fx.sigma()
    want = find_solutions(s, sig, 0.5, FAST)
    assert len(want) > 1
    real = solver.residual
    seen = []

    def nan_first(*args):
        rep = real(*args)
        seen.append(rep)
        if len(seen) == 1:
            return dataclasses.replace(rep, max_residual=float("nan"))
        return rep

    monkeypatch.setattr(solver, "residual", nan_first)
    got = find_solutions(s, sig, 0.5, FAST)
    assert got.entries == want.entries[1:]


def test_classify_rejects_a_handed_residual_that_is_not_small():
    fx = get_fixture("c2")
    s, sig = fx.carrier, fx.sigma()
    z = fx.characters["chi0"].fn
    assert classify(s, sig, 0.5, z, z, _verified_residual=0.0).family_tag == 4
    for bad in (float("nan"), 1e-3):
        with pytest.raises(NotASolution):
            classify(s, sig, 0.5, z, z, _verified_residual=bad)


def _digest_row(result):
    params = result.descriptor.as_params() if result.descriptor else None
    return [result.family_tag, result.match_residual.hex(), result.max_residual.hex(), params]


def test_classify_digest_matches_recorded(monkeypatch):
    """Every classification completeness_check makes at seed 0 on c2/id and
    c3/inv, alpha 1/2, hands `classify` the solver's residual and digests
    to the value in tests/data/classify-digest.json; classify's public
    path, which scans the residual itself, gives the same results."""
    golden = json.loads((DATA / "classify-digest.json").read_text())["runs"]
    real = solver.classify
    for key, want in golden.items():
        name, sigma, alpha = key.split("/")
        fx = get_fixture(name)
        s, sig = fx.carrier, fx.sigma(sigma)
        calls = []

        def recording(*args, **kwargs):
            out = real(*args, **kwargs)
            calls.append((args, kwargs, out))
            return out

        monkeypatch.setattr(solver, "classify", recording)
        rep = completeness_check(s, sig, float(alpha), SolverConfig(seed=0))
        monkeypatch.setattr(solver, "classify", real)
        assert rep.total == len(calls) == want["solutions"]
        assert all(set(kwargs) == {"_verified_residual"} for _, kwargs, _ in calls)
        rows = [_digest_row(out) for _, _, out in calls]
        digest = hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()
        assert digest == want["sha256"], key
        assert [_digest_row(classify(*args)) for args, _, _ in calls] == rows, key


# ---------------------------------------------------------------------------
# the per-solution tail: re-verification, then one stacked rank test
# ---------------------------------------------------------------------------

# find_solutions at seed 0, 500 restarts, as recorded before the rank test
# was stacked: sha256 of to_json_lines() and the rank_deficient flags in
# entry order ("1" for a rank-deficient entry)
PINNED_SOLUTIONS = {
    ("c2", "id", 0.5): (
        "790dcb3a692a2ea95ab491552b6749ece8f1a21744d6a96b1b4afa66453c4990", "1" * 527),
    ("c3", "inv", 0.5): (
        "8b36c742da0ee651114c4aee1ec0c1417f18074e765a7bee9e9b7d8699ee10ad", "11111111111100111"),
    ("null3", "id", 0.5): (
        "70be39af236522424217ee62c2ae1d4168daed589ad4c0f409c3c1a4878bef32", "1" * 131),
    ("leftzero2", "swap", 1j): (
        "375bbb91019dd5441371be8a6b02902f38c69e753973b8694354c72dc4630640", "1" * 19),
}


@pytest.mark.parametrize("case", PINNED_SOLUTIONS)
def test_solution_sets_match_pinned_output(case):
    name, sigma, alpha = case
    sha, flags = PINNED_SOLUTIONS[case]
    fx = get_fixture(name)
    sols = find_solutions(fx.carrier, fx.sigma(sigma), alpha, SolverConfig(restarts=500, seed=0))
    assert hashlib.sha256(sols.to_json_lines().encode()).hexdigest() == sha
    assert "".join("1" if e.rank_deficient else "0" for e in sols.entries) == flags


def _recording_svd(monkeypatch):
    calls = []
    real = np.linalg.svd

    def recording(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return calls


def test_rank_test_is_one_svd_over_the_verified_rows(monkeypatch):
    fx = get_fixture("c3")
    s, sig = fx.carrier, fx.sigma("inv")
    calls = _recording_svd(monkeypatch)
    sols = find_solutions(s, sig, 0.5, FAST)
    assert calls == [(len(sols), 9, 6)]
    system = solver._System(s, sig, complex(0.5))
    for e in sols.entries:
        J = system.jac(_vec(e)[None, :])[0]
        sv = np.linalg.svd(J, compute_uv=False)
        assert e.rank_deficient == bool(sv[-1] <= solver.RANK_TOL * max(1.0, sv[0]))


def test_a_nan_row_that_fails_reverification_is_never_svd_d(monkeypatch):
    """A kept row of NaNs reads a NaN residual and is dropped before the
    stacked SVD, which would raise LinAlgError on it; the other entries and
    their flags are those of the run without it."""
    fx = get_fixture("c3")
    s, sig = fx.carrier, fx.sigma("inv")
    want = find_solutions(s, sig, 0.5, FAST)
    assert len(want) > 2
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.svd(np.full((1, 9, 6), np.nan, dtype=complex), compute_uv=False)
    real_dedup, real_residual = solver._dedup, solver.residual
    seen = []

    def with_nan_row(rows, radius):
        kept = real_dedup(rows, radius)
        return np.insert(kept, 1, np.nan, axis=0)

    def recording(*args):
        rep = real_residual(*args)
        seen.append(rep.max_residual)
        return rep

    monkeypatch.setattr(solver, "_dedup", with_nan_row)
    monkeypatch.setattr(solver, "residual", recording)
    got = find_solutions(s, sig, 0.5, FAST)
    assert len(seen) == len(want) + 1 and np.isnan(seen[1])
    assert got.entries == want.entries
    assert [e.rank_deficient for e in got.entries] == [e.rank_deficient for e in want.entries]


def test_every_row_failing_reverification_gives_an_empty_set_and_no_svd(monkeypatch):
    fx = get_fixture("c2")
    s, sig = fx.carrier, fx.sigma()
    real = solver.residual
    monkeypatch.setattr(
        solver, "residual", lambda *a: dataclasses.replace(real(*a), max_residual=1.0)
    )
    calls = _recording_svd(monkeypatch)
    got = find_solutions(s, sig, 0.5, FAST)
    assert got.entries == () and len(got) == 0 and got.to_json_lines() == ""
    assert calls == []
