"""Numerical enumeration of solutions on small finite carriers.

The n^2 equations g(x sigma(y)) - g(x)g(y) + f(x)f(y) - alpha f(x sigma(y)) = 0
form a quadratic (holomorphic) system in the 2n complex unknowns
(g, f).  Damped Gauss-Newton runs from a batch of random starts (each
component uniform in the complex disk of radius 3) plus deterministic
starts seeded by every family construction available on the carrier; the
least-squares Newton direction on the complexified system coincides with
the one on the realified system because no conjugates appear.

The Jacobian is scattered into a zeroed array at index positions fixed
when the system is built, in the order of the dense formula, so its values
equal the formula's (only the sign of some zero cells differs, and the
normal equations' ridge turns -0.0 into +0.0).

Each Gauss-Newton iteration backtracks along the step, t = 1, 1/2, ...,
2^-39: every active row tries t = 1, and the rows whose residual norm has
not dropped yet try the next halvings in stacked chunks (`HALVING_CHUNKS`),
one residual call per chunk.  A chunk is cut short where it would stack
more than n candidates per active row, so its residual block is no larger
than half the Jacobian.  A row takes its first improving t; a row with no
improving t leaves the active set.

The rows returned are bit for bit those of trying one t per call (the
reference in the solver tests), by one rule.  numpy sums |E|^2 of a
one-row residual block pairwise, but of a multi-row block (column-major)
in sequence, so the last bit of a row's norm, and with it the row's
verdict, depends on whether the row is evaluated alone.  Trying one t per
call evaluates the last pending row alone; so a chunk's verdicts count
only up to the halving that leaves one row pending, and that row goes on
one t at a time.  Without the rule the rows returned for c3/inv at
alpha = i differ at seeds 3 and 5.

Solutions lying on positive-dimensional components (families 1-3 and the
q-parametrized curves) are returned through whichever converged
representatives survive deduplication, flagged rank-deficient via the
Jacobian's smallest singular value.  The rank test is one stacked Jacobian
and one SVD over the rows that pass re-verification; its singular values
are bit for bit the per-row ones, since `jac` is elementwise per row and
numpy's `svd` runs the same LAPACK routine, with the same workspace, on
each matrix of a stack.

Deduplication is greedy in lexsort order (Re x0 first): the first row
within `DEDUP_RADIUS` (max-norm of the complex difference) represents the
others.  Only kept rows whose Re x0 lies within the radius of the current
row are compared, since |z| >= |Re z| rules out the rest.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .analysis import classify, residual
from .families import (
    FamilyDescriptor,
    InvalidDescriptor,
    SolutionPair,
    construct,
    function_vanishing_on_products,
)
from .functions import ScalarFunction, character_table, complex_pair
from .semigroups import FiniteSemigroup, InvolutiveAutomorphism, pair_blocks, product_set

RANK_TOL = 1e-6
START_RADIUS = 3.0
SOLVER_ORDER_BOUND = 4
NEWTON_TOL = 1e-12
NEWTON_MAX_ITERS = 100
DEDUP_RADIUS = 1e-6
# the line search tries t = 1, 1/2, ..., 2^-39; while two or more rows are
# pending, one res call covers the rest of the current chunk of these
HALVING_CHUNKS = (1, 1, 2, 4, 8, 24)
CHUNK_ENDS = tuple(itertools.accumulate(HALVING_CHUNKS))


@dataclass(frozen=True)
class SolverConfig:
    restarts: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.restarts <= 0:
            raise ValueError("SolverConfig.restarts must be positive")
        if self.seed < 0:
            raise ValueError("SolverConfig.seed must be non-negative")


@dataclass(frozen=True)
class SolvedEntry:
    g_values: tuple
    f_values: tuple
    residual: float
    rank_deficient: bool

    def as_pair(self, s: FiniteSemigroup, alpha):
        return SolutionPair(
            g=ScalarFunction(s, values=list(self.g_values)),
            f=ScalarFunction(s, values=list(self.f_values)),
            alpha=alpha,
        )


@dataclass(frozen=True)
class SolutionSet:
    entries: tuple[SolvedEntry, ...]
    alpha: complex
    order: int

    def __len__(self):
        return len(self.entries)

    def to_json_lines(self) -> str:
        lines = []
        for e in self.entries:
            lines.append(
                json.dumps(
                    {
                        "g": [complex_pair(v) for v in e.g_values],
                        "f": [complex_pair(v) for v in e.f_values],
                        "residual": e.residual,
                        "rank_deficient": e.rank_deficient,
                    }
                )
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# batched Gauss-Newton
# ---------------------------------------------------------------------------


class _System:
    def __init__(self, s: FiniteSemigroup, sigma: InvolutiveAutomorphism, alpha: complex):
        n = s.order
        self.n = n
        self.alpha = alpha
        sig = tuple(map(sigma, s.elements))
        self.P = np.array([t.products[k] for t in pair_blocks(s, s.elements, sig) for k in t.index.flat])
        self.X, self.Y = np.divmod(np.arange(n * n), n)
        # flat positions of the d/dg(P), d/dg(X) and d/dg(Y) cells of each
        # equation in an (n^2 * 2n) Jacobian row; the d/df cells sit n further on
        row = 2 * n * np.arange(n * n)
        self.at_P, self.at_X, self.at_Y = row + self.P, row + self.X, row + self.Y

    def res(self, vals: np.ndarray) -> np.ndarray:
        """(m, n^2) defects for a batch of value rows (g | f)."""
        n = self.n
        G, F = vals[:, :n], vals[:, n:]
        return (
            G[:, self.P]
            - G[:, self.X] * G[:, self.Y]
            + F[:, self.X] * F[:, self.Y]
            - self.alpha * F[:, self.P]
        )

    def jac(self, vals: np.ndarray) -> np.ndarray:
        """(m, n^2, 2n) holomorphic Jacobian."""
        n = self.n
        G, F = vals[:, :n], vals[:, n:]
        J = np.zeros((len(vals), 2 * n**3), dtype=complex)
        # the terms go in in the order of the dense formula
        # e_P - g(y) e_x - g(x) e_y | f(y) e_x + f(x) e_y - alpha e_P, so a cell
        # hit twice (x = y, or x sigma(y) equal to x or y) adds them in that order
        J[:, self.at_P] += 1
        J[:, self.at_X] -= G[:, self.Y]
        J[:, self.at_Y] -= G[:, self.X]
        J[:, self.at_X + n] += F[:, self.Y]
        J[:, self.at_Y + n] += F[:, self.X]
        J[:, self.at_P + n] -= self.alpha
        return J.reshape(len(vals), n * n, 2 * n)


def _gauss_newton(system: _System, starts: np.ndarray) -> np.ndarray:
    """Value rows whose final max-norm residual is <= NEWTON_TOL.

    Rows keep polishing past the tolerance until damping can no longer
    reduce the residual norm: near quadratic tangencies (e.g. around the
    zero solution) a residual of NEWTON_TOL still allows a distance of
    sqrt(NEWTON_TOL) from the solution variety, and the extra iterations
    pull such points onto it.
    """
    # diverging rows overflow to inf/nan; the final residual filter drops them
    with np.errstate(over="ignore", invalid="ignore"):
        vals = starts.astype(complex)
        m, w = vals.shape
        active = np.ones(m, dtype=bool)
        ridge = 1e-14 * np.eye(w)
        for _ in range(NEWTON_MAX_ITERS):
            if not active.any():
                break
            idx = np.where(active)[0]
            base = vals[idx]
            Ei = system.res(base)
            J = system.jac(base)
            JH = J.conj().transpose(0, 2, 1)
            A = JH @ J
            b = -(JH @ Ei[:, :, None])[:, :, 0]
            try:
                step = np.linalg.solve(A + ridge, b[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                step = np.stack(
                    [np.linalg.lstsq(J[i], -Ei[i], rcond=None)[0] for i in range(len(idx))]
                )
            old_ss = (np.abs(Ei) ** 2).sum(axis=1)
            # the rows that have not improved yet try the next chunk of step
            # lengths t = 2^-k in one res call; a row takes its first improving t
            pending = np.arange(len(idx))
            k = 0
            while len(pending) and k < CHUNK_ENDS[-1]:
                h = 1
                if len(pending) > 1:
                    # at most n candidates per active row: a stacked residual block
                    # is no larger than half the Jacobian built above
                    end = next(e for e in CHUNK_ENDS if e > k)
                    h = min(end - k, system.n * len(idx) // len(pending))
                t = np.ldexp(1.0, -np.arange(k, k + h))
                cand = base[pending] + t[:, None, None] * step[pending]
                new_ss = (np.abs(system.res(cand.reshape(-1, w))) ** 2).sum(axis=1)
                better = new_ss.reshape(h, -1) < old_ss[pending]
                first = np.where(better.any(axis=0), better.argmax(axis=0), h)
                # a verdict counts only while two or more rows are pending (see the
                # module docstring): the chunk ends at the first halving that
                # leaves at most one row, and a lone row goes on one t at a time
                left = (first >= np.arange(1, h + 1)[:, None]).sum(axis=1)
                stop = int(np.argmax(left <= 1)) + 1 if left[-1] <= 1 else h
                won = first < stop
                rows = np.flatnonzero(won)
                vals[idx[pending[rows]]] = cand[first[rows], rows]
                pending = pending[~won]
                k += stop
            # no improving step exists: either at a solution (kept by the final
            # residual filter) or at a local minimum of the norm (discarded there)
            active[idx[pending]] = False
        final = np.abs(system.res(vals)).max(axis=1)
        return vals[final <= NEWTON_TOL]


# ---------------------------------------------------------------------------
# deterministic family-seeded starts
# ---------------------------------------------------------------------------


def _pair_vector(pair, n: int) -> np.ndarray:
    g = [complex(pair.g(x)) for x in range(n)]
    f = [complex(pair.f(x)) for x in range(n)]
    return np.array(g + f)


def _family_seeds(
    s: FiniteSemigroup,
    sigma: InvolutiveAutomorphism,
    alpha: complex,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    n = s.order
    seeds = [np.zeros(2 * n, dtype=complex)]
    table = character_table(s, sigma)
    evens = table.even

    def try_build(d: FamilyDescriptor, free=None):
        try:
            seeds.append(_pair_vector(construct(s, sigma, d, free_f=free), n))
        except InvalidDescriptor:
            pass

    f_rand = ScalarFunction(s, values=(1 + 0.5 * _disk(rng, n)).tolist())
    try_build(FamilyDescriptor(1, alpha), free=f_rand)

    outside = sorted(set(range(n)) - product_set(s, range(n)))
    if outside:
        supports = [{x: 1.0} for x in outside] + [{x: 1.0 for x in outside}]
        for sup in supports:
            gfun = function_vanishing_on_products(s, sup)
            try_build(FamilyDescriptor(2, alpha), free=gfun)
            try_build(FamilyDescriptor(3, alpha), free=gfun)

    q_grid = [0, 1, -alpha, alpha, 2 + 0.5j]
    for chi in evens:
        for q in q_grid:
            for branch in (1, -1):
                try_build(FamilyDescriptor(4, alpha, q=q, branch=branch, chi=chi))
    for chi1, chi2 in itertools.combinations(evens, 2):
        for q in q_grid:
            for branch in (1, -1):
                try_build(
                    FamilyDescriptor(5, alpha, q=q, branch=branch, chi1=chi1, chi2=chi2)
                )
    for chi1, chi2 in itertools.permutations(evens, 2):
        try_build(FamilyDescriptor(6, alpha, chi1=chi1, chi2=chi2))
    for chi in table.twisted:
        try_build(FamilyDescriptor(8, alpha, chi=chi))
    return seeds


def _disk(rng: np.random.Generator, size) -> np.ndarray:
    r = START_RADIUS * np.sqrt(rng.random(size))
    theta = 2 * np.pi * rng.random(size)
    return r * np.exp(1j * theta)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def find_solutions(
    s: FiniteSemigroup,
    sigma: InvolutiveAutomorphism,
    alpha,
    cfg: SolverConfig | None = None,
) -> SolutionSet:
    """All converged, deduplicated solutions from seeded + random starts.

    Every returned entry re-verifies through the analysis module at the
    Newton tolerance.  The rows that do are rank-tested together: one
    `jac` call on their stack and one SVD of the (k, n^2, 2n) result,
    whose singular values equal those of one row at a time (see the module
    docstring); a row that fails re-verification, NaN included, is never
    SVD'd.  Random starts come from numpy's default generator
    (PCG64) seeded with cfg.seed, so a fixed config gives an identical
    SolutionSet.
    """
    cfg = cfg or SolverConfig()
    if not s.is_finite:
        raise TypeError("the solver needs a finite carrier")
    if s.order > SOLVER_ORDER_BOUND:
        raise ValueError(f"order {s.order} exceeds the solver's order bound {SOLVER_ORDER_BOUND}")
    alpha_c = complex(alpha)
    n = s.order
    rng = np.random.default_rng(cfg.seed)
    seeds = _family_seeds(s, sigma, alpha_c, rng)
    randoms = _disk(rng, (cfg.restarts, 2 * n))
    starts = np.vstack([np.array(seeds), randoms])
    system = _System(s, sigma, alpha_c)
    sols = _gauss_newton(system, starts)
    kept = _dedup(sols, DEDUP_RADIUS)
    verified, residuals = [], []
    for i, row in enumerate(kept):
        gfn = ScalarFunction(s, values=list(row[:n]))
        ffn = ScalarFunction(s, values=list(row[n:]))
        rep = residual(s, sigma, alpha_c, gfn, ffn)
        if rep.max_residual <= NEWTON_TOL:  # a NaN fails too
            verified.append(i)
            residuals.append(rep.max_residual)
    if not verified:
        return SolutionSet(entries=(), alpha=alpha_c, order=n)
    rows = kept[verified]
    sv = np.linalg.svd(system.jac(rows), compute_uv=False)
    # fewer equations than unknowns leaves implicit zero singular values
    small = sv[:, -1] <= RANK_TOL * np.maximum(1.0, sv[:, 0])
    deficient = (small | (sv.shape[1] < 2 * n)).tolist()
    entries = tuple(
        SolvedEntry(
            g_values=tuple(row[:n]),
            f_values=tuple(row[n:]),
            residual=res,
            rank_deficient=flag,
        )
        for row, res, flag in zip(rows, residuals, deficient)
    )
    return SolutionSet(entries=entries, alpha=alpha_c, order=n)


def _dedup(sols: np.ndarray, radius: float) -> np.ndarray:
    """Greedy deduplication in lexsort order (Re x0 is the primary key).

    A row is kept unless some already-kept row lies within `radius` of it
    in the max-norm of the complex difference.  Since |z| >= |Re z|, a kept
    row whose Re x0 trails the current row's by `radius` or more can match
    neither it nor any later row, so the scan starts past such rows.
    """
    if len(sols) == 0:
        return sols
    keys = []
    for col in range(sols.shape[1] - 1, -1, -1):
        keys.append(sols[:, col].imag)
        keys.append(sols[:, col].real)
    sols = sols[np.lexsort(keys)]
    re0 = sols[:, 0].real.tolist()
    kept = np.empty_like(sols)
    kept_re0: list[float] = []
    lo = 0
    for i, row in enumerate(sols):
        m = len(kept_re0)
        while lo < m and re0[i] - kept_re0[lo] >= radius:
            lo += 1
        if (np.abs(row - kept[lo:m]).max(axis=1) >= radius).all():
            kept[m] = row
            kept_re0.append(re0[i])
    return kept[: len(kept_re0)]


@dataclass(frozen=True)
class CompletenessReport:
    total: int
    tags: dict = field(compare=False)
    unclassified: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.unclassified


def completeness_check(
    s: FiniteSemigroup,
    sigma: InvolutiveAutomorphism,
    alpha,
    cfg: SolverConfig | None = None,
) -> CompletenessReport:
    """Every numerically found solution must classify into some family.

    Each entry's residual was computed by `find_solutions` with `residual`
    on the same values and the same complex(alpha), and is at most
    NEWTON_TOL, so `classify` takes it rather than scanning again.
    """
    sols = find_solutions(s, sigma, alpha, cfg)
    tags: dict = {}
    unclassified = []
    for e in sols.entries:
        pair = e.as_pair(s, complex(alpha))
        result = classify(s, sigma, complex(alpha), pair.g, pair.f,
                          _verified_residual=e.residual)
        tags[result.family_tag] = tags.get(result.family_tag, 0) + 1
        if not result.classified:
            unclassified.append(e)
    return CompletenessReport(total=len(sols), tags=tags, unclassified=tuple(unclassified))
