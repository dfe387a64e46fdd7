"""Verification and classification for the target equation

    g(x sigma(y)) = g(x) g(y) - f(x) f(y) + alpha f(x sigma(y)).

`residual` measures the worst-case defect over all window pairs.
`check_G_properties` verifies the structural identities every solution
satisfies (with G = g - alpha*f): G(x sigma(y)) = G(y sigma(x)),
G = G o sigma on products of three, and the parity cross-identities
g_e(x) g_o(yz) = f_e(x) f_o(yz) and g_e(yz) g_o(x) = f_e(yz) f_o(x).
`classify` maps a verified solution back to a family descriptor: it
reconstructs the pair from each candidate of `_candidates`, the one place
that holds the decision order, until one matches.  The character facts the
candidates need come from the carrier's `CharacterTable`, built once per
(carrier, sigma).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .exactnum import (
    LAURENT_TYPES,
    VERIFY_TOL,
    is_exact,
    scalar_is_zero,
    values_equal,
)
from .families import (
    ConditionViolation,
    FamilyDescriptor,
    InvalidDescriptor,
    _s2_failure,
    construct,
)
from .functions import (
    MultiplicativeFunction,
    ScalarFunction,
    character_table,
    even_part,
    is_even,
    is_odd,
    law_failure,
    linear_combination,
    odd_part,
    packed_law_holds,
)
from .semigroups import InvolutiveAutomorphism, Semigroup, left_rows, pair_blocks, triple_sample

MATCH_TOL = 1e-7  # looser than the verifier to absorb linear-solve conditioning


class NotASolution(ValueError):
    """The supplied pair does not satisfy the equation within tolerance."""


# ---------------------------------------------------------------------------
# residual verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    max_residual: float
    worst_pair: tuple
    pair_count: int
    mode: str  # "exact" | "float"

    def ok(self, tol: float = VERIFY_TOL) -> bool:
        return self.max_residual < tol or (self.mode == "exact" and self.max_residual == 0.0)


def residual(s: Semigroup, sigma: InvolutiveAutomorphism, alpha, g, f) -> VerificationReport:
    """Worst defect of the equation over all (window) pairs.

    The sigma-images pass the carrier's domain test once per scan, the
    window having passed it when the carrier was built; each pair takes the
    bare product.  The term alpha*f(x sigma(y)) comes from the node
    `f.scale(alpha)`, whose memo computes alpha * f(p) once per distinct
    product p (same operations, same order).  The report comes from the
    first of three paths that applies; each gives the one the loop (the
    third) would give, bit for bit.

    1. Packed exact test (`_packed_defects_vanish`): when alpha and every
       window value of g and f are ints, Fractions or `ExpPoly`s, g -
       alpha*f is taken as its exact linear form over the bases of g and
       alpha*f, and `functions.packed_law_holds`, the packed test of every
       pairwise law, tests g(x)g(y) - f(x)f(y) against it at once over each
       of the `semigroups.pair_blocks` of the window and its sigma-images.
       If every packed defect is 0 the report is an exact 0.
    2. Float scan (`_float_scan`): when the scan has at least
       _FLOAT_SCAN_MIN_CELLS cells, every value of g and f in the window,
       and of g and alpha*f at the table's products, is a float or complex,
       and every defect is finite, the defects are formed in numpy, with
       Python's complex arithmetic written out as float64 ufuncs.
    3. The loop below, pair by pair in x-major order, for everything else:
       a non-zero exact defect, `Cyc` or mixed values, a small scan, or a
       float scan that meets a non-finite value or magnitude, or an
       exception (the loop raises the first one in its pair order).  Its
       NaN rule: a NaN defect compares false both ways, and the first one
       sticks.
    """
    elems = s.elements
    gv = {x: g(x) for x in elems}
    fv = {x: f(x) for x in elems}
    sig = s.checked(sigma(y) for y in elems)
    af = f.scale(alpha)
    if _packed_defects_vanish(s, elems, sig, alpha, gv, fv, g, af):
        n = len(elems)
        return VerificationReport(
            max_residual=0.0,
            worst_pair=(elems[0], elems[0]) if n else None,
            pair_count=n * n,
            mode="exact",
        )
    report = _float_scan(s, elems, sig, gv, fv, g, af)
    if report is not None:
        return report
    product = s.product
    worst, worst_pair = -1.0, None
    count = 0
    exact = True
    for x in elems:
        gx, fx = gv[x], fv[x]
        for j, y in enumerate(elems):
            xsy = product(x, sig[j])
            defect = g(xsy) - gx * gv[y] + fx * fv[y] - af(xsy)
            count += 1
            if is_exact(defect):
                mag = 0.0 if scalar_is_zero(defect) else abs(defect)
            else:
                exact = False
                mag = abs(complex(defect))
            # a NaN defect compares false both ways; the first one sticks
            if not mag <= worst and worst == worst:
                worst, worst_pair = mag, (x, y)
    return VerificationReport(
        max_residual=max(worst, 0.0),
        worst_pair=worst_pair,
        pair_count=count,
        mode="exact" if exact else "float",
    )


# below this many cells the Python loop beats the float scan's numpy calls
_FLOAT_SCAN_MIN_CELLS = 64


def _float_scan(s, elems, sig, gv, fv, g, af) -> VerificationReport | None:
    """`residual`'s float report from numpy; None when the loop must run.

    g and then alpha*f are evaluated once per distinct product of each of
    the scan's `pair_blocks`, in first-seen order, which is the loop's
    order.  Each defect ((g(p) - g(x)g(y)) + f(x)f(y)) - alpha*f(p) is
    formed in real and imaginary float64 parts, each complex product
    (a_r*b_r - a_i*b_i, a_r*b_i + a_i*b_r) and each sum as Python (or
    numpy's scalar complex type) computes it, a float v taken as the
    complex (v, +0.0), which Python up to 3.13 promotes it to.  Where
    Python keeps a float (or, from 3.14, mixes a float with a complex
    without promoting, as numpy's float64 scalar does), a zero part here
    may carry the other sign, which no later sum turns into a non-zero and
    `np.hypot`, which equals `abs(complex)`, ignores.  The scan gives up on
    any non-finite magnitude, so the loop keeps its NaN rule and the
    OverflowError of an `abs` that overflows.  A NaN or inf value makes some magnitude
    non-finite (every value enters a sum or a product of some cell, and no
    product or sum of a non-finite part is finite), so a finite scan met no
    such value and no step of it overflowed.
    """
    n = len(elems)
    if n * n < _FLOAT_SCAN_MIN_CELLS:
        return None
    window = [gv[x] for x in elems] + [fv[x] for x in elems]
    if not all(isinstance(v, (float, complex)) for v in window):
        return None
    w = np.array(window, complex)
    gr, gi, fr, fi = w.real[:n], w.imag[:n], w.real[n:], w.imag[n:]
    worst, cell = -1.0, 0
    blocks = pair_blocks(s, elems, sig)
    while True:
        try:
            table = next(blocks)
            pv = [v for p in table.products for v in (g(p), af(p))]
        except StopIteration:
            break
        except Exception:
            return None  # the loop raises it, or an error of an earlier pair
        if not all(isinstance(v, (float, complex)) for v in pv):
            return None
        pv, k = np.array(pv, complex), table.index
        pgr, pgi, par, pai = pv.real[0::2], pv.imag[0::2], pv.real[1::2], pv.imag[1::2]
        x = slice(table.start, table.start + len(k))
        xgr, xgi, xfr, xfi = gr[x, None], gi[x, None], fr[x, None], fi[x, None]
        with np.errstate(all="ignore"):  # an overflow reads inf and hands over to the loop
            re = ((pgr[k] - (xgr * gr - xgi * gi)) + (xfr * fr - xfi * fi)) - par[k]
            im = ((pgi[k] - (xgr * gi + xgi * gr)) + (xfr * fi + xfi * fr)) - pai[k]
            mag = np.hypot(re, im)
        if not np.isfinite(mag).all():
            return None
        top = int(mag.argmax())  # the first maximum, x-major
        if mag.flat[top] > worst:
            worst, cell = float(mag.flat[top]), table.start * n + top
    return VerificationReport(
        max_residual=worst,
        worst_pair=(elems[cell // n], elems[cell % n]),
        pair_count=n * n,
        mode="float",
    )


def _packed_defects_vanish(s, elems, sig, alpha, gv, fv, g, af) -> bool:
    """True when every window defect of `residual` is exactly zero by the
    packed-integer test; False when one is not, or the values do not pack.

    Alpha and the window values are type-checked before any product is
    taken.  g - alpha*f is the sum of the linear forms of g and of the node
    af = alpha*f, negated, each distinct base once with its coefficients
    added (a function with no exact linear form is its own base); each base
    is evaluated over each block's distinct products in first-seen pair
    order, and no g(p) or alpha*f(p) is formed.
    """
    if not isinstance(alpha, LAURENT_TYPES):
        return False
    gw, fw = [gv[x] for x in elems], [fv[x] for x in elems]
    if not all(isinstance(v, LAURENT_TYPES) for v in itertools.chain(gw, fw)):
        return False
    combo: dict = {}  # id(base) -> [coefficient, base], first-seen order
    for sign, fn in ((1, g), (-1, af)):
        for c, base in fn.linear:
            combo.setdefault(id(base), [0, base])[0] += sign * c
    terms = list(combo.values())
    return all(packed_law_holds(t, terms, gw, gw, fw, fw, -1) for t in pair_blocks(s, elems, sig))


# ---------------------------------------------------------------------------
# structural properties of solutions (G-symmetry and parity identities)
# ---------------------------------------------------------------------------


@dataclass
class PropertyReport:
    hypothesis_ok: bool
    hypothesis_detail: str
    counterexamples: dict = field(default_factory=dict)

    @property
    def counterexample_free(self) -> bool:
        return not any(self.counterexamples.values())

    @property
    def ok(self) -> bool:
        return self.hypothesis_ok and self.counterexample_free


def check_G_properties(
    s: Semigroup,
    sigma: InvolutiveAutomorphism,
    alpha,
    g: ScalarFunction,
    f: ScalarFunction,
    tol: float = VERIFY_TOL,
) -> PropertyReport:
    """With G = g - alpha*f: symmetry, sigma-invariance on triple products,
    and the even/odd cross-identities.  Requires a verified solution."""
    rep = residual(s, sigma, alpha, g, f)
    if not rep.ok(tol):
        return PropertyReport(False, f"not a solution: residual {rep.max_residual:.3e}")
    G = g - f.scale(alpha)
    cx: dict = {"symmetry": [], "sigma_on_triples": [], "parity_L1": [], "parity_L2": []}
    elems = s.elements
    sig = s.checked(sigma(y) for y in elems)
    for t in pair_blocks(s, elems, sig):
        for i, row in enumerate(t.index.tolist(), t.start):
            for j, k in enumerate(row):
                if not values_equal(G(t.products[k]), G(s.product(elems[j], sig[i])), tol):
                    cx["symmetry"].append((elems[i], elems[j]))
    elems = triple_sample(s)
    # each product xy and xyz once, in first-seen order: xyz row-major over
    # the products xy, as a product's row is taken when it is first seen
    products: dict = {}
    triple_products: dict = {}
    for _, xys, rows in left_rows(s, elems):
        for p in xys:
            if p not in products:
                products[p] = None
                triple_products.update(dict.fromkeys(rows[p]))
    for t in triple_products:
        if not values_equal(G(t), G(sigma(t)), tol):
            cx["sigma_on_triples"].append(t)
            if len(cx["sigma_on_triples"]) > 8:
                break
    ge, go = even_part(g, sigma), odd_part(g, sigma)
    fe, fo = even_part(f, sigma), odd_part(f, sigma)
    for x in elems:
        gex, gox, fex, fox = ge(x), go(x), fe(x), fo(x)
        for w in products:
            if not values_equal(gex * go(w), fex * fo(w), tol):
                cx["parity_L1"].append((x, w))
            if not values_equal(ge(w) * gox, fe(w) * fox, tol):
                cx["parity_L2"].append((x, w))
        if len(cx["parity_L1"]) > 8 or len(cx["parity_L2"]) > 8:
            break
    return PropertyReport(True, "solution verified", cx)


# ---------------------------------------------------------------------------
# linear dependence
# ---------------------------------------------------------------------------


def _div(a, b):
    if is_exact(a) and is_exact(b):
        if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
            return Fraction(a) / Fraction(b)
        try:
            return a / b
        except TypeError:
            pass  # mixed exact types (ExpPoly and Cyc) divide as complex
    return complex(a) / complex(b)


def check_linear_dependence(f: ScalarFunction, g: ScalarFunction, tol: float = VERIFY_TOL):
    """(dependent?, witness (c1, c2) with c1*f + c2*g = 0 when dependent).

    Float mode declares dependence when the smallest singular value of the
    2 x n value matrix is below tol times the largest.
    """
    fv = f.window_values()
    gv = g.window_values()
    if all(is_exact(v) for v in fv + gv):
        pivot = next((i for i, v in enumerate(fv) if not values_equal(v, 0)), None)
        if pivot is None:
            return True, (1, 0)
        c = _div(gv[pivot], fv[pivot])
        if all(values_equal(gq, c * fq) for fq, gq in zip(fv, gv)):
            return True, (c, -1)
        return False, None
    m = np.array([[complex(v) for v in fv], [complex(v) for v in gv]])
    scale = np.abs(m).max()
    if scale == 0:
        return True, (1, 0)
    u, sv, _ = np.linalg.svd(m)
    if sv[-1] <= tol * sv[0]:
        c = u[:, -1].conj()
        return True, (complex(c[0]), complex(c[1]))
    return False, None


# ---------------------------------------------------------------------------
# lemma falsification harnesses
# ---------------------------------------------------------------------------


def check_dependence_lemma(
    s: Semigroup,
    sigma: InvolutiveAutomorphism,
    beta,
    f: ScalarFunction,
    g: ScalarFunction,
    tol: float = VERIFY_TOL,
) -> PropertyReport:
    """If f(x sigma(y)) = beta f(x)f(y) - beta g(x)g(y) with g non-zero
    vanishing on S^2 and beta != 0, then f and g must be linearly dependent."""
    if values_equal(beta, 0, 1e-15):
        return PropertyReport(False, "hypothesis fails: beta = 0")
    if g.is_zero(tol):
        return PropertyReport(False, "hypothesis fails: g = 0")
    bad = _s2_failure(s, g, tol)
    if bad is not None:
        return PropertyReport(False, f"hypothesis fails: g({bad[0]}*{bad[1]}) != 0")
    elems = s.elements
    # beta f(x)f(y) - beta g(x)g(y) = (beta f(x))f(y) + (-beta g(x))g(y)
    fw, gw, minus = [f(x) for x in elems], [g(x) for x in elems], -beta
    sig = s.checked(sigma(y) for y in elems)
    bad = law_failure(s, elems, sig, f, [beta * v for v in fw], fw, [minus * v for v in gw], gw, tol)
    if bad is not None:
        return PropertyReport(False, f"hypothesis fails: equation broken at ({elems[bad[0]]},{elems[bad[1]]})")
    dependent, _ = check_linear_dependence(f, g, tol)
    cx = {} if dependent else {"dependence": [("f", "g")]}
    return PropertyReport(True, "hypotheses hold", cx)


def check_parity_lemma(
    chi1: MultiplicativeFunction,
    chi2: MultiplicativeFunction,
    a1,
    a2,
    b1,
    b2,
    sigma: InvolutiveAutomorphism,
) -> PropertyReport:
    """Parity constraints on f = a1 chi1 + a2 chi2, g = b1 chi1 + b2 chi2:
    even f with odd g forces a1 = a2, b1 + b2 = 0; the mirrored case forces
    a1 + a2 = 0, b1 = b2."""
    if chi1.same_as(chi2) or chi1.is_zero or chi2.is_zero:
        return PropertyReport(False, "hypothesis fails: need two different non-zero chi")
    if values_equal(a1, 0, 1e-15) or values_equal(a2, 0, 1e-15):
        return PropertyReport(False, "hypothesis fails: a1, a2 must be non-zero")
    f = linear_combination([(a1, chi1.fn), (a2, chi2.fn)])
    g = linear_combination([(b1, chi1.fn), (b2, chi2.fn)])
    if g.is_zero(VERIFY_TOL):
        return PropertyReport(False, "hypothesis fails: g = 0")
    f_even, f_odd = is_even(f, sigma), is_odd(f, sigma)
    g_even, g_odd = is_even(g, sigma), is_odd(g, sigma)
    cx: dict = {}
    if f_even and g_odd:
        if not values_equal(a1, a2, VERIFY_TOL):
            cx["a1=a2"] = [(a1, a2)]
        if not values_equal(b1 + b2, 0, VERIFY_TOL):
            cx["b1+b2=0"] = [(b1, b2)]
        return PropertyReport(True, "case (1): f even, g odd", cx)
    if f_odd and g_even:
        if not values_equal(a1 + a2, 0, VERIFY_TOL):
            cx["a1+a2=0"] = [(a1, a2)]
        if not values_equal(b1, b2, VERIFY_TOL):
            cx["b1=b2"] = [(b1, b2)]
        return PropertyReport(True, "case (2): f odd, g even", cx)
    return PropertyReport(False, "hypothesis fails: parity pattern not matched")


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationResult:
    family_tag: object  # 1..8 or "unclassified"
    descriptor: FamilyDescriptor | None
    match_residual: float
    max_residual: float

    @property
    def classified(self) -> bool:
        return self.descriptor is not None

    def as_json(self) -> dict:
        return {
            "family_tag": self.family_tag,
            "params": self.descriptor.as_params() if self.descriptor else None,
            "match_residual": self.match_residual,
            "max_residual": self.max_residual,
        }


def classify(
    s: Semigroup,
    sigma: InvolutiveAutomorphism,
    alpha,
    g: ScalarFunction,
    f: ScalarFunction,
    *,
    _verified_residual: float | None = None,
) -> ClassificationResult:
    """Recover a family descriptor reproducing a verified solution pair.

    The pair is first verified with `residual`.  `_verified_residual` is
    internal: only `solver.completeness_check` passes it, with the float
    `max_residual` that `find_solutions` computed by `residual` on these
    very values and this complex(alpha), so the scan is not repeated.  It
    must still be below VERIFY_TOL (a NaN is not).

    Each candidate of `_candidates`, in its order, is constructed and
    compared with (g, f); the first within MATCH_TOL wins, which makes the
    result a deterministic function of the input.  The match test stops at
    the first half that misses: f's diff is taken only when g's is within
    MATCH_TOL, and the winner's `match_residual` is the max of both.  The
    candidates take what they know of the characters from the
    `CharacterTable` of (s, sigma), so a run of calls on one carrier and
    sigma derives it once.
    """
    if not s.is_finite:
        raise TypeError("classification enumerates characters; needs a finite carrier")
    if _verified_residual is None:
        rep = residual(s, sigma, alpha, g, f)
        max_residual, ok = rep.max_residual, rep.ok()
    else:
        max_residual = _verified_residual
        ok = max_residual < VERIFY_TOL
    if not ok:
        raise NotASolution(f"residual {max_residual:.3e} exceeds {VERIFY_TOL}")

    for d in _candidates(s, sigma, alpha, g, f):
        try:
            pair = construct(s, sigma, d)
        except (InvalidDescriptor, ConditionViolation):
            continue
        g_diff = pair.g.max_diff(g)
        if not g_diff <= MATCH_TOL:
            continue  # f's diff cannot rescue a g that misses (or reads NaN)
        m = max(g_diff, pair.f.max_diff(f))
        if m <= MATCH_TOL:
            return ClassificationResult(d.family, pair.provenance, m, max_residual)
    return ClassificationResult("unclassified", None, float("inf"), max_residual)


def _near(a, b) -> bool:
    return abs(complex(a) - complex(b)) <= MATCH_TOL


def _candidates(s, sigma, alpha, g, f):
    """Descriptors in the decision order 1, 2, 3, 4, 6, 8, 5, 7, which
    resolves overlapping families; those of families 1-3 carry their free
    function (f, or g).  A family's parameters are computed only when the
    stream reaches it; families 2 and 3 come only when g vanishes on S^2,
    tested once for both.

    What depends on the characters alone comes from the `CharacterTable` of
    (s, sigma): the even and twisted characters, family 4's x0 with
    chi(x0) and family 5's pivots with their determinant.  Its characters
    are the objects of `enumerate_multiplicative`.
    """
    table = character_table(s, sigma)
    even = table.even
    if (_near(alpha, 1) or _near(alpha, -1)) and not f.is_zero(MATCH_TOL):
        yield FamilyDescriptor(1, alpha, free=f)
    # construct rejects families 2 and 3 unless g vanishes on S^2: one scan
    if _s2_failure(s, g) is None:
        yield FamilyDescriptor(2, alpha, free=g)
        yield FamilyDescriptor(3, alpha, free=g)
    # family 4 has no dependence gate: reconstruction matching is the
    # arbiter, and the relative SVD test misjudges solutions with tiny norms
    for chi, (x0, chi_x0) in zip(even, table.first_nonzero):
        q = 2 * _div(f(x0), chi_x0) - alpha
        for branch in (1, -1):
            yield FamilyDescriptor(4, alpha, q=q, branch=branch, chi=chi)
    for chi1, chi2 in itertools.permutations(even, 2):
        yield FamilyDescriptor(6, alpha, chi1=chi1, chi2=chi2)
    for chi in table.twisted:
        yield FamilyDescriptor(8, alpha, chi=chi)
    for chi1, chi2, pivots in table.even_pairs:
        a1, a2 = _solve_2x2(chi1.fn, chi2.fn, f, pivots)
        if not _near(a1 + a2, alpha):
            continue
        q = a1 - a2
        for branch in (1, -1):
            yield FamilyDescriptor(5, alpha, q=q, branch=branch, chi1=chi1, chi2=chi2)
    for chi in even:
        h = f - chi.fn.scale(alpha)
        if not h.is_zero(MATCH_TOL):
            for branch in (1, -1):
                yield FamilyDescriptor(7, alpha, branch=branch, chi=chi, h=h)


def _solve_2x2(chi1, chi2, target, pivots):
    """Coefficients (a1, a2) with a1*chi1 + a2*chi2 = target at the two
    pivots (x1, x2), where det = chi1(x1)chi2(x2) - chi1(x2)chi2(x1) != 0."""
    x1, x2, det = pivots
    a1 = _div(target(x1) * chi2(x2) - target(x2) * chi2(x1), det)
    a2 = _div(chi1(x1) * target(x2) - chi1(x2) * target(x1), det)
    return a1, a2
