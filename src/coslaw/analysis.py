"""Verification and classification for the target equation

    g(x sigma(y)) = g(x) g(y) - f(x) f(y) + alpha f(x sigma(y)).

`residual` measures the worst-case defect over all window pairs.
`check_G_properties` verifies the structural identities every solution
satisfies (with G = g - alpha*f): G(x sigma(y)) = G(y sigma(x)),
G = G o sigma on products of three, and the parity cross-identities
g_e(x) g_o(yz) = f_e(x) f_o(yz) and g_e(yz) g_o(x) = f_e(yz) f_o(x).
`classify` maps a verified solution back to a family descriptor: it
reconstructs the pair from each candidate slot of `_slots`, the one place
that holds the decision order, until one matches.  The character facts the
candidates need come from the carrier's `CharacterTable`, built once per
(carrier, sigma).  `first_candidates` classifies a whole solution set in
one numpy pass: it finds each row's first slot that can match, so that
`classify` constructs candidates from there on only.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .exactnum import (
    LAURENT_TYPES,
    VERIFY_TOL,
    is_exact,
    scalar_is_zero,
    values_equal,
)
from .families import (
    FamilyDescriptor,
    InvalidDescriptor,
    _s2_failure,
    construct,
    root_w,
)
from .functions import (
    CharacterTable,
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
    _first_slot: int = 0,
) -> ClassificationResult:
    """Recover a family descriptor reproducing a verified solution pair.

    The pair is first verified with `residual`.  Each candidate of
    `_candidates`, in its order, is constructed and compared with (g, f);
    the first within MATCH_TOL wins, which makes the result a deterministic
    function of the input.  The match test stops at the first half that
    misses: f's diff is taken only when g's is within MATCH_TOL, and the
    winner's `match_residual` is the max of both, NaN when f's is NaN.  The
    candidates take what they know of the characters from the
    `CharacterTable` of (s, sigma), so a run of calls on one carrier and
    sigma derives it once.

    Two keywords are a hand-off that only `solver.completeness_check` makes:

    - `_verified_residual` is the float `max_residual` that `find_solutions`
      computed by `residual` on these very values and this complex(alpha),
      so the scan is not repeated.  It must still be below VERIFY_TOL (a
      NaN is not).
    - `_first_slot` is the row's slot from `first_candidates`, a lower
      bound on the slot of `_slots(s, sigma, alpha)` this loop would pick:
      the loop would skip every earlier slot (see `first_candidates`).  The
      stream starts there and computes nothing for the slots before it, so
      the result is the one of a call without it.
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

    for d in _candidates(s, sigma, alpha, g, f, _first_slot):
        try:
            pair = construct(s, sigma, d)
        except InvalidDescriptor:
            continue
        g_diff = pair.g.max_diff(g)
        if not g_diff <= MATCH_TOL:
            continue  # f's diff cannot rescue a g that misses (or reads NaN)
        m = worst_diff(g_diff, pair.f.max_diff(f))
        if m <= MATCH_TOL:
            return ClassificationResult(d.family, pair.provenance, m, max_residual)
    return ClassificationResult("unclassified", None, float("inf"), max_residual)


def worst_diff(*diffs: float) -> float:
    """The largest of some `max_diff`s; NaN when one is, where `max` would
    keep a NaN only in first place."""
    nan = [d for d in diffs if d != d]
    return nan[0] if nan else max(diffs)


def _near(a, b) -> bool:
    return abs(complex(a) - complex(b)) <= MATCH_TOL


class _Slot(NamedTuple):
    """One candidate of the decision order: its family and branch, and the
    characters and points its parameters read.  The slots of one `group`
    differ only in the branch, and share what `_candidates` computes for
    the group (family 4's q, family 5's a1 and a2, family 7's h)."""

    family: int
    group: int
    branch: int = 1
    chi: MultiplicativeFunction | None = None  # chi1 of families 5 and 6
    chi2: MultiplicativeFunction | None = None
    at: tuple = ()  # family 4: (x0, chi(x0)); family 5: the pivots (x1, x2, det)


def _slots(s, sigma, alpha) -> tuple[_Slot, ...]:
    """The candidate slots of (s, sigma, alpha), which `_candidates` and
    `first_candidates` both read: family 1 when alpha is +-1, then 2, 3,
    4 (chi x branch), 6 (chi1, chi2 permutations), 8 (twisted chi), 5
    (even pair x branch) and 7 (chi x branch).  This order resolves
    overlapping families."""
    return _slot_list(character_table(s, sigma), _near(alpha, 1) or _near(alpha, -1))


@lru_cache(maxsize=None)
def _slot_list(table: CharacterTable, family1: bool) -> tuple[_Slot, ...]:
    even = table.even
    groups = [(1, {})] if family1 else []
    groups += [(2, {}), (3, {})]
    groups += [(4, {"chi": chi, "at": at}) for chi, at in zip(even, table.first_nonzero)]
    groups += [(6, {"chi": a, "chi2": b}) for a, b in itertools.permutations(even, 2)]
    groups += [(8, {"chi": chi}) for chi in table.twisted]
    groups += [(5, {"chi": a, "chi2": b, "at": at}) for a, b, at in table.even_pairs]
    groups += [(7, {"chi": chi}) for chi in even]
    return tuple(
        _Slot(family, group, branch, **kw)
        for group, (family, kw) in enumerate(groups)
        for branch in ((1, -1) if family in (4, 5, 7) else (1,))
    )


def _candidates(s, sigma, alpha, g, f, start: int = 0):
    """The descriptors of the slots of `_slots`, from slot `start` on; those
    of families 1-3 carry their free function (f, or g).  A group's
    parameters are computed only when the stream reaches it, and families 2
    and 3 come only when g vanishes on S^2, tested once for both when the
    stream reaches them.  Some slots yield nothing for this (g, f): family 1
    when f is zero, families 2 and 3 when g does not vanish on S^2, family 5
    when a1 + a2 misses alpha, family 7 when its h is zero.

    Family 4 has no dependence gate: reconstruction matching is the
    arbiter, and the relative SVD test misjudges solutions with tiny norms.
    What depends on the characters alone comes from the `CharacterTable`
    of (s, sigma): the even and twisted characters, family 4's x0 with
    chi(x0) and family 5's pivots with their determinant.  Its characters
    are the objects of `enumerate_multiplicative`.
    """
    s2_vanishes = None
    group, shared = None, None
    for slot in _slots(s, sigma, alpha)[start:]:
        family, branch, chi = slot.family, slot.branch, slot.chi
        if slot.group != group:
            group = slot.group
            if family == 4:
                shared = _family4_q(f(slot.at[0]), slot.at[1], alpha)
            elif family == 5:
                a1, a2 = _solve_2x2(chi.fn, slot.chi2.fn, f, slot.at)
                shared = a1 - a2 if _near(a1 + a2, alpha) else None
            elif family == 7:
                h = f - chi.fn.scale(alpha)
                shared = None if h.is_zero(MATCH_TOL) else h
        if family == 1:
            if not f.is_zero(MATCH_TOL):
                yield FamilyDescriptor(1, alpha, free=f)
        elif family in (2, 3):
            # construct rejects both unless g vanishes on S^2: one scan
            if s2_vanishes is None:
                s2_vanishes = _s2_failure(s, g) is None
            if s2_vanishes:
                yield FamilyDescriptor(family, alpha, free=g)
        elif family == 4:
            yield FamilyDescriptor(4, alpha, q=shared, branch=branch, chi=chi)
        elif family == 6:
            yield FamilyDescriptor(6, alpha, chi1=chi, chi2=slot.chi2)
        elif family == 8:
            yield FamilyDescriptor(8, alpha, chi=chi)
        elif shared is None:
            continue  # family 5's a1 + a2 misses alpha, or family 7's h is zero
        elif family == 5:
            yield FamilyDescriptor(5, alpha, q=shared, branch=branch, chi1=chi, chi2=slot.chi2)
        else:
            yield FamilyDescriptor(7, alpha, branch=branch, chi=chi, h=shared)


def _family4_q(f_x0, chi_x0, alpha):
    """Family 4's q, from f(x0) = (q + alpha) chi(x0) / 2."""
    return 2 * _div(f_x0, chi_x0) - alpha


def _solve_2x2(chi1, chi2, target, pivots):
    """Coefficients (a1, a2) with a1*chi1 + a2*chi2 = target at the two
    pivots (x1, x2), where det = chi1(x1)chi2(x2) - chi1(x2)chi2(x1) != 0."""
    x1, x2, det = pivots
    a1 = _div(target(x1) * chi2(x2) - target(x2) * chi2(x1), det)
    a2 = _div(chi1(x1) * target(x2) - chi1(x2) * target(x1), det)
    return a1, a2


# ---------------------------------------------------------------------------
# classification of a whole solution set
# ---------------------------------------------------------------------------


def first_candidates(s, sigma, alpha: complex, rows: np.ndarray) -> np.ndarray:
    """For each row, the first slot of `_slots(s, sigma, alpha)` that
    `classify` may pick for it, or len(slots) when it can pick none.

    `rows` is the (k, 2n) complex matrix of solutions (g | f) on the finite
    carrier s, and alpha the complex `classify` gets with them.  Slot by
    slot, each row not yet stopped has its candidate g and f formed and
    compared with its own, and it stops at the first slot it does not
    pass over.

    Invariant: the slot returned is a lower bound on the slot `classify`
    would pick.  A slot is passed over only where every element diff of g,
    or every element diff of f, is finite and the max is above MATCH_TOL,
    bit for bit as `construct(...).g.max_diff(g)` (or f's) computes it.
    The per-row gates of `_candidates` (family 1's f != 0, families 2 and
    3's g = 0 on S^2, family 5's a1 + a2 = alpha, family 7's h != 0) and
    construct's refusals are not copied: a slot that one of them would
    skip can only stop a row early.

    Bit for bit: the row's scalars (family 4's q, family 5's a1 and a2, and
    their w) come from `_family4_q`, `_solve_2x2` and `root_w` one row at a
    time, as `_candidates` and `construct` compute them; Python's complex
    `*`, `+` and `-` over the elements are written as float64 ufuncs on the
    real and imaginary parts, and |.| as `np.hypot`.  A part that is zero
    may carry the other sign than Python's; no later step turns that into a
    non-zero, and hypot ignores it.  A non-finite part makes a diff of its
    row non-finite, and such a row is not passed over.  Families 6 and 8
    have one candidate for every row, built once by `construct`; where it
    refuses them, so would `classify`, and every row passes over the slot.
    """
    n = s.order
    slots = _slots(s, sigma, alpha)
    first = np.full(len(rows), len(slots))
    todo = np.arange(len(rows))
    i = 0
    with np.errstate(all="ignore"):  # an overflow reads inf, and its row stops
        while i < len(slots) and len(todo):
            end = i + 1
            while end < len(slots) and slots[end].group == slots[i].group:
                end += 1
            g, f = rows[todo, :n], rows[todo, n:]
            candidate = _group_candidates(s, sigma, slots[i], alpha, g, f)
            if candidate is not None:
                stopped = np.zeros(len(todo), bool)
                for j in range(i, end):
                    cg, cf = candidate(slots[j].branch)
                    hit = ~(stopped | _passed_over(cg, g) | _passed_over(cf, f))
                    first[todo[hit]] = j
                    stopped |= hit
                todo = todo[~stopped]
            i = end
    return first


def _group_candidates(s, sigma, slot: _Slot, alpha: complex, g: np.ndarray, f: np.ndarray):
    """branch -> the candidate (g, f) of the slot's group for each row of
    (g, f), as (re, im) float64 parts that broadcast against g; None when
    `construct` refuses a candidate that is the same for every row."""
    family, chi = slot.family, slot.chi
    a = (alpha.real, alpha.imag)
    gp, fp = (g.real, g.imag), (f.real, f.imag)
    if family == 1:
        return lambda branch: (_mul(a, fp), fp)
    if family == 2:
        return lambda branch: (gp, gp)
    if family == 3:
        return lambda branch: (gp, (-gp[0], -gp[1]))
    if family in (6, 8):
        if family == 6:
            d = FamilyDescriptor(6, alpha, chi1=chi, chi2=slot.chi2)
        else:
            d = FamilyDescriptor(8, alpha, chi=chi)
        try:
            pair = construct(s, sigma, d)
        except InvalidDescriptor:
            return None
        return lambda branch: (_parts(pair.g.values), _parts(pair.f.values))
    c = _parts(chi.fn.values)
    if family == 7:
        h = _sub(fp, _mul(c, a))  # f - alpha chi
        return lambda branch: (_add(c, _scaled(h, branch)), _add(_mul(c, a), h))
    # the row's scalars, one row at a time as `_candidates` and `construct` compute them
    if family == 4:
        x0, chi_x0 = slot.at
        q = [_family4_q(v, chi_x0, alpha) for v in f[:, x0].tolist()]
    else:
        a12 = [_solve_2x2(chi.fn, slot.chi2.fn, row.__getitem__, slot.at) for row in f.tolist()]
        q = [a1 - a2 for a1, a2 in a12]
    w = _parts([root_w(v, alpha) for v in q], column=True)
    q = _parts(q, column=True)
    if family == 4:
        cf = _mul(c, _half(_add(q, a)))
        return lambda branch: (_mul(c, _half(_add(_ONE, _scaled(w, branch)))), cf)
    c2 = _parts(slot.chi2.fn.values)
    cf = _add(_mul(c, _half(_add(a, q))), _mul(c2, _half(_sub(a, q))))

    def family5(branch):
        wb = _scaled(w, branch)
        return _add(_mul(c, _half(_add(_ONE, wb))), _mul(c2, _half(_sub(_ONE, wb)))), cf

    return family5


def _passed_over(candidate, values: np.ndarray) -> np.ndarray:
    """Rows whose element diffs are all finite, with a max above MATCH_TOL."""
    m = _max_diffs(candidate, values)
    return np.isfinite(m) & (m > MATCH_TOL)


def _max_diffs(candidate, values: np.ndarray) -> np.ndarray:
    """Each row's `max_diff` of the candidate's (re, im) parts against its
    values: the largest |candidate - value|, NaN when one is NaN."""
    return np.hypot(candidate[0] - values.real, candidate[1] - values.imag).max(axis=1)


def _parts(values, column: bool = False) -> tuple:
    """(re, im) float64 arrays of scalars, as a column when asked."""
    z = np.array([complex(v) for v in values], complex)
    if column:
        z = z[:, None]
    return z.real, z.imag


# the int 1 in `1 + w` and `1 - w`, as Python's complex arithmetic promotes it
_ONE = (1.0, 0.0)


def _mul(a, b):
    """Python's complex a*b on (re, im) parts."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def _scaled(a, k: int):
    """k*a for k = +-1, which Python computes exactly up to the sign of a zero."""
    return k * a[0], k * a[1]


def _half(a):
    """`families._half` of a complex, v * complex(0.5, 0), on (re, im) parts."""
    return a[0] * 0.5, a[1] * 0.5
