"""Complex-valued functions on a carrier and their multiplicative structure.

Covers the reflection f*(x) = f(sigma(x)) with the even/odd decomposition
f = (f+f*)/2 + (f-f*)/2, validation and exhaustive enumeration of
multiplicative functions chi (chi(xy) = chi(x)chi(y)), additive functions
A (A(xy) = A(x)+A(y)) on a sub-carrier, and the null-set triple

    I_chi   = {x : chi(x) = 0}
    I_chi^2 = {xy : x, y in I_chi}
    P_chi   = {p in I_chi \\ I_chi^2 : up, pv, upv in I_chi \\ I_chi^2
               for all u, v outside I_chi}

On finite carriers everything is exact.  On rule-defined carriers the
quantifiers are window-closed: products that leave the sample window are
skipped, and reports are flagged "window" rather than "exact".  The
window test is the caller's, a set operation against ``window_set``; the
products come from the scan helpers of ``semigroups``: ``product_set``
for I_chi^2, and ``left_rows`` for the translates up, pu and upv of
P_chi, one unit u at a time.  ``null_sets`` keeps those in the window
(``NullSets.translates``) for condition (I) and ``check_pchi_lemma``.

Every pairwise law L(x*r) = a(x)b(y) + c(x)d(y), r = y or sigma(y), is
tested by ``law_failure`` (multiplicativity, additivity, the sine law of
family 7, the dependence lemma), with the packed test ``packed_law_holds``
that the equation's residual shares; ``nonzero_product`` tests the
all-zero laws (g on S^2, condition (II)).  Each reads its scan one
``semigroups.pair_blocks`` row block at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial

from .exactnum import LAURENT_TYPES, VERIFY_TOL, Cyc, pack_scan, packed_pairs_vanish, values_equal
from .semigroups import (
    PAIR_BLOCK_CELLS,
    FiniteSemigroup,
    InvolutiveAutomorphism,
    Semigroup,
    element_period,
    left_rows,
    pair_blocks,
    product_set,
)

CHARACTER_ORDER_BOUND = 6


# ---------------------------------------------------------------------------
# scalar functions
# ---------------------------------------------------------------------------


_MISSING = object()  # a memo miss: no function value is this object


class ScalarFunction:
    """A function carrier -> C: a dense value vector (finite carriers), an
    evaluator rule, or a linear combination node.

    Procedural evaluators are total on the carrier's domain, so they accept
    products that fall outside the sample window.  Evaluations are memoised,
    one memo per function read with `dict.get`; an unhashable element skips
    it.  The memo is cleared when it holds PAIR_BLOCK_CELLS values: a rule
    is pure, so its values do not depend on the memo.

    A linear combination that is not all dense is one node.  Its `terms` are
    (coefficient, part) pairs summed left to right; a part is a base (a dense
    or rule function that is no node) or a nested terms tuple, summed first.
    `scale`, `+`, `-`, `linear_combination`, `even_part`/`odd_part` and
    `star` of a node build one node, and `star` puts sigma onto each base.
    A node evaluates the operations of the pointwise expression it was built
    from, in their order: c*(a*phi(x)) stays that, and a term added by `+`
    has the coefficient None and is not multiplied (1*complex(inf, 0) is
    inf+nanj), so float and complex values are those of the expression bit
    for bit.  `linear` is the exact linear form the packed scans read, and
    `spec` records the nesting the function was built with (the wire form).
    """

    __slots__ = ("carrier", "values", "rule", "spec", "terms", "_linear", "_memo")

    def __init__(self, carrier: Semigroup, values=None, rule=None, spec=None, terms=None):
        if (values is None) + (rule is None) + (terms is None) != 2:
            raise ValueError("exactly one of values / rule / terms must be given")
        self.carrier = carrier
        self.values = tuple(values) if values is not None else None
        self.rule = rule if terms is None else partial(_evaluate, terms)
        self.spec = spec
        self.terms = terms
        self._linear = None if terms is None else _linear_form(terms)
        self._memo: dict = {}
        if carrier.is_finite and self.values is not None and len(self.values) != carrier.order:
            raise ValueError("need one value per element")

    def __call__(self, x):
        if self.values is not None:
            return self.values[x]
        try:
            v = self._memo.get(x, _MISSING)
        except TypeError:  # an unhashable element
            return self.rule(x)
        if v is _MISSING:
            if len(self._memo) >= PAIR_BLOCK_CELLS:
                self._memo.clear()
            v = self._memo[x] = self.rule(x)
        return v

    @property
    def linear(self) -> tuple:
        """(coefficient, base) pairs whose sum is this function, every
        coefficient an int or Fraction, nested coefficients multiplied out.
        A function that is no such combination (not a node, or a node with
        another coefficient) is its own one-term form ((1, self),)."""
        return self._linear or ((1, self),)

    def _part(self):
        """What a node holds for this function: its terms, or itself as a base."""
        return self if self.terms is None else self.terms

    def window_values(self) -> list:
        return [self(x) for x in self.carrier.elements]

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(values_equal(v, 0, tol) for v in self.window_values())

    # -- pointwise algebra (carriers must match) -----------------------

    def _assert_same(self, other: "ScalarFunction"):
        if other.carrier is not self.carrier and other.carrier != self.carrier:
            raise ValueError("functions live on different carriers")

    def __add__(self, other):
        if isinstance(other, ScalarFunction):
            self._assert_same(other)
            if self.values is not None and other.values is not None:
                return ScalarFunction(
                    self.carrier, values=[a + b for a, b in zip(self.values, other.values)]
                )
            # self's terms start the sum; other is one more term, its own
            # when it has one, else its sum nested
            left = self.terms or ((None, self),)
            right = other.terms if other.terms and len(other.terms) == 1 else ((None, other._part()),)
            return ScalarFunction(
                self.carrier, terms=left + right, spec=_combo_spec([(1, self), (1, other)])
            )
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, ScalarFunction):
            return self + (-other)
        return NotImplemented

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "ScalarFunction":
        if self.values is not None:
            return ScalarFunction(self.carrier, values=[c * v for v in self.values])
        return ScalarFunction(
            self.carrier, terms=((c, self._part()),), spec=_combo_spec([(c, self)])
        )

    def max_diff(self, other: "ScalarFunction") -> float:
        self._assert_same(other)
        return max(
            abs(complex(self(x)) - complex(other(x))) for x in self.carrier.elements
        )

    def equal_to(self, other: "ScalarFunction", tol: float = VERIFY_TOL) -> bool:
        self._assert_same(other)
        return all(
            values_equal(self(x), other(x), tol) for x in self.carrier.elements
        )

    def __repr__(self):
        if self.values is not None:
            return f"ScalarFunction({list(self.values)!r})"
        return f"ScalarFunction(rule, spec={self.spec!r})"


def _evaluate(terms: tuple, x):
    """A node's value at x: its terms' sum, left to right."""
    total = _MISSING
    for c, part in terms:
        v = _evaluate(part, x) if part.__class__ is tuple else part(x)
        if c is not None:
            v = c * v
        total = v if total is _MISSING else total + v
    return total


def _linear_form(terms: tuple) -> tuple | None:
    """`ScalarFunction.linear` of a node; None unless every coefficient is
    an int or Fraction."""
    out = []
    for c, part in terms:
        if c is None:
            c = 1
        elif not isinstance(c, (int, Fraction)):
            return None
        if part.__class__ is tuple:
            inner = _linear_form(part)
            if inner is None:
                return None
            out += [(c * ci, base) for ci, base in inner]
        else:
            out.append((c, part))
    return tuple(out)


def complex_pair(c) -> list[float]:
    """[re, im] floats: the wire form of scalars inside rule specs."""
    z = complex(c)
    return [z.real, z.imag]


def _combo_spec(parts) -> dict | None:
    terms = []
    for coef, fn in parts:
        if fn.spec is None:
            return None
        try:
            terms.append({"coef": complex_pair(coef), "fn": fn.spec})
        except OverflowError:  # an exact coefficient beyond float range
            return None
    return {"rule": "combo", "terms": terms}


def linear_combination(parts: list[tuple]) -> ScalarFunction:
    """sum of coef * fn over parts, summed left to right; keeps a
    serializable spec when possible.  All-dense parts give a dense function,
    any other mix one node."""
    (c0, f0), *rest = parts
    for _, f in rest:
        f0._assert_same(f)
    if all(f.values is not None for _, f in parts):
        out = f0.scale(c0)
        for c, f in rest:
            out = out + f.scale(c)
        return out
    return ScalarFunction(
        f0.carrier, terms=tuple((c, f._part()) for c, f in parts), spec=_combo_spec(parts)
    )


# ---------------------------------------------------------------------------
# reflection and parity
# ---------------------------------------------------------------------------


def star(f: ScalarFunction, sigma: InvolutiveAutomorphism) -> ScalarFunction:
    """f* = f o sigma; of a node, the node of the starred bases."""
    if f.values is not None:
        return ScalarFunction(f.carrier, values=[f.values[sigma(x)] for x in f.carrier.elements])
    spec = None
    if f.spec is not None:
        spec = {"rule": "star", "sigma": sigma.name, "fn": f.spec}
    if f.terms is not None:
        return ScalarFunction(f.carrier, terms=_star_terms(f.terms, sigma), spec=spec)
    return ScalarFunction(f.carrier, rule=lambda x: f(sigma(x)), spec=spec)


def _star_terms(terms: tuple, sigma: InvolutiveAutomorphism) -> tuple:
    return tuple(
        (c, _star_terms(part, sigma) if part.__class__ is tuple else star(part, sigma))
        for c, part in terms
    )


def even_part(f: ScalarFunction, sigma: InvolutiveAutomorphism) -> ScalarFunction:
    return linear_combination([(Fraction(1, 2), f), (Fraction(1, 2), star(f, sigma))])


def odd_part(f: ScalarFunction, sigma: InvolutiveAutomorphism) -> ScalarFunction:
    return linear_combination([(Fraction(1, 2), f), (Fraction(-1, 2), star(f, sigma))])


def is_even(f: ScalarFunction, sigma: InvolutiveAutomorphism) -> bool:
    return all(values_equal(f(x), f(sigma(x)), VERIFY_TOL) for x in f.carrier.elements)


def is_odd(f: ScalarFunction, sigma: InvolutiveAutomorphism) -> bool:
    return all(values_equal(f(x), -f(sigma(x)), VERIFY_TOL) for x in f.carrier.elements)


# ---------------------------------------------------------------------------
# multiplicative functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiplicativeFunction:
    """A chi with chi(xy) = chi(x)chi(y); zeros allowed, zero function flagged.

    Finite enumerated characters carry exact phases: element -> None (zero)
    or a Fraction t meaning the root of unity e^(2*pi*i*t).
    """

    fn: ScalarFunction = field(compare=False)
    phases: tuple | None = None
    name: str = ""

    def __call__(self, x):
        return self.fn(x)

    @property
    def is_zero(self) -> bool:
        if self.phases is not None:
            return all(p is None for p in self.phases)
        return self.fn.is_zero(VERIFY_TOL)

    def star(self, sigma: InvolutiveAutomorphism) -> "MultiplicativeFunction":
        phases = None
        if self.phases is not None and sigma.perm is not None:
            phases = tuple(self.phases[sigma(x)] for x in range(len(self.phases)))
        return MultiplicativeFunction(
            fn=star(self.fn, sigma),
            phases=phases,
            name=self.name + "*" if self.name else "",
        )

    def is_even(self, sigma: InvolutiveAutomorphism) -> bool:
        """chi o sigma = chi: read off the phases under a permutation sigma,
        otherwise `is_even` of the values."""
        phases, perm = self.phases, sigma.perm
        if phases is not None and perm is not None:
            return all(phases[perm[x]] == t for x, t in enumerate(phases))
        return is_even(self.fn, sigma)

    def same_as(self, other: "MultiplicativeFunction") -> bool:
        if self.phases is not None and other.phases is not None:
            return self.phases == other.phases
        return self.fn.equal_to(other.fn)


def is_multiplicative(s: Semigroup, f, tol: float = VERIFY_TOL) -> bool:
    """chi(xy) = chi(x)chi(y) on all window pairs (exact for exact values)."""
    ev = f.fn if isinstance(f, MultiplicativeFunction) else f
    xs = s.elements
    values = [ev(x) for x in xs]
    return law_failure(s, xs, xs, ev, values, values, tol=tol) is None


def is_additive(s: Semigroup, subset, f, tol: float = VERIFY_TOL) -> bool:
    """A(xy) = A(x)*1 + 1*A(y), A the callable f, for the pairs of the
    subset's window elements.  A dense finite function is tested only where
    the product stays inside the subset; a rule is evaluated at any product."""
    subset = frozenset(subset)
    lhs = f
    if isinstance(f, ScalarFunction) and f.values is not None:
        lhs = lambda p: f.values[p] if p in subset else None  # noqa: E731
    xs = tuple(x for x in s.elements if x in subset)
    values, ones = [f(x) for x in xs], [1] * len(xs)
    return law_failure(s, xs, xs, lhs, values, ones, ones, values, tol) is None


def law_failure(s: Semigroup, xs: tuple, right: tuple, lhs, a, b, c=None, d=None,
                tol: float = VERIFY_TOL) -> tuple | None:
    """The first pair (i, j), rows of `xs` outer and `right` inner, where
    lhs(xs[i] * right[j]) = a[i]*b[j] + c[i]*d[j] fails, as (i, j, lhs value,
    right-hand value); None when the law holds at every pair.

    `xs` and `right` are checked factor tuples (`right` is `xs` or the
    sigma-images of the column elements); a and c hold one value per row, b
    and d one per column, and c = d = None drops the second product.  A
    product where lhs is None is not tested.  When every value of a, b, c
    and d is an int, Fraction or ExpPoly, `packed_law_holds` tests each of
    the scan's `pair_blocks` first and a pass skips it.  Otherwise, or when
    it fails, the block is walked row by row, lhs evaluated once per
    distinct product of the block where the walk first reaches it.
    """
    lists = [v for v in (a, b, c, d) if v is not None]
    packable = all(isinstance(v, LAURENT_TYPES) for v in itertools.chain(*lists))
    for table in pair_blocks(s, xs, right):
        if packable and packed_law_holds(table, ((1, lhs),), a, b, c, d):
            continue
        seen = [_MISSING] * len(table.products)
        for i, row in enumerate(table.index, table.start):
            ai = a[i]
            ci = c[i] if c is not None else None
            for j, k in enumerate(row.tolist()):
                v = seen[k]
                if v is _MISSING:
                    v = seen[k] = lhs(table.products[k])
                if v is None:
                    continue
                rhs = ai * b[j] if c is None else ai * b[j] + ci * d[j]
                if not values_equal(v, rhs, tol):
                    return i, j, v, rhs
    return None


def packed_law_holds(table, terms, a, b, c, d, sign: int = 1) -> bool:
    """True when sum(w * phi(p) for w, phi in terms) = a[i]*b[j] +
    sign*c[i]*d[j] at every cell (i, j) of the `PairTable` block, p its
    product; False when a value does not pack (`pack_scan`) or a cell fails.
    `terms` is the left side's exact linear form; a and c hold one value per
    row of the scan, b and d one per column, c = d = None drops the second
    product.  A list passed twice (the equation's g, g, f, f) to a one-block
    scan is packed once, and the sign is applied to packed ints.
    """
    if len(table.index) != len(a):
        rows = slice(table.start, table.start + len(table.index))
        a, c = a[rows], None if c is None else c[rows]
    lists = {id(v): v for v in (a, b, c, d) if v is not None}
    columns = [list(map(base, table.products)) for _, base in terms]
    packed = pack_scan([v for vs in lists.values() for v in vs], columns, [w for w, _ in terms])
    if packed is None:
        return False
    pw = iter(packed[0])
    at = {key: list(itertools.islice(pw, len(vs))) for key, vs in lists.items()}
    pa, pb = at[id(a)], at[id(b)]
    pc, pd = (at[id(c)], at[id(d)]) if c is not None else ([0] * len(pa), pb)
    return packed_pairs_vanish(table.index, packed[1], pa, pb, [-v for v in pc] if sign > 0 else pc, pd)


def nonzero_product(s: Semigroup, xs: tuple, right: tuple, h, tol: float = VERIFY_TOL) -> tuple | None:
    """The first pair (i, j), rows of the checked tuple `xs` outer and of
    `right` inner, where h(xs[i] * right[j]) is not zero; None when there
    is none.  h is tested once per distinct product of each of the scan's
    `pair_blocks`, in first-seen order, up to the first that fails; that
    product is first seen in its block at the first failing pair, so the
    first cell holding it is that pair.
    """
    for table in pair_blocks(s, xs, right):
        for k, p in enumerate(table.products):
            if not values_equal(h(p), 0, tol):
                i, j = divmod(int((table.index == k).argmax()), len(right))
                return table.start + i, j
    return None


def _phase_mul(a: Fraction | None, b: Fraction | None) -> Fraction | None:
    if a is None or b is None:
        return None
    return (a + b) % 1


@lru_cache(maxsize=None)
def enumerate_multiplicative(s: FiniteSemigroup) -> tuple[MultiplicativeFunction, ...]:
    """All multiplicative functions S -> C, canonically ordered.

    A non-zero value at x generates a finite subsemigroup of C\\{0}, hence is
    a root of unity of order dividing the period of x; enumeration therefore
    ranges over {0} plus those roots and filters by the defining identity,
    checked exactly in phase arithmetic.
    """
    if s.order > CHARACTER_ORDER_BOUND:
        raise ValueError(f"order {s.order} exceeds enumeration bound {CHARACTER_ORDER_BOUND}")
    n = s.order
    candidates: list[list[Fraction | None]] = []
    for x in range(n):
        p = element_period(s, x)
        candidates.append([None] + [Fraction(k, p) for k in range(p)])
    cells = [(x, y, t.products[k]) for t in pair_blocks(s, s.elements, s.elements)
             for x, row in enumerate(t.index.tolist(), t.start) for y, k in enumerate(row)]
    found = [a for a in itertools.product(*candidates)
             if all(_phase_mul(a[x], a[y]) == a[xy] for x, y, xy in cells)]
    found.sort(key=lambda a: tuple((0, Fraction(0)) if t is None else (1, t) for t in a))
    out = []
    for i, phases in enumerate(found):
        values = [Cyc.zero() if t is None else Cyc.root_of_unity(t) for t in phases]
        fn = ScalarFunction(s, values=values)
        out.append(MultiplicativeFunction(fn=fn, phases=phases, name=f"chi{i}"))
    return tuple(out)


@dataclass(frozen=True)
class CharacterTable:
    """What the characters of a finite carrier are under one sigma.

    Everything here depends only on (carrier, sigma), so it is built once
    per pair (`character_table`) and shared by every solution classified
    there.  The characters are the very objects of
    `enumerate_multiplicative`, in its order.
    """

    # the sigma-even characters, each with its first non-zero element x0
    # and chi(x0)
    even: tuple[MultiplicativeFunction, ...]
    first_nonzero: tuple[tuple, ...]
    # the non-zero chi with chi o sigma != chi
    twisted: tuple[MultiplicativeFunction, ...]
    # (chi1, chi2, pivots) for each pair of even characters in
    # combinations order: pivots (x1, x2, det) are the first two elements
    # with det = chi1(x1)chi2(x2) - chi1(x2)chi2(x1) != 0, or None if
    # there are none
    even_pairs: tuple[tuple, ...]


def character_table(s: FiniteSemigroup, sigma: InvolutiveAutomorphism) -> CharacterTable:
    """The character table of (s, sigma), built on first use per (carrier,
    permutation): two sigmas with one name but different permutations get
    different tables."""
    if not s.is_finite:
        raise TypeError("a character table needs a finite carrier")
    perm = sigma.perm if sigma.perm is not None else tuple(sigma(x) for x in s.elements)
    return _character_table(s, perm)


@lru_cache(maxsize=None)
def _character_table(s: FiniteSemigroup, perm: tuple[int, ...]) -> CharacterTable:
    sigma = InvolutiveAutomorphism("sigma", perm=perm)
    nonzero = [chi for chi in enumerate_multiplicative(s) if not chi.is_zero]
    even = [chi for chi in nonzero if chi.is_even(sigma)]
    twisted = [chi for chi in nonzero if not chi.is_even(sigma)]
    first_nonzero = []
    for chi in even:
        # a non-zero character has a non-zero value
        x0 = next(x for x in s.elements if not values_equal(chi(x), 0))
        first_nonzero.append((x0, chi(x0)))
    even_pairs = []
    for chi1, chi2 in itertools.combinations(even, 2):
        pivots = None
        for x1, x2 in itertools.combinations(s.elements, 2):
            det = chi1(x1) * chi2(x2) - chi1(x2) * chi2(x1)
            if not values_equal(det, 0):
                pivots = (x1, x2, det)
                break
        even_pairs.append((chi1, chi2, pivots))
    return CharacterTable(
        even=tuple(even),
        first_nonzero=tuple(first_nonzero),
        twisted=tuple(twisted),
        even_pairs=tuple(even_pairs),
    )


# ---------------------------------------------------------------------------
# null sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NullSets:
    """I_chi, I_chi^2 and P_chi, window-restricted on procedural carriers.

    `translates` maps each p in P_chi (in P_chi's order) to its translates
    x = upv by units u, v that land in the window, as (u, v, x), u or v None
    on a one-sided x: (u, None, up) and (None, u, pu) for each u in unit
    order, then (u, v, upv) in (u, v) order.
    """

    i_chi: frozenset
    i_chi_sq: frozenset
    p_chi: frozenset
    certified: str  # "exact" | "window"
    translates: dict = field(default_factory=dict, compare=False, repr=False)


def null_sets(s: Semigroup, sigma: InvolutiveAutomorphism, chi) -> NullSets:
    """Null-set triple of a non-zero multiplicative chi; `sigma` is not read.

    Window semantics on procedural carriers: quantified products that leave
    the window are skipped, so membership is certified on the window only.
    Given the carrier's `escapes` rule, the translate scan builds no row
    upv for an escaping up: every upv is then outside the window, so the
    row could add nothing to P_chi or its translates.  up itself is still
    checked, once in each row u where it appears, and pu still computed;
    the scan remembers only the products up that got a row, those in the
    window on the naturals from 2, so its memory stays within the window.
    """
    elems = s.elements
    i_chi = _window_zeros(elems, chi)
    if all(x in i_chi for x in elems):  # the empty window too
        raise ValueError("null sets require a non-zero multiplicative function")
    i_sq = product_set(s, i_chi)
    diff = i_chi - i_sq
    candidates = tuple(diff)
    units = [u for u in elems if u not in i_chi]
    # p stays while none of up, pu and upv lands in the window outside diff;
    # kept[p] gathers the window translates of p, one-sided and two-sided
    window = s.window_set
    outside = window - diff
    product = s.product
    p_chi = set(diff)
    kept = {p: ([], []) for p in candidates}
    for u, ups, rows in left_rows(s, units, candidates, s.escapes):
        hits = {  # the window products upv of each distinct up
            up: [(u, v, upv) for v, upv in zip(units, row) if upv in window]
            for up, row in rows.items() if not window.isdisjoint(row)
        }
        for p, up in zip(candidates, ups):
            if p not in p_chi:
                continue
            pu, upvs = product(p, u), hits.get(up, ())
            if up in outside or pu in outside or any(t[2] in outside for t in upvs):
                p_chi.discard(p)
                continue
            one, two = kept[p]
            one += [t for t in ((u, None, up), (None, u, pu)) if t[2] in window]
            two += upvs
    p_chi = frozenset(p_chi)
    return NullSets(
        i_chi=frozenset(i_chi),
        i_chi_sq=i_sq,
        p_chi=p_chi,
        certified="exact" if s.is_finite else "window",
        translates={p: tuple(itertools.chain(*kept[p])) for p in p_chi},
    )


def _window_zeros(elems, chi) -> set:
    """The zeros of chi among `elems`: all that `null_sets` reads of chi."""
    ev = chi.fn if isinstance(chi, MultiplicativeFunction) else chi
    return {x for x in elems if values_equal(ev(x), 0, VERIFY_TOL)}


@dataclass
class PchiReport:
    """Counterexample report for the closure/reflection properties of P_chi."""

    counterexamples: list
    translates_checked: int
    reflection_agrees: bool
    certified: str

    @property
    def ok(self) -> bool:
        return not self.counterexamples and self.reflection_agrees


def check_pchi_lemma(
    s: Semigroup,
    sigma: InvolutiveAutomorphism,
    chi: MultiplicativeFunction,
) -> PchiReport:
    """Verifies (a) u not in I_chi, p in P_chi => up, pu in P_chi and
    (b) sigma(P_chi) = P_(chi o sigma), window-bounded on procedural carriers.
    (a) reads the translates `null_sets` kept; counterexamples are p-major.
    (b) reuses chi's null sets when chi o sigma has the same window zeros."""
    ns = null_sets(s, sigma, chi)
    # (u, p, up or pu) for each one-sided translate; (a) has no upv
    sides = [
        (v if u is None else u, p, x)
        for p, translates in ns.translates.items()
        for u, v, x in translates
        if u is None or v is None
    ]
    chi_star = chi.star(sigma) if isinstance(chi, MultiplicativeFunction) else star(chi, sigma)
    # chi o sigma with chi's window zeros (sigma = id, or an even chi) has chi's null sets
    same = _window_zeros(s.elements, chi_star) == ns.i_chi
    ns_star = ns if same else null_sets(s, sigma, chi_star)
    image = {sigma(p) for p in ns.p_chi} & s.window_set
    agrees = image == set(ns_star.p_chi)
    return PchiReport(
        counterexamples=[t for t in sides if t[2] not in ns.p_chi],
        translates_checked=len(sides),
        reflection_agrees=agrees,
        certified=ns.certified,
    )
