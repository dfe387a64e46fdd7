"""Semigroup carriers: finite Cayley tables and rule-defined structures.

Finite carriers use element indices 0..order-1.  Rule-defined
("procedural") carriers model infinite structures through a finite sample
window: axioms and universally quantified properties are checked on window
elements, while composition and function evaluation stay total so products
may leave the window.

The domain test (an index in range, or the carrier's ``contains_rule``)
lives in ``checked``, which raises ``IndexError`` or ``ValueError`` for
the first element outside the carrier.  ``product`` is the bare product
(a Cayley lookup or ``compose_rule``) and tests nothing.  Window scans go
through three helpers that take factors checked once per scan, so an
element is tested once per scan rather than once per product:
``pair_products`` streams the pairs x*y (automorphism checks, T^2,
centrality and the G-identities of solutions); ``pair_table`` gives the
distinct products of two checked factor tuples and each pair's position
among them, built once and cached on the carrier, for the equation's
residual and for every pairwise-law scan of ``functions``
(``law_failure`` and ``nonzero_product``); and ``left_rows`` serves the
three-factor scans (the null set P_chi and the triple scans of
``validate`` and ``is_abelian_fn``), checking each distinct product x*y
once before it becomes a left factor; given an ``escapes`` rule
(``null_sets`` passes the carrier's), it builds no row for a product the
rule puts beyond the window.  ``compose`` is the single-product convenience: ``checked`` on
both arguments, then ``product``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .exactnum import VERIFY_TOL, values_equal

AUTOMORPHISM_ORDER_BOUND = 8
TRIPLE_SAMPLE_CAP = 64  # triple-quantified checks subsample large windows


@dataclass(frozen=True)
class FiniteSemigroup:
    """Order-n carrier with an n x n Cayley table (entry [x][y] = index of xy)."""

    cayley: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.cayley)
        object.__setattr__(self, "cayley", tuple(tuple(row) for row in self.cayley))
        if any(len(row) != n for row in self.cayley):
            raise ValueError("Cayley table must be square")

    @property
    def order(self) -> int:
        return len(self.cayley)

    @cached_property
    def elements(self) -> tuple[int, ...]:
        return tuple(range(self.order))

    @cached_property
    def window_set(self) -> frozenset:
        """The whole carrier: on a finite carrier every product is in the window."""
        return frozenset(range(self.order))

    @cached_property
    def _pair_tables(self) -> dict:
        """`pair_table`'s cache: (xs, right) -> PairTable."""
        return {}

    is_finite = True
    escapes = None  # every product is in the window

    def checked(self, xs) -> tuple:
        """`xs` as a tuple; IndexError if an element is not an index in range."""
        xs = tuple(xs)
        n = self.order
        for x in xs:
            if not 0 <= x < n:
                raise IndexError(f"element index out of range: {x!r}")
        return xs

    def product(self, x: int, y: int) -> int:
        """xy by table lookup, without the domain test."""
        return self.cayley[x][y]

    def compose(self, x: int, y: int) -> int:
        return self.product(*self.checked((x, y)))


@dataclass(frozen=True)
class ProceduralSemigroup:
    """Rule-defined carrier with a finite sample window for bounded checks.

    `escapes`, when given, is a fact about the carrier: escapes(x) means
    that every product with x as a factor, on either side, lies outside
    the window (on the naturals from 2, x > max(window), since products
    only grow).  The P_chi translate scan of `null_sets` builds no row
    x*v for such an x; without the rule every row is built.
    """

    name: str
    window: tuple
    compose_rule: Callable = field(compare=False)
    contains_rule: Callable = field(compare=False)
    eq_rule: Callable | None = field(default=None, compare=False)
    escapes: Callable | None = field(default=None, compare=False)

    @property
    def elements(self) -> tuple:
        return self.window

    @cached_property
    def window_set(self) -> frozenset:
        """Window membership for the window-closed quantifiers."""
        return frozenset(self.window)

    @cached_property
    def _pair_tables(self) -> dict:
        """`pair_table`'s cache: (xs, right) -> PairTable."""
        return {}

    is_finite = False

    def checked(self, xs) -> tuple:
        """`xs` as a tuple; ValueError if an element fails `contains_rule`."""
        xs = tuple(xs)
        contains = self.contains_rule
        for x in xs:
            if not contains(x):
                raise ValueError(f"element outside domain of {self.name}: {x!r}")
        return xs

    @property
    def product(self) -> Callable:
        """xy by `compose_rule`, without the domain test: the rule itself."""
        return self.compose_rule

    def compose(self, x, y):
        return self.product(*self.checked((x, y)))

    def same_element(self, x, y) -> bool:
        return self.eq_rule(x, y) if self.eq_rule else x == y


Semigroup = FiniteSemigroup | ProceduralSemigroup


@dataclass(frozen=True)
class InvolutiveAutomorphism:
    """A map with sigma(sigma(x)) = x and sigma(xy) = sigma(x)sigma(y)."""

    name: str
    perm: tuple[int, ...] | None = None
    rule: Callable | None = field(default=None, compare=False)

    def __post_init__(self):
        if (self.perm is None) == (self.rule is None):
            raise ValueError("exactly one of perm / rule must be given")

    def __call__(self, x):
        return self.perm[x] if self.perm is not None else self.rule(x)


def identity_automorphism(s: Semigroup) -> InvolutiveAutomorphism:
    if s.is_finite:
        return InvolutiveAutomorphism("id", perm=tuple(range(s.order)))
    return InvolutiveAutomorphism("id", rule=lambda x: x)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def pair_products(s: Semigroup, xs, ys=None, sigma=None) -> Iterator[tuple]:
    """(x, y, x*sigma(y)) for x in `xs` (outer) and y in `ys` (inner).

    `checked` runs once on `xs` and once on the sigma-images of `ys` (on
    `ys` itself when `sigma` is omitted), before the first pair; each pair
    then takes the bare `product`.  With `ys` and `sigma` both omitted,
    `xs` serves as both lists and is checked once.  Factors that passed
    the check may be multiplied again with `s.product`, e.g. y*x by a
    caller that needs both orders.
    """
    xs = s.checked(xs)
    ys = xs if ys is None else tuple(ys)
    right = ys if sigma is None else map(sigma, ys)
    right = right if right is xs else s.checked(right)
    product = s.product
    return ((x, y, product(x, r)) for x in xs for y, r in zip(ys, right))


class PairTable(NamedTuple):
    """The distinct products x*r of two factor tuples, first seen x-major, and
    index[i, j], the position of xs[i]*right[j] in `products`."""

    products: tuple
    index: np.ndarray


def pair_table(s: Semigroup, xs: tuple, right: tuple) -> PairTable:
    """The PairTable of the checked factor tuples `xs` and `right`.

    The caller checks the factors; each pair then takes the bare `product`,
    once, when the table is built.  The table is cached on the carrier
    instance under (xs, right), so a later scan of the same factors takes
    no product.  `index` has the smallest unsigned dtype that holds every
    position and is read-only; it is filled in that dtype, widened (the
    rows so far copied) only when a row's positions outgrow it.
    """
    key = (xs, right)
    table = s._pair_tables.get(key)
    if table is None:
        product = s.product
        seen: dict = {}
        index = np.empty((len(xs), len(right)), np.uint8)
        for i, x in enumerate(xs):
            row = [seen.setdefault(p, len(seen)) for p in map(product, itertools.repeat(x), right)]
            if len(seen) - 1 > np.iinfo(index.dtype).max:
                wider = np.empty(index.shape, np.min_scalar_type(len(seen) - 1))
                wider[:i] = index[:i]
                index = wider
            index[i] = row
        index.flags.writeable = False
        table = s._pair_tables[key] = PairTable(tuple(seen), index)
    return table


def left_rows(s: Semigroup, xs, ys=None, escapes=None) -> Iterator[tuple]:
    """(x, [x*y for y in ys], {p: [p*z for z in xs]}) for x in `xs`, p
    running over the distinct products x*y, except those with escapes(p)
    when an `escapes` rule is given: such a p gets no row.

    `checked` runs once on each factor list before the first x (`ys`
    defaults to `xs`, which is then checked once), and once on each
    distinct product x*y over the whole scan, before it is a left factor.
    One x's rows are built when it is reached, so a caller holds one left
    factor's rows at a time.  The products x*y are computed here even
    where a caller already has them.  Factors and products that passed the
    check may be multiplied again with `s.product`.
    """
    xs = s.checked(xs)
    ys = xs if ys is None else s.checked(ys)
    product = s.product
    seen: set = set()
    for x in xs:
        xys = list(map(product, itertools.repeat(x), ys))
        distinct = dict.fromkeys(xys)
        seen.update(s.checked(p for p in distinct if p not in seen))
        rowed = distinct if escapes is None else itertools.filterfalse(escapes, distinct)
        yield x, xys, {p: list(map(product, itertools.repeat(p), xs)) for p in rowed}


def triple_sample(s: Semigroup) -> tuple:
    """Deterministic element subsample for triple-quantified window checks."""
    elems = s.elements
    if len(elems) <= TRIPLE_SAMPLE_CAP:
        return tuple(elems)
    step = -(-len(elems) // TRIPLE_SAMPLE_CAP)
    return tuple(elems[::step])


def validate(s: Semigroup) -> list[tuple]:
    """Closure/associativity violations on all checked triples; empty iff valid.

    Violations are data, not errors: ("closure", x, y) entries flag products
    outside the carrier (table values, or window products that fail the
    domain test), ("associativity", x, y, z) entries name a triple with
    (xy)z != x(yz).  Any closure entry ends the check before associativity.
    A window element outside a rule carrier's domain raises ValueError, as
    in every window scan: each window element is tested once, each window
    product once.
    """
    report: list[tuple] = []
    if s.is_finite:
        n = s.order
        bad_cells = set()
        for x in range(n):
            for y in range(n):
                v = s.cayley[x][y]
                if not isinstance(v, int) or not 0 <= v < n:
                    report.append(("closure", x, y))
                    bad_cells.add((x, y))
        if bad_cells:
            return report
        for x, y, z in itertools.product(range(n), repeat=3):
            if s.cayley[s.cayley[x][y]][z] != s.cayley[x][s.cayley[y][z]]:
                report.append(("associativity", x, y, z))
        return report
    elems = triple_sample(s)
    sampled = frozenset(elems)
    product = s.product
    yz = {}  # the closure scan's products of sampled elements, for x(yz)
    for x, y in itertools.product(s.checked(s.elements), repeat=2):
        try:
            (xy,) = s.checked((product(x, y),))
        except Exception:
            report.append(("closure", x, y))
            continue
        if x in sampled and y in sampled:
            yz[x, y] = xy
    if report:
        return report
    for x, xys, rows in left_rows(s, elems):
        for y, p in zip(elems, xys):
            for z, pz in zip(elems, rows[p]):
                if not s.same_element(pz, product(x, yz[y, z])):
                    report.append(("associativity", x, y, z))
    return report


def _same(s: Semigroup, a, b) -> bool:
    return a == b if s.is_finite else s.same_element(a, b)


def validate_automorphism(s: Semigroup, sigma: InvolutiveAutomorphism) -> list[tuple]:
    """Violations of involutivity / multiplicativity on the window."""
    report: list[tuple] = []
    for x in s.elements:
        if not _same(s, sigma(sigma(x)), x):
            report.append(("involution", x))
    elems = s.elements
    images = pair_products(s, [sigma(x) for x in elems], elems, sigma)
    for (x, y, xy), (_, _, sxsy) in zip(pair_products(s, elems), images):
        if not _same(s, sigma(xy), sxsy):
            report.append(("automorphism", x, y))
    return report


def product_set(s: Semigroup, t: Iterable) -> frozenset:
    """T^2 = {xy | x, y in T}, intersected with the window."""
    return s.window_set.intersection(xy for _, _, xy in pair_products(s, frozenset(t)))


def enumerate_involutive_automorphisms(s: FiniteSemigroup) -> list[InvolutiveAutomorphism]:
    """All involutive automorphisms, brute force over permutations.

    Canonically ordered (lexicographic by permutation); the identity is
    always first.
    """
    if not s.is_finite:
        raise TypeError("enumeration requires a finite carrier")
    if s.order > AUTOMORPHISM_ORDER_BOUND:
        raise ValueError(f"order {s.order} exceeds enumeration bound {AUTOMORPHISM_ORDER_BOUND}")
    n = s.order
    found = []
    for perm in itertools.permutations(range(n)):
        if any(perm[perm[x]] != x for x in range(n)):
            continue
        if all(
            perm[s.cayley[x][y]] == s.cayley[perm[x]][perm[y]]
            for x in range(n)
            for y in range(n)
        ):
            found.append(InvolutiveAutomorphism(_perm_name(perm), perm=perm))
    return found


def element_period(s: FiniteSemigroup, x: int) -> int:
    """Period p of the cyclic subsemigroup generated by x (x^(i+p) = x^i)."""
    (x,) = s.checked((x,))
    seen: dict[int, int] = {}
    cur, step = x, 1
    while cur not in seen:
        seen[cur] = step
        cur = s.product(cur, x)
        step += 1
    return step - seen[cur]


def _perm_name(perm: tuple[int, ...]) -> str:
    if all(p == i for i, p in enumerate(perm)):
        return "id"
    return "perm:" + ",".join(map(str, perm))


def is_central(s: Semigroup, f) -> bool:
    """f(xy) = f(yx) for all window pairs."""
    return all(
        values_equal(f(xy), f(s.product(y, x)), VERIFY_TOL)
        for x, y, xy in pair_products(s, s.elements)
    )


def is_abelian_fn(s: Semigroup, f) -> bool:
    """Central and f(xyz) = f(xzy) for all (sampled) window triples."""
    if not is_central(s, f):
        return False
    elems = triple_sample(s)
    idx = range(len(elems))
    for _, xys, rows in left_rows(s, elems):
        fxyz = {p: [f(q) for q in row] for p, row in rows.items()}
        if not all(values_equal(fxyz[xys[i]][j], fxyz[xys[j]][i], VERIFY_TOL) for i in idx for j in idx):
            return False
    return True
