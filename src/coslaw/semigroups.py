"""Semigroup carriers: finite Cayley tables and rule-defined structures.

Finite carriers use element indices 0..order-1.  Rule-defined
("procedural") carriers model infinite structures through a finite sample
window: axioms and universally quantified properties are checked on window
elements, while composition and function evaluation stay total so products
may leave the window.

The domain test is the carrier's ``contains_rule`` (on a finite carrier,
an integer index in range); ``checked`` raises ``IndexError`` or
``ValueError`` for the first element that fails it.  A rule carrier
checks its window once, when it is built, and a finite carrier's window
is range(order), so no scan tests a window element.  ``product`` is the
bare product (a Cayley lookup or ``compose_rule``) and tests nothing.
Window scans go through two helpers with one factor contract: a factor is
a window element or a sigma-image the scan has checked, and a product is
checked where it becomes a factor.  ``pair_blocks`` serves every
two-factor scan (the equation's residual, the pairwise laws of
``functions``, T^2, centrality, the closure scan of ``validate``,
automorphism checks and the G-identities of solutions) in row blocks
under one memory budget.  ``left_rows`` serves the three-factor scans
(the null set P_chi and the triple scans of ``validate``,
``is_abelian_fn`` and the G-identities of solutions), checking each
distinct product x*y before it becomes a left factor.  Finite and rule
carriers take the same scans.  ``compose`` is the single-product
convenience: ``checked`` on both arguments, then ``product``.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .exactnum import VERIFY_TOL, values_equal

AUTOMORPHISM_ORDER_BOUND = 8
TRIPLE_SAMPLE_CAP = 64  # triple-quantified checks subsample large windows


def _table_cell(v) -> int:
    """A Cayley table cell as an int; ValueError if it is not an integer."""
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError(f"Cayley table entry is not an integer: {v!r}") from None


@dataclass(frozen=True)
class FiniteSemigroup:
    """Order-n carrier with an n x n Cayley table (entry [x][y] = index of xy).

    Each cell is taken as an int by `operator.index` (numpy integers too);
    a cell that is not an integer raises ValueError, as a table that is not
    square does.  `validate` reports a cell out of range.
    """

    cayley: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.cayley)
        rows = tuple(tuple(row) for row in self.cayley)
        if any(len(row) != n for row in rows):
            raise ValueError("Cayley table must be square")
        object.__setattr__(self, "cayley", tuple(tuple(map(_table_cell, row)) for row in rows))

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

    is_finite = True
    escapes = None  # every product is in the window

    def contains_rule(self, x) -> bool:
        """Membership: x is an int (numpy integers too, bools not) in range."""
        return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and 0 <= x < self.order

    def checked(self, xs) -> tuple:
        """`xs` as a tuple; IndexError if an element fails `contains_rule`."""
        xs = tuple(xs)
        contains = self.contains_rule
        for x in xs:
            if not contains(x):
                raise IndexError(f"element index out of range: {x!r}")
        return xs

    def product(self, x: int, y: int) -> int:
        """xy by table lookup, without the domain test."""
        return self.cayley[x][y]

    def compose(self, x: int, y: int) -> int:
        return self.product(*self.checked((x, y)))

    def same_element(self, x: int, y: int) -> bool:
        return x == y


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

    def __post_init__(self):
        object.__setattr__(self, "window", self.checked(self.window))

    @property
    def elements(self) -> tuple:
        return self.window

    @cached_property
    def window_set(self) -> frozenset:
        """Window membership for the window-closed quantifiers."""
        return frozenset(self.window)

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


# a pair scan of at most this many cells is one block, kept on the carrier;
# `ScalarFunction`'s memo is cleared when it reaches this size
PAIR_BLOCK_CELLS = 1 << 17


class PairTable(NamedTuple):
    """A block of rows of a pair scan: the distinct products x*r, first seen
    x-major, and index[i, j], the position of xs[start + i]*right[j]."""

    products: tuple
    index: np.ndarray
    start: int = 0


def pair_blocks(s: Semigroup, xs: tuple, right: tuple) -> Iterator[PairTable]:
    """The pairs of the checked factor tuples `xs` and `right` as PairTable
    blocks of whole rows, x-major, each of at most PAIR_BLOCK_CELLS cells
    (or one row).  Each pair takes the bare `product` once, when its block
    is read.  A scan of at most PAIR_BLOCK_CELLS cells is one block, cached
    on the carrier instance under (xs, right), so a later scan of the same
    factors takes no product; a larger one is kept by no one.  A block's
    `index` is filled in uint32 and narrowed to the smallest unsigned dtype
    that holds every position; it is read-only.
    """
    if len(xs) * len(right) > PAIR_BLOCK_CELLS:
        rows = PAIR_BLOCK_CELLS // len(right) or 1
        yield from (_pair_block(s, xs[i:i + rows], right, i) for i in range(0, len(xs), rows))
        return
    key, kept = (xs, right), vars(s).setdefault("_pair_tables", {})
    if key not in kept:
        kept[key] = _pair_block(s, xs, right, 0)
    yield kept[key]


def _pair_block(s: Semigroup, xs: tuple, right: tuple, start: int) -> PairTable:
    product = s.product
    seen: dict = {}
    index = np.empty((len(xs), len(right)), np.uint32)
    for i, x in enumerate(xs):
        index[i] = [seen.setdefault(p, len(seen)) for p in map(product, itertools.repeat(x), right)]
    index = index.astype(np.min_scalar_type(max(len(seen) - 1, 0)), copy=False)
    index.flags.writeable = False
    return PairTable(tuple(seen), index, start)


def left_rows(s: Semigroup, xs, ys=None, escapes=None) -> Iterator[tuple]:
    """(x, [x*y for y in ys], {p: [p*z for z in xs]}) for x in `xs`, p
    running over the distinct products x*y, except those with escapes(p)
    when an `escapes` rule is given: such a p gets no row.

    `xs` and `ys` (default `xs`) are window elements; `checked` runs on
    each distinct product x*y that has not had a row yet, before it is a
    left factor.  The scan remembers only the products that got a row (on
    the naturals from 2, those in the window), so an escaping product is
    checked again in each row where it appears.
    One x's rows are built when it is reached, so a caller holds one left
    factor's rows at a time.  The products x*y are computed here even
    where a caller already has them.  Factors and products that passed the
    check may be multiplied again with `s.product`.
    """
    ys = xs if ys is None else ys
    product = s.product
    seen: set = set()
    for x in xs:
        xys = list(map(product, itertools.repeat(x), ys))
        distinct = dict.fromkeys(xys)
        s.checked(p for p in distinct if p not in seen)
        rowed = distinct if escapes is None else [p for p in distinct if not escapes(p)]
        seen.update(rowed)
        yield x, xys, {p: list(map(product, itertools.repeat(p), xs)) for p in rowed}


def triple_sample(s: Semigroup) -> tuple:
    """Elements for triple-quantified checks: every element of a finite
    carrier, and a deterministic subsample of a window of more than
    TRIPLE_SAMPLE_CAP elements."""
    elems = s.elements
    if s.is_finite or len(elems) <= TRIPLE_SAMPLE_CAP:
        return tuple(elems)
    step = -(-len(elems) // TRIPLE_SAMPLE_CAP)
    return tuple(elems[::step])


def validate(s: Semigroup) -> list[tuple]:
    """Closure/associativity violations, x-major; empty iff none was found.

    Violations are data, not errors: ("closure", x, y) entries flag products
    xy that fail the carrier's `contains_rule` (a table cell out of range,
    or a window product outside a rule carrier's domain), and
    ("associativity", x, y, z) entries name a triple with (xy)z != x(yz).
    Closure is checked on every pair of elements; associativity on every
    triple of a finite carrier and on the triples of `triple_sample`'s
    TRIPLE_SAMPLE_CAP elements of a larger window.  Any closure entry ends
    the check before associativity.  Each distinct product of a pair block
    is tested once; a rule that raises propagates, as in every window scan.
    """
    report: list[tuple] = []
    elems, contains = s.elements, s.contains_rule
    for t in pair_blocks(s, elems, elems):
        outside = {k for k, p in enumerate(t.products) if not contains(p)}
        if outside:
            report.extend(("closure", x, y) for x, row in zip(elems[t.start:], t.index.tolist())
                          for y, k in zip(elems, row) if k in outside)
    if report:
        return report
    elems, product = triple_sample(s), s.product
    # the rows y*z, in the carrier (checked above); on a finite carrier the
    # closure scan's kept table
    yz = [list(map(t.products.__getitem__, row))
          for t in pair_blocks(s, elems, elems) for row in t.index.tolist()]
    for x, xys, rows in left_rows(s, elems):
        for y, p, row in zip(elems, xys, yz):
            x_yz = list(map(product, itertools.repeat(x), row))
            if rows[p] != x_yz:
                report.extend(("associativity", x, y, z) for z, a, b in zip(elems, rows[p], x_yz)
                              if not s.same_element(a, b))
    return report


def validate_automorphism(s: Semigroup, sigma: InvolutiveAutomorphism) -> list[tuple]:
    """Violations of involutivity / multiplicativity on the window."""
    elems = s.elements
    report = [("involution", x) for x in elems if not s.same_element(sigma(sigma(x)), x)]
    images = s.checked(map(sigma, elems))
    for t, ti in zip(pair_blocks(s, elems, elems), pair_blocks(s, images, images)):
        for i, row, irow in zip(itertools.count(t.start), t.index.tolist(), ti.index.tolist()):
            for j, k, ki in zip(itertools.count(), row, irow):
                if not s.same_element(sigma(t.products[k]), ti.products[ki]):
                    report.append(("automorphism", elems[i], elems[j]))
    return report


def product_set(s: Semigroup, t: Iterable) -> frozenset:
    """T^2 = {xy | x, y in T}, intersected with the window."""
    ts = s.checked(frozenset(t))
    return s.window_set.intersection(p for b in pair_blocks(s, ts, ts) for p in b.products)


def non_products(s: Semigroup) -> list:
    """S \\ S^2 on the window, sorted: the elements that are no product of two."""
    return sorted(set(s.elements) - product_set(s, s.elements))


def enumerate_involutive_automorphisms(s: FiniteSemigroup) -> list[InvolutiveAutomorphism]:
    """All involutive automorphisms, brute force over permutations.

    Canonically ordered (lexicographic by permutation); the identity is
    always first.
    """
    if not s.is_finite:
        raise TypeError("enumeration requires a finite carrier")
    if s.order > AUTOMORPHISM_ORDER_BOUND:
        raise ValueError(f"order {s.order} exceeds enumeration bound {AUTOMORPHISM_ORDER_BOUND}")
    cells = [(x, y, t.products[k]) for t in pair_blocks(s, s.elements, s.elements)
             for x, row in enumerate(t.index.tolist(), t.start) for y, k in enumerate(row)]
    return [
        InvolutiveAutomorphism(_perm_name(perm), perm=perm)
        for perm in itertools.permutations(range(s.order))
        if all(perm[perm[x]] == x for x in range(s.order))
        and all(perm[xy] == s.product(perm[x], perm[y]) for x, y, xy in cells)
    ]


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
    elems = s.elements
    return all(
        values_equal(f(t.products[k]), f(s.product(elems[j], elems[i])), VERIFY_TOL)
        for t in pair_blocks(s, elems, elems)
        for i, row in enumerate(t.index.tolist(), t.start)
        for j, k in enumerate(row)
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
