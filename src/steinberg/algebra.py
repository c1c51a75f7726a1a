"""Exact rational group algebra of a Weyl group.

Elements are sparse maps from group elements to Fraction coefficients.
The module provides the trivial and sign idempotents of parabolic
subgroups, the two-sided averaging projectors built from them, and exact
row reduction for computing dimensions of the resulting subspaces.  All
arithmetic is rational; nothing here rounds.  The two hot kernels, the
convolution product and the row reducer, work on integer numerators over
a common denominator, so Fraction appears only where coefficients enter
and leave them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import InvalidSubset, MixedGroups
from .parabolic import double_cosets, parabolic_elements
from .rootsys import WeylElement, WeylGroup, word_name

_ONE = Fraction(1)


class AlgebraElement:
    """Sparse rational linear combination of Weyl group elements.

    Coefficients are keyed internally by enumeration index; zero
    coefficients are never stored.  Keys may be elements of the same group
    or enumeration indices in range(group.order); anything else raises
    ValueError.  Instances are immutable: all operations return new
    elements.
    """

    __slots__ = ("group", "_c")

    def __init__(self, group: WeylGroup, coeffs=None):
        self.group = group
        clean: dict[int, Fraction] = {}
        if coeffs:
            for key, value in coeffs.items():
                if isinstance(key, WeylElement):
                    if key.group is not group:
                        raise MixedGroups("coefficient keyed by foreign element")
                    key = key.index
                elif (
                    not isinstance(key, int)
                    or isinstance(key, bool)
                    or not 0 <= key < group.order
                ):
                    raise ValueError(
                        f"coefficient key {key!r} is neither an element of this "
                        f"group nor an index in range({group.order})"
                    )
                q = Fraction(value)
                if q:
                    clean[key] = q
        self._c = clean

    @classmethod
    def _raw(cls, group: WeylGroup, coeffs: dict[int, Fraction]) -> AlgebraElement:
        out = cls.__new__(cls)
        out.group = group
        out._c = coeffs
        return out

    def coefficient(self, w: WeylElement) -> Fraction:
        return self._c.get(w.index, Fraction(0))

    @property
    def support(self) -> tuple[WeylElement, ...]:
        elements = self.group.elements
        return tuple(elements[x] for x in sorted(self._c))

    def items(self):
        """(element, coefficient) pairs in enumeration order."""
        elements = self.group.elements
        return [(elements[x], self._c[x]) for x in sorted(self._c)]

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        _same_group(self, other)
        out = dict(self._c)
        for x, q in other._c.items():
            s = out.get(x, 0) + q
            if s:
                out[x] = s
            elif x in out:
                del out[x]
        return AlgebraElement._raw(self.group, out)

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        _same_group(self, other)
        out = dict(self._c)
        for x, q in other._c.items():
            s = out.get(x, 0) - q
            if s:
                out[x] = s
            elif x in out:
                del out[x]
        return AlgebraElement._raw(self.group, out)

    def __neg__(self):
        return AlgebraElement._raw(self.group, {x: -q for x, q in self._c.items()})

    def scale(self, q) -> AlgebraElement:
        q = Fraction(q)
        if not q:
            return AlgebraElement._raw(self.group, {})
        return AlgebraElement._raw(self.group, {x: q * c for x, c in self._c.items()})

    def __mul__(self, other):
        """Convolution product, or scaling by an int or Fraction.

        Each operand is written as integer numerators over its common
        denominator; the double loop accumulates integer products per
        output element and one Fraction(n, da * db) is built per nonzero
        output coefficient.
        """
        if isinstance(other, AlgebraElement):
            _same_group(self, other)
            na, da = _numerators(self._c)
            nb, db = _numerators(other._c)
            prod = self.group.product_index
            acc: dict[int, int] = {}
            for x, a in na.items():
                for y, b in nb.items():
                    k = prod(x, y)
                    acc[k] = acc.get(k, 0) + a * b
            d = da * db
            return AlgebraElement._raw(
                self.group, {k: Fraction(n, d) for k, n in acc.items() if n}
            )
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and other.group is self.group
            and other._c == self._c
        )

    def __hash__(self):
        return hash((id(self.group), frozenset(self._c.items())))

    def __repr__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for w, q in self.items():
            name = word_name(w.canonical_word) or "e"
            parts.append(f"{q}*{name}")
        return " + ".join(parts)

    def to_jsonable(self) -> dict[str, str]:
        """Canonical word -> coefficient string, identity rendered as ""."""
        elements = self.group.elements
        return {
            word_name(elements[x].canonical_word): str(self._c[x])
            for x in sorted(self._c)
        }


def _numerators(coeffs: dict[int, Fraction]) -> tuple[dict[int, int], int]:
    """Integer numerators over the lcm d of the denominators: q = n / d."""
    d = lcm(*{q.denominator for q in coeffs.values()})
    return {k: q.numerator * (d // q.denominator) for k, q in coeffs.items()}, d


def _same_group(a: AlgebraElement, b: AlgebraElement) -> None:
    if a.group is not b.group:
        raise MixedGroups("operands live in different group algebras")


def delta(w: WeylElement) -> AlgebraElement:
    """Basis vector of one group element."""
    return AlgebraElement._raw(w.group, {w.index: _ONE})


def zero(group: WeylGroup) -> AlgebraElement:
    return AlgebraElement._raw(group, {})


def add(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    return a + b


def scale(q, a: AlgebraElement) -> AlgebraElement:
    return a.scale(q)


def mul(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Convolution product extending the group law bilinearly."""
    return a * b


def trivial_idempotent(group: WeylGroup, J) -> AlgebraElement:
    """e_J: uniform average over the parabolic W_J.  Satisfies e_J^2 = e_J."""
    members = parabolic_elements(group, J)
    q = Fraction(1, len(members))
    return AlgebraElement._raw(group, {w.index: q for w in members})


def sign_idempotent(group: WeylGroup, J) -> AlgebraElement:
    """eps_J: sign-weighted average over W_J.  Satisfies eps_J^2 = eps_J."""
    members = parabolic_elements(group, J)
    q = Fraction(1, len(members))
    return AlgebraElement._raw(
        group, {w.index: -q if w.length % 2 else q for w in members}
    )


def biact(w: WeylElement, wprime: WeylElement, v: AlgebraElement) -> AlgebraElement:
    """Two-sided action (w, w') . v = delta_{w'} * v * delta_{w^-1}.

    This is a left action of W x W on the group algebra: the first factor
    acts by right translation with the inverse, the second by left
    translation.
    """
    group = v.group
    if w.group is not group or wprime.group is not group:
        raise MixedGroups("acting elements live in a different group")
    prod = group.product_index
    wi = group.inverse_index(w.index)
    wp = wprime.index
    return AlgebraElement._raw(
        group, {prod(prod(wp, x), wi): q for x, q in v._c.items()}
    )


def average(J, K, v: AlgebraElement) -> AlgebraElement:
    """Projection onto the (W_J, W_K)-invariants: e_K * v * e_J.

    The image of delta_w is the uniform distribution on the double coset
    W_K w W_J, so the image of the projector has one dimension per
    (W_K, W_J) double coset.
    """
    group = v.group
    return trivial_idempotent(group, K) * v * trivial_idempotent(group, J)


def sign_average(J, K, v: AlgebraElement) -> AlgebraElement:
    """Projection onto the (W_J, W_K)-anti-invariants: eps_K * v * eps_J."""
    group = v.group
    return sign_idempotent(group, K) * v * sign_idempotent(group, J)


@dataclass(frozen=True)
class SubspaceBasis:
    """An exactly verified independent family and its span dimension."""

    vectors: tuple[AlgebraElement, ...]
    dimension: int


class _Reducer:
    """Incremental fraction-free forward echelon form over the integers.

    A row enters as its integer numerators (scaling a row by the lcm of
    its denominators does not change any span).  Its pivot is its largest
    column.  A row whose pivot column is taken is eliminated by
    row <- b*row - a*pivot_row, with a/b the two pivot entries in lowest
    terms; that clears the column and only touches smaller ones, so the
    row's pivot strictly drops and the loop ends.  A row left nonzero
    becomes a new pivot row, divided by the gcd of its entries.  Stored
    rows are never back-substituted, so k disjoint insertions cost O(k),
    and the families reduced here (disjoint coset vectors, the kernel
    differences delta_w - delta_rep with rep the smallest index of its
    coset, the pairs delta_x - delta_xs) take a fresh pivot at once.
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}

    def insert(self, coeffs: dict[int, Fraction]) -> bool:
        """Reduce a row; returns True when it enlarges the span."""
        row, _ = _numerators(coeffs)
        pivots = self.pivots
        while row:
            p = max(row)
            piv = pivots.get(p)
            if piv is None:
                g = gcd(*row.values())
                pivots[p] = {k: v // g for k, v in row.items()}
                return True
            a, b = row[p], piv[p]
            g = gcd(a, b)
            a, b = a // g, b // g
            if b != 1:
                row = {k: b * v for k, v in row.items()}
            for k, v in piv.items():
                s = row.get(k, 0) - a * v
                if s:
                    row[k] = s
                else:
                    del row[k]
        return False


def span_dimension(vectors) -> SubspaceBasis:
    """Exact span dimension of a family of algebra elements.

    Returns the subsequence of input vectors that raised the rank of the
    vectors before them (in input order); its length is the dimension.
    Vector i is kept iff it is not in the span of vectors 0..i-1, which
    depends on the input alone, so the subsequence is the same for any
    exact elimination order or pivot rule (here: integer forward
    elimination on the largest column, see _Reducer).
    """
    vectors = list(vectors)
    group = None
    reducer = _Reducer()
    kept: list[AlgebraElement] = []
    for v in vectors:
        if group is None:
            group = v.group
        elif v.group is not group:
            raise MixedGroups("vectors live in different group algebras")
        if reducer.insert(v._c):
            kept.append(v)
    return SubspaceBasis(vectors=tuple(kept), dimension=len(kept))


def invariant_basis(group: WeylGroup, J, K) -> SubspaceBasis:
    """Basis of e_K QW e_J: one uniform vector per (W_K, W_J) double coset."""
    dec = double_cosets(group, K, J)
    vectors = []
    for coset in dec.cosets:
        q = Fraction(1, coset.size)
        vectors.append(
            AlgebraElement._raw(group, {w.index: q for w in coset.elements})
        )
    return span_dimension(vectors)


def anti_invariant_basis(group: WeylGroup, J, K) -> SubspaceBasis:
    """Basis of eps_K QW eps_J: sign-averaged maximal coset representatives.

    Exact zeros (cosets whose sign character is not free) are discarded
    before row reduction.
    """
    dec = double_cosets(group, K, J)
    vectors = []
    for coset in dec.cosets:
        v = sign_average(J, K, delta(coset.max_rep))
        if v:
            vectors.append(v)
    return span_dimension(vectors)


def right_sign_eigenspace(group: WeylGroup, s: int) -> SubspaceBasis:
    """Basis of the -1 eigenspace of right multiplication by one reflection.

    Pairs x with xs: the differences delta_x - delta_{xs} over the |W|/2
    pairs span {v : v * delta_s = -v}.
    """
    if not 0 <= s < group.rank:
        raise InvalidSubset(f"reflection index {s} out of range for rank {group.rank}")
    vectors = []
    for x in range(group.order):
        y = group.right_index(x, s)
        if x < y:
            vectors.append(
                AlgebraElement._raw(group, {x: _ONE, y: Fraction(-1)})
            )
    return span_dimension(vectors)
