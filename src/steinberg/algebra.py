"""Exact rational group algebra of a Weyl group.

An element stores its coefficients as integer numerators over one
positive common denominator, in lowest terms; Fraction appears only where
coefficients enter (the constructor, ``scale``) and leave (``coefficient``,
``items``, ``repr``).  The module provides the trivial and
sign idempotents of parabolic subgroups, the two-sided averaging
projectors built from them, and exact row reduction for computing
dimensions of the resulting subspaces.  All arithmetic is exact; nothing
here rounds.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .errors import InvalidSubset, MixedGroups
from .parabolic import double_cosets, parabolic_elements
from .rootsys import WeylElement, WeylGroup


class AlgebraElement:
    """Sparse rational linear combination of Weyl group elements.

    The coefficient of the element with enumeration index x is
    ``_n[x] / _d``: ``_n`` holds the nonzero integer numerators and ``_d``
    is one positive denominator, with ``gcd(_d, *_n.values()) == 1`` (so
    ``_d == 1`` for zero).  The form is canonical, so equal elements have
    equal fields.  Keys may be elements of the same group or enumeration
    indices in range(group.order), values ints or Fractions; anything else,
    or one element given twice (as itself and as its index), raises
    ValueError.  Instances are immutable: all operations return new
    elements.
    """

    __slots__ = ("group", "_n", "_d")

    def __init__(self, group: WeylGroup, coeffs=None):
        clean: dict[int, int | Fraction] = {}
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
                if key in clean:
                    raise ValueError(f"coefficient key for index {key} given twice")
                clean[key] = _exact(value)
        d = lcm(*{q.denominator for q in clean.values()})
        self.group = group
        self._n, self._d = _lowest(
            {x: q.numerator * (d // q.denominator) for x, q in clean.items()}, d
        )

    @classmethod
    def _raw(
        cls, group: WeylGroup, num: dict[int, int], d: int = 1
    ) -> AlgebraElement:
        """The element num / d in lowest terms (zeros dropped); needs d > 0.

        ``num`` must be a fresh dict: the element may keep it as it is.
        """
        out = cls.__new__(cls)
        out.group = group
        out._n, out._d = _lowest(num, d)
        return out

    def coefficient(self, w: WeylElement) -> Fraction:
        if w.group is not self.group:
            raise MixedGroups("coefficient of a foreign element")
        return Fraction(self._n.get(w.index, 0), self._d)

    @property
    def support(self) -> tuple[WeylElement, ...]:
        elements = self.group.elements
        return tuple(elements[x] for x in sorted(self._n))

    def items(self):
        """(element, coefficient) pairs in enumeration order."""
        elements, num, d = self.group.elements, self._n, self._d
        return [(elements[x], Fraction(num[x], d)) for x in sorted(num)]

    def is_zero(self) -> bool:
        return not self._n

    def __bool__(self) -> bool:
        return bool(self._n)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign: int):
        """self + sign * other over the lcm of the two denominators."""
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        _same_group(self, other)
        d = lcm(self._d, other._d)
        fa, fb = d // self._d, sign * (d // other._d)
        out = {x: fa * n for x, n in self._n.items()}
        for x, n in other._n.items():
            out[x] = out.get(x, 0) + fb * n
        return AlgebraElement._raw(self.group, out, d)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, q) -> AlgebraElement:
        a = _exact(q).numerator
        return AlgebraElement._raw(
            self.group, {x: a * n for x, n in self._n.items()}, self._d * q.denominator
        )

    def __mul__(self, other):
        """Convolution product self·δ_e·other, or scaling by an int or Fraction."""
        if isinstance(other, AlgebraElement):
            return next(_sandwiches(self, [0], other))
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__  # only ever reached with a scalar on the left

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and other.group is self.group
            and other._d == self._d
            and other._n == self._n
        )

    def __hash__(self):
        return hash((id(self.group), self._d, frozenset(self._n.items())))

    def __repr__(self) -> str:
        if not self._n:
            return "0"
        return " + ".join(f"{q}*{w.name}" for w, q in self.items())

    def to_jsonable(self) -> dict[str, str]:
        """Canonical word -> coefficient string, identity rendered as "".

        Each coefficient is written as ``str(Fraction)`` writes it, "n" or
        "n/d" in lowest terms, straight from its numerator.
        """
        name, num, d = self.group.word_name_of, self._n, self._d
        out = {}
        for x in sorted(num):
            n = num[x]
            g = gcd(n, d)
            out[name(x)] = f"{n // g}/{d // g}" if g != d else str(n // g)
        return out


def _exact(q) -> int | Fraction:
    """q itself if it is an int (not a bool) or a Fraction; else ValueError."""
    if isinstance(q, bool) or not isinstance(q, (int, Fraction)):
        raise ValueError(f"coefficient {q!r} is neither an int nor a Fraction")
    return q


def _lowest(num: dict[int, int], d: int) -> tuple[dict[int, int], int]:
    """num / d divided by gcd(d, *num.values()), zero numerators dropped.

    ``num`` itself is returned when it is already in lowest terms, so it
    must be a dict that nothing else holds or changes.
    """
    g = gcd(d, *num.values())
    if g == 1 and all(num.values()):
        return num, d
    return {x: n // g for x, n in num.items() if n}, d // g


def _same_group(a: AlgebraElement, b: AlgebraElement) -> None:
    if a.group is not b.group:
        raise MixedGroups("operands live in different group algebras")


def _sandwiches(
    a: AlgebraElement, xs, b: AlgebraElement
) -> Iterator[AlgebraElement]:
    """a·δ_x·b for each element index x in xs, in order: one convolution pass.

    a's product rows and b's keys and numerators are fetched once.  For
    each x, δ_x·b is read off one row as (x·v, b_v) pairs; the double loop
    then accumulates the integer products a_u·b_v at u·x·v, and one
    lowest-terms step over a._d·b._d follows.  The products are yielded
    one at a time, so a caller that compares each with something holds
    only one of them.  ``a * b`` is the case xs = [0], the identity.
    """
    group = a.group
    _same_group(a, b)
    product_row = group.product_row
    left = [(product_row(u), n) for u, n in a._n.items()]
    keys, nums = list(b._n), list(b._n.values())
    d = a._d * b._d
    for x in xs:
        xb = list(zip(map(product_row(x).__getitem__, keys), nums))
        acc: dict[int, int] = {}
        for row, m in left:
            for y, n in xb:
                k = row[y]
                acc[k] = acc.get(k, 0) + m * n
        yield AlgebraElement._raw(group, acc, d)


def delta(w: WeylElement) -> AlgebraElement:
    """Basis vector of one group element."""
    return AlgebraElement._raw(w.group, {w.index: 1})


def trivial_idempotent(group: WeylGroup, J) -> AlgebraElement:
    """e_J: uniform average over the parabolic W_J.  Satisfies e_J^2 = e_J."""
    members = parabolic_elements(group, J)
    return AlgebraElement._raw(group, {w.index: 1 for w in members}, len(members))


def sign_idempotent(group: WeylGroup, J) -> AlgebraElement:
    """eps_J: sign-weighted average over W_J.  Satisfies eps_J^2 = eps_J."""
    members = parabolic_elements(group, J)
    return AlgebraElement._raw(
        group, {w.index: -1 if w.length % 2 else 1 for w in members}, len(members)
    )


def biact(w: WeylElement, wprime: WeylElement, v: AlgebraElement) -> AlgebraElement:
    """Two-sided action (w, w') . v = delta_{w'} * v * delta_{w^-1}.

    This is a left action of W x W on the group algebra: the first factor
    acts by right translation with the inverse, the second by left
    translation.
    """
    return delta(wprime) * v * delta(~w)


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


class SubspaceBasis(NamedTuple):
    """An exactly verified independent family and its span dimension."""

    vectors: tuple[AlgebraElement, ...]
    dimension: int


class _Reducer:
    """Incremental fraction-free forward echelon form over the integers.

    A row enters as an element's integer numerators (dropping the common
    denominator does not change any span).  Its pivot is its largest
    column.  A row whose pivot column is taken is eliminated by
    row <- b*row - a*pivot_row, with a/b the two pivot entries in lowest
    terms; that clears the column and only touches smaller ones, so the
    row's pivot strictly drops and the loop ends.  A row left nonzero
    becomes a new pivot row, divided by the gcd of its entries.  Stored
    rows are never back-substituted, so k disjoint insertions cost O(k),
    and the families reduced here (disjoint coset vectors, the pairs
    delta_x - delta_xs) take a fresh pivot at once.
    """

    __slots__ = ("pivots",)

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}

    def insert(self, num: dict[int, int]) -> bool:
        """Reduce a row; returns True when it enlarges the span.

        ``num`` is copied on its first elimination, never modified, and
        stored as it is when it takes a fresh pivot with content 1.
        """
        row = num
        pivots = self.pivots
        while row:
            p = max(row)
            piv = pivots.get(p)
            if piv is None:
                g = gcd(*row.values())
                pivots[p] = row if g == 1 else {k: v // g for k, v in row.items()}
                return True
            a, b = row[p], piv[p]
            g = gcd(a, b)
            a, b = a // g, b // g
            if b != 1:
                row = {k: b * v for k, v in row.items()}
            elif row is num:
                row = dict(num)
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
        if reducer.insert(v._n):
            kept.append(v)
    return SubspaceBasis(vectors=tuple(kept), dimension=len(kept))


def invariant_basis(group: WeylGroup, J, K) -> SubspaceBasis:
    """Basis of e_K QW e_J: one uniform vector per (W_K, W_J) double coset."""
    return _invariant_basis(group, double_cosets(group, K, J))


def _invariant_basis(group: WeylGroup, cosets) -> SubspaceBasis:
    raw = AlgebraElement._raw
    return span_dimension([raw(group, dict.fromkeys(xs, 1), len(xs)) for xs in cosets])


def anti_invariant_basis(group: WeylGroup, J, K) -> SubspaceBasis:
    """Basis of eps_K QW eps_J: sign-averaged maximal coset representatives.

    No vector is zero: the coefficient of w in eps_K·δ_m·eps_J is
    sgn(w)·sgn(m)·#{(u, u') in W_K x W_J : u·m·u' = w}/(|W_K|·|W_J|), which
    is nonzero on the whole coset of m.  (Zeros arise only in the mixed
    space e_K·QW·eps_J, where the two twists can cancel.)
    """
    return _anti_invariant_basis(
        double_cosets(group, K, J), sign_idempotent(group, K), sign_idempotent(group, J)
    )


def _anti_invariant_basis(cosets, eps_k, eps_j) -> SubspaceBasis:
    """eps_k·δ_m·eps_j for the max rep m of each coset, ranked."""
    return span_dimension(_sandwiches(eps_k, [xs[-1] for xs in cosets], eps_j))


def right_sign_eigenspace(group: WeylGroup, s: int) -> SubspaceBasis:
    """Basis of the -1 eigenspace of right multiplication by one reflection.

    Pairs x with xs: the differences delta_x - delta_{xs} over the |W|/2
    pairs span {v : v * delta_s = -v}.
    """
    if isinstance(s, bool) or not isinstance(s, int) or not 0 <= s < group.rank:
        raise InvalidSubset(f"reflection index {s!r} out of range for rank {group.rank}")
    vectors, right = [], group._right[s]
    for x in range(group.order):
        y = right[x]
        if x < y:
            vectors.append(AlgebraElement._raw(group, {x: 1, y: -1}))
    return span_dimension(vectors)
