"""Finite root systems and Weyl groups built from Cartan matrices.

Roots are integer coefficient vectors over the simple roots.  A Weyl group
is enumerated as the orbit of rho (Casselman, "Machine calculations in Weyl
groups", 1994): w is keyed by w^-1 rho in fundamental-weight coordinates,
a rank-length integer tuple, so s_i is a right descent of w exactly when
coordinate i is negative, and w·s_i has the key reflected in alpha_i.  Only
the keys of the frontier are formed; what the group keeps are index tables
(right and left multiplication by s_i, inverse, descents, lengths).
Enumeration is breadth-first by length with lexicographic tie-breaking on
the minimal reduced word; every downstream index (cosets, algebra
coefficients, report rows) inherits that order.
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import NamedTuple

from .errors import (
    InvalidSubset,
    MixedGroups,
    NotFiniteType,
    NotGeneralizedCartan,
    OrderCapExceeded,
    ParseError,
)

DEFAULT_ORDER_CAP = 51840
DEFAULT_ROOT_CAP = 1200

# Full multiplication tables are only materialized up to this group order,
# on the first product; larger groups fold a canonical word per product.
_PRODUCT_TABLE_LIMIT = 2500


class CartanDatum(NamedTuple):
    """A validated Cartan matrix with display labels for the simple roots.

    ``type_name`` is the classification tag named by ``_classify`` from the
    root closure, components joined with ``x`` (e.g. ``"A1xB3"``).
    """

    matrix: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    type_name: str | None = None

    @property
    def rank(self) -> int:
        return len(self.matrix)


class Root(NamedTuple):
    """Integer coefficient vector over the simple roots."""

    coords: tuple[int, ...]

    @property
    def height(self) -> int:
        return sum(self.coords)

    @property
    def is_positive(self) -> bool:
        return all(c >= 0 for c in self.coords) and any(self.coords)

    def __repr__(self) -> str:
        return f"Root({self.coords})"


def _closure(matrix: tuple[tuple[int, ...], ...], cap: int) -> list[tuple[int, ...]]:
    """All positive roots by reflection closure of the simple roots.

    Applying a simple reflection to a positive root changes one coordinate;
    the result is either positive again or the negated simple root itself,
    so it suffices to keep the all-nonnegative images.  Divergence of this
    loop is exactly failure of finite type, hence the cap; a finite type
    with more roots than the cap (A49 has 1,225) is refused as well.
    """
    rank = len(matrix)
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    seen: set[tuple[int, ...]] = set(simple)
    frontier = list(simple)
    while frontier:
        fresh: list[tuple[int, ...]] = []
        for beta in frontier:
            for i in range(rank):
                pairing = sum(matrix[i][j] * beta[j] for j in range(rank))
                c = beta[i] - pairing
                if c < 0:
                    continue
                gamma = beta[:i] + (c,) + beta[i + 1 :]
                if gamma not in seen:
                    seen.add(gamma)
                    fresh.append(gamma)
        if len(seen) > cap:
            raise NotFiniteType(
                f"root closure exceeded {cap} positive roots; matrix is not of "
                f"finite type, or its root system is larger than the cap"
            )
        frontier = fresh
    return sorted(seen, key=lambda v: (sum(v), tuple(-c for c in v)))


def validate_cartan(matrix, labels=None) -> CartanDatum:
    """Check the generalized Cartan conditions and finite type.

    Returns a :class:`CartanDatum` whose ``type_name`` is the standard
    classification tag (components joined with ``x``), or ``None`` if the
    matrix matches no standard diagram.
    """
    if not isinstance(matrix, (list, tuple)) or not all(
        isinstance(row, (list, tuple)) for row in matrix
    ):
        raise NotGeneralizedCartan("matrix must be a list of rows")
    rows = [tuple(row) for row in matrix]
    rank = len(rows)
    if rank == 0:
        raise NotGeneralizedCartan("empty matrix")
    if any(len(row) != rank for row in rows):
        raise NotGeneralizedCartan("matrix must be square")
    for i in range(rank):
        for j in range(rank):
            a = rows[i][j]
            if not isinstance(a, int) or isinstance(a, bool):
                raise NotGeneralizedCartan(f"entry ({i},{j}) is not an integer")
            if i == j and a != 2:
                raise NotGeneralizedCartan(f"diagonal entry ({i},{i}) = {a}, expected 2")
            if i != j and a > 0:
                raise NotGeneralizedCartan(f"off-diagonal entry ({i},{j}) = {a} is positive")
            if i != j and (a == 0) != (rows[j][i] == 0):
                raise NotGeneralizedCartan(
                    f"entries ({i},{j}) and ({j},{i}) must vanish together"
                )
            # finite type bounds each bond a_ij·a_ji by 3 (Kac §4.8); checked
            # here, since _closure would first grow coordinates without bound
            if j < i and a * rows[j][i] > 3:
                raise NotFiniteType(f"entries ({j},{i}) and ({i},{j}) multiply to more "
                                    f"than 3, so the matrix is not of finite type")
    mat = tuple(rows)
    roots = _closure(mat, DEFAULT_ROOT_CAP)
    if labels is None:
        labels = tuple(f"s{i + 1}" for i in range(rank))
    elif not isinstance(labels, (list, tuple)):
        raise NotGeneralizedCartan("labels must be a list")
    else:
        labels = tuple(str(x) for x in labels)
        if len(labels) != rank:
            raise NotGeneralizedCartan(
                f"{len(labels)} labels given for a rank {rank} matrix"
            )
    return CartanDatum(matrix=mat, labels=labels, type_name=_classify(mat, roots))


_NAME_RE = re.compile(r"^([A-G])([0-9]+)$")


def standard_cartan(letter: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Standard Cartan matrix for one simple type, Bourbaki numbering."""
    def blank() -> list[list[int]]:
        return [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def link(m, i, j, down=-1, up=-1):
        m[i][j] = down
        m[j][i] = up

    if letter == "A" and n >= 1:
        m = blank()
        for i in range(n - 1):
            link(m, i, i + 1)
    elif letter == "B" and n >= 2:
        m = blank()
        for i in range(n - 2):
            link(m, i, i + 1)
        link(m, n - 2, n - 1, down=-1, up=-2)
    elif letter == "C" and n >= 2:
        m = blank()
        for i in range(n - 2):
            link(m, i, i + 1)
        link(m, n - 2, n - 1, down=-2, up=-1)
    elif letter == "D" and n >= 3:
        m = blank()
        for i in range(n - 3):
            link(m, i, i + 1)
        link(m, n - 3, n - 2)
        link(m, n - 3, n - 1)
    elif letter == "E" and n in (6, 7, 8):
        m = blank()
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for a, b in zip(chain, chain[1:]):
            link(m, a, b)
        link(m, 1, 3)
    elif letter == "F" and n == 4:
        m = blank()
        link(m, 0, 1)
        link(m, 1, 2, down=-1, up=-2)
        link(m, 2, 3)
    elif letter == "G" and n == 2:
        m = [[2, -1], [-3, 2]]
    else:
        raise ParseError(f"no standard type {letter}{n}")
    return tuple(tuple(row) for row in m)


def _split_type_name(name: str) -> tuple[str, int]:
    """The letter and rank of a type tag like ``"B3"``; raises ParseError."""
    match = _NAME_RE.match(name.strip())
    if not match:
        raise ParseError(f"cannot parse type name {name!r}")
    letter, digits = match.groups()
    try:
        return letter, int(digits)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"type {letter} rank has {len(digits)} digits, too many to read") from None


def cartan_from_name(name: str) -> CartanDatum:
    """Parse a type tag like ``"B3"`` into a validated Cartan datum."""
    letter, n = _split_type_name(name)
    try:
        matrix = standard_cartan(letter, n)
    except ParseError:
        raise ParseError(f"unknown finite type {name!r}") from None
    return validate_cartan(matrix)


def _components(matrix) -> list[list[int]]:
    rank = len(matrix)
    seen = [False] * rank
    comps = []
    for start in range(rank):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(rank):
                if not seen[j] and matrix[i][j] != 0:
                    seen[j] = True
                    comp.append(j)
                    queue.append(j)
        comps.append(sorted(comp))
    return comps


def _classify(matrix, roots) -> str | None:
    """Classification tag of a finite type matrix from its positive roots.

    Each component is named by its rank n, its number of positive roots and
    its largest bond a_ij·a_ji (Cartan–Killing; Kac, *Infinite-dimensional
    Lie algebras*, §4.8): bond 3 is G2; bond 2 is F4 with 24 roots, else
    B_n when the -2 lies in the row of an end node, else C_n (so C2 reads
    as B2); bond 1 or none is A_n with n(n+1)/2 roots, D_n with n(n-1)
    roots for n >= 4 (so D3 reads as A3), or E6/E7/E8 with 36/63/120.
    """
    tags = []
    for comp in _components(matrix):
        n = len(comp)
        count = sum(1 for beta in roots if any(beta[i] for i in comp))
        bond = max((matrix[i][j] * matrix[j][i] for i in comp for j in comp if i != j),
                   default=0)
        if bond == 3:
            tag = "G2"
        elif bond == 2 and count == 24:
            tag = "F4"
        elif bond == 2:
            ends = [i for i in comp if sum(1 for j in comp if j != i and matrix[i][j]) == 1]
            tag = ("B" if any(-2 in matrix[i] for i in ends) else "C") + str(n)
        elif count == n * (n + 1) // 2:
            tag = f"A{n}"
        elif n >= 4 and count == n * (n - 1):
            tag = f"D{n}"
        elif (n, count) in ((6, 36), (7, 63), (8, 120)):
            tag = f"E{n}"
        else:
            return None
        tags.append(tag)
    tags.sort(key=lambda t: (t[0], int(t[1:])))
    return "x".join(tags)


class RootSystem:
    """Positive roots of a finite type Cartan matrix, in a fixed order.

    The order is by height, then reverse-lexicographic on coordinates, so
    the simple roots come first as alpha_1, ..., alpha_r.  ``_supports``
    holds each positive root's support as a bit mask.
    """

    __slots__ = ("datum", "positive", "_supports")

    def __init__(self, datum: CartanDatum):
        self.datum = datum
        coords = _closure(datum.matrix, DEFAULT_ROOT_CAP)
        self.positive: tuple[Root, ...] = tuple(Root(c) for c in coords)
        self._supports = tuple(sum(1 << i for i, c in enumerate(b) if c) for b in coords)

    @property
    def rank(self) -> int:
        return self.datum.rank

    @property
    def n_positive(self) -> int:
        return len(self.positive)

    def __repr__(self) -> str:
        tag = self.datum.type_name or "?"
        return f"RootSystem({tag}, {self.n_positive} positive roots)"


def root_system(datum: CartanDatum) -> RootSystem:
    return RootSystem(datum)


class _FoldedRow:
    """Row x of the product table of a group too large to tabulate.

    ``row[y]`` is x*y, found by folding the shorter of the two canonical
    words: y's over the right-multiplication table starting at x, or x's,
    reversed, over the left-multiplication table starting at y.
    """

    __slots__ = ("_x", "_x_reversed", "_right", "_left", "_words")

    def __init__(self, group: WeylGroup, x: int):
        self._x = x
        self._x_reversed = group._words[x][::-1]
        self._right = group._right
        self._left = group._left
        self._words = group._words

    def __getitem__(self, y: int) -> int:
        word = self._words[y]
        if len(word) <= len(self._x_reversed):
            z, right = self._x, self._right
            for i in word:
                z = right[i][z]
        else:
            z, left = y, self._left
            for i in self._x_reversed:
                z = left[i][z]
        return z


def word_name(word) -> str:
    """Render a word in the simple reflections, e.g. ``(0, 1)`` -> ``"s1s2"``."""
    return "".join(f"s{i + 1}" for i in word)


class WeylElement:
    """One enumerated group element.

    ``canonical_word`` is the lexicographically minimal reduced word.
    Elements compare and hash by enumeration index within their group.
    """

    __slots__ = ("group", "index", "canonical_word")

    def __init__(self, group: WeylGroup, index: int, word: tuple[int, ...]):
        self.group = group
        self.index = index
        self.canonical_word = word

    @property
    def length(self) -> int:
        return len(self.canonical_word)

    @property
    def name(self) -> str:
        return word_name(self.canonical_word) or "e"

    def __mul__(self, other):
        if isinstance(other, WeylElement):
            return self.group.multiply(self, other)
        return NotImplemented

    def __invert__(self) -> WeylElement:
        return self.group.invert(self)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeylElement)
            and other.group is self.group
            and other.index == self.index
        )

    def __hash__(self) -> int:
        return hash((id(self.group), self.index))

    def __repr__(self) -> str:
        return self.name


class WeylGroup:
    """Fully enumerated Weyl group with length, descent and product tables.

    Elements are the indices 0..order-1 of the rho-orbit enumeration, each
    with its canonical word.  The length, descent, inverse and
    simple-reflection tables are built at enumeration.  The full product
    table (groups of order at most ``_PRODUCT_TABLE_LIMIT``) is built on
    the first product (``product_row`` or ``product_index``), so callers
    that never multiply two arbitrary elements never pay for it.  The
    per-subset coset tables (``_left_top`` and ``_right_quotient``, keyed
    by the subset's bit mask) are likewise built on first use, at most one
    per subset and side: top_J is a list over W, and W^K is stored as
    positions grouped by left descent mask beside a list of the tops
    x·w_K, so a filter on left descents reads groups, not members.
    Canonical-word names are rendered one at a time on first use, by
    ``word_name_of``.  ``varieties`` keeps the rest of its per-group state
    here, so it lives and dies with the group: ``_pair``, the context of
    the last (J, K) checked, and ``_idempotents``, per (subset, sign) the
    idempotent and its absorption verdict per side.
    """

    __slots__ = (
        "roots",
        "elements",
        "rank",
        "order",
        "_words",
        "_named",
        "_length",
        "_rdesc",
        "_right",
        "_left",
        "_inv",
        "_table",
        "_tops",
        "_quotients",
        "_pair",
        "_idempotents",
        "identity",
        "simple",
    )

    def __init__(self, roots: RootSystem, order_cap: int = DEFAULT_ORDER_CAP):
        self.roots = roots
        rank = roots.rank
        self.rank = rank
        # alpha_i in fundamental-weight coordinates is column i of the Cartan
        # matrix; only its nonzero entries move a key
        columns = list(zip(*roots.datum.matrix))
        alpha = [[(k, a) for k, a in enumerate(column) if a] for column in columns]

        rho = (1,) * rank
        keys: list[tuple[int, ...]] = [rho]
        words: list[tuple[int, ...]] = [()]
        rdesc: list[int] = [0]
        index: dict[tuple[int, ...], int] = {rho: 0}
        right: list[list[int]] = [[0] for _ in range(rank)]
        frontier = [0]
        while frontier:
            fresh: list[int] = []
            for x in frontier:
                mu = keys[x]
                for i in range(rank):
                    c = mu[i]
                    if c < 0:
                        # right descent: x·s_i came first and set both entries
                        rdesc[x] |= 1 << i
                        continue
                    nu = list(mu)
                    for k, a in alpha[i]:
                        nu[k] -= c * a
                    nu = tuple(nu)
                    y = index.get(nu)
                    if y is None:
                        if len(keys) >= order_cap:
                            raise OrderCapExceeded(f"group order exceeds cap {order_cap}")
                        y = index[nu] = len(keys)
                        keys.append(nu)
                        words.append(words[x] + (i,))
                        rdesc.append(0)
                        for column in right:
                            column.append(0)
                        fresh.append(y)
                    right[i][x] = y
                    right[i][y] = x
            frontier = fresh

        order = len(keys)
        self.order = order
        self._words = words
        self._length = [len(w) for w in words]
        self._rdesc = rdesc
        self._right = right

        inv = [0] * order
        for x, word in enumerate(words):
            y = 0
            for i in reversed(word):
                y = right[i][y]
            inv[x] = y
        self._inv = inv
        # s.w = (w^-1 . s)^-1
        self._left = [
            [inv[right[i][inv[x]]] for x in range(order)] for i in range(rank)
        ]

        self._named: dict[int, str] = {}
        self._table = None
        self._tops: dict[int, list[int]] = {}
        self._quotients: dict[int, tuple[dict[int, list[int]], list[int]]] = {}
        self._pair = None
        self._idempotents: dict[tuple[tuple[int, ...], bool], tuple] = {}

        self.elements: tuple[WeylElement, ...] = tuple(
            WeylElement(self, x, words[x]) for x in range(order)
        )
        self.identity = self.elements[0]
        self.simple = tuple(self.elements[right[i][0]] for i in range(rank))

    # -- index-level fast layer -------------------------------------------

    def length_of(self, x: int) -> int:
        return self._length[x]

    def product_row(self, x: int):
        """Row x of the multiplication table: ``product_row(x)[y]`` is x*y.

        Up to ``_PRODUCT_TABLE_LIMIT`` this is a row of the full table,
        built on the first call; above it, an indexable view that folds
        a canonical word per lookup.  A convolution fetches one row per
        left term and indexes it in its inner loop.
        """
        table = self._table
        if table is None:
            if self.order > _PRODUCT_TABLE_LIMIT:
                return _FoldedRow(self, x)
            table = self._table = self._product_table()
        return table[x]

    def product_index(self, x: int, y: int) -> int:
        return self.product_row(x)[y]

    def _product_table(self) -> list[tuple[int, ...]]:
        # x = p·s_i with p = x·s_i its canonical prefix, so x·y = p·(s_i·y):
        # row x is row p, an earlier row, read through the column _left[i].
        # An itemgetter of a column (order >= 2 entries) reads a whole row
        # into an exactly sized tuple.
        right, words = self._right, self._words
        through = [itemgetter(*column) for column in self._left]
        table = [tuple(range(self.order))]
        for x in range(1, self.order):
            i = words[x][-1]
            table.append(through[i](table[right[i][x]]))
        return table

    def _left_top(self, mask: int) -> list[int]:
        """``top[y]`` is the longest element of W_J·y, J as a bit mask.

        Filled in reverse enumeration order: for the lowest j in J that is
        not a left descent of y, s_j·y is longer, so its entry is filled.
        """
        top = self._tops.get(mask)
        if top is None:
            rdesc, inv, left = self._rdesc, self._inv, self._left
            top = self._tops[mask] = list(range(self.order))
            for y in range(self.order - 1, -1, -1):
                up = mask & ~rdesc[inv[y]]
                if up:
                    top[y] = top[left[(up & -up).bit_length() - 1][y]]
        return top

    def _right_quotient(self, mask: int) -> tuple[dict[int, list[int]], list[int]]:
        """W^K grouped by left descents, K as a bit mask: ``(groups, tops)``.

        With x_0, x_1, ... the members of W^K in enumeration order,
        ``groups[d]`` holds the ascending positions p whose x_p has left
        descent mask d, and ``tops[p]`` is x_p·w_K, the top of x_p·W_K: the
        inverse of the top of W_K·x_p^-1.
        """
        quotient = self._quotients.get(mask)
        if quotient is None:
            rdesc, inv, top = self._rdesc, self._inv, self._left_top(mask)
            groups: dict[int, list[int]] = {}
            tops: list[int] = []
            for x in range(self.order):
                if not rdesc[x] & mask:
                    y = inv[x]
                    groups.setdefault(rdesc[y], []).append(len(tops))
                    tops.append(inv[top[y]])
            quotient = self._quotients[mask] = (groups, tops)
        return quotient

    def word_name_of(self, x: int) -> str:
        """``word_name`` of one canonical word, rendered on its first use."""
        name = self._named.get(x)
        if name is None:
            name = self._named[x] = word_name(self._words[x])
        return name

    def inverse_index(self, x: int) -> int:
        return self._inv[x]

    def right_index(self, x: int, s: int) -> int:
        return self._right[s][x]

    def left_index(self, x: int, s: int) -> int:
        return self._left[s][x]

    def right_descent_mask(self, x: int) -> int:
        return self._rdesc[x]

    def left_descent_mask(self, x: int) -> int:
        return self._rdesc[self._inv[x]]

    # -- element-level API --------------------------------------------------

    def simple_reflection(self, i: int) -> WeylElement:
        if not 0 <= i < self.rank:
            raise InvalidSubset(f"simple reflection index {i} out of range")
        return self.simple[i]

    def element_by_word(self, word) -> WeylElement:
        x = 0
        for i in word:
            if not 0 <= i < self.rank:
                raise InvalidSubset(f"letter {i} out of range")
            x = self._right[i][x]
        return self.elements[x]

    def multiply(self, u: WeylElement, w: WeylElement) -> WeylElement:
        if u.group is not self or w.group is not self:
            raise MixedGroups("elements belong to different groups")
        return self.elements[self.product_index(u.index, w.index)]

    def invert(self, w: WeylElement) -> WeylElement:
        if w.group is not self:
            raise MixedGroups("element belongs to a different group")
        return self.elements[self._inv[w.index]]

    def is_right_descent(self, s: int, w: WeylElement) -> bool:
        return bool(self._rdesc[w.index] >> s & 1)

    def is_left_descent(self, s: int, w: WeylElement) -> bool:
        return bool(self._rdesc[self._inv[w.index]] >> s & 1)

    def right_descents(self, w: WeylElement) -> tuple[int, ...]:
        mask = self._rdesc[w.index]
        return tuple(i for i in range(self.rank) if mask >> i & 1)

    def longest_element(self, J=None) -> WeylElement:
        """Longest element of the standard parabolic on ``J`` (default: all)."""
        if J is None:
            J = range(self.rank)
        subset = normalize_subset(self.rank, J)
        x = 0
        moved = True
        while moved:
            moved = False
            mask = self._rdesc[x]
            for i in subset:
                if not mask >> i & 1:
                    x = self._right[i][x]
                    moved = True
                    break
        return self.elements[x]

    def bruhat_leq(self, u: WeylElement, w: WeylElement) -> bool:
        """Bruhat order test along the canonical reduced word of ``w``.

        Peels the last letter s of w: with ws < w, u <= w iff
        (us < u ? us <= ws : u <= ws).  Each step is O(1), the whole test
        O(length of w).
        """
        if u.group is not self or w.group is not self:
            raise MixedGroups("elements belong to different groups")
        x = u.index
        remaining = list(w.canonical_word)
        while remaining:
            if self._length[x] > len(remaining):
                return False
            if x == 0:
                return True
            s = remaining.pop()
            if self._rdesc[x] >> s & 1:
                x = self._right[s][x]
        return x == 0

    def __len__(self) -> int:
        return self.order

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self) -> str:
        tag = self.roots.datum.type_name or "?"
        return f"WeylGroup({tag}, order {self.order})"


def enumerate_weyl(roots: RootSystem, order_cap: int = DEFAULT_ORDER_CAP) -> WeylGroup:
    """Enumerate the full Weyl group of a finite root system.

    Elements are produced breadth-first by length; within a length level the
    canonical (lex-minimal) reduced words appear in increasing lexicographic
    order, which makes the enumeration index a total order on the group.
    """
    return WeylGroup(roots, order_cap=order_cap)


def normalize_subset(rank: int, J) -> tuple[int, ...]:
    """Sorted duplicate-free subset of {0, ..., rank-1}; raises InvalidSubset.

    Each public function that takes a subset calls this once, where the
    subset enters; the private helpers behind it take the returned tuple.
    """
    out = []
    seen = set()
    for i in J:
        if not isinstance(i, int) or isinstance(i, bool):
            raise InvalidSubset(f"subset entry {i!r} is not an integer")
        if not 0 <= i < rank:
            raise InvalidSubset(f"subset entry {i} out of range for rank {rank}")
        if i in seen:
            raise InvalidSubset(f"subset entry {i} repeated")
        seen.add(i)
        out.append(i)
    return tuple(sorted(out))
