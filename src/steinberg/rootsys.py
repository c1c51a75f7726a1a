"""Finite root systems and Weyl groups built from Cartan matrices.

Roots are integer coefficient vectors over the simple roots.  A Weyl group
element is stored as a signed permutation of the positive roots, so Coxeter
length is the number of positive roots sent negative and descent tests are
single table lookups.  Enumeration is breadth-first by length with
lexicographic tie-breaking on the minimal reduced word; every downstream
index (cosets, algebra coefficients, report rows) inherits that order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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
# on the first product; larger groups compose root permutations per product.
_PRODUCT_TABLE_LIMIT = 2500


@dataclass(frozen=True)
class CartanDatum:
    """A validated Cartan matrix with display labels for the simple roots."""

    matrix: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    type_name: str | None = None

    @property
    def rank(self) -> int:
        return len(self.matrix)


@dataclass(frozen=True, order=True)
class Root:
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
    loop is exactly failure of finite type, hence the cap.
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
                f"root closure exceeded {cap} positive roots; matrix is not of finite type"
            )
        frontier = fresh
    return sorted(seen, key=lambda v: (sum(v), tuple(-c for c in v)))


def validate_cartan(
    matrix,
    labels=None,
    *,
    max_positive_roots: int = DEFAULT_ROOT_CAP,
) -> CartanDatum:
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
    mat = tuple(rows)
    _closure(mat, max_positive_roots)
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
    return CartanDatum(matrix=mat, labels=labels, type_name=_classify(mat))


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


def cartan_from_name(name: str) -> CartanDatum:
    """Parse a type tag like ``"B3"`` into a validated Cartan datum."""
    match = _NAME_RE.match(name.strip())
    if not match:
        raise ParseError(f"cannot parse type name {name!r}")
    letter, n = match.group(1), int(match.group(2))
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


def _perm_equivalent(a, b) -> bool:
    """True iff some relabeling p gives a[p[i]][p[j]] == b[i][j] for all i, j.

    Backtracking search: the indices of b are assigned in breadth-first
    order over b's diagram, so each one after the first is a neighbour of
    an assigned index, and a candidate must have the same row multiset and
    agree with every row already assigned.  On a connected Dynkin diagram
    that leaves at most three candidates per step past the first.
    """
    n = len(a)
    if n != len(b):
        return False
    # cheap filter: multisets of sorted rows must agree
    sig_a = [tuple(sorted(row)) for row in a]
    sig_b = [tuple(sorted(row)) for row in b]
    if sorted(sig_a) != sorted(sig_b):
        return False
    order: list[int] = []
    for start in range(n):
        if start in order:
            continue
        k = len(order)
        order.append(start)
        while k < len(order):
            i = order[k]
            k += 1
            order.extend([j for j in range(n) if b[i][j] and j not in order])
    perm = [0] * n
    used = [False] * n

    def extend(depth: int) -> bool:
        if depth == n:
            return True
        i = order[depth]
        done = order[:depth]
        for p in range(n):
            if used[p] or sig_a[p] != sig_b[i] or a[p][p] != b[i][i]:
                continue
            if all(
                a[p][perm[j]] == b[i][j] and a[perm[j]][p] == b[j][i] for j in done
            ):
                perm[i] = p
                used[p] = True
                if extend(depth + 1):
                    return True
                used[p] = False
        return False

    return extend(0)


def _classify(matrix) -> str | None:
    # C2 and D3 are relabelings of B2 and A3, which are tried first
    tags = []
    for comp in _components(matrix):
        sub = tuple(tuple(matrix[i][j] for j in comp) for i in comp)
        for letter in "ABCDEFG":
            try:
                standard = standard_cartan(letter, len(comp))
            except ParseError:
                continue
            if _perm_equivalent(sub, standard):
                tags.append(f"{letter}{len(comp)}")
                break
        else:
            return None
    tags.sort(key=lambda t: (t[0], int(t[1:])))
    return "x".join(tags)


class RootSystem:
    """Positive roots of a finite type Cartan matrix, in a fixed order.

    The order is by height, then reverse-lexicographic on coordinates, so
    the simple roots come first as alpha_1, ..., alpha_r.  ``simple_perms``
    records each simple reflection as a signed permutation of the positive
    roots: entry ``j`` means root ``j``, entry ``~j`` means its negative.
    """

    __slots__ = ("datum", "positive", "simple_perms", "_index")

    def __init__(self, datum: CartanDatum):
        self.datum = datum
        coords = _closure(datum.matrix, DEFAULT_ROOT_CAP)
        self.positive: tuple[Root, ...] = tuple(Root(c) for c in coords)
        self._index = {c: k for k, c in enumerate(coords)}
        matrix = datum.matrix
        rank = datum.rank
        perms = []
        for i in range(rank):
            images = []
            for beta in coords:
                pairing = sum(matrix[i][j] * beta[j] for j in range(rank))
                c = beta[i] - pairing
                gamma = beta[:i] + (c,) + beta[i + 1 :]
                if c >= 0:
                    images.append(self._index[gamma])
                else:
                    neg = tuple(-x for x in gamma)
                    images.append(~self._index[neg])
            perms.append(tuple(images))
        self.simple_perms: tuple[tuple[int, ...], ...] = tuple(perms)

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


def positive_roots(datum: CartanDatum) -> tuple[Root, ...]:
    """Positive roots in enumeration order (height, then reverse-lex)."""
    return RootSystem(datum).positive


def _compose(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[int, ...]:
    # signed permutation composition: apply inner first, then outer
    return tuple(outer[j] if j >= 0 else ~outer[~j] for j in inner)


def _invert_perm(perm: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(perm)
    for r, img in enumerate(perm):
        if img >= 0:
            out[img] = r
        else:
            out[~img] = ~r
    return tuple(out)


class _ComposedRow:
    """Row of x*y for a group too large for a full product table."""

    __slots__ = ("_perm", "_elements", "_index")

    def __init__(self, group: WeylGroup, perm: tuple[int, ...]):
        self._perm = perm
        self._elements = group.elements
        self._index = group._index

    def __getitem__(self, y: int) -> int:
        return self._index[_compose(self._perm, self._elements[y].root_perm)]


def word_name(word) -> str:
    """Render a word in the simple reflections, e.g. ``(0, 1)`` -> ``"s1s2"``."""
    return "".join(f"s{i + 1}" for i in word)


class WeylElement:
    """One enumerated group element.

    ``canonical_word`` is the lexicographically minimal reduced word,
    ``root_perm`` the signed action on positive roots.  Elements compare
    and hash by enumeration index within their group.
    """

    __slots__ = ("group", "index", "canonical_word", "root_perm")

    def __init__(self, group: WeylGroup, index: int, word: tuple[int, ...], perm: tuple[int, ...]):
        self.group = group
        self.index = index
        self.canonical_word = word
        self.root_perm = perm

    @property
    def length(self) -> int:
        return len(self.canonical_word)

    @property
    def name(self) -> str:
        return word_name(self.canonical_word) or "e"

    def inverse(self) -> WeylElement:
        return self.group.invert(self)

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

    The length, descent, inverse and simple-reflection tables are built at
    enumeration.  The full product table (groups of order at most
    ``_PRODUCT_TABLE_LIMIT``) is built on the first product (``product_row``
    or ``product_index``), so callers that never multiply two arbitrary
    elements never pay for it.
    """

    __slots__ = (
        "roots",
        "elements",
        "rank",
        "order",
        "_index",
        "_length",
        "_rdesc",
        "_right",
        "_left",
        "_inv",
        "_parent",
        "_last",
        "_table",
        "identity",
        "simple",
    )

    def __init__(self, roots: RootSystem, order_cap: int = DEFAULT_ORDER_CAP):
        self.roots = roots
        rank = roots.rank
        self.rank = rank
        simple_perms = roots.simple_perms
        n_roots = roots.n_positive

        identity_perm = tuple(range(n_roots))
        perms: list[tuple[int, ...]] = [identity_perm]
        words: list[tuple[int, ...]] = [()]
        parent: list[int] = [-1]
        last: list[int] = [-1]
        index: dict[tuple[int, ...], int] = {identity_perm: 0}
        frontier = [0]
        while frontier:
            fresh: list[int] = []
            for x in frontier:
                perm = perms[x]
                for i in range(rank):
                    if perm[i] < 0:
                        continue  # right descent, shorter product
                    newperm = _compose(perm, simple_perms[i])
                    if newperm in index:
                        continue
                    if len(perms) >= order_cap:
                        raise OrderCapExceeded(
                            f"group order exceeds cap {order_cap}"
                        )
                    index[newperm] = len(perms)
                    perms.append(newperm)
                    words.append(words[x] + (i,))
                    parent.append(x)
                    last.append(i)
                    fresh.append(len(perms) - 1)
            frontier = fresh

        order = len(perms)
        self.order = order
        self._index = index
        self._parent = parent
        self._last = last
        self._length = [len(w) for w in words]
        self._rdesc = [
            sum(1 << i for i in range(rank) if perm[i] < 0) for perm in perms
        ]

        inv = [0] * order
        for x, perm in enumerate(perms):
            inv[x] = index[_invert_perm(perm)]
        self._inv = inv

        right = [[0] * order for _ in range(rank)]
        for x, perm in enumerate(perms):
            for i in range(rank):
                right[i][x] = index[_compose(perm, simple_perms[i])]
        self._right = right
        # s.w = (w^-1 . s)^-1
        self._left = [
            [inv[right[i][inv[x]]] for x in range(order)] for i in range(rank)
        ]

        self._table = None

        self.elements: tuple[WeylElement, ...] = tuple(
            WeylElement(self, x, words[x], perms[x]) for x in range(order)
        )
        self.identity = self.elements[0]
        self.simple = tuple(
            self.elements[index[simple_perms[i]]] for i in range(rank)
        )

    # -- index-level fast layer -------------------------------------------

    def length_of(self, x: int) -> int:
        return self._length[x]

    def product_row(self, x: int):
        """Row x of the multiplication table: ``product_row(x)[y]`` is x*y.

        Up to ``_PRODUCT_TABLE_LIMIT`` this is a row of the full table,
        built on the first call; above it, an indexable view that composes
        root permutations per lookup.  A convolution fetches one row per
        left term and indexes it in its inner loop.
        """
        table = self._table
        if table is None:
            if self.order > _PRODUCT_TABLE_LIMIT:
                return _ComposedRow(self, self.elements[x].root_perm)
            table = self._table = self._product_table()
        return table[x]

    def product_index(self, x: int, y: int) -> int:
        return self.product_row(x)[y]

    def _product_table(self) -> list[list[int]]:
        # row x of the table: x*y = (x * parent(y)) * s_last(y)
        right, parent, last = self._right, self._parent, self._last
        table = []
        for x in range(self.order):
            row = [0] * self.order
            row[0] = x
            for y in range(1, self.order):
                row[y] = right[last[y]][row[parent[y]]]
            table.append(row)
        return table

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

    def left_descents(self, w: WeylElement) -> tuple[int, ...]:
        mask = self._rdesc[self._inv[w.index]]
        return tuple(i for i in range(self.rank) if mask >> i & 1)

    def longest_element(self, J=None) -> WeylElement:
        """Longest element of the standard parabolic on ``J`` (default: all)."""
        if J is None:
            J = range(self.rank)
        subset = _normalize_subset(self.rank, J)
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


def _normalize_subset(rank: int, J) -> tuple[int, ...]:
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


def roots_jsonable(roots: RootSystem) -> list[list[int]]:
    """Positive roots as coordinate lists, in enumeration order."""
    return [list(r.coords) for r in roots.positive]


def elements_jsonable(group: WeylGroup) -> list[str]:
    """Canonical words of all elements in enumeration order ("" = identity)."""
    return [word_name(w.canonical_word) for w in group.elements]
