"""Finite root systems and Weyl groups built from Cartan matrices.

Roots are integer coefficient vectors over the simple roots.  A Weyl group
is enumerated as the orbit of rho (Casselman, "Machine calculations in Weyl
groups", 1994): w is keyed by w^-1 rho in fundamental-weight coordinates,
a rank-length integer tuple, so s_i is a right descent of w exactly when
coordinate i is negative, and w·s_i has the key reflected in alpha_i.
Enumeration is breadth-first by length, one level at a time, with
lexicographic tie-breaking on the minimal reduced word; only the keys of
the level walked and of the next one are held, and what the group keeps
are index tables (right and left multiplication by s_i, inverse, descents,
lengths).  Every downstream index (cosets, algebra coefficients, report
rows) inherits that order.
"""

from __future__ import annotations

import re
from collections import defaultdict
from itertools import islice
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

    ``type_name`` is ``_classify``'s tag, components joined with ``x`` (e.g.
    ``"A1xB3"``), read from ``closure``: the positive roots' coordinate
    tuples in ``_closure``'s order, which ``RootSystem`` reads, not reruns.
    """

    matrix: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    type_name: str
    closure: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.matrix)


def _closure(matrix: tuple[tuple[int, ...], ...], cap: int) -> tuple[tuple[int, ...], ...]:
    """All positive roots by reflection closure of the simple roots.

    Applying a simple reflection to a positive root changes one coordinate;
    the result is either positive again or the negated simple root itself,
    so it suffices to keep the all-nonnegative images.  Divergence of this
    loop is exactly failure of finite type, hence the cap; a finite type
    with more roots than the cap (A49 has 1,225) is refused as well.  The
    pairings <beta, alpha_i^vee> are summed over beta's support through the
    matrix's nonzero columns, and the cap is checked before each beta, which
    adds at most rank roots, so a refusal holds at most cap + rank of them.
    """
    rank = len(matrix)
    columns = [[(i, a) for i, a in enumerate(column) if a] for column in zip(*matrix)]
    roots = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    seen = set(roots)
    for beta in roots:  # roots grows while it is read
        if len(seen) > cap:
            raise NotFiniteType(
                f"root closure exceeded {cap} positive roots; matrix is not of "
                f"finite type, or its root system is larger than the cap"
            )
        pairings: dict[int, int] = {}
        for j, b in enumerate(beta):
            if b:
                for i, a in columns[j]:
                    pairings[i] = pairings.get(i, 0) + a * b
        for i, pairing in pairings.items():
            c = beta[i] - pairing
            if pairing == 0 or c < 0:  # s_i fixes beta, or makes it negative
                continue
            gamma = beta[:i] + (c,) + beta[i + 1 :]
            if gamma not in seen:
                seen.add(gamma)
                roots.append(gamma)
    return tuple(sorted(roots, key=lambda v: (sum(v), tuple(-c for c in v))))


def validate_cartan(matrix, labels=None) -> CartanDatum:
    """Check the generalized Cartan conditions and finite type.

    Returns a :class:`CartanDatum` whose ``type_name`` is the standard
    classification tag (components joined with ``x``).
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
    return CartanDatum(mat, labels, _classify(mat, roots), roots)


_NAME_RE = re.compile(r"^([A-G])([0-9]+)$")


def standard_cartan(letter: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Standard Cartan matrix for one simple type, Bourbaki numbering.

    Each type is its list of Dynkin bonds (i, j, a_ij, a_ji), node k being
    Bourbaki's alpha_{k+1}.  a_ij = <alpha_i^vee, alpha_j> is the pairing
    _closure reads (Kac's convention, the transpose of Bourbaki's): B_n has
    its short root last, C_n its long root last and F4 short nodes 2 and 3,
    as on Plates II, III and VIII, but G2's a_10 = -3 makes node 1 short, the
    reverse of Plate IX (a transpose has the same Weyl group and root count).
    """
    path = ((i, i + 1, -1, -1) for i in range(n - 1))  # lazy: read only by A-E
    match letter:
        case "A" if n >= 1:
            bonds = list(path)
        case "B" if n >= 2:
            bonds = [*islice(path, n - 2), (n - 2, n - 1, -1, -2)]
        case "C" if n >= 2:
            bonds = [*islice(path, n - 2), (n - 2, n - 1, -2, -1)]
        case "D" if n >= 3:
            bonds = [*islice(path, n - 2), (n - 3, n - 1, -1, -1)]
        case "E" if n in (6, 7, 8):
            bonds = [(0, 2, -1, -1), (1, 3, -1, -1), *islice(path, 2, None)]
        case "F" if n == 4:
            bonds = [(0, 1, -1, -1), (1, 2, -1, -2), (2, 3, -1, -1)]
        case "G" if n == 2:
            bonds = [(0, 1, -1, -3)]
        case _:
            raise ParseError(f"no standard type {letter}{n}")
    m = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j, a_ij, a_ji in bonds:
        m[i][j], m[j][i] = a_ij, a_ji
    return tuple(map(tuple, m))


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


def _classify(matrix, roots) -> str:
    """Classification tag of a finite type matrix from its positive roots.

    The Dynkin components are the maximal root supports, taken largest
    first when they meet none taken before: every root's support is
    connected, and a component's highest root has all of it as support.
    Each is named by its rank n, its number of positive roots and its
    largest bond a_ij·a_ji (Cartan–Killing; Kac, *Infinite-dimensional Lie
    algebras*, §4.8): bond 3 is G2; bond 2 is F4 with 24 roots, else B_n
    when the -2 lies in the row of an end node, else C_n (so C2 reads as
    B2); bond 1 or none is A_n with n(n+1)/2 roots, D_n with n(n-1) roots
    for n >= 4 (so D3 reads as A3), else E6, E7 or E8, since the closure
    ends under its cap only in finite type (Kac, ch. 4).
    """
    supports = [sum(1 << i for i, c in enumerate(beta) if c) for beta in roots]
    tags, taken = [], 0
    for mask in sorted(set(supports), key=int.bit_count, reverse=True):
        if mask & taken:
            continue
        taken |= mask
        comp = [i for i in range(len(matrix)) if mask >> i & 1]
        n = len(comp)
        count = sum(1 for support in supports if support & mask)
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
        else:
            tag = f"E{n}"
        tags.append(tag)
    tags.sort(key=lambda t: (t[0], int(t[1:])))
    return "x".join(tags)


class RootSystem:
    """Positive roots of a finite type Cartan matrix, in a fixed order.

    ``positive`` is the datum's ``closure`` itself, coordinate tuples over
    the simple roots ordered by height, then reverse-lexicographically, so
    the simple roots come first as alpha_1, ..., alpha_r.  ``_supports``
    holds each positive root's support as a bit mask; ``_lengths`` maps a
    subset mask to l(w_J), the number of those supports inside it, and is
    filled by ``varieties`` on first use.
    """

    __slots__ = ("datum", "positive", "_supports", "_lengths")

    def __init__(self, datum: CartanDatum):
        self.datum = datum
        self.positive = datum.closure
        self._supports = tuple(sum(1 << i for i, c in enumerate(b) if c) for b in self.positive)
        self._lengths: dict[int, int] = {}

    @property
    def rank(self) -> int:
        return self.datum.rank

    @property
    def n_positive(self) -> int:
        return len(self.positive)

    def __repr__(self) -> str:
        return f"RootSystem({self.datum.type_name}, {self.n_positive} positive roots)"


def root_system(datum: CartanDatum) -> RootSystem:
    return RootSystem(datum)


class _FoldedRow:
    """Row x of the product table of a group too large to tabulate.

    ``row[y]`` is x*y: x's reversed canonical word folded through ``_left``
    from y, the fold that the table below the limit holds row by row.  The
    row keeps the ``_left`` columns of that word, in the order they apply.
    """

    __slots__ = ("_columns",)

    def __init__(self, group: WeylGroup, x: int):
        self._columns = [group._left[i] for i in reversed(group._words[x])]

    def __getitem__(self, y: int) -> int:
        for column in self._columns:
            y = column[y]
        return y


def word_name(word) -> str:
    """Render a word in the simple reflections, e.g. ``(0, 1)`` -> ``"s1s2"``."""
    return "s" + "s".join([str(i + 1) for i in word]) if word else ""


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
    with its canonical word; the keys w^-1 rho are held one length level at
    a time while it runs, and none is kept.  The length, descent, inverse and
    simple-reflection tables (``_length``, ``_rdesc``, ``_inv``, ``_right``
    and ``_left``) are built at enumeration, and the other modules read
    them directly.  A product x·y folds x's reversed word through ``_left``
    from y; the first ``product_row`` call (the ℚW sandwich kernel's) under
    ``_PRODUCT_TABLE_LIMIT`` tabulates that fold.  Per-subset state has one
    store, ``_subsets``: one dict per subset bit mask.  Its keys, and the
    per-pair ``_pair``, are filled on first use by the modules that read
    them, so that their state lives and dies with the group.  Canonical-word
    names are rendered one at a time on first use, by ``word_name_of``.
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
        "_subsets",
        "_pair",
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

        # key -> index per length level: an ascent of a length-l element has
        # length l + 1, so it is looked up in the next level only
        words: list[tuple[int, ...]] = [()]
        rdesc: list[int] = [0]
        right: list[list[int]] = [[0] for _ in range(rank)]
        level = {(1,) * rank: 0}
        while level:
            fresh: dict[tuple[int, ...], int] = {}
            for mu, x in level.items():
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
                    y = fresh.get(nu)
                    if y is None:
                        if len(words) >= order_cap:
                            raise OrderCapExceeded(f"group order exceeds cap {order_cap}")
                        y = fresh[nu] = len(words)
                        words.append(words[x] + (i,))
                        rdesc.append(0)
                        for column in right:
                            column.append(0)
                    right[i][x] = y
                    right[i][y] = x
            level = fresh

        order = len(words)
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
        # per subset mask: each module's own entries, none built from another's
        self._subsets: defaultdict[int, dict] = defaultdict(dict)
        self._pair = None

        self.elements: tuple[WeylElement, ...] = tuple(
            WeylElement(self, x, words[x]) for x in range(order)
        )
        self.identity = self.elements[0]
        self.simple = tuple(self.elements[right[i][0]] for i in range(rank))

    # -- index-level fast layer -------------------------------------------

    def product_row(self, x: int):
        """Row x of the multiplication table: ``product_row(x)[y]`` is x*y.

        Up to ``_PRODUCT_TABLE_LIMIT`` this is a row of the full table,
        built on the first call; above it, a ``_FoldedRow``, the same fold
        per lookup.  A convolution fetches one row per left term and indexes
        it in its inner loop.
        """
        table = self._table
        if table is None:
            if self.order > _PRODUCT_TABLE_LIMIT:
                return _FoldedRow(self, x)
            table = self._table = self._product_table()
        return table[x]

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

    def _walk(self, x: int, mask_j: int, mask_k: int, up: bool) -> int:
        """The shortest (``up`` false) or longest element of W_J·x·W_K: each
        step crosses the lowest letter of J that is a left descent (``up``:
        an ascent), else such a letter of K on the right, until none is left.
        """
        rdesc, inv, left, right = self._rdesc, self._inv, self._left, self._right
        flip = -1 if up else 0  # going up, the ascents are the complement
        while True:
            d = (rdesc[inv[x]] ^ flip) & mask_j
            if d:
                x = left[(d & -d).bit_length() - 1][x]
                continue
            d = (rdesc[x] ^ flip) & mask_k
            if not d:
                return x
            x = right[(d & -d).bit_length() - 1][x]

    def word_name_of(self, x: int) -> str:
        """``word_name`` of one canonical word, rendered on its first use."""
        name = self._named.get(x)
        if name is None:
            name = self._named[x] = word_name(self._words[x])
        return name

    # -- element-level API --------------------------------------------------

    def simple_reflection(self, i: int) -> WeylElement:
        return self.element_by_word((i,))

    def element_by_word(self, word) -> WeylElement:
        x = 0
        for i in word:
            if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < self.rank:
                raise InvalidSubset(f"letter {i!r} is not a simple reflection index "
                                    f"for rank {self.rank}")
            x = self._right[i][x]
        return self.elements[x]

    def multiply(self, u: WeylElement, w: WeylElement) -> WeylElement:
        """u·w: ``_FoldedRow``'s fold of u's word from w, inlined to build no row."""
        if u.group is not self or w.group is not self:
            raise MixedGroups("elements belong to different groups")
        z, left = w.index, self._left
        for i in reversed(u.canonical_word):
            z = left[i][z]
        return self.elements[z]

    def invert(self, w: WeylElement) -> WeylElement:
        if w.group is not self:
            raise MixedGroups("element belongs to a different group")
        return self.elements[self._inv[w.index]]

    def is_right_descent(self, s: int, w: WeylElement) -> bool:
        """Whether w·s < w; raises InvalidSubset for a bad letter, MixedGroups for a foreign w."""
        return normalize_subset(self.rank, (s,))[0] in self.right_descents(w)

    def is_left_descent(self, s: int, w: WeylElement) -> bool:
        """Whether s·w < w; raises InvalidSubset for a bad letter, MixedGroups for a foreign w."""
        return self.is_right_descent(s, self.invert(w))

    def right_descents(self, w: WeylElement) -> tuple[int, ...]:
        """The letters s with w·s < w, ascending; raises MixedGroups for a foreign w."""
        mask = self._rdesc[self._inv[self.invert(w).index]]  # the left descents of w^-1
        return tuple(i for i in range(self.rank) if mask >> i & 1)

    def longest_element(self, J=None) -> WeylElement:
        """Longest element of the standard parabolic on ``J`` (default: all)."""
        J = range(self.rank) if J is None else J
        return self.elements[self._walk(0, 0, _mask(normalize_subset(self.rank, J)), True)]

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
        return f"WeylGroup({self.roots.datum.type_name}, order {self.order})"


def enumerate_weyl(roots: RootSystem, order_cap: int = DEFAULT_ORDER_CAP) -> WeylGroup:
    """Enumerate the full Weyl group of a finite root system.

    Elements are produced breadth-first by length; within a length level the
    canonical (lex-minimal) reduced words appear in increasing lexicographic
    order, which makes the enumeration index a total order on the group.
    """
    return WeylGroup(roots, order_cap=order_cap)


def _mask(subset) -> int:
    """Bit mask of a normalized subset of the simple reflections."""
    return sum(1 << j for j in subset)


def normalize_subset(rank: int, J) -> tuple[int, ...]:
    """Sorted duplicate-free subset of {0, ..., rank-1}; raises InvalidSubset.

    Each public function that takes a subset calls this once, where the
    subset enters; the private helpers behind it take the returned tuple.
    """
    try:
        entries = iter(J)
    except TypeError:
        raise InvalidSubset(f"subset {J!r} is not a collection of integers") from None
    out = []
    seen = set()
    for i in entries:
        if not isinstance(i, int) or isinstance(i, bool):
            raise InvalidSubset(f"subset entry {i!r} is not an integer")
        if not 0 <= i < rank:
            raise InvalidSubset(f"subset entry {i} out of range for rank {rank}")
        if i in seen:
            raise InvalidSubset(f"subset entry {i} repeated")
        seen.add(i)
        out.append(i)
    return tuple(sorted(out))
