"""Standard parabolic subgroups and their double cosets.

For simple subsets J and K, each (W_J, W_K) double coset contains a unique
element of minimal length (no left descents in J, no right descents in K)
and a unique element of maximal length (all of them are descents).  The
minimum is reached greedily from any member.  The maximum over a minimal x
is top_J[x·w_K], read from the group's per-subset tables (``_left_top``
and ``_right_quotient``, built on first use): it is (w_J·w_I)·x·w_K with
lengths adding, I = J ∩ xKx^-1, so it is the longest element of W_J·x·w_K
(Björner–Brenti, *Combinatorics of Coxeter Groups*, ch. 2).

The decomposition is one pass over W in enumeration order: an element
that is not minimal has a left descent in J or a right descent in K, and
the shorter neighbour across it is an earlier element of the same coset.
The representatives alone (``_component_reps``, ``maximal_reps``) come
from the tables instead, never from that partition, so the two are
independent engines for the same cosets.
"""

from __future__ import annotations

from typing import NamedTuple

from .rootsys import WeylElement, WeylGroup, normalize_subset


def parabolic_elements(group: WeylGroup, J) -> tuple[WeylElement, ...]:
    """All elements of the standard parabolic W_J, in enumeration order."""
    subset = normalize_subset(group.rank, J)
    seen = {0}
    queue = [0]
    while queue:
        x = queue.pop()
        for i in subset:
            y = group.right_index(x, i)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return tuple(group.elements[x] for x in sorted(seen))


class DoubleCoset(NamedTuple):
    """One (W_J, W_K) double coset, elements in enumeration order."""

    elements: tuple[WeylElement, ...]
    min_rep: WeylElement
    max_rep: WeylElement

    @property
    def size(self) -> int:
        return len(self.elements)


class DoubleCosetDecomposition:
    """Partition of W into (W_J, W_K) double cosets.

    Cosets are ordered by their minimal representative (length, then lex on
    the canonical word), i.e. by enumeration index of min_rep.
    ``J`` and ``K`` are normalized subsets; ``_coset_index[x]`` is the
    position in ``cosets`` of the coset of the element with index x.
    """

    __slots__ = ("J", "K", "cosets", "_coset_index")

    def __init__(self, J, K, cosets: tuple[DoubleCoset, ...], coset_index: list[int]):
        self.J, self.K, self.cosets, self._coset_index = J, K, cosets, coset_index

    def coset_of(self, w: WeylElement) -> DoubleCoset:
        return self.cosets[self._coset_index[w.index]]

    def __len__(self) -> int:
        return len(self.cosets)


def double_cosets(group: WeylGroup, J, K) -> DoubleCosetDecomposition:
    """Decompose W into (W_J, W_K) double cosets W_J w W_K.

    One pass over the group in enumeration order.  An element x with a left
    descent j in J joins the coset of s_j x; otherwise one with a right
    descent k in K joins the coset of x s_k; otherwise x has neither, so it
    is the minimal element of its coset and opens a new one.  Both s_j x and
    x s_k are shorter than x, and enumeration is breadth-first by length, so
    they have smaller indices and are already placed.  Cosets therefore come
    out ordered by min_rep, each with its members in enumeration order.
    """
    subJ = normalize_subset(group.rank, J)
    subK = normalize_subset(group.rank, K)
    mask_j = sum(1 << j for j in subJ)
    mask_k = sum(1 << k for k in subK)
    rdesc = group._rdesc
    inv = group._inv
    left = group._left
    right = group._right
    tags = [0] * group.order
    members: list[list[int]] = []
    for x in range(group.order):
        d = rdesc[inv[x]] & mask_j
        if d:
            tag = tags[left[(d & -d).bit_length() - 1][x]]
        else:
            d = rdesc[x] & mask_k
            if d:
                tag = tags[right[(d & -d).bit_length() - 1][x]]
            else:
                tag = len(members)
                members.append([])
        tags[x] = tag
        members[tag].append(x)
    at = group.elements.__getitem__
    cosets = []
    for xs in members:
        elems = tuple(map(at, xs))
        cosets.append(DoubleCoset(elements=elems, min_rep=elems[0], max_rep=elems[-1]))
    return DoubleCosetDecomposition(subJ, subK, tuple(cosets), tags)


def _component_reps(group: WeylGroup, J, K) -> list[tuple[int, bool]]:
    """(max rep index, eta) per (W_J, W_K) double coset, in coset order.

    Read off the coset tables, not the partition of ``double_cosets``: the
    min reps are the entries x of W^K with no left descent in J, in
    enumeration order; each max rep is top_J[x·w_K].  eta: the max rep is
    minimal.  Raises InvalidSubset on a bad subset.
    """
    mask_j, mask_k = _mask(group.rank, J), _mask(group.rank, K)
    top, rdesc, inv = group._left_top(mask_j), group._rdesc, group._inv
    quotient = group._right_quotient(mask_k).values()
    tops = [top[xw] for left, xw in quotient if not left & mask_j]
    return [(m, not (rdesc[inv[m]] & mask_j or rdesc[m] & mask_k)) for m in tops]


def min_double_coset_rep(w: WeylElement, J, K) -> WeylElement:
    """Minimal-length element of W_J w W_K, by greedy descent removal."""
    group = w.group
    mask_j, mask_k = _mask(group.rank, J), _mask(group.rank, K)
    x = w.index
    while True:
        down = group.left_descent_mask(x) & mask_j
        if down:
            x = group.left_index(x, (down & -down).bit_length() - 1)
            continue
        down = group.right_descent_mask(x) & mask_k
        if not down:
            return group.elements[x]
        x = group.right_index(x, (down & -down).bit_length() - 1)


def max_double_coset_rep(w: WeylElement, J, K) -> WeylElement:
    """Maximal-length element of W_J w W_K: top_J[x·w_K] for its min rep x."""
    group = w.group
    x = min_double_coset_rep(w, J, K).index
    top = group._left_top(_mask(group.rank, J))
    return group.elements[top[group._right_quotient(_mask(group.rank, K))[x][1]]]


def _mask(rank: int, J) -> int:
    """Bit mask of a subset of the simple reflections; raises InvalidSubset."""
    return sum(1 << j for j in normalize_subset(rank, J))


def is_minimal_in_double_coset(w: WeylElement, J, K) -> bool:
    """True iff w is the minimal element of W_J w W_K.

    Equivalent to having no left descent in J and no right descent in K;
    for J = {s}, K = empty this reads sw > w.
    """
    group = w.group
    mask_j, mask_k = _mask(group.rank, J), _mask(group.rank, K)
    return not (
        group.left_descent_mask(w.index) & mask_j
        or group.right_descent_mask(w.index) & mask_k
    )


def maximal_reps(group: WeylGroup, J, K) -> tuple[WeylElement, ...]:
    """Maximal-length representatives, one per (W_J, W_K) double coset."""
    return tuple(group.elements[m] for m, _ in _component_reps(group, J, K))

