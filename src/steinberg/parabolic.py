"""Standard parabolic subgroups and their double cosets.

For simple subsets J and K, each (W_J, W_K) double coset contains a unique
element of minimal length (no left descents in J, no right descents in K)
and a unique element of maximal length (all of them are descents).  The
minimum is reached greedily from any member.  The maximum over a minimal x
is top_J[x·w_K], read from the group's per-subset tables (``_left_top``
and ``_right_quotient``, built on first use): it is (w_J·w_I)·x·w_K with
lengths adding, I = J ∩ xKx^-1, so it is the longest element of W_J·x·w_K
(Björner–Brenti, *Combinatorics of Coxeter Groups*, ch. 2).  W^K is kept
grouped by left descent mask, each member's position beside x·w_K, so
the min reps of a pair are the groups whose mask misses J: a pair costs
its cosets plus its groups, not a scan of W^K.

The decomposition is one pass over W in enumeration order: an element
that is not minimal has a left descent in J or a right descent in K, and
the shorter neighbour across it is an earlier element of the same coset.
The partition is its index lists alone, one ascending list per coset;
a caller that wants elements reads them off ``group.elements``.
The representatives alone (``_component_reps``, ``maximal_reps``) come
from the tables instead, never from that partition, so the two are
independent engines for the same cosets.
"""

from __future__ import annotations

from itertools import chain

from .rootsys import WeylElement, WeylGroup, normalize_subset


def parabolic_elements(group: WeylGroup, J) -> tuple[WeylElement, ...]:
    """All elements of the standard parabolic W_J, in enumeration order."""
    subset = normalize_subset(group.rank, J)
    right = group._right
    seen = {0}
    queue = [0]
    while queue:
        x = queue.pop()
        for i in subset:
            y = right[i][x]
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return tuple(group.elements[x] for x in sorted(seen))


def double_cosets(group: WeylGroup, J, K) -> list[list[int]]:
    """Decompose W into (W_J, W_K) double cosets W_J w W_K, as index lists.

    One pass over the group in enumeration order.  An element x with a left
    descent j in J joins the coset of s_j x; otherwise one with a right
    descent k in K joins the coset of x s_k; otherwise x has neither, so it
    is the minimal element of its coset and opens a new one.  Both s_j x and
    x s_k are shorter than x, and enumeration is breadth-first by length, so
    they have smaller indices and are already placed.  Cosets therefore come
    out ordered by min rep, each an ascending list of element indices: its
    first entry is the min rep, its last the max rep.
    """
    mask_j = _mask(normalize_subset(group.rank, J))
    mask_k = _mask(normalize_subset(group.rank, K))
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
    return members


def _component_reps(group: WeylGroup, J, K) -> list[tuple[int, bool]]:
    """(max rep index, eta) per (W_J, W_K) double coset, in coset order.

    Read off the coset tables, not the partition of ``double_cosets``: the
    min reps are the members x of W^K with no left descent in J, that is
    the groups of W^K whose descent mask misses J, merged back into
    enumeration order; each max rep is top_J[x·w_K].  eta: the max rep is
    minimal.  J and K are normalized subsets, checked where they entered.
    """
    mask_j, mask_k = _mask(J), _mask(K)
    top, rdesc, inv = group._left_top(mask_j), group._rdesc, group._inv
    groups, xw = group._right_quotient(mask_k)
    mins = sorted(chain.from_iterable(ps for d, ps in groups.items() if not d & mask_j))
    maxs = [top[xw[p]] for p in mins]
    return [(m, not (rdesc[inv[m]] & mask_j or rdesc[m] & mask_k)) for m in maxs]


def min_double_coset_rep(w: WeylElement, J, K) -> WeylElement:
    """Minimal-length element of W_J w W_K, by greedy descent removal."""
    group = w.group
    mask_j = _mask(normalize_subset(group.rank, J))
    mask_k = _mask(normalize_subset(group.rank, K))
    rdesc, inv, left, right = group._rdesc, group._inv, group._left, group._right
    x = w.index
    while True:
        down = rdesc[inv[x]] & mask_j
        if down:
            x = left[(down & -down).bit_length() - 1][x]
            continue
        down = rdesc[x] & mask_k
        if not down:
            return group.elements[x]
        x = right[(down & -down).bit_length() - 1][x]


def max_double_coset_rep(w: WeylElement, J, K) -> WeylElement:
    """Maximal-length element of W_J w W_K: top_J[x·w_K] for its min rep x."""
    group = w.group
    J, K = normalize_subset(group.rank, J), normalize_subset(group.rank, K)
    x = min_double_coset_rep(w, J, K).index
    top_j, top_k, inv = group._left_top(_mask(J)), group._left_top(_mask(K)), group._inv
    # x·w_K, the top of x·W_K, is the inverse of the top of W_K·x^-1
    return group.elements[top_j[inv[top_k[inv[x]]]]]


def _mask(subset) -> int:
    """Bit mask of a normalized subset of the simple reflections."""
    return sum(1 << j for j in subset)


def is_minimal_in_double_coset(w: WeylElement, J, K) -> bool:
    """True iff w is the minimal element of W_J w W_K.

    Equivalent to having no left descent in J and no right descent in K;
    for J = {s}, K = empty this reads sw > w.
    """
    group = w.group
    mask_j = _mask(normalize_subset(group.rank, J))
    mask_k = _mask(normalize_subset(group.rank, K))
    x, rdesc = w.index, group._rdesc
    return not (rdesc[group._inv[x]] & mask_j or rdesc[x] & mask_k)


def maximal_reps(group: WeylGroup, J, K) -> tuple[WeylElement, ...]:
    """Maximal-length representatives, one per (W_J, W_K) double coset."""
    subJ, subK = normalize_subset(group.rank, J), normalize_subset(group.rank, K)
    return tuple(group.elements[m] for m, _ in _component_reps(group, subJ, subK))

