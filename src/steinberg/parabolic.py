"""Standard parabolic subgroups and their double cosets.

For simple subsets J and K, each (W_J, W_K) double coset contains a unique
element of minimal length (no left descents in J, no right descents in K)
and a unique element of maximal length (all of them are descents); one
walk from any member (``WeylGroup._walk``) reaches either.  The reps of a
whole pair (``_component_reps``, ``maximal_reps``) are read from
per-subset coset tables instead (``_left_top`` and ``_right_quotient``,
kept in the group's ``_subsets`` on first use): the max over a minimal x is
top_J[x·w_K] = (w_J·w_I)·x·w_K with lengths adding, I = J ∩ xKx^-1, so
it is the longest element of W_J·x·w_K
(Björner–Brenti, *Combinatorics of Coxeter Groups*, ch. 2).  W^K is kept
grouped by left descent mask, each member's position beside x·w_K, so
the min reps of a pair are the groups whose mask misses J: a pair costs
its cosets plus its groups, not a scan of W^K.  Only the max reps are
returned; eta is one fact per pair, set in ``varieties.y_components``.

The decomposition is one pass over W in enumeration order: an element
that is not minimal has a left descent in J or a right descent in K, and
the shorter neighbour across it is an earlier element of the same coset.
The partition is its index lists alone, one ascending list per coset;
a caller that wants elements reads them off ``group.elements``.
The walk, the partition and the tables read none of each other, so they
are three independent engines for the same cosets.
"""

from __future__ import annotations

from itertools import chain

from .rootsys import WeylElement, WeylGroup, _mask, normalize_subset


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
    mask_j, mask_k = _masks(group, J, K)
    rdesc, inv, left, right = group._rdesc, group._inv, group._left, group._right
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


def _component_reps(group: WeylGroup, J, K) -> list[int]:
    """Max rep index per (W_J, W_K) double coset, in coset order.

    Read off the coset tables, not the partition of ``double_cosets``: the
    min reps are the members x of W^K with no left descent in J, that is
    the groups of W^K whose descent mask misses J, merged back into
    enumeration order; each max rep is top_J[x·w_K].  J and K are
    normalized subsets, checked where they entered.
    """
    mask_j = _mask(J)
    top, (groups, xw) = _left_top(group, mask_j), _right_quotient(group, _mask(K))
    mins = sorted(chain.from_iterable(ps for d, ps in groups.items() if not d & mask_j))
    return [top[xw[p]] for p in mins]


def _left_top(group: WeylGroup, mask: int) -> list[int]:
    """``top[y]`` is the longest element of W_J·y, J as a bit mask.

    Filled in reverse enumeration order: for the lowest j in J that is
    not a left descent of y, s_j·y is longer, so its entry is filled.  The
    empty J has no such j, so its pass is skipped: each y is its own top.
    """
    top = group._subsets[mask].get("top")
    if top is None:
        rdesc, inv, left = group._rdesc, group._inv, group._left
        top = group._subsets[mask]["top"] = list(range(group.order))
        for y in range(group.order - 1 if mask else -1, -1, -1):
            up = mask & ~rdesc[inv[y]]
            if up:
                top[y] = top[left[(up & -up).bit_length() - 1][y]]
    return top


def _right_quotient(group: WeylGroup, mask: int) -> tuple[dict[int, list[int]], list[int]]:
    """W^K grouped by left descents, K as a bit mask: ``(groups, tops)``.

    With x_0, x_1, ... the members of W^K in enumeration order,
    ``groups[d]`` holds the ascending positions p whose x_p has left
    descent mask d, and ``tops[p]`` is x_p·w_K, the top of x_p·W_K: the
    inverse of the top of W_K·x_p^-1.
    """
    quotient = group._subsets[mask].get("quotient")
    if quotient is None:
        rdesc, inv, top = group._rdesc, group._inv, _left_top(group, mask)
        groups: dict[int, list[int]] = {}
        tops: list[int] = []
        for x in range(group.order):
            if not rdesc[x] & mask:
                y = inv[x]
                groups.setdefault(rdesc[y], []).append(len(tops))
                tops.append(inv[top[y]])
        quotient = group._subsets[mask]["quotient"] = (groups, tops)
    return quotient


def min_double_coset_rep(w: WeylElement, J, K) -> WeylElement:
    """Minimal-length element of W_J w W_K: the walk down from w."""
    group = w.group
    return group.elements[group._walk(w.index, *_masks(group, J, K), False)]


def max_double_coset_rep(w: WeylElement, J, K) -> WeylElement:
    """Maximal-length element of W_J w W_K: the walk up from w."""
    group = w.group
    return group.elements[group._walk(w.index, *_masks(group, J, K), True)]


def _masks(group: WeylGroup, J, K) -> tuple[int, int]:
    """Bit masks of J and K, each checked where it enters a public function."""
    return _mask(normalize_subset(group.rank, J)), _mask(normalize_subset(group.rank, K))


def is_minimal_in_double_coset(w: WeylElement, J, K) -> bool:
    """True iff w is the minimal element of W_J w W_K.

    Equivalent to having no left descent in J and no right descent in K;
    for J = {s}, K = empty this reads sw > w.
    """
    group = w.group
    mask_j, mask_k = _masks(group, J, K)
    x, rdesc = w.index, group._rdesc
    return not (rdesc[group._inv[x]] & mask_j or rdesc[x] & mask_k)


def maximal_reps(group: WeylGroup, J, K) -> tuple[WeylElement, ...]:
    """Maximal-length representatives, one per (W_J, W_K) double coset."""
    subJ, subK = normalize_subset(group.rank, J), normalize_subset(group.rank, K)
    return tuple(group.elements[m] for m in _component_reps(group, subJ, subK))

