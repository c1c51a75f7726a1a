"""Independent oracle implementations for cross-checking the library.

Everything here deliberately avoids the library's fast paths: products are
recomputed from signed root permutations (not the multiplication table;
the library keeps no permutations at all), the group's tables are rebuilt
by a permutation enumeration (not the orbit of rho), cosets are counted by
union-find (not orbit BFS), Bruhat order is built from reflection chains
and from literal subword search, and ranks come from a dense Gaussian
elimination (not the sparse reducer).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import invert


def _compose(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[int, ...]:
    """Signed permutation composition: apply inner first, then outer."""
    return tuple(outer[j] if j >= 0 else ~outer[~j] for j in inner)


def _lookup(outer: tuple[int, ...]):
    """``_compose`` with one outer and many inners: index -> image under outer.

    Entry ``~k`` (the negative of root k) must map to ``~outer[k]``.  Python
    reads index ``~k`` from the end, so outer followed by its negated
    reversal serves both signs with one lookup.
    """
    return (outer + tuple(map(invert, reversed(outer)))).__getitem__


def _invert(perm: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(perm)
    for r, img in enumerate(perm):
        if img >= 0:
            out[img] = r
        else:
            out[~img] = ~r
    return tuple(out)


def simple_perms(roots) -> list[tuple[int, ...]]:
    """Each simple reflection as a signed permutation of the positive roots.

    Entry ``j`` of a permutation means root ``j``, entry ``~j`` its negative;
    s_i(beta) = beta - <beta, alpha_i^vee> alpha_i, read off the Cartan matrix.
    """
    matrix = roots.datum.matrix
    coords = [r.coords for r in roots.positive]
    index = {c: k for k, c in enumerate(coords)}
    perms = []
    for i, row in enumerate(matrix):
        images = []
        for beta in coords:
            gamma = list(beta)
            gamma[i] -= sum(a * b for a, b in zip(row, beta))
            k = index.get(tuple(gamma))
            images.append(~index[tuple(-c for c in gamma)] if k is None else k)
        perms.append(tuple(images))
    return perms


def permutation_bfs(roots) -> dict[str, list]:
    """The group's tables from an enumeration by signed root permutations.

    Breadth-first from the identity, multiplying each element by s_1, ...,
    s_r on the right and keeping the first path to each new permutation, so
    the words are the lex-minimal reduced words in the library's order (a
    product that is new is always longer).  Lengths count the positive roots
    sent negative, descents read the simple roots' images, and the left
    table composes on the left: nothing here reads a word's length or the
    library's tables.
    """
    rank = roots.rank
    simple = simple_perms(roots)
    identity = tuple(range(roots.n_positive))
    # an element is determined by the images of the simple roots, so those
    # key the permutations: rank entries to hash instead of every root's
    heads = [s[:rank] for s in simple]
    perms = [identity]
    words: list[tuple[int, ...]] = [()]
    index = {identity[:rank]: 0}
    right: list[list[int]] = [[] for _ in simple]
    frontier = [0]
    while frontier:
        fresh = []
        for x in frontier:  # frontiers run through the indices in order
            lookup = _lookup(perms[x])
            for i, head in enumerate(heads):
                y = index.get(tuple(map(lookup, head)))
                if y is None:
                    y = len(perms)
                    perms.append(tuple(map(lookup, simple[i])))
                    index[perms[y][:rank]] = y
                    words.append(words[x] + (i,))
                    fresh.append(y)
                right[i].append(y)
        frontier = fresh
    left = [[index[tuple(map(f, p[:rank]))] for p in perms] for f in map(_lookup, simple)]
    return {
        "words": words,
        "right": right,
        "left": left,
        "inv": [index[_invert(p)[:rank]] for p in perms],
        "rdesc": [sum(1 << i for i in range(rank) if p[i] < 0) for p in perms],
        "length": [sum(map((0).__gt__, p)) for p in perms],  # roots sent negative
        "simple": [index[head] for head in heads],
    }


@lru_cache(maxsize=8)
def root_perms(group) -> tuple[tuple[int, ...], ...]:
    """Each element's signed permutation of the positive roots, by index.

    Built once per group from the canonical words and ``simple_perms``: a
    canonical word less its last letter is the canonical word of an earlier
    element, so each element costs one composition.
    """
    simple = simple_perms(group.roots)
    by_word: dict[tuple[int, ...], int] = {}
    perms: list[tuple[int, ...]] = []
    for w in group.elements:
        word = w.canonical_word
        if word:
            perms.append(_compose(perms[by_word[word[:-1]]], simple[word[-1]]))
        else:
            perms.append(tuple(range(group.roots.n_positive)))
        by_word[word] = w.index
    return tuple(perms)


def perm_index_map(group):
    return {perm: x for x, perm in enumerate(root_perms(group))}


def perm_mul(group, x: int, y: int, index_map=None) -> int:
    """Product of element indices via signed permutation composition."""
    if index_map is None:
        index_map = perm_index_map(group)
    perms = root_perms(group)
    return index_map[_compose(perms[x], perms[y])]


def perm_inv(group, x: int, index_map=None) -> int:
    if index_map is None:
        index_map = perm_index_map(group)
    return index_map[_invert(root_perms(group)[x])]


def brute_parabolic(group, J) -> set[int]:
    """W_J by closure under products, built from permutation composition."""
    index_map = perm_index_map(group)
    gens = [group.simple[j].index for j in J]
    members = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = perm_mul(group, x, g, index_map)
            if y not in members:
                members.add(y)
                frontier.append(y)
    return members


def union_find_coset_count(group, J, K) -> int:
    """Number of (W_J, W_K) double cosets by union-find over W."""
    order = group.order
    parent = list(range(order))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for x in range(order):
        for j in J:
            union(x, group.left_index(x, j))
        for k in K:
            union(x, group.right_index(x, k))
    return sum(1 for x in range(order) if find(x) == x)


def brute_double_coset(group, w, J, K) -> frozenset[int]:
    """Literal product set {a w b : a in W_J, b in W_K} as element indices."""
    index_map = perm_index_map(group)
    WJ = brute_parabolic(group, J)
    WK = brute_parabolic(group, K)
    out = set()
    for a in WJ:
        aw = perm_mul(group, a, w.index, index_map)
        for b in WK:
            out.add(perm_mul(group, aw, b, index_map))
    return frozenset(out)


def reflections(group) -> list[int]:
    """All reflections w s w^-1 as element indices."""
    index_map = perm_index_map(group)
    out = set()
    for w in range(group.order):
        wi = perm_inv(group, w, index_map)
        for s in group.simple:
            out.add(perm_mul(group, perm_mul(group, w, s.index, index_map), wi, index_map))
    return sorted(out)


def bruhat_matrix_by_reflection_chains(group) -> list[int]:
    """down[w] = bitmask of {u : u <= w}, built by chains t_1..t_k with
    strictly increasing length at each step."""
    refl = reflections(group)
    index_map = perm_index_map(group)
    order = group.order
    by_length = sorted(range(order), key=group.length_of)
    down = [0] * order
    for x in by_length:
        mask = 1 << x
        lx = group.length_of(x)
        for t in refl:
            y = perm_mul(group, t, x, index_map)
            if group.length_of(y) < lx:
                mask |= down[y]
        down[x] = mask
    return down


def all_reduced_words(group, w) -> list[tuple[int, ...]]:
    """Every reduced word of w, by peeling right descents recursively."""
    if w.length == 0:
        return [()]
    out = []
    for s in group.right_descents(w):
        shorter = group.multiply(w, group.simple[s])
        for word in all_reduced_words(group, shorter):
            out.append(word + (s,))
    return out


def is_subword(needle: tuple[int, ...], haystack: tuple[int, ...]) -> bool:
    it = iter(haystack)
    return all(letter in it for letter in needle)


def subword_bruhat_leq(group, u, w) -> bool:
    """u <= w iff some reduced word of u is a subword of one fixed reduced
    word of w (the subword property makes the choice of w's word immaterial)."""
    word_w = w.canonical_word
    return any(is_subword(word_u, word_w) for word_u in all_reduced_words(group, u))


def dense_rank(vectors, order: int) -> int:
    """Rank by dense Gaussian elimination over Fraction."""
    rows = []
    for v in vectors:
        row = [Fraction(0)] * order
        for w, q in v.items():
            row[w.index] = q
        rows.append(row)
    rank = 0
    col = 0
    n = len(rows)
    while rank < n and col < order:
        pivot = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [c * inv for c in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def all_subsets(rank: int) -> list[tuple[int, ...]]:
    return [
        tuple(i for i in range(rank) if mask >> i & 1) for mask in range(1 << rank)
    ]
