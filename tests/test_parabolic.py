from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as hyp

import oracles as orc
from steinberg import InvalidSubset, cartan_from_name, enumerate_weyl, root_system
from steinberg import algebra, varieties
from steinberg.parabolic import (
    double_cosets,
    is_minimal_in_double_coset,
    max_double_coset_rep,
    maximal_reps,
    min_double_coset_rep,
    normalize_subset,
    parabolic_elements,
)


def _group(name):
    return enumerate_weyl(root_system(cartan_from_name(name)))


def test_normalize_subset():
    assert normalize_subset(3, [2, 0]) == (0, 2)
    assert normalize_subset(3, []) == ()
    with pytest.raises(InvalidSubset):
        normalize_subset(3, [3])
    with pytest.raises(InvalidSubset):
        normalize_subset(3, [-1])
    with pytest.raises(InvalidSubset):
        normalize_subset(3, [0, 0])
    with pytest.raises(InvalidSubset):
        normalize_subset(3, ["1"])


def test_normalize_subset_checks_every_call():
    # nothing is remembered between calls: inputs equal to a valid tuple but
    # not plain ints (bools, floats) and invalid tuples fail every time
    for _ in range(2):
        assert normalize_subset(3, (2, 1)) == (1, 2)
        assert normalize_subset(3, [2, 1]) == (1, 2)
        for bad in [(True,), (2.0, 1), (1, 1), (3,), (2, True)]:
            with pytest.raises(InvalidSubset):
                normalize_subset(3, bad)
    assert normalize_subset(3, (1,)) == (1,)
    with pytest.raises(InvalidSubset):
        normalize_subset(3, (True,))
    # the same tuple is checked against each rank
    assert normalize_subset(4, (3,)) == (3,)
    with pytest.raises(InvalidSubset):
        normalize_subset(3, (3,))


def _subset_takers(g, w):
    """Every public function that takes subsets, by name: those of one subset,
    then those of a pair (J, K)."""
    v = algebra.delta(w)
    one = [
        ("normalize_subset", lambda S: normalize_subset(3, S)),
        ("parabolic_elements", lambda S: parabolic_elements(g, S)),
        ("trivial_idempotent", lambda S: algebra.trivial_idempotent(g, S)),
        ("sign_idempotent", lambda S: algebra.sign_idempotent(g, S)),
        ("parabolic_length", lambda S: varieties.parabolic_length(g.roots, S)),
        ("WeylGroup.longest_element", g.longest_element),
    ]
    two = [
        ("average", lambda J, K: algebra.average(J, K, v)),
        ("sign_average", lambda J, K: algebra.sign_average(J, K, v)),
        ("pair_profile", lambda J, K: varieties.pair_profile(g.roots, J, K)),
    ]
    two += [(f.__name__, lambda J, K, f=f: f(w, J, K)) for f in (
        min_double_coset_rep, max_double_coset_rep, is_minimal_in_double_coset)]
    two += [(f.__name__, lambda J, K, f=f: f(g, J, K)) for f in (
        double_cosets, maximal_reps, algebra.invariant_basis, algebra.anti_invariant_basis,
        varieties.y_components, varieties.pair_context,
        varieties.verify_invariant_isomorphism, varieties.verify_anti_invariant_isomorphism,
        varieties.averaging_image_check)]
    return one, two


@pytest.mark.parametrize(
    "bad", [(3,), (True,), (2.0, 1), (1, 1), ("1",), None, 5, 1.0], ids=repr)
def test_every_public_subset_taker_refuses_a_bad_subset(bad):
    # each subset is checked once, where it enters; these are the entries.
    # A subset that is not iterable at all must not escape as a TypeError
    g = _group("A3")
    one, two = _subset_takers(g, g.elements[7])
    if bad is None:  # longest_element(None) is the longest element of W
        one = [(name, call) for name, call in one if name != "WeylGroup.longest_element"]
    calls = [(name, call, (bad,)) for name, call in one]
    calls += [(name, call, args) for name, call in two for args in ((bad, (0,)), ((0,), bad))]
    for name, call, args in calls:
        try:
            call(*args)
        except InvalidSubset:
            continue
        pytest.fail(f"{name}{args} did not raise InvalidSubset")


def test_every_public_subset_taker_reads_a_subset_once():
    # a subset may be a one-shot iterator: read twice, it is empty the second time
    g = _group("A3")
    J, K = (0, 1), (1, 2)
    one, two = _subset_takers(g, g.elements[7])
    calls = [(name, call, (J,)) for name, call in one]
    calls += [(name, call, (J, K)) for name, call in two]
    differ = [name for name, call, args in calls
              if call(*map(iter, args)) != call(*args)]
    assert differ == []


def test_parabolic_elements_examples():
    g = _group("A2")
    assert [w.name for w in parabolic_elements(g, [])] == ["e"]
    assert [w.name for w in parabolic_elements(g, [0])] == ["e", "s1"]
    assert len(parabolic_elements(g, [0, 1])) == 6
    b2 = _group("B2")
    assert len(parabolic_elements(b2, [0, 1])) == 8


def test_parabolic_sizes_b3():
    # expected values computed once by the independent brute product closure oracle, then frozen
    g = _group("B3")
    assert len(parabolic_elements(g, [0, 1])) == 6   # A2 inside B3
    assert len(parabolic_elements(g, [1, 2])) == 8   # B2 inside B3
    assert len(parabolic_elements(g, [0, 2])) == 4   # A1 x A1


def test_parabolic_matches_brute_closure():
    for name in ["A2", "B2", "B3"]:
        g = _group(name)
        for J in orc.all_subsets(g.rank):
            got = {w.index for w in parabolic_elements(g, J)}
            assert got == orc.brute_parabolic(g, J)


def test_double_cosets_a2_example():
    # expected values computed once by the independent orbit enumeration oracle, then frozen
    g = _group("A2")
    dec = double_cosets(g, [0], [1])
    assert len(dec) == 2
    assert sorted(len(xs) for xs in dec) == [2, 4]
    assert [g.elements[xs[0]].name for xs in dec] == ["e", "s2s1"]
    assert [g.elements[xs[-1]].name for xs in dec] == ["s1s2", "s1s2s1"]


def test_double_cosets_b2_example():
    g = _group("B2")
    dec = double_cosets(g, [0], [1])
    assert len(dec) == 2
    assert [len(xs) for xs in dec] == [4, 4]


def test_double_cosets_edge_subsets():
    g = _group("A2")
    # J = K = empty: singleton cosets, one per element
    dec = double_cosets(g, [], [])
    assert len(dec) == 6
    assert all(len(xs) == 1 for xs in dec)
    # J = K = full: one coset, the whole group
    dec = double_cosets(g, [0, 1], [0, 1])
    assert len(dec) == 1
    assert len(dec[0]) == 6
    assert g.elements[dec[0][0]] == g.identity
    assert g.elements[dec[0][-1]] == g.longest_element()


def test_decomposition_is_partition():
    for name in ["A2", "B2", "B3", "D4"]:
        g = _group(name)
        for J in orc.all_subsets(g.rank):
            for K in orc.all_subsets(g.rank):
                dec = double_cosets(g, J, K)
                seen = [x for xs in dec for x in xs]
                assert sorted(seen) == list(range(g.order))
                owner = {x: xs for xs in dec for x in xs}
                for xs in dec:
                    for x in xs:
                        assert owner[x] is xs


@pytest.mark.parametrize("name", ["A2", "B3", "G2", "D4"])
def test_members_index_the_cosets_built_on_read(name):
    # the partition is its index lists: one ascending list per coset, led by
    # the coset's min rep and ended by its max rep, in min-rep order
    g = _group(name)
    for J in orc.all_subsets(g.rank):
        for K in orc.all_subsets(g.rank):
            dec = double_cosets(g, J, K)
            mins = [w.index for w in g.elements if is_minimal_in_double_coset(w, J, K)]
            assert [xs[0] for xs in dec] == mins
            assert len(dec) == len(mins)
            for xs in dec:
                assert type(xs) is list and xs == sorted(set(xs))
                assert max_double_coset_rep(g.elements[xs[0]], J, K).index == xs[-1]


def test_cosets_match_literal_product_sets():
    cases = []
    for name in ["A2", "B2", "D4"]:
        g = _group(name)
        subsets = orc.all_subsets(g.rank)
        cases += [(g, J, K) for J in subsets for K in subsets]
    # every pair of F4 takes about half a minute against the literal oracle
    g = _group("F4")
    subsets = orc.all_subsets(g.rank)
    rng = random.Random(7)
    cases += [(g, rng.choice(subsets), rng.choice(subsets)) for _ in range(10)]
    for g, J, K in cases:
        for xs in double_cosets(g, J, K):
            brute = orc.brute_double_coset(g, g.elements[xs[0]], J, K)
            assert set(xs) == set(brute)


def test_coset_count_matches_union_find():
    for name in ["A3", "B3", "G2", "D4", "F4"]:
        g = _group(name)
        for J in orc.all_subsets(g.rank):
            for K in orc.all_subsets(g.rank):
                assert len(double_cosets(g, J, K)) == orc.union_find_coset_count(g, J, K)


def test_coset_order_and_rep_extremality():
    for name in ["A3", "B3"]:
        g = _group(name)
        for J in orc.all_subsets(g.rank):
            for K in orc.all_subsets(g.rank):
                dec = double_cosets(g, J, K)
                min_indices = [xs[0] for xs in dec]
                assert min_indices == sorted(min_indices)
                for xs in dec:
                    lengths = [g.elements[x].length for x in xs]
                    # unique shortest and longest member
                    assert lengths.count(min(lengths)) == 1
                    assert lengths.count(max(lengths)) == 1
                    assert g.elements[xs[0]].length == min(lengths)
                    assert g.elements[xs[-1]].length == max(lengths)


def test_greedy_reps_match_orbit_extremes():
    for name in ["A3", "B3"]:
        g = _group(name)
        for J in orc.all_subsets(g.rank):
            for K in orc.all_subsets(g.rank):
                for xs in double_cosets(g, J, K):
                    lo, hi = g.elements[xs[0]], g.elements[xs[-1]]
                    for x in xs:
                        w = g.elements[x]
                        assert min_double_coset_rep(w, J, K) == lo
                        assert max_double_coset_rep(w, J, K) == hi
                        assert is_minimal_in_double_coset(w, J, K) == (w == lo)


def test_greedy_reps_d4_sampled():
    g = _group("D4")
    rng = random.Random(11)
    subsets = orc.all_subsets(4)
    for _ in range(25):
        J = rng.choice(subsets)
        K = rng.choice(subsets)
        w = g.elements[rng.randrange(g.order)]
        xs = next(xs for xs in double_cosets(g, J, K) if w.index in xs)
        assert min_double_coset_rep(w, J, K) == g.elements[xs[0]]
        assert max_double_coset_rep(w, J, K) == g.elements[xs[-1]]


@pytest.mark.parametrize("name", ["B3", "D4", "F4"])
def test_coset_tables_match_permutation_oracle(name):
    # lengths, descents, products and parabolics all from root permutations
    g = _group(name)
    index_map = orc.perm_index_map(g)
    length = [sum(1 for img in perm if img < 0) for perm in orc.root_perms(g)]
    simple = [s.index for s in g.simple]

    def mul(x, y):
        return orc.perm_mul(g, x, y, index_map)

    for J in orc.all_subsets(g.rank):
        mask = sum(1 << j for j in J)
        WJ = orc.brute_parabolic(g, J)
        top = g._left_top(mask)
        placed = set()
        for y in range(g.order):
            if y not in placed:
                coset = {mul(u, y) for u in WJ}
                placed |= coset
                longest = max(coset, key=length.__getitem__)
                assert {top[z] for z in coset} == {longest}
        # the same subset on the right: W^J in enumeration order, each member's
        # position grouped by its left descents, and x·w_J at that position
        # (which names the member, as x = (x·w_J)·w_J)
        w_J = max(WJ, key=length.__getitem__)
        members = [x for x in range(g.order)
                   if all(length[mul(x, simple[j])] > length[x] for j in J)]
        groups: dict[int, list[int]] = {}
        for p, x in enumerate(members):
            d = sum(1 << i for i, s in enumerate(simple) if length[mul(s, x)] < length[x])
            groups.setdefault(d, []).append(p)
        got_groups, got_tops = g._right_quotient(mask)
        assert got_groups == groups
        assert got_tops == [mul(x, w_J) for x in members]


def test_minimality_criterion_single_reflection():
    # J = {s}, K = empty: minimal iff sw > w, for every type incl. F4
    for name in ["A2", "B2", "D4", "F4"]:
        g = _group(name)
        for s in range(g.rank):
            for w in g:
                assert is_minimal_in_double_coset(w, [s], []) == (
                    not g.is_left_descent(s, w))


def test_maximal_reps_a2():
    g = _group("A2")
    assert [w.name for w in maximal_reps(g, [0], [1])] == ["s1s2", "s1s2s1"]
    assert len(maximal_reps(g, [], [])) == 6
    assert [w.name for w in maximal_reps(g, [0, 1], [0, 1])] == ["s1s2s1"]


def test_coset_count_symmetric_in_j_k():
    for name in ["A2", "B2", "B3", "G2"]:
        g = _group(name)
        subsets = orc.all_subsets(g.rank)
        for J in subsets:
            for K in subsets:
                assert len(double_cosets(g, J, K)) == len(double_cosets(g, K, J))


def test_size_formula_index_of_stabilizer():
    # |W_J w W_K| * |W_J ∩ w W_K w^-1| = |W_J| * |W_K|
    for name in ["A2", "B2", "A3"]:
        g = _group(name)
        index_map = orc.perm_index_map(g)
        for J in orc.all_subsets(g.rank):
            for K in orc.all_subsets(g.rank):
                WJ = orc.brute_parabolic(g, J)
                WK = orc.brute_parabolic(g, K)
                for xs in double_cosets(g, J, K):
                    d = xs[0]
                    di = orc.perm_inv(g, d, index_map)
                    conj = {
                        orc.perm_mul(g, orc.perm_mul(g, d, b, index_map), di, index_map)
                        for b in WK
                    }
                    stab = len(WJ & conj)
                    assert len(xs) * stab == len(WJ) * len(WK)


def test_reps_bound_coset_in_bruhat_order():
    for name in ["A2", "B2"]:
        g = _group(name)
        for J in orc.all_subsets(g.rank):
            for K in orc.all_subsets(g.rank):
                for xs in double_cosets(g, J, K):
                    lo, hi = g.elements[xs[0]], g.elements[xs[-1]]
                    for x in xs:
                        assert g.bruhat_leq(lo, g.elements[x])
                        assert g.bruhat_leq(g.elements[x], hi)


_types = hyp.sampled_from(["A2", "B2", "G2", "A3"])


@settings(deadline=None, max_examples=60)
@given(name=_types, data=hyp.data())
def test_rep_properties_random(name, data):
    g = _group(name)
    subsets = orc.all_subsets(g.rank)
    J = data.draw(hyp.sampled_from(subsets))
    K = data.draw(hyp.sampled_from(subsets))
    w = g.elements[data.draw(hyp.integers(min_value=0, max_value=g.order - 1))]
    lo = min_double_coset_rep(w, J, K)
    hi = max_double_coset_rep(w, J, K)
    assert lo.length <= w.length <= hi.length
    assert is_minimal_in_double_coset(lo, J, K)
    assert min_double_coset_rep(lo, J, K) == lo
    assert max_double_coset_rep(hi, J, K) == hi
