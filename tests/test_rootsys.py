from __future__ import annotations

import gc
import itertools
import json
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as hyp

import oracles as orc
from steinberg import (
    InvalidSubset,
    MixedGroups,
    NotFiniteType,
    NotGeneralizedCartan,
    OrderCapExceeded,
    ParseError,
    cartan_from_name,
    enumerate_weyl,
    root_system,
    standard_cartan,
    validate_cartan,
    word_name,
)
from steinberg import cli
from steinberg.rootsys import _PRODUCT_TABLE_LIMIT, DEFAULT_ROOT_CAP, WeylGroup
from steinberg.varieties import y_components

# frozen: classical Weyl group orders
ORDERS = {"A1": 2, "A2": 6, "A3": 24, "B2": 8, "B3": 48,
          "C3": 48, "D4": 192, "G2": 12, "F4": 1152}
# frozen: classical positive-root counts
ROOT_COUNTS = {"A1": 1, "A2": 3, "A3": 6, "B2": 4, "B3": 9,
               "C3": 9, "D4": 12, "G2": 6, "F4": 24}


def _group(name):
    return enumerate_weyl(root_system(cartan_from_name(name)))


# -- Cartan validation ------------------------------------------------------

def test_classification_standard_tags():
    for name in ORDERS:
        assert cartan_from_name(name).type_name == name


def test_classification_permuted_and_products():
    assert validate_cartan([[2, -1], [-1, 2]]).type_name == "A2"
    assert validate_cartan([[2, -1], [-2, 2]]).type_name == "B2"
    # C2 labeling is the same dihedral group; canonical tag is B2
    assert validate_cartan([[2, -2], [-1, 2]]).type_name == "B2"
    # disconnected diagram
    assert validate_cartan([[2, 0], [0, 2]]).type_name == "A1xA1"
    # D3 relabels to A3
    assert validate_cartan(standard_cartan("D", 3)).type_name == "A3"
    # components are ordered by letter, then by rank as a number
    total = _block_sum(standard_cartan("A", 10), standard_cartan("A", 2))
    assert validate_cartan(total).type_name == "A2xA10"


def _relabel(matrix, perm):
    n = len(matrix)
    return [[matrix[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


def _block_sum(a, b):
    n, m = len(a), len(b)
    return [list(row) + [0] * m for row in a] + [[0] * n + list(row) for row in b]


# every standard type up to rank 8, with its frozen classification tag:
# C2 is B2 relabeled and D3 is A3 relabeled
STANDARD_UP_TO_8 = (
    [(f"A{n}", f"A{n}") for n in range(1, 9)]
    + [(f"B{n}", f"B{n}") for n in range(2, 9)]
    + [("C2", "B2")] + [(f"C{n}", f"C{n}") for n in range(3, 9)]
    + [("D3", "A3")] + [(f"D{n}", f"D{n}") for n in range(4, 9)]
    + [("E6", "E6"), ("E7", "E7"), ("E8", "E8"), ("F4", "F4"), ("G2", "G2")]
)


def _standard(name):
    return standard_cartan(name[0], int(name[1:]))


def _tag_key(tag):
    return (tag[0], int(tag[1:]))


def test_classification_permuted_standard_types_up_to_rank_8():
    rng = random.Random(17)
    for name, tag in STANDARD_UP_TO_8:
        matrix = _standard(name)
        assert validate_cartan(matrix).type_name == tag
        for _ in range(3):
            perm = list(range(len(matrix)))
            rng.shuffle(perm)
            assert validate_cartan(_relabel(matrix, perm)).type_name == tag
        # three components: equal ranks are where several disjoint maximal
        # supports of one size must all be kept
        others = [rng.choice(STANDARD_UP_TO_8) for _ in range(2)]
        total = matrix
        for other, _ in others:
            total = _block_sum(total, _standard(other))
        perm = list(range(len(total)))
        rng.shuffle(perm)
        expected = "x".join(sorted([tag, *(t for _, t in others)], key=_tag_key))
        assert validate_cartan(_relabel(total, perm)).type_name == expected


# every bond a_ij·a_ji of a finite type is at most 3 (Kac §4.8), so these
# off-diagonal pairs (a_ij, a_ji) give every finite type matrix of rank <= 3
BONDS = [(0, 0), (-1, -1), (-1, -2), (-2, -1), (-1, -3), (-3, -1)]


def test_every_admitted_matrix_up_to_rank_3_gets_a_standard_tag():
    # the root closure ends under its cap only in finite type, so a matrix is
    # either refused or named by standard components that add up to it
    tried = admitted = 0
    for rank in (1, 2, 3):
        cells = list(itertools.combinations(range(rank), 2))
        for bonds in itertools.product(BONDS, repeat=len(cells)):
            matrix = [[2 * (i == j) for j in range(rank)] for i in range(rank)]
            for (i, j), (a, b) in zip(cells, bonds):
                matrix[i][j], matrix[j][i] = a, b
            tried += 1
            try:
                expected = orc.dense_closure(matrix, DEFAULT_ROOT_CAP)
            except NotFiniteType as refusal:
                with pytest.raises(NotFiniteType) as caught:
                    validate_cartan(matrix)
                assert str(caught.value) == str(refusal), matrix
                continue
            datum = validate_cartan(matrix)
            assert datum.closure == expected, matrix
            admitted += 1
            parts = [cartan_from_name(part) for part in datum.type_name.split("x")]
            assert sum(part.rank for part in parts) == rank, matrix
            assert (sum(root_system(part).n_positive for part in parts)
                    == root_system(datum).n_positive), matrix
    assert (tried, admitted) == (223, 38)


@pytest.mark.parametrize("name", ["A12", "B10", "D10"])
def test_classification_shuffled_large_rank_is_fast(tmp_path, capsys, name):
    matrix = _standard(name)
    perm = list(range(len(matrix)))
    random.Random(name).shuffle(perm)
    shuffled = _relabel(matrix, perm)
    start = time.perf_counter()
    assert validate_cartan(shuffled).type_name == name
    assert time.perf_counter() - start < 1.0
    # through --cartan: classified, then refused by the order cap (exit 2)
    path = tmp_path / "cartan.json"
    path.write_text(json.dumps({"matrix": shuffled}))
    start = time.perf_counter()
    code = cli.main(["table", "--cartan", str(path), "--order-cap", "10"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("matrix", [
    standard_cartan("A", 300),
    # rank 400 with every off-diagonal entry -1: each bond is 1, so only the
    # root closure refuses it, and its first level alone has 79,800 roots
    [[2 if i == j else -1 for j in range(400)] for i in range(400)],
], ids=["A300", "dense rank 400"])
def test_root_cap_refusal_of_a_large_rank_is_fast(matrix):
    start = time.perf_counter()
    with pytest.raises(NotFiniteType, match="^root closure exceeded 1200 positive roots;"):
        validate_cartan(matrix)
    assert time.perf_counter() - start < 2.0


def test_validate_rejects_affine():
    with pytest.raises(NotFiniteType):
        validate_cartan([[2, -2], [-2, 2]])


@pytest.mark.parametrize("name, matrix", [
    ("A49", standard_cartan("A", 49)),  # finite, 1,225 positive roots
    ("affine A2", [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]),  # infinite, every bond 1
])
def test_root_cap_refusal_names_both_causes(name, matrix, tmp_path, capsys):
    # the cap cannot tell a large finite type from an infinite one
    with pytest.raises(NotFiniteType) as caught:
        validate_cartan(matrix)
    message = str(caught.value)
    assert message == (
        "root closure exceeded 1200 positive roots; matrix is not of finite "
        "type, or its root system is larger than the cap"
    ), name
    path = tmp_path / "cartan.json"
    path.write_text(json.dumps({"matrix": [list(row) for row in matrix]}))
    # a cap of 2^50 admits rank 49, so the CLI reaches the root closure
    assert cli.main(["table", "--cartan", str(path), "--order-cap", str(2**50)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("matrix, pair", [
    ([[2, -2], [-2, 2]], (0, 1)),                     # affine A1, bond 4
    ([[2, -10**4199], [-1, 2]], (0, 1)),              # an entry of 4,200 digits
    ([[2, 0, -1], [0, 2, -1], [-4, -1, 2]], (0, 2)),  # bond 4 between s1 and s3
], ids=["affine A1", "4200 digits", "rank 3"])
def test_bond_above_3_refused_before_the_root_closure(
        matrix, pair, tmp_path, capsys, monkeypatch):
    from steinberg import rootsys

    def forbidden(*args, **kwargs):
        raise AssertionError("root closure ran on a bond above 3")

    monkeypatch.setattr(rootsys, "_closure", forbidden)
    i, j = pair
    message = (f"entries ({i},{j}) and ({j},{i}) multiply to more than 3, "
               "so the matrix is not of finite type")
    with pytest.raises(NotFiniteType) as caught:
        validate_cartan(matrix)
    assert str(caught.value) == message
    path = tmp_path / "cartan.json"
    path.write_text(json.dumps({"matrix": matrix}))
    start = time.perf_counter()
    assert cli.main(["table", "--cartan", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == f"error: {message}\n"


def test_root_system_reads_the_closure_of_its_datum(monkeypatch):
    from steinberg import rootsys

    def forbidden(*args, **kwargs):
        raise AssertionError("root closure ran again after validate_cartan")

    datum = cartan_from_name("E6")
    monkeypatch.setattr(rootsys, "_closure", forbidden)
    roots = root_system(datum)
    assert roots.n_positive == 36
    assert roots.positive is datum.closure


@pytest.mark.parametrize("matrix", [
    [[2, -1]],                       # not square
    [[1, -1], [-1, 2]],              # diagonal entry not 2
    [[2, 1], [-1, 2]],               # positive off-diagonal
    [[2, -1], [0, 2]],               # zero not symmetric
    [[2, -1.5], [-1, 2]],            # non-integer
    [],                              # empty
])
def test_validate_rejects_non_cartan(matrix):
    with pytest.raises(NotGeneralizedCartan):
        validate_cartan(matrix)


def test_validate_labels():
    datum = validate_cartan([[2, -1], [-1, 2]], labels=["a", "b"])
    assert datum.labels == ("a", "b")
    assert validate_cartan([[2]]).labels == ("s1",)
    with pytest.raises(NotGeneralizedCartan):
        validate_cartan([[2]], labels=["a", "b"])


@pytest.mark.parametrize("name", ["Z9", "B1", "A0", "a2", "E9", "F5", "G3", "D2", ""])
def test_parse_rejects_unknown_types(name):
    with pytest.raises(ParseError):
        cartan_from_name(name)


def test_standard_matrices():
    assert standard_cartan("B", 2) == ((2, -1), (-2, 2))
    assert standard_cartan("C", 2) == ((2, -2), (-1, 2))
    assert standard_cartan("G", 2) == ((2, -1), (-3, 2))
    c3 = standard_cartan("C", 3)
    assert c3[1][2] == -2 and c3[2][1] == -1


# frozen: the number of positive roots of each admitted type (Bourbaki, Plates I-IX)
STANDARD_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2 if n >= 1 else None,
    "B": lambda n: n * n if n >= 2 else None,
    "C": lambda n: n * n if n >= 2 else None,
    "D": lambda n: n * (n - 1) if n >= 3 else None,
    "E": {6: 36, 7: 63, 8: 120}.get,
    "F": {4: 24}.get,
    "G": {2: 6}.get,
}


@pytest.mark.parametrize("letter", "ABCDEFG")
def test_standard_types_admitted_and_refused(letter):
    for n in range(-1, 13):
        count = STANDARD_ROOT_COUNTS[letter](n)
        if count is None:
            with pytest.raises(ParseError, match=f"^no standard type {letter}{n}$"):
                standard_cartan(letter, n)
            continue
        datum = validate_cartan(standard_cartan(letter, n))
        assert len(datum.closure) == count, (letter, n)
        assert datum.type_name == {"C2": "B2", "D3": "A3"}.get(f"{letter}{n}", f"{letter}{n}")


# -- positive roots ---------------------------------------------------------

def test_positive_root_order_a2():
    # expected values computed once by the independent closure enumeration oracle, then frozen
    rs = root_system(cartan_from_name("A2"))
    roots = rs.positive
    assert roots == ((1, 0), (0, 1), (1, 1))
    assert repr(rs) == "RootSystem(A2, 3 positive roots)"


def test_positive_root_order_b2_g2():
    # expected values computed once by the independent closure enumeration, then frozen
    assert root_system(cartan_from_name("B2")).positive == (
        (1, 0), (0, 1), (1, 1), (1, 2))
    assert root_system(cartan_from_name("G2")).positive == (
        (1, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3))


def test_positive_root_counts():
    for name, count in ROOT_COUNTS.items():
        roots = root_system(cartan_from_name(name)).positive
        assert len(roots) == count, name
        assert all(min(r) >= 0 and any(r) for r in roots)
        heights = [sum(r) for r in roots]
        assert heights == sorted(heights)


def test_simple_roots_come_first():
    for name in ["A3", "B3", "D4"]:
        rs = root_system(cartan_from_name(name))
        for i in range(rs.rank):
            expect = tuple(1 if j == i else 0 for j in range(rs.rank))
            assert rs.positive[i] == expect


# -- enumeration ------------------------------------------------------------

def test_group_orders_match_classical_formulas():
    for name, order in ORDERS.items():
        assert len(_group(name)) == order, name


def test_type_a_factorial_formula():
    import math
    for rank in [1, 2, 3]:
        g = _group(f"A{rank}")
        assert len(g) == math.factorial(rank + 1)


def test_enumeration_order_b2():
    # expected values computed once by the independent BFS with lex tie-break, then frozen
    g = _group("B2")
    assert [w.name for w in g] == [
        "e", "s1", "s2", "s1s2", "s2s1", "s1s2s1", "s2s1s2", "s1s2s1s2"]
    assert repr(g) == "WeylGroup(B2, order 8)"
    assert repr(g.elements[3]) == "s1s2"


def test_enumeration_order_is_length_then_lex():
    for name in ["A2", "B2", "G2", "A3"]:
        g = _group(name)
        keys = [(w.length, w.canonical_word) for w in g]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


PARITY_TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C3", "C4",
                "D4", "D5", "F4", "G2", "E6", "A1xA2"]


@pytest.mark.parametrize("name", PARITY_TYPES)
def test_rho_orbit_tables_match_permutation_enumeration(name):
    if name == "A1xA2":  # the reducible --cartan matrix of the frozen corpus
        datum = validate_cartan([[2, 0, 0], [0, 2, -1], [0, -1, 2]])
    else:
        datum = cartan_from_name(name)
    roots = root_system(datum)
    g = enumerate_weyl(roots)
    bfs = orc.permutation_bfs(roots)
    assert [w.canonical_word for w in g] == bfs["words"]
    assert g._right == bfs["right"]
    assert g._left == bfs["left"]
    assert g._inv == bfs["inv"]
    assert g._rdesc == bfs["rdesc"]
    assert g._length == bfs["length"]
    assert [s.index for s in g.simple] == bfs["simple"]


def test_enumeration_holds_one_level_of_keys():
    # a key w^-1 rho is held only while its length level is walked, so the
    # peak of enumeration is the group it returns, not that and a key each
    roots = root_system(cartan_from_name("B5"))
    tracemalloc.start()
    try:
        g = enumerate_weyl(roots)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.order == 3840
    assert peak <= 1.05 * size, (peak, size)


def test_canonical_words_are_lex_minimal_reduced():
    for name in ["A2", "B2"]:
        g = _group(name)
        for w in g:
            words = orc.all_reduced_words(g, w)
            assert w.canonical_word == min(words)
            assert all(len(word) == w.length for word in words)


def test_length_counts_negated_roots():
    for name in ["A2", "B2", "B3"]:
        g = _group(name)
        for w in g:
            perm = orc.root_perms(g)[w.index]
            assert w.length == sum(1 for x in perm if x < 0)


# -- products and inverses --------------------------------------------------

def test_multiply_and_invert_examples():
    g = _group("A2")
    s1, s2 = g.simple
    assert (s1 * s2).name == "s1s2"
    assert (s1 * s1).name == "e"
    assert (~(s1 * s2)).name == "s2s1"
    w0 = g.longest_element()
    assert (~w0) == w0


def test_invert_reverses_canonical_word():
    for name in ["A2", "B2", "G2"]:
        g = _group(name)
        for w in g:
            assert g.invert(w).canonical_word == g.element_by_word(
                tuple(reversed(w.canonical_word))).canonical_word


def test_products_match_permutation_oracle():
    g = _group("B2")
    index_map = orc.perm_index_map(g)
    for u in g:
        for w in g:
            assert (u * w).index == orc.perm_mul(g, u.index, w.index, index_map)
        assert (~u).index == orc.perm_inv(g, u.index, index_map)


def test_product_table_built_on_first_product():
    g = _group("D5")
    subsets = orc.all_subsets(g.rank)
    for J in subsets:
        for K in subsets:
            y_components(g, J, K)
    # enumeration and the components sweep never multiply two elements
    assert g._table is None
    g.product_row(1)
    assert g._table is not None
    index_map = orc.perm_index_map(g)
    rng = random.Random(5)
    for _ in range(500):
        x, y = rng.randrange(g.order), rng.randrange(g.order)
        assert g.product_row(x)[y] == orc.perm_mul(g, x, y, index_map)


@pytest.mark.parametrize("name, wrong_right", [("B3", False), ("A6", False), ("A6", True)],
                         ids=["B3", "A6", "A6-wrong-right"])
def test_product_row_matches_multiply_and_oracle(name, wrong_right):
    g = _group(name)
    # B3 reads rows of the full table; A6 is over the limit and folds words
    assert (g.order > _PRODUCT_TABLE_LIMIT) == (name == "A6")
    index_map = orc.perm_index_map(g)
    if wrong_right:
        # the folds read x's word through _left alone, so no product moves when
        # each column of _right is swapped for another letter's, wrong everywhere
        g._right[:] = [g._right[(s + 1) % g.rank] for s in range(g.rank)]
    rng = random.Random(29)
    xs = rng.sample(range(g.order), 20)
    ys = rng.sample(range(g.order), 20)
    for x in xs:
        row = g.product_row(x)
        for y in ys:
            product = g.multiply(g.elements[x], g.elements[y]).index
            assert row[y] == product == orc.perm_mul(g, x, y, index_map)


def test_mixed_groups_rejected():
    g1 = _group("A2")
    g2 = _group("A2")
    with pytest.raises(MixedGroups):
        g1.multiply(g1.identity, g2.identity)
    with pytest.raises(MixedGroups):
        g1.invert(g2.identity)
    for u, w in ((g1.identity, g2.identity), (g2.identity, g1.identity)):
        with pytest.raises(MixedGroups):
            g1.bruhat_leq(u, w)
    # an element times anything but an element is no product at all
    with pytest.raises(TypeError):
        g1.identity * 2


def test_element_by_word():
    g = _group("A2")
    assert g.element_by_word([0, 0]).name == "e"
    assert g.element_by_word([1, 0, 1]).name == "s1s2s1"  # braid-equivalent word
    with pytest.raises(InvalidSubset):
        g.element_by_word([5])
    # a bool or a non-int is no letter, as it is no subset entry
    for letter in (True, False, "0", 1.0, None):
        with pytest.raises(InvalidSubset):
            g.element_by_word([letter])
        with pytest.raises(InvalidSubset):
            g.simple_reflection(letter)
    assert g.simple_reflection(1) is g.simple[1]


# -- descents and longest elements ------------------------------------------

def test_descents_against_length_change():
    for name in ["A2", "B2", "B3"]:
        g = _group(name)
        for w in g:
            for s in range(g.rank):
                right = g.multiply(w, g.simple[s])
                left = g.multiply(g.simple[s], w)
                assert g.is_right_descent(s, w) == (right.length < w.length)
                assert g.is_left_descent(s, w) == (left.length < w.length)
        for w in g:
            assert g.right_descents(w) == tuple(
                s for s in range(g.rank) if g.is_right_descent(s, w))


# an element of a smaller group would otherwise read a wrong row of the
# descent table, one of a larger group a row that is not there
@pytest.mark.parametrize("name, source, s, error", [
    ("B3", "A2", 0, MixedGroups),  # a smaller group
    ("A2", "A3", 0, MixedGroups),  # a larger group
    ("A2", "A2", 0, MixedGroups),  # another enumeration of the same type
    ("A2", None, -1, InvalidSubset),
    ("A2", None, 2, InvalidSubset),
    ("A2", None, 5, InvalidSubset),
    ("A2", None, True, InvalidSubset),
    ("A2", None, "0", InvalidSubset),
])
def test_descent_queries_refuse_foreign_elements_and_letters(name, source, s, error):
    g = _group(name)
    w = (g if source is None else _group(source)).longest_element()
    queries = [g.is_right_descent, g.is_left_descent]
    if error is MixedGroups:
        queries.append(lambda s, w: g.right_descents(w))
    for query in queries:
        with pytest.raises(error):
            query(s, w)


def test_longest_element_lengths():
    for name, count in ROOT_COUNTS.items():
        g = _group(name)
        assert g.longest_element().length == count
    g = _group("A2")
    assert g.longest_element([0]).name == "s1"
    assert g.longest_element([]).name == "e"
    # longest element negates every positive root
    w0 = g.longest_element()
    assert all(x < 0 for x in orc.root_perms(g)[w0.index])


# -- Bruhat order -----------------------------------------------------------

def test_bruhat_examples():
    g = _group("A2")
    e = g.identity
    s1, s2 = g.simple
    w0 = g.longest_element()
    assert g.bruhat_leq(e, w0)
    assert g.bruhat_leq(s1, s1 * s2)
    assert g.bruhat_leq(s2, s1 * s2)
    assert not g.bruhat_leq(s1, s2)
    assert not g.bruhat_leq(w0, s1)
    assert g.bruhat_leq(w0, w0)


def test_bruhat_relation_counts():
    # expected values computed once by the independent reflection-chain oracle, then frozen
    for name, expect in [("A2", 19), ("B2", 33)]:
        g = _group(name)
        count = sum(
            1 for u in g for w in g if g.bruhat_leq(u, w))
        assert count == expect


def test_bruhat_matches_reflection_chain_oracle():
    for name in ["A2", "B2", "G2", "A3"]:
        g = _group(name)
        down = orc.bruhat_matrix_by_reflection_chains(g)
        for w in g:
            for u in g:
                assert g.bruhat_leq(u, w) == bool(down[w.index] >> u.index & 1)


def test_bruhat_matches_subword_oracle():
    for name in ["A2", "B2"]:
        g = _group(name)
        for u in g:
            for w in g:
                assert g.bruhat_leq(u, w) == orc.subword_bruhat_leq(g, u, w)


def test_bruhat_is_partial_order_refining_length():
    g = _group("B2")
    elems = list(g)
    for u in elems:
        assert g.bruhat_leq(u, u)
        for w in elems:
            if g.bruhat_leq(u, w) and u != w:
                assert u.length < w.length
            for v in elems:
                if g.bruhat_leq(u, w) and g.bruhat_leq(w, v):
                    assert g.bruhat_leq(u, v)


# -- caps and serialization --------------------------------------------------

def test_order_cap():
    roots = root_system(cartan_from_name("A3"))
    with pytest.raises(OrderCapExceeded):
        enumerate_weyl(roots, order_cap=10)
    # cap is inclusive: D4 at exactly 192 enumerates
    d4 = enumerate_weyl(root_system(cartan_from_name("D4")), order_cap=192)
    assert len(d4) == 192


def test_root_perms_keeps_no_group():
    g = _group("B3")
    roots = g.roots
    assert len(orc.root_perms(g)) == g.order
    del g
    gc.collect()
    assert not [
        obj for obj in gc.get_objects()
        if isinstance(obj, WeylGroup) and obj.roots is roots
    ]
    # a later group of the same matrix reads the same permutations
    assert orc.root_perms(enumerate_weyl(roots)) is orc.root_perms(_group("B3"))


def test_word_name():
    assert word_name(()) == ""
    assert word_name((0, 1, 0)) == "s1s2s1"


# -- property tests ----------------------------------------------------------

_types = hyp.sampled_from(["A1", "A2", "B2", "G2"])
_words = hyp.lists(hyp.integers(min_value=0, max_value=7), max_size=8)


@settings(deadline=None, max_examples=60)
@given(name=_types, word=_words)
def test_word_fold_properties(name, word):
    g = _group(name)
    word = [i % g.rank for i in word]
    w = g.element_by_word(word)
    assert w.length <= len(word)
    assert (w.length - len(word)) % 2 == 0
    assert (w * ~w).index == 0
    assert (~w).length == w.length
    assert g.bruhat_leq(g.identity, w)


@settings(deadline=None, max_examples=40)
@given(name=_types, w1=_words, w2=_words)
def test_length_subadditive(name, w1, w2):
    g = _group(name)
    a = g.element_by_word([i % g.rank for i in w1])
    b = g.element_by_word([i % g.rank for i in w2])
    assert (a * b).length <= a.length + b.length
    assert ((a * b).length - a.length - b.length) % 2 == 0
