from __future__ import annotations

import random
import re
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as hyp

import oracles as orc
from steinberg import (
    InvalidSubset, MixedGroups, algebra, cartan_from_name, enumerate_weyl, root_system,
    rootsys,
)
from steinberg.algebra import (
    AlgebraElement,
    anti_invariant_basis,
    average,
    biact,
    delta,
    invariant_basis,
    right_sign_eigenspace,
    sign_average,
    sign_idempotent,
    span_dimension,
    trivial_idempotent,
)
from steinberg.parabolic import double_cosets, maximal_reps, parabolic_elements
from steinberg.rootsys import _PRODUCT_TABLE_LIMIT

SMALL = ["A1", "A2", "B2", "G2", "A3", "B3", "C3"]


def _group(name):
    return enumerate_weyl(root_system(cartan_from_name(name)))


def test_constructor_and_coercion():
    g = _group("A2")
    v = AlgebraElement(g, {g.identity: 1, g.elements[1]: Fraction(1, 2), g.elements[2]: 0})
    assert v.coefficient(g.identity) == Fraction(1)
    assert isinstance(v.coefficient(g.identity), Fraction)
    assert v.coefficient(g.elements[2]) == 0
    assert v.support == (g.identity, g.elements[1])
    # integer keys are accepted as enumeration indices
    w = AlgebraElement(g, {0: 1, 1: Fraction(1, 2)})
    assert w == v - AlgebraElement(g, {})
    assert AlgebraElement(g).is_zero()
    assert not AlgebraElement(g)
    assert bool(v)


def test_invalid_keys_rejected():
    g = _group("A2")
    for key in [999, g.order, -1, "x", True, 1.0, None, (0,)]:
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            AlgebraElement(g, {key: 1})
    with pytest.raises(ValueError, match="999"):
        AlgebraElement(g, {999: 1, "x": 2})
    # a zero coefficient does not excuse a bad key
    with pytest.raises(ValueError):
        AlgebraElement(g, {"x": 0})
    assert AlgebraElement(g, {g.order - 1: 1}).support == (g.elements[-1],)


def test_duplicate_keys_rejected():
    g = _group("A2")
    s1 = g.simple[0]
    # an element and its index name the same basis vector, whatever the values
    for coeffs in [{g.identity: 1, 0: 2}, {g.identity: 1, 0: 0},
                   {0: 0, g.identity: 1}, {s1.index: Fraction(1, 2), s1: -1}]:
        with pytest.raises(ValueError, match="twice"):
            AlgebraElement(g, coeffs)
    assert AlgebraElement(g, {g.identity: 1, s1.index: 2}) == delta(g.identity) + 2 * delta(s1)


def test_coefficients_must_be_exact():
    g = _group("A2")
    v = delta(g.identity)
    for value in [0.1, 0.0, 1.0, "1/3", True, False, None, Decimal("0.5")]:
        with pytest.raises(ValueError, match=re.escape(repr(value))):
            AlgebraElement(g, {0: value})
        with pytest.raises(ValueError, match=re.escape(repr(value))):
            v.scale(value)
    with pytest.raises(ValueError, match="True"):
        v * True
    with pytest.raises(TypeError):
        v * 0.5
    w = AlgebraElement(g, {0: 3, 1: Fraction(-1, 3), 2: 0, 3: Fraction(0)})
    assert w.items() == [(g.elements[0], 3), (g.elements[1], Fraction(-1, 3))]
    assert v.scale(0) == v.scale(Fraction(0)) == AlgebraElement(g)


def _assert_canonical(v):
    assert v._d > 0 and gcd(v._d, *v._n.values()) == 1
    assert all(v._n.values())
    assert v._n or v._d == 1


def test_canonical_form_any_route():
    rng = random.Random(5)
    for name in ["B2", "G2", "A3"]:
        g = _group(name)
        e = delta(g.identity)
        for _ in range(40):
            support = rng.sample(range(g.order), rng.randrange(0, 6))
            coeffs = {x: _random_rational(rng) or Fraction(1, 7) for x in support}
            k = rng.randrange(2, 5)
            # Fraction(k*a, k*b) with k > 1, e.g. Fraction(2, 4)
            doubled = {x: Fraction(k * q.numerator, k * q.denominator)
                       for x, q in coeffs.items()}
            a = AlgebraElement(g, coeffs)
            den = lcm(*(q.denominator for q in coeffs.values()))
            integral = AlgebraElement(g, {x: int(q * den) for x, q in coeffs.items()})
            b = AlgebraElement(g, {x: _random_rational(rng)
                                   for x in rng.sample(range(g.order), 3)})
            routes = [
                AlgebraElement(g, doubled),
                integral.scale(Fraction(1, den)),
                Fraction(1, k) * a.scale(k),
                a * e,
                e.scale(Fraction(1, k)) * a.scale(k),
                a + b - b,
                -(-a),
                biact(g.identity, g.identity, a),
            ]
            for v in routes:
                assert v == a and hash(v) == hash(a)
                assert (v._n, v._d) == (a._n, a._d)
            assert dict(a.items()) == {g.elements[x]: q for x, q in coeffs.items()}
            assert a - a == AlgebraElement(g) and hash(a - a) == hash(AlgebraElement(g))
            for v in [a, b, integral, a * b, b * a, a - b, a.scale(_random_rational(rng)),
                      a - a, *routes]:
                _assert_canonical(v)


def test_foreign_element_rejected():
    g, h = _group("A2"), _group("B2")
    with pytest.raises(MixedGroups):
        AlgebraElement(g, {h.identity: 1})
    with pytest.raises(MixedGroups):
        delta(g.identity) + delta(h.identity)
    with pytest.raises(MixedGroups):
        delta(g.identity) * delta(h.identity)
    # a second A2 group: the same index is still a foreign element
    g2 = _group("A2")
    with pytest.raises(MixedGroups):
        delta(g.identity).coefficient(g2.identity)


def test_arithmetic_and_zero_deletion():
    g = _group("A2")
    a = delta(g.identity) + delta(g.elements[1])
    b = delta(g.elements[1])
    assert (a - b) == delta(g.identity)
    assert (a - b).support == (g.identity,)
    assert (a - a).is_zero()
    assert (-a) + a == AlgebraElement(g)
    assert a.scale(Fraction(2, 3)) == Fraction(2, 3) * a == a * Fraction(2, 3)
    assert 0 * a == AlgebraElement(g)
    assert a.scale(0).support == ()


def test_convolution_matches_group_product():
    g = _group("B2")
    for x in g:
        for y in g:
            assert delta(x) * delta(y) == delta(x * y)


def test_trivial_idempotent_frozen():
    g = _group("A2")
    e1 = trivial_idempotent(g, [0])
    assert e1.to_jsonable() == {"": "1/2", "s1": "1/2"}
    efull = trivial_idempotent(g, [0, 1])
    assert all(q == Fraction(1, 6) for _, q in efull.items())
    assert len(efull.support) == 6
    assert trivial_idempotent(g, []) == delta(g.identity)


def test_sign_idempotent_frozen():
    g = _group("A2")
    eps = sign_idempotent(g, [0, 1])
    assert eps.coefficient(g.identity) == Fraction(1, 6)
    assert eps.coefficient(g.element_by_word([0])) == Fraction(-1, 6)
    assert eps.coefficient(g.element_by_word([0, 1])) == Fraction(1, 6)
    assert eps.coefficient(g.longest_element()) == Fraction(-1, 6)


def test_idempotency_and_annihilation():
    for name in SMALL:
        g = _group(name)
        for J in orc.all_subsets(g.rank):
            e = trivial_idempotent(g, J)
            eps = sign_idempotent(g, J)
            assert e * e == e
            assert eps * eps == eps
            if len(parabolic_elements(g, J)) > 1:
                assert (e * eps).is_zero()
                assert (eps * e).is_zero()
            else:
                assert e == eps == delta(g.identity)


def test_biact_example():
    g = _group("A2")
    s1, s2 = g.simple_reflection(0), g.simple_reflection(1)
    # (w, w') sends x to w' x w^{-1}
    assert biact(s2, s1, delta(s1)) == delta(s2)
    assert biact(g.identity, g.identity, delta(s1)) == delta(s1)
    w0 = g.longest_element()
    assert biact(w0, w0, delta(g.identity)) == delta(w0 * ~w0)


@settings(deadline=None, max_examples=40)
@given(data=hyp.data())
def test_biact_composition_law(data):
    g = _group("B2")
    pick = lambda: g.elements[data.draw(hyp.integers(min_value=0, max_value=g.order - 1))]
    w, wp, u, up, x = pick(), pick(), pick(), pick(), pick()
    v = delta(x)
    assert biact(w, wp, biact(u, up, v)) == biact(w * u, wp * up, v)


def test_average_frozen_example():
    g = _group("A2")
    got = average([0], [1], delta(g.identity))
    want = {
        g.identity: Fraction(1, 4),
        g.simple_reflection(0): Fraction(1, 4),
        g.simple_reflection(1): Fraction(1, 4),
        g.element_by_word([1, 0]): Fraction(1, 4),
    }
    assert dict(got.items()) == want


def test_average_constant_on_cosets():
    for name in ["A2", "B2"]:
        g = _group(name)
        for J in orc.all_subsets(g.rank):
            for K in orc.all_subsets(g.rank):
                dec = double_cosets(g, K, J)
                for x in g:
                    v = average(J, K, delta(x))
                    xs = next(xs for xs in dec if x.index in xs)
                    for y in xs:
                        assert v.coefficient(g.elements[y]) == Fraction(1, len(xs))
                    assert len(v.support) == len(xs)


def test_average_is_projector():
    g = _group("B2")
    rng = random.Random(5)
    for J in orc.all_subsets(2):
        for K in orc.all_subsets(2):
            v = AlgebraElement(
                g, {x: Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for x in g})
            once = average(J, K, v)
            assert average(J, K, once) == once
            s_once = sign_average(J, K, v)
            assert sign_average(J, K, s_once) == s_once


def test_sign_average_alternates_on_cosets():
    g = _group("A2")
    v = sign_average([0], [1], delta(g.longest_element()))
    # (W_K, W_J) coset of w0 has 2 elements: s1s2 (even), s1s2s1 (odd)
    assert v.coefficient(g.element_by_word([0, 1])) == Fraction(-1, 2)
    assert v.coefficient(g.longest_element()) == Fraction(1, 2)
    assert len(v.support) == 2


def test_span_dimension_frozen_example():
    g = _group("A2")
    v1, v2 = delta(g.identity), delta(g.elements[1])
    basis = span_dimension([v1, v2, v1 + v2])
    assert basis.dimension == 2
    assert basis.vectors == (v1, v2)


def test_span_dimension_keeps_input_order():
    g = _group("B2")
    vs = [delta(g.elements[3]), delta(g.elements[1]) + delta(g.elements[3]),
          delta(g.elements[1]), delta(g.elements[5])]
    basis = span_dimension(vs)
    assert basis.dimension == 3
    assert basis.vectors == (vs[0], vs[1], vs[3])


def test_span_dimension_edge_cases():
    g = _group("A2")
    assert span_dimension([]).dimension == 0
    assert span_dimension([AlgebraElement(g), AlgebraElement(g)]).dimension == 0
    h = _group("B2")
    with pytest.raises(MixedGroups):
        span_dimension([delta(g.identity), delta(h.identity)])


def test_span_dimension_matches_dense_rank():
    rng = random.Random(7)
    for name in ["A2", "B2"]:
        g = _group(name)
        for _ in range(10):
            vs = []
            for _ in range(rng.randrange(1, 7)):
                vs.append(AlgebraElement(
                    g, {x: Fraction(rng.randrange(-3, 4)) for x in g
                        if rng.random() < 0.5}))
            assert span_dimension(vs).dimension == orc.dense_rank(vs, g.order)


def _random_rational(rng):
    return Fraction(rng.randrange(-6, 7), rng.randrange(1, 13))


def _random_family(rng, g):
    """Sparse rational vectors, with zeros, repeats and combinations of
    earlier vectors mixed in so that some vectors are dependent."""
    vs = []
    for _ in range(rng.randrange(1, 10)):
        roll = rng.random()
        if roll < 0.1:
            vs.append(AlgebraElement(g))
        elif roll < 0.2 and vs:
            vs.append(rng.choice(vs))
        elif roll < 0.45 and len(vs) >= 2:
            a, b = rng.sample(vs, 2)
            vs.append(a.scale(_random_rational(rng) or 1) + b.scale(_random_rational(rng)))
        else:
            support = rng.sample(range(g.order), rng.randrange(1, 4))
            vs.append(AlgebraElement(g, {x: _random_rational(rng) for x in support}))
    return vs


def test_span_dimension_keeps_exactly_rank_raising_vectors():
    rng = random.Random(11)
    for name in ["A2", "B2", "G2"]:
        g = _group(name)
        for _ in range(60):
            vs = _random_family(rng, g)
            want = []
            for i, v in enumerate(vs):
                if orc.dense_rank(vs[: i + 1], g.order) > orc.dense_rank(vs[:i], g.order):
                    want.append(i)
            basis = span_dimension(vs)
            assert [id(v) for v in basis.vectors] == [id(vs[i]) for i in want]
            assert basis.dimension == len(want) == orc.dense_rank(vs, g.order)


def test_span_dimension_leaves_inputs_unchanged():
    g = _group("A2")
    # v2 and v3 are eliminated against stored rows with the pivot entry 1,
    # the case that takes no scaled copy of the row
    v1 = AlgebraElement(g, {0: 1, 1: 1})
    v2 = AlgebraElement(g, {0: 3, 1: 1})
    v3 = v1 + v2
    rng = random.Random(17)
    for vs in [[v1, v2, v3]] + [_random_family(rng, g) for _ in range(40)]:
        before = [dict(v._n) for v in vs]
        span_dimension(vs)
        assert [v._n for v in vs] == before
    # a row taking a fresh pivot with content 1 is stored without a copy
    reducer = algebra._Reducer()
    assert reducer.insert(v1._n) and reducer.pivots[1] is v1._n


def _naive_product(g, a, b, index_map):
    """Per-term Fraction convolution over permutation composition."""
    out = {}
    for x, p in a.items():
        for y, q in b.items():
            k = orc.perm_mul(g, x.index, y.index, index_map)
            out[k] = out.get(k, Fraction(0)) + p * q
    return {g.elements[k]: q for k, q in out.items() if q}


@pytest.mark.parametrize("name,terms", [("B2", 8), ("G2", 12), ("A6", 6)])
def test_product_matches_naive_convolution(name, terms):
    g = _group(name)
    # A6 is over the product-table limit, so it covers the other product path
    assert (g.order > _PRODUCT_TABLE_LIMIT) == (name == "A6")
    index_map = orc.perm_index_map(g)
    rng = random.Random(13)
    for _ in range(25):
        a, b = (
            AlgebraElement(g, {x: _random_rational(rng)
                               for x in rng.sample(range(g.order), rng.randrange(terms))})
            for _ in range(2)
        )
        assert dict((a * b).items()) == _naive_product(g, a, b, index_map)


def _rationals(data, g):
    """An element of QW with a few terms, negatives and zeros among them."""
    return AlgebraElement(g, {
        x: Fraction(data.draw(hyp.integers(-4, 4)), data.draw(hyp.integers(1, 6)))
        for x in data.draw(hyp.lists(hyp.integers(0, g.order - 1), max_size=8, unique=True))
    })


def _oracle_idempotent(g, subset, sign):
    """e_subset, or eps_subset with ``sign``, from the permutation closure: the
    sign of an element is the parity of the positive roots it sends negative."""
    perms = orc.root_perms(g)
    members = orc.brute_parabolic(g, subset)
    return AlgebraElement(g, {
        x: Fraction(-1 if sign and sum(j < 0 for j in perms[x]) % 2 else 1, len(members))
        for x in members
    })


@pytest.mark.parametrize("folded", [False, True])
@settings(deadline=None, max_examples=50)
@given(data=hyp.data())
def test_sandwiches_match_two_products(folded, data):
    # a * b goes through _sandwiches too, so the two products come from the
    # permutation oracle instead
    name = data.draw(hyp.sampled_from(["A3", "B3", "G2"]))
    with pytest.MonkeyPatch.context() as mp:
        if folded:  # a fresh group that folds words for every product
            mp.setattr(rootsys, "_PRODUCT_TABLE_LIMIT", 0)
        g = _group(name)
        index_map = orc.perm_index_map(g)
        if data.draw(hyp.booleans()):
            # mixed signs, e_K with eps_J or eps_K with e_J: the twists can cancel
            subsets = orc.all_subsets(g.rank)
            J, K = data.draw(hyp.sampled_from(subsets)), data.draw(hyp.sampled_from(subsets))
            sign_k = data.draw(hyp.booleans())
            a, b = _oracle_idempotent(g, K, sign_k), _oracle_idempotent(g, J, not sign_k)
        else:
            a, b = _rationals(data, g), _rationals(data, g)
        # element indices, repeated entries allowed
        xs = data.draw(hyp.lists(hyp.integers(0, g.order - 1)))
        expected = [
            _naive_product(
                g, AlgebraElement(g, _naive_product(g, a, delta(g.elements[x]), index_map)),
                b, index_map,
            )
            for x in xs
        ]
        assert [dict(v.items()) for v in algebra._sandwiches(a, xs, b)] == expected
        if folded:
            assert g._table is None


def test_sandwiches_cancel_to_zero():
    g = _group("A2")
    e, s = delta(g.identity), delta(g.simple_reflection(0))
    [v] = algebra._sandwiches(e - s, [0], e + s)
    assert v.is_zero() and (v._n, v._d) == ({}, 1)


def test_invariant_basis_dimensions():
    for name in SMALL:
        g = _group(name)
        for J in orc.all_subsets(g.rank):
            for K in orc.all_subsets(g.rank):
                basis = invariant_basis(g, J, K)
                n_cosets = len(double_cosets(g, J, K))
                assert basis.dimension == n_cosets == len(basis.vectors)
                assert span_dimension(list(basis.vectors)).dimension == basis.dimension


def test_invariant_basis_vectors_are_fixed():
    g = _group("B2")
    for J in orc.all_subsets(2):
        for K in orc.all_subsets(2):
            for v in invariant_basis(g, J, K).vectors:
                assert average(J, K, v) == v


def test_anti_invariant_basis_dimensions():
    for name in SMALL:
        g = _group(name)
        for J in orc.all_subsets(g.rank):
            for K in orc.all_subsets(g.rank):
                basis = anti_invariant_basis(g, J, K)
                assert basis.dimension == len(maximal_reps(g, J, K))
                assert span_dimension(list(basis.vectors)).dimension == basis.dimension
                for v in basis.vectors:
                    assert sign_average(J, K, v) == v


def test_anti_invariant_max_rep_coefficient():
    # the coefficient at each maximal rep is +-1/|D|, D the coset through it
    for name in SMALL:
        g = _group(name)
        for J in orc.all_subsets(g.rank):
            for K in orc.all_subsets(g.rank):
                dec = double_cosets(g, K, J)
                basis = anti_invariant_basis(g, J, K)
                assert len(basis.vectors) == len(maximal_reps(g, J, K))
                for v in basis.vectors:
                    xs = next(xs for xs in dec if v.support[0].index in xs)
                    q = v.coefficient(g.elements[xs[-1]])
                    assert abs(q) == Fraction(1, len(xs))


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_anti_invariant_vectors_cover_their_cosets(name):
    # no coefficient cancels, so no vector is zero and none needs dropping
    g = _group(name)
    for J in orc.all_subsets(g.rank):
        for K in orc.all_subsets(g.rank):
            cosets = double_cosets(g, K, J)
            vectors = anti_invariant_basis(g, J, K).vectors
            assert [[w.index for w in v.support] for v in vectors] == cosets


def test_right_sign_eigenspace_frozen():
    g = _group("A2")
    basis = right_sign_eigenspace(g, 0)
    assert basis.dimension == 3
    b2 = _group("B2")
    assert right_sign_eigenspace(b2, 1).dimension == 4
    for s in (2, -1, True, 1.0):  # a bool or a float is no index, even in range
        with pytest.raises(InvalidSubset):
            right_sign_eigenspace(g, s)


def test_right_sign_eigenspace_membership():
    for name in ["A2", "B2", "G2"]:
        g = _group(name)
        for s in range(g.rank):
            basis = right_sign_eigenspace(g, s)
            assert basis.dimension == g.order // 2
            ds = delta(g.simple_reflection(s))
            for v in basis.vectors:
                assert v * ds == -v


@settings(deadline=None, max_examples=40)
@given(data=hyp.data())
def test_ring_axioms_random(data):
    g = _group("A2")
    def rand_vec():
        return AlgebraElement(g, {
            x: Fraction(data.draw(hyp.integers(min_value=-3, max_value=3)))
            for x in g if data.draw(hyp.booleans())})
    a, b, c = rand_vec(), rand_vec(), rand_vec()
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert delta(g.identity) * a == a * delta(g.identity) == a


def test_jsonable():
    g = _group("A2")
    v = delta(g.identity).scale(Fraction(1, 3)) - delta(g.longest_element())
    assert v.to_jsonable() == {"": "1/3", "s1s2s1": "-1"}


def test_to_jsonable_names_each_element_once(monkeypatch):
    from steinberg import rootsys

    g = _group("B3")
    real = rootsys.word_name
    named = []
    monkeypatch.setattr(rootsys, "word_name", lambda word: named.append(word) or real(word))
    e = trivial_idempotent(g, [0, 1, 2])
    expected = {real(w.canonical_word): "1/48" for w in g}
    for _ in range(3):
        assert e.to_jsonable() == expected
    assert sorted(named) == sorted(w.canonical_word for w in g)


def test_to_jsonable_names_only_its_support(monkeypatch):
    from steinberg import rootsys

    g = _group("B3")  # a fresh group, so none of its names is rendered yet
    real = rootsys.word_name
    named = []
    monkeypatch.setattr(rootsys, "word_name", lambda word: named.append(word) or real(word))
    w0 = g.longest_element()
    v = delta(g.identity) - delta(w0)
    assert v.to_jsonable() == {"": "1", real(w0.canonical_word): "-1"}
    assert sorted(named) == sorted([(), w0.canonical_word])


def test_to_jsonable_writes_fractions_from_integers(monkeypatch):
    g = _group("B2")
    coeffs = [Fraction(1, 6), Fraction(-1, 3), Fraction(2), Fraction(-7, 4), Fraction(5, 12)]
    v = AlgebraElement(g, dict(zip(range(len(coeffs)), coeffs)))
    # the coefficients share the denominator 12, and each is reduced on its own
    expected = {g.word_name_of(x): str(q) for x, q in enumerate(coeffs)}

    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("to_jsonable built a Fraction")

    monkeypatch.setattr(algebra, "Fraction", NoFraction)
    out = v.to_jsonable()
    assert out == expected
    assert list(out.values()) == ["1/6", "-1/3", "2", "-7/4", "5/12"]
