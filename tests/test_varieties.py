from __future__ import annotations

import oracles as orc
from steinberg import algebra, cartan_from_name, enumerate_weyl, parabolic, root_system
from steinberg.parabolic import double_cosets, maximal_reps
from steinberg.varieties import (
    averaging_image_check,
    geometry_profile,
    hotta_verification,
    pair_profile,
    parabolic_length,
    report_jsonable,
    steinberg_components,
    verify_anti_invariant_isomorphism,
    verify_invariant_isomorphism,
    y_components,
)

SMALL = ["A1", "A2", "B2", "G2", "A3", "B3", "C3"]


def _roots(name):
    return root_system(cartan_from_name(name))


def _group(name):
    return enumerate_weyl(_roots(name))


def test_geometry_profile_frozen():
    a1 = geometry_profile(_roots("A1"))
    assert (a1.n, a1.d, a1.l, a1.top_degree_z) == (1, 3, 1, 4)
    a2 = geometry_profile(_roots("A2"))
    assert (a2.n, a2.d, a2.l, a2.top_degree_z) == (3, 8, 2, 12)
    b2 = geometry_profile(_roots("B2"))
    assert (b2.n, b2.d, b2.l, b2.top_degree_z) == (4, 10, 2, 16)
    g2 = geometry_profile(_roots("G2"))
    assert (g2.n, g2.d, g2.l, g2.top_degree_z) == (6, 14, 2, 24)
    d4 = geometry_profile(_roots("D4"))
    assert (d4.n, d4.d, d4.l, d4.top_degree_z) == (12, 28, 4, 48)


def test_parabolic_length_frozen():
    r = _roots("B3")
    assert parabolic_length(r, []) == 0
    assert parabolic_length(r, [0, 1]) == 3  # A2 subsystem
    assert parabolic_length(r, [1, 2]) == 4  # B2 subsystem
    assert parabolic_length(r, [0, 2]) == 2  # A1 x A1
    assert parabolic_length(r, [0, 1, 2]) == 9


def test_parabolic_length_is_longest_element_length():
    for name in SMALL:
        g = _group(name)
        for J in orc.all_subsets(g.rank):
            assert parabolic_length(g.roots, J) == g.longest_element(J).length


def test_pair_profile_examples():
    r = _roots("A2")
    p = pair_profile(r, [], [])
    assert (p.f, p.dim_x, p.dim_y) == (0, 6, 6)
    assert (p.top_degree_x, p.top_degree_y) == (12, 12)
    assert (p.dim_flag_p, p.dim_flag_q) == (3, 3)

    p = pair_profile(r, [0], [1])
    assert p.J == (0,) and p.K == (1,)
    assert (p.f, p.dim_x, p.dim_y) == (2, 6, 4)
    assert p.top_degree_y == 8
    assert (p.dim_flag_p, p.dim_flag_q) == (2, 2)

    p = pair_profile(r, [0, 1], [0, 1])
    assert (p.f, p.dim_y, p.top_degree_y) == (6, 0, 0)
    assert (p.dim_flag_p, p.dim_flag_q) == (0, 0)


def test_pair_profile_invariants():
    for name in SMALL + ["D4"]:
        r = _roots(name)
        for J in orc.all_subsets(r.rank):
            for K in orc.all_subsets(r.rank):
                p = pair_profile(r, J, K)
                assert p.dim_y + p.f == p.dim_x
                assert p.top_degree_y == 2 * p.dim_y
                assert p.top_degree_x == 2 * p.dim_x
                assert p.dim_y == p.dim_flag_p + p.dim_flag_q
                assert (p.f == 0) == (not J and not K)


def test_steinberg_components():
    for name, dim in [("A1", 2), ("A2", 6), ("B2", 8)]:
        g = _group(name)
        comps = steinberg_components(g)
        assert len(comps) == g.order
        assert [c.label for c in comps] == list(g.elements)
        assert all(c.dim_zw == dim and c.dim_yw == dim for c in comps)
        assert all(c.eta_dim_preserved for c in comps)


def test_y_components_examples():
    g = _group("A2")
    comps = y_components(g, [0], [1])
    assert [c.label.name for c in comps] == ["s1s2", "s1s2s1"]
    assert all(c.dim_zw == 6 and c.dim_yw == 4 for c in comps)
    assert [c.eta_dim_preserved for c in comps] == [False, False]

    comps = y_components(g, [], [])
    assert len(comps) == 6
    assert all(c.dim_yw == 6 and c.eta_dim_preserved for c in comps)

    comps = y_components(g, [0, 1], [0, 1])
    assert len(comps) == 1
    assert comps[0].label == g.longest_element()
    assert comps[0].dim_yw == 0


def test_y_components_equidimensional():
    for name in SMALL:
        g = _group(name)
        for J in orc.all_subsets(g.rank):
            for K in orc.all_subsets(g.rank):
                p = pair_profile(g.roots, J, K)
                comps = y_components(g, J, K)
                assert len(comps) == len(double_cosets(g, J, K))
                assert all(c.dim_yw == p.dim_y for c in comps)
                assert all(c.dim_zw == p.dim_x for c in comps)
                # dimension is preserved exactly for singleton cosets
                for c, coset in zip(comps, double_cosets(g, J, K).cosets):
                    assert c.eta_dim_preserved == (coset.size == 1)


def test_verify_invariant_examples():
    g = _group("A2")
    r = verify_invariant_isomorphism(g, [0], [1])
    assert r.claim == "invariant-dimension J={0} K={1}"
    assert (r.expected, r.computed, r.passed) == (2, 2, True)
    assert r.witness is not None and r.witness.dimension == 2
    assert r.detail == {"cosets": 2}

    r = verify_invariant_isomorphism(g, [], [])
    assert (r.expected, r.computed, r.passed) == (6, 6, True)

    r = verify_invariant_isomorphism(g, [0, 1], [0, 1])
    assert (r.expected, r.computed, r.passed) == (1, 1, True)


def test_verify_anti_invariant_examples():
    g = _group("A2")
    r = verify_anti_invariant_isomorphism(g, [0], [1])
    assert r.claim == "anti-invariant-dimension J={0} K={1}"
    assert (r.expected, r.computed, r.passed) == (2, 2, True)
    assert r.detail == {"maximal_reps": ["s1s2", "s1s2s1"]}

    b2 = _group("B2")
    r = verify_anti_invariant_isomorphism(b2, [0], [1])
    assert (r.expected, r.computed, r.passed) == (2, 2, True)

    r = verify_anti_invariant_isomorphism(g, [0, 1], [0, 1])
    assert (r.expected, r.computed, r.passed) == (1, 1, True)


def test_verification_sweep_passes():
    for name in SMALL:
        g = _group(name)
        for J in orc.all_subsets(g.rank):
            for K in orc.all_subsets(g.rank):
                for rep in (
                    verify_invariant_isomorphism(g, J, K),
                    verify_anti_invariant_isomorphism(g, J, K),
                ):
                    assert rep.passed
                    assert rep.expected == rep.computed


def test_hotta_verification():
    g = _group("A2")
    r = hotta_verification(g, 0)
    assert r.claim == "hotta s=1"
    assert (r.expected, r.computed, r.passed) == (3, 3, True)
    assert r.detail["descent_count"] == 3
    assert r.detail["descent_set_is_nonminimal_set"] is True
    descents = [w.name for w in g.elements if g.is_left_descent(0, w)]
    assert descents == ["s1", "s1s2", "s1s2s1"]

    for name in SMALL + ["D4"]:
        h = _group(name)
        for s in range(h.rank):
            rep = hotta_verification(h, s)
            assert rep.passed
            assert rep.expected == rep.computed == h.order // 2


def test_averaging_image_check_examples():
    g = _group("A2")
    r = averaging_image_check(g, [0], [])
    assert r.claim == "averaging-image J={0} K={}"
    assert (r.expected, r.computed, r.passed) == (3, 3, True)
    assert r.detail == {"kernel_dim": 3, "order": 6, "basis_fixed_by_projector": True}

    r = averaging_image_check(g, [], [])
    assert (r.expected, r.computed) == (6, 6)
    assert r.detail["kernel_dim"] == 0

    r = averaging_image_check(g, [0], [1])
    assert (r.expected, r.computed) == (2, 2)
    assert r.detail["kernel_dim"] == 4


def test_averaging_image_check_sweep():
    for name in ["A2", "B2", "G2"]:
        g = _group(name)
        for J in orc.all_subsets(g.rank):
            for K in orc.all_subsets(g.rank):
                r = averaging_image_check(g, J, K)
                assert r.passed
                assert r.detail["kernel_dim"] == g.order - r.computed


def test_expected_counts_symmetric_in_j_k():
    for name in ["A2", "B2", "B3"]:
        g = _group(name)
        for J in orc.all_subsets(g.rank):
            for K in orc.all_subsets(g.rank):
                a = verify_invariant_isomorphism(g, J, K)
                b = verify_invariant_isomorphism(g, K, J)
                assert (a.expected, a.computed) == (b.expected, b.computed)


def test_passed_iff_expected_equals_computed():
    g = _group("B3")
    for J in orc.all_subsets(3):
        for K in orc.all_subsets(3):
            for rep in (
                verify_invariant_isomorphism(g, J, K),
                verify_anti_invariant_isomorphism(g, J, K),
                averaging_image_check(g, J, K),
            ):
                assert rep.passed == (rep.expected == rep.computed)
    for s in range(3):
        rep = hotta_verification(g, s)
        assert rep.passed == (rep.expected == rep.computed)


def test_report_jsonable():
    g = _group("A2")
    r = verify_invariant_isomorphism(g, [0], [1])
    d = report_jsonable(r)
    assert d["claim"] == "invariant-dimension J={0} K={1}"
    assert d["expected"] == 2 and d["computed"] == 2 and d["passed"] is True
    assert len(d["witness"]) == 2
    assert all(isinstance(v, dict) for v in d["witness"])
    assert d["detail"] == {"cosets": 2}
    slim = report_jsonable(r, include_witness=False)
    assert "witness" not in slim


def _count_calls(monkeypatch, module, name, counts):
    """Replace ``name`` in ``module`` and in every module that copied it."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    for holder in (parabolic, algebra):
        if getattr(holder, name, None) is original:
            monkeypatch.setattr(holder, name, counted)


def test_pair_verifiers_share_one_context(monkeypatch):
    g = _group("D4")  # a fresh group, so no earlier context can be reused
    counts = {}
    _count_calls(monkeypatch, parabolic, "double_cosets", counts)
    _count_calls(monkeypatch, parabolic, "parabolic_elements", counts)
    _count_calls(monkeypatch, algebra, "span_dimension", counts)
    J, K = [0, 1], [2, 3]
    reports = [
        verify_invariant_isomorphism(g, J, K),
        verify_anti_invariant_isomorphism(g, J, K),
        averaging_image_check(g, J, K),
    ]
    assert all(r.passed for r in reports)
    # one (J, K) and one (K, J) decomposition, computed separately
    assert counts["double_cosets"] == 2
    # e_J, e_K, eps_J, eps_K, each built once
    assert counts["parabolic_elements"] <= 4
    # invariant basis (shared), anti-invariant basis, kernel family
    assert counts["span_dimension"] == 3
    # the invariant and averaging reports witness with the same basis
    assert reports[0].witness is reports[2].witness


def test_pair_context_never_crosses_groups():
    groups = [_group("D4"), _group("D4")]
    J, K = [0, 2], [1]
    for _ in range(2):
        for g in groups:
            for r in (
                verify_invariant_isomorphism(g, J, K),
                verify_anti_invariant_isomorphism(g, J, K),
                averaging_image_check(g, J, K),
            ):
                assert r.passed
                assert r.witness.vectors
                assert all(v.group is g for v in r.witness.vectors)
