from __future__ import annotations

import gc
from fractions import Fraction

import pytest

import oracles as orc
from steinberg import (
    InvalidSubset,
    algebra,
    cartan_from_name,
    cli,
    enumerate_weyl,
    parabolic,
    root_system,
    rootsys,
    varieties,
)
from steinberg.parabolic import double_cosets, maximal_reps
from steinberg.rootsys import WeylGroup
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
                for c, xs in zip(comps, double_cosets(g, J, K)):
                    assert c.eta_dim_preserved == (len(xs) == 1)


def test_components_sweep_builds_one_table_per_subset_and_side():
    g = _group("D5")
    subsets = orc.all_subsets(g.rank)
    tables = None
    for _ in range(2):
        for J in subsets:
            for K in subsets:
                y_components(g, J, K)
        built = [(mask, id(entry[side])) for mask, entry in g._subsets.items()
                 for side in ("top", "quotient")]
        # keyed by subset mask, every subset on each side, none rebuilt on the second sweep
        assert tables in (None, built)
        tables = built
    assert set(g._subsets) == set(range(1 << g.rank))
    assert g._table is None
    # a verify sweep over (J, S \ J) reaches every subset on both sides of a pair:
    # each subset's idempotents, per sign, join the entry that holds its tables
    for J in subsets:
        K = tuple(i for i in range(g.rank) if i not in J)
        assert all(report(g, J, K).passed for report in PAIR_REPORTS)
    assert set(g._subsets) == set(range(1 << g.rank))
    for J in subsets:
        entry = g._subsets[parabolic._mask(J)]
        assert set(entry) == {"top", "quotient", False, True}
        assert (entry[False][0], entry[True][0]) == (
            algebra.trivial_idempotent(g, J), algebra.sign_idempotent(g, J))
    assert [(mask, id(entry[side])) for mask, entry in g._subsets.items()
            for side in ("top", "quotient")] == tables


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "D4", "F4", "D5"])
def test_y_components_match_double_cosets(name):
    # y_components reads the per-subset coset tables and never builds the
    # decomposition, so double_cosets is an independent oracle for it
    g = _group(name)
    for J in orc.all_subsets(g.rank):
        for K in orc.all_subsets(g.rank):
            comps = y_components(g, J, K)
            cosets = double_cosets(g, J, K)
            assert [c.label for c in comps] == [g.elements[xs[-1]] for xs in cosets]
            assert [c.eta_dim_preserved for c in comps] == [len(xs) == 1 for xs in cosets]


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "D4"])
def test_eta_follows_from_the_theory(name):
    # y_components sets eta once per pair; row by row it must be the descent
    # oracle's minimality of the label and the equality of the two dimensions
    g = _group(name)
    for J in orc.all_subsets(g.rank):
        for K in orc.all_subsets(g.rank):
            for c in y_components(g, J, K):
                assert c.eta_dim_preserved == parabolic.is_minimal_in_double_coset(c.label, J, K)
                assert c.eta_dim_preserved == (c.dim_yw == c.dim_zw)
    # Z is Y of the Borel pair: every element, in enumeration order, with eta
    comps = steinberg_components(g)
    assert [c.label for c in comps] == list(g.elements)
    assert all(c.eta_dim_preserved for c in comps)


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

    # B5 and A6 are above the product-table limit, so products fold words
    for name in SMALL + ["D4", "B5", "A6"]:
        h = _group(name)
        for s in range(h.rank):
            rep = hotta_verification(h, s)
            assert rep.passed
            assert rep.expected == rep.computed == h.order // 2
    with pytest.raises(InvalidSubset):
        hotta_verification(g, True)


def test_subsets_are_checked_where_they_enter(monkeypatch, capsys):
    calls = []
    real = rootsys.normalize_subset

    def counted(rank, J):
        calls.append(J)
        return real(rank, J)

    monkeypatch.setattr(rootsys, "normalize_subset", counted)
    monkeypatch.setattr(parabolic, "normalize_subset", counted)
    # pair_profile checks J and K; the coset tables take them as they are
    assert cli.main(["components", "--type", "A3", "--all-pairs"]) == 0
    assert len(calls) == 2 * 64
    # the Hotta report reads minimality off the descent table, not per element
    counts = []
    for name in ("A3", "D4"):
        g = _group(name)
        calls.clear()
        hotta_verification(g, 0)
        counts.append(len(calls))
    assert counts[0] == counts[1], counts


def test_hotta_descent_side_is_not_the_descent_table():
    g = _group("B3")  # a private group: its descent table is corrupted below
    s = 0
    left = [g._rdesc[g._inv[x]] for x in range(g.order)]
    descent = next(x for x in range(g.order) if left[x] >> s & 1)
    ascent = next(x for x in range(g.order) if not left[x] >> s & 1)
    for x in (descent, ascent):
        # swap bit s between the two, so the count of descents stays |W|/2
        g._rdesc[g._inv[x]] ^= 1 << s
    r = hotta_verification(g, s)
    assert r.detail["descent_count"] == g.order // 2
    assert r.detail["descent_set_is_nonminimal_set"] is False
    assert not r.passed


def test_hotta_eigenspace_side_multiplies_by_delta_s():
    g = _group("B3")
    s, other = 0, 1
    assert "first_not_negated" not in hotta_verification(g, s).detail
    # x·s2 in place of x·s1: still an involution, so every count holds;
    # multiply folds words through _left, built at enumeration from the true column
    g._right[s] = list(g._right[other])
    r = hotta_verification(g, s)
    assert r.detail["eigenspace_dim"] == r.detail["descent_count"] == g.order // 2
    assert r.detail["descent_set_is_nonminimal_set"] is True
    assert not r.passed
    # the first pair is e with s2, and (delta_e - delta_s2) * delta_s1 is not its negative
    assert r.detail["first_not_negated"] == ""


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


def test_averaging_image_check_names_first_unfixed_vector():
    g = _group("B2")  # a fresh group, so the context below is this pair's own
    J, K = [], [0]
    assert "first_unfixed" not in averaging_image_check(g, J, K).detail
    ctx = varieties.pair_context(g, J, K)
    ctx.e_j = ctx.e_k  # a wrong right projector: e_{s1} in place of e_J = 1
    r = averaging_image_check(g, J, K)
    g._pair = None  # the next check of g builds a true context again
    assert not r.passed
    assert r.detail["basis_fixed_by_projector"] is False
    # (W_K, W_J) cosets by min rep: e, s2, s2s1, s2s1s2; the second is not fixed
    assert r.detail["first_unfixed"] == "s2"
    # e_{s1} is supported outside W_J = {e}, and s1·e_{s1} = e_{s1} is no fault
    assert r.detail["absorption_fails"] == ["e_J"]
    assert averaging_image_check(_group("B2"), J, K).passed


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
    # one (K, J) decomposition for the computed side; the expected side
    # reads the coset tables, not a second decomposition
    assert counts["double_cosets"] == 1
    # e_J, e_K, eps_J, eps_K, each built once
    assert counts["parabolic_elements"] <= 4
    # invariant basis (shared) and anti-invariant basis; the averaging check
    # ranks nothing of its own
    assert counts["span_dimension"] == 2
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


def test_dropped_group_is_freed():
    # the pair context, idempotents and absorption verdicts live on the
    # group, so nothing outside it keeps the group alive once dropped
    g = _group("D4")
    roots = g.roots
    J, K = [0, 1], [2, 3]
    for report in (
        verify_invariant_isomorphism,
        verify_anti_invariant_isomorphism,
        averaging_image_check,
    ):
        assert report(g, J, K).passed
    assert hotta_verification(g, 0).passed
    del g, report
    gc.collect()
    assert not [
        obj for obj in gc.get_objects()
        if isinstance(obj, WeylGroup) and obj.roots is roots
    ]


def _set_delta_e(attr):
    return lambda ctx: setattr(ctx, attr, algebra.delta(ctx.group.identity))


def _set_smaller_e_j(ctx):
    ctx.e_j = algebra.trivial_idempotent(ctx.group, ctx.J[:-1])


def _drop_invariant_vector(ctx):
    ctx.invariant = algebra.span_dimension(ctx.invariant.vectors[1:])


# name: (subset that must be nonempty for the fault to change anything,
#        reports that must fail, the fault)
MUTATIONS = {
    "e_j=delta_e": ("J", [averaging_image_check], _set_delta_e("e_j")),
    "e_k=delta_e": ("K", [averaging_image_check], _set_delta_e("e_k")),
    "eps_j=delta_e": ("J", [verify_anti_invariant_isomorphism], _set_delta_e("eps_j")),
    "eps_k=delta_e": ("K", [verify_anti_invariant_isomorphism], _set_delta_e("eps_k")),
    "e_j=e_(J-j)": ("J", [averaging_image_check], _set_smaller_e_j),
    "drop_invariant_vector": (
        None,
        [verify_invariant_isomorphism, averaging_image_check],
        _drop_invariant_vector,
    ),
}


@pytest.mark.parametrize("kind", sorted(MUTATIONS))
@pytest.mark.parametrize("name", ["A3", "B3"])
def test_mutation_fails_its_report(name, kind):
    side, reports, mutate = MUTATIONS[kind]
    g = _group(name)
    subsets = orc.all_subsets(g.rank)
    pairs = [
        (J, K)
        for J in subsets
        for K in subsets
        if side is None or (J if side == "J" else K)
    ]
    for J, K in pairs:
        for report in reports:
            g._pair = None  # a fresh context, so no earlier fault carries over
            mutate(varieties.pair_context(g, J, K))
            assert not report(g, J, K).passed, (report.__name__, J, K)
    g._pair = None
    assert averaging_image_check(g, (0,), (1,)).passed


def test_failing_pair_reports_keep_their_detail():
    # the frozen corpus holds passing reports only, so this pins the detail
    # of failing ones: its key order, and the faults named K first, then J
    g = _group("A3")
    J, K = (0, 1), (1, 2)
    averaging_keys = ["kernel_dim", "order", "basis_fixed_by_projector", "first_unfixed"]
    for fields, report, keys, names in (
        (("eps_k", "eps_j"), verify_anti_invariant_isomorphism, ["maximal_reps"],
         ["eps_K", "eps_J"]),
        (("e_k", "e_j"), averaging_image_check, averaging_keys, ["e_K", "e_J"]),
    ):
        g._pair = None
        ctx = varieties.pair_context(g, J, K)
        for field in fields:
            _set_delta_e(field)(ctx)
        result = report(g, J, K)
        assert not result.passed
        assert list(result.detail) == keys + ["absorption_fails"]
        assert result.detail["absorption_fails"] == names
    g._pair = None


PAIR_REPORTS = [
    verify_invariant_isomorphism,
    verify_anti_invariant_isomorphism,
    averaging_image_check,
]


def _sweep_failures(g):
    """(report, J, K) of every failing pair report of a fresh context."""
    subsets = orc.all_subsets(g.rank)
    g._pair = None
    return [
        (report.__name__, J, K)
        for J in subsets
        for K in subsets
        for report in PAIR_REPORTS
        if not report(g, J, K).passed
    ]


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_expected_side_mutation_fails_every_report(monkeypatch, name):
    # the coset tables lose their last representative: the expected side
    # shrinks while the decomposition behind the computed side is intact
    real = parabolic._component_reps
    monkeypatch.setattr(parabolic, "_component_reps", lambda *args: real(*args)[:-1])
    g = _group(name)
    subsets = orc.all_subsets(g.rank)
    failures = set(_sweep_failures(g))
    for J in subsets:
        for K in subsets:
            for report in PAIR_REPORTS:
                assert (report.__name__, J, K) in failures


def _merge_last_two(dec):
    """``dec`` with its last two cosets merged into one."""
    return dec[:-2] + [sorted(dec[-2] + dec[-1])]


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_computed_side_mutation_fails_every_report(monkeypatch, name):
    real = parabolic.double_cosets

    def merged(group, J, K):
        dec = real(group, J, K)
        return _merge_last_two(dec) if len(dec) >= 2 else dec

    monkeypatch.setattr(parabolic, "double_cosets", merged)
    g = _group(name)
    subsets = orc.all_subsets(g.rank)
    failures = set(_sweep_failures(g))
    for J in subsets:
        for K in subsets:
            many = len(real(g, K, J)) >= 2
            for report in PAIR_REPORTS:
                assert ((report.__name__, J, K) in failures) == many, (report, J, K)


def _swap_two_transpositions(column):
    """An involution that differs from ``column`` on four points: its first
    two transpositions (a b)(c d) become (a d)(c b)."""
    (a, b), (c, d) = [(x, y) for x, y in enumerate(column) if x < y][:2]
    out = list(column)
    out[a], out[d], out[c], out[b] = d, a, b, c
    return out


@pytest.mark.parametrize("name", ["A3", "B3"])
def test_wrong_right_multiplication_fails_the_sweep(name):
    # column s of _right turns wrong: the descent walks of double_cosets and
    # the absorption checks read it.  The product table is a separate table,
    # built first from the true one (its build indexes earlier rows through
    # _right, so a wrong column could send it to a row not yet built).
    for s in range(3):
        g = _group(name)  # fresh, so no context or idempotent predates the fault
        g.product_row(0)
        wrong = _swap_two_transpositions(g._right[s])
        assert wrong != g._right[s]
        assert all(wrong[wrong[x]] == x != wrong[x] for x in range(g.order))
        g._right[s] = wrong
        assert _sweep_failures(g), s


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_averaging_image_is_the_literal_image(name):
    # every e_K·δ_w·e_J by the full product, with idempotents from the
    # permutation-closure oracle, row reduced densely
    g = _group(name)
    deltas = [algebra.delta(w) for w in g.elements]

    def idempotent(subset):
        members = orc.brute_parabolic(g, subset)
        return algebra.AlgebraElement(g, {x: Fraction(1, len(members)) for x in members})

    for J in orc.all_subsets(g.rank):
        for K in orc.all_subsets(g.rank):
            e_j, e_k = idempotent(J), idempotent(K)
            image = [e_k * d * e_j for d in deltas]
            rank = orc.dense_rank(image, g.order)
            report = averaging_image_check(g, J, K)
            assert report.passed
            assert report.computed == rank
            vectors = varieties.pair_context(g, J, K).invariant.vectors
            assert orc.dense_rank(image + list(vectors), g.order) == rank


def test_checks_make_one_sandwich_pass_per_pair(monkeypatch):
    g = _group("D4")  # a fresh group, so the context and its bases are built here
    J, K = [0, 1], [2, 3]
    products, passes = [], []
    real_mul, real_sandwiches = algebra.AlgebraElement.__mul__, algebra._sandwiches

    def counted_mul(self, other):
        products.append(1)
        return real_mul(self, other)

    def counted_sandwiches(a, xs, b):
        xs = list(xs)
        passes.append((a, xs, b))
        return real_sandwiches(a, xs, b)

    monkeypatch.setattr(algebra.AlgebraElement, "__mul__", counted_mul)
    monkeypatch.setattr(algebra, "_sandwiches", counted_sandwiches)
    ctx = varieties.pair_context(g, J, K)
    cosets = ctx.dec_kj
    assert averaging_image_check(g, J, K).passed
    # e_K·δ_x·e_J for each coset's min rep x, in coset order, in one pass
    [(a, xs, b)] = passes
    assert a is ctx.e_k and b is ctx.e_j
    assert xs == [ys[0] for ys in cosets]
    passes.clear()
    assert verify_anti_invariant_isomorphism(g, J, K).passed
    [(a, xs, b)] = passes
    assert a is ctx.eps_k and b is ctx.eps_j
    assert xs == [ys[-1] for ys in cosets]
    assert products == []


def test_sweep_builds_each_idempotent_once_per_subset(monkeypatch):
    g = _group("A3")  # a fresh group, so no idempotent of it is cached yet
    counts = {}
    _count_calls(monkeypatch, parabolic, "parabolic_elements", counts)
    _count_calls(monkeypatch, algebra, "trivial_idempotent", counts)
    _count_calls(monkeypatch, algebra, "sign_idempotent", counts)
    subsets = orc.all_subsets(g.rank)
    for J in subsets:
        for K in subsets:
            assert verify_anti_invariant_isomorphism(g, J, K).passed
            assert averaging_image_check(g, J, K).passed
    assert counts == {
        "trivial_idempotent": len(subsets),
        "sign_idempotent": len(subsets),
        "parabolic_elements": 2 * len(subsets),
    }


def test_sweep_checks_each_absorption_once(monkeypatch):
    g = _group("A3")  # a fresh group, so no absorption of it is remembered yet
    checked = []
    real = varieties._absorption_holds

    def counted(group, e, subset, table, twist):
        checked.append((subset, twist, "right" if table is g._right else "left"))
        return real(group, e, subset, table, twist)

    monkeypatch.setattr(varieties, "_absorption_holds", counted)
    subsets = orc.all_subsets(g.rank)
    for _ in range(2):
        assert not _sweep_failures(g)
    # e and eps of each subset, each on the one side its report tests
    assert len(checked) == len(set(checked)) == 4 * len(subsets)


def test_anti_invariant_sweep_names_each_rep_once(monkeypatch):
    g = _group("A3")  # a fresh group, so none of its names is rendered yet
    named = []
    real = rootsys.word_name
    monkeypatch.setattr(rootsys, "word_name", lambda word: named.append(word) or real(word))
    reps = set()
    subsets = orc.all_subsets(g.rank)
    for J in subsets:
        for K in subsets:
            reps.update(verify_anti_invariant_isomorphism(g, J, K).detail["maximal_reps"])
    assert len(named) == len(set(named)) == len(reps)
    assert {real(word) for word in named} == reps


def test_absorption_needs_support_translation_and_sum():
    g = _group("B3")
    J, S = (0, 1), (0, 1, 2)
    e_j, eps_j = algebra.trivial_idempotent(g, J), algebra.sign_idempotent(g, J)

    def holds(e, twist, table=g._left):
        return varieties._absorption_holds(g, e, J, table, twist)

    assert holds(e_j, 1) and holds(e_j, 1, g._right)
    assert holds(eps_j, -1) and holds(eps_j, -1, g._right)
    # absorbs every s in J with sum 1, but supported on all of W
    assert not holds(algebra.trivial_idempotent(g, S), 1)
    assert not holds(algebra.sign_idempotent(g, S), -1)
    # supported in W_J with sum 1, but not absorbing
    assert not holds(algebra.delta(g.identity), 1)
    assert not holds(algebra.delta(g.identity), -1)
    assert not holds(e_j, -1) and not holds(eps_j, 1)
    # supported in W_J and absorbing, but summing to 2
    assert not holds(e_j * 2, 1) and not holds(eps_j * 2, -1)
