"""Dimension bookkeeping and verification for Steinberg-type varieties.

Everything geometric here is a number derived from the root system: the
flag variety has dimension n = |positive roots|, the ambient group
d = 2n + l with l the rank, the Steinberg variety Z is purely
2n-dimensional with components indexed by W, and its parabolic analogues
X and Y have components indexed by double cosets.  The verifiers
recompute both sides of each dimension identity independently and report
exact integer comparisons.

The three per-pair verifiers read one ``PairContext`` from
``pair_context`` and return through one builder, ``_pair_report``: the
expected side is the coset count off the coset tables (``reps``), the
computed side the rank of a basis indexed by one ``double_cosets`` call
(``dec_kj``), and ``_absorption_faults`` names which of the context's
own idempotents fail absorption.  Only the two bases, the expensive
part, are built on first use.  The group keeps the context of its most
recent (J, K) in ``_pair``, so a sweep holds one pair's worth of vectors
at a time.  Its per-subset store ``_subsets`` keeps, under the subset's
mask and the sign, the idempotent and its absorption verdicts beside the
coset tables, so a sweep builds each once and checks its absorption
once.  All of it is freed with the group.  A subset is checked once,
where it enters a public function; the helpers behind it, such as
``parabolic._component_reps``, take the normalized tuple.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

from . import algebra, parabolic
from .algebra import AlgebraElement, SubspaceBasis
from .rootsys import RootSystem, WeylElement, WeylGroup


class GeometryProfile(NamedTuple):
    """Global constants of the group: n, d = 2n + l, l, top degree 4n."""

    n: int
    d: int
    l: int
    top_degree_z: int


class PairProfile(NamedTuple):
    """Dimension data for one pair (J, K) of standard parabolics."""

    J: tuple[int, ...]
    K: tuple[int, ...]
    f: int
    dim_x: int
    dim_y: int
    top_degree_x: int
    top_degree_y: int
    dim_flag_p: int
    dim_flag_q: int


class ComponentReport(NamedTuple):
    """One irreducible component, labeled by its indexing group element.

    ``dim_zw`` is the dimension of the component of Z above the label,
    ``dim_yw`` the dimension of its image component in Y, and
    ``eta_dim_preserved`` whether the projection keeps that dimension: it
    does exactly when the label is minimal in its double coset, so one
    flag holds for every component of a pair (see ``y_components``).
    """

    label: WeylElement
    dim_zw: int
    dim_yw: int
    eta_dim_preserved: bool


class VerificationReport(NamedTuple):
    """Outcome of one exact dimension check.

    ``detail`` carries auxiliary exact counts (all of which must agree for
    ``passed``); the headline comparison is expected vs computed.
    """

    claim: str
    expected: int
    computed: int
    passed: bool
    witness: SubspaceBasis | None = None
    detail: Mapping[str, object] = MappingProxyType({})  # shared, so read-only


def geometry_profile(roots: RootSystem) -> GeometryProfile:
    n = roots.n_positive
    l = roots.rank
    return GeometryProfile(n=n, d=2 * n + l, l=l, top_degree_z=4 * n)


def parabolic_length(roots: RootSystem, J) -> int:
    """Positive roots supported on J = length of the longest element of W_J."""
    return _supported(roots, parabolic._mask(parabolic.normalize_subset(roots.rank, J)))


def _supported(roots: RootSystem, mask: int) -> int:
    """Positive roots whose support lies in the bit mask, counted once per mask."""
    n = roots._lengths.get(mask)
    if n is None:
        n = roots._lengths[mask] = sum(1 for s in roots._supports if not s & ~mask)
    return n


def pair_profile(roots: RootSystem, J, K) -> PairProfile:
    """Dimensions of X and Y over one parabolic pair.

    f = l(w_J) + l(w_K) measures the drop from the Borel case: Y is purely
    (2n - f)-dimensional and its top homology degree is 4n - 2f.
    """
    subJ = parabolic.normalize_subset(roots.rank, J)
    subK = parabolic.normalize_subset(roots.rank, K)
    n = roots.n_positive
    len_j = _supported(roots, parabolic._mask(subJ))
    len_k = _supported(roots, parabolic._mask(subK))
    f = len_j + len_k
    return PairProfile(
        J=subJ,
        K=subK,
        f=f,
        dim_x=2 * n,
        dim_y=2 * n - f,
        top_degree_x=4 * n,
        top_degree_y=4 * n - 2 * f,
        dim_flag_p=n - len_j,
        dim_flag_q=n - len_k,
    )


def steinberg_components(group: WeylGroup) -> tuple[ComponentReport, ...]:
    """Components of Z, which is Y of the Borel pair J = K = ∅: one per
    Weyl group element in enumeration order, each of dimension 2n."""
    return y_components(group, (), ())


def y_components(group: WeylGroup, J, K) -> tuple[ComponentReport, ...]:
    """Components of Y: one per maximal (W_J, W_K)-coset representative.

    The labels come from ``parabolic._component_reps``, which reads the
    group's per-subset coset tables.  Each component has dimension
    dim_flag_p + dim_flag_q = dim_y (Y is equidimensional); eta is per pair.
    """
    profile = pair_profile(group.roots, J, K)
    elements = group.elements
    # a max rep is minimal only in a one-element coset, and W_J·w·W_K holds
    # W_J·w and w·W_K, so that is J = K = ∅: f = 0, where dim Y = 2n - f = dim Z
    eta = profile.dim_y == profile.dim_x
    return tuple(
        ComponentReport(elements[m], profile.dim_x, profile.dim_y, eta)
        for m in parabolic._component_reps(group, profile.J, profile.K)
    )


class PairContext:
    """The work shared by every check of one parabolic pair (J, K).

    The two sides of each report come from different algorithms.  ``reps``
    holds the max rep index per (W_J, W_K) coset from
    ``parabolic._component_reps``, which reads the descent and top tables:
    its length is the expected side of the three pair reports.
    ``dec_kj`` is the one-pass partition of ``double_cosets`` for
    (W_K, W_J), one element index list per coset: it indexes the vectors
    whose span is the computed side.  The idempotents e_J, e_K, eps_J and
    eps_K are the group's own, from ``_idempotent``, and
    ``_absorption_faults(ctx, sign)`` names those of one sign that fail;
    the bases are built on first use.
    """

    def __init__(self, group: WeylGroup, J: tuple[int, ...], K: tuple[int, ...]):
        self.group = group
        self.J = J
        self.K = K
        self.reps = parabolic._component_reps(group, J, K)
        self.dec_kj = parabolic.double_cosets(group, K, J)
        self.e_j, self.e_k = _idempotent(group, J, False), _idempotent(group, K, False)
        self.eps_j, self.eps_k = _idempotent(group, J, True), _idempotent(group, K, True)

    @cached_property
    def invariant(self) -> SubspaceBasis:
        """Basis of e_K QW e_J, one uniform vector per (W_K, W_J) coset."""
        return algebra._invariant_basis(self.group, self.dec_kj)

    @cached_property
    def anti_invariant(self) -> SubspaceBasis:
        """Basis of eps_K QW eps_J from the sign-averaged max reps."""
        return algebra._anti_invariant_basis(self.dec_kj, self.eps_k, self.eps_j)


def pair_context(group: WeylGroup, J, K) -> PairContext:
    """The shared context of (J, K); raises InvalidSubset on a bad subset.

    The group keeps the last one built in ``_pair``; setting that to None
    makes the next call build afresh.
    """
    J = parabolic.normalize_subset(group.rank, J)
    K = parabolic.normalize_subset(group.rank, K)
    ctx = group._pair
    if ctx is None or ctx.J != J or ctx.K != K:
        ctx = group._pair = PairContext(group, J, K)
    return ctx


def _idempotent(group: WeylGroup, J: tuple[int, ...], sign: bool) -> AlgebraElement:
    """eps_J (sign) or e_J of a normalized subset, built once per group."""
    entry = group._subsets[parabolic._mask(J)]
    if sign not in entry:
        make = algebra.sign_idempotent if sign else algebra.trivial_idempotent
        entry[sign] = (make(group, J), {})
    return entry[sign][0]


def _absorption_faults(ctx: PairContext, sign: bool) -> list[str]:
    """Names of the pair's idempotents that are not the one they claim to be.

    Those are e_K and e_J (twist 1), or with ``sign`` eps_K and eps_J
    (twist -1), named in that order.  The K one must satisfy e·δ_t = twist·e
    for t in K, read off ``_right``; the J one δ_s·e = twist·e for s in J,
    read off ``_left``.  With the support in W_subset (every canonical word
    in its letters) that makes c_u = twist^l(u)·c_e, and Σ twist^l(u)·c_u = 1
    fixes c_e = 1/|W_subset|: e is the idempotent, so e² = e.  No product is
    formed.  The verdict for the group's own idempotent of (subset, sign) is
    kept beside it, one per side; any other element is checked afresh.
    """
    group, twist = ctx.group, -1 if sign else 1
    e_k, e_j = (ctx.eps_k, ctx.eps_j) if sign else (ctx.e_k, ctx.e_j)
    faults = []
    for side, e, subset, table in ("K", e_k, ctx.K, group._right), ("J", e_j, ctx.J, group._left):
        entry = group._subsets[parabolic._mask(subset)].get(sign)
        verdicts = entry[1] if entry is not None and entry[0] is e else {}
        if side not in verdicts:  # K's verdict is its right one, J's its left one
            verdicts[side] = _absorption_holds(group, e, subset, table, twist)
        if not verdicts[side]:
            faults.append(("eps_" if sign else "e_") + side)
    return faults


def _absorption_holds(group: WeylGroup, e: AlgebraElement, subset, table, twist) -> bool:
    """One check of ``_absorption_faults``, read off the tables."""
    words, length = group._words, group._length
    num, letters = e._n, set(subset)
    moved = [twist * n for n in num.values()]
    return (
        all(map(letters.issuperset, map(words.__getitem__, num)))
        and all(
            list(map(num.get, map(table[s].__getitem__, num))) == moved
            for s in subset
        )
        and sum(-n if twist < 0 and length[x] % 2 else n for x, n in num.items())
        == e._d
    )


def _pair_report(ctx: PairContext, stem, basis, detail, faults, clause=True) -> VerificationReport:
    """The rank of ``basis`` against the coset count: passed if they agree,
    ``clause`` holds and ``faults``, set last in ``detail``, is empty."""
    expected, computed = len(ctx.reps), basis.dimension
    if faults:
        detail["absorption_fails"] = faults
    return VerificationReport(
        claim=f"{stem} J={_fmt(ctx.J)} K={_fmt(ctx.K)}",
        expected=expected,
        computed=computed,
        passed=clause and not faults and expected == computed,
        witness=basis,
        detail=detail,
    )


def verify_invariant_isomorphism(group: WeylGroup, J, K) -> VerificationReport:
    """dim e_K QW e_J must equal the number of (W_J, W_K) double cosets."""
    return _dimension_report(pair_context(group, J, K), False)


def verify_anti_invariant_isomorphism(group: WeylGroup, J, K) -> VerificationReport:
    """dim eps_K QW eps_J must equal the number of maximal representatives.

    The computed side is the rank of eps_K·δ_m·eps_J over the max reps m
    of the (W_K, W_J) cosets.  It also requires eps_K and eps_J to be the
    sign idempotents, by sign-twisted absorption read off the tables
    (``_absorption_faults(ctx, True)``): eps_K·δ_t = -eps_K for t in K,
    δ_s·eps_J = -eps_J for s in J, each support inside its parabolic, and
    Σ sgn(u)·c_u = 1.  ``detail`` names the ``maximal_reps`` and, when one
    fails, the idempotent in ``absorption_fails``.
    """
    ctx = pair_context(group, J, K)
    names = [group.word_name_of(m) for m in ctx.reps]
    return _dimension_report(ctx, True, maximal_reps=names)


def _dimension_report(ctx: PairContext, sign: bool, **detail) -> VerificationReport:
    """The invariant report, or with ``sign`` the anti-invariant one after the
    caller's ``detail``: the verdict that ``verify`` prints and ``table`` reads."""
    if sign:
        faults = _absorption_faults(ctx, True)
        return _pair_report(ctx, "anti-invariant-dimension", ctx.anti_invariant, detail, faults)
    return _pair_report(ctx, "invariant-dimension", ctx.invariant, {"cosets": len(ctx.reps)}, [])


def hotta_verification(group: WeylGroup, s: int) -> VerificationReport:
    """Three counts that must agree for a simple reflection s.

    Half the group order, the dimension of the right -1 eigenspace of s,
    and the number of elements with l(sw) < l(w); additionally that descent
    set must be exactly the complement of the minimal ({s}, empty)-coset
    representatives, those without s as a left descent in the descent
    table, and every eigenspace vector v must satisfy v * delta_s = -v,
    formed term by term through ``multiply``, a fold through ``_left`` that
    reads neither the product table nor the ``_right`` column that paired
    the eigenspace.  All five checks feed ``passed``.  When a vector is not
    negated, ``detail["first_not_negated"]`` names its first element.
    """
    half = group.order // 2
    eigen = algebra.right_sign_eigenspace(group, s)
    elements, s_elt = group.elements, group.simple[s]
    # v = -(v * delta_s): both over v's denominator, so compare the numerators
    unnegated = [v for v in eigen.vectors if v._n != {
        group.multiply(elements[x], s_elt).index: -n for x, n in v._n.items()}]
    length, rdesc, inv = group._length, group._rdesc, group._inv
    descents = [x for x, y in enumerate(group._left[s]) if length[y] < length[x]]
    nonminimal = [x for x, y in enumerate(inv) if rdesc[y] >> s & 1]
    sets_match = descents == nonminimal
    passed = eigen.dimension == half == len(descents) and sets_match and not unnegated
    detail = {
        "half_order": half,
        "eigenspace_dim": eigen.dimension,
        "descent_count": len(descents),
        "descent_set_is_nonminimal_set": sets_match,
    }
    if unnegated:
        detail["first_not_negated"] = group.word_name_of(min(unnegated[0]._n))
    return VerificationReport(
        claim=f"hotta s={s + 1}",
        expected=half,
        computed=eigen.dimension,
        passed=passed,
        witness=eigen,
        detail=detail,
    )


def averaging_image_check(group: WeylGroup, J, K) -> VerificationReport:
    """Rank and kernel of the projector P: v -> e_K * v * e_J on QW.

    - Absorption: e_K·δ_t = e_K for t in K and δ_s·e_J = e_J for s in J,
      with supports and coefficient sums checked
      (``_absorption_faults(ctx, False)``), so e_K and e_J are the
      idempotents and P(δ_{u·x·u'}) = P(δ_x) for u in W_K, u' in W_J.
    - One product per (W_K, W_J) coset: e_K·δ_x·e_J for its min rep x must
      equal the coset's basis vector.  All of them come from one
      ``algebra._sandwiches`` pass.  Every w of the coset is u·x·u'
      (Björner–Brenti §2.4), so the image of P is exactly the span of the
      basis and, P being idempotent, each basis vector is fixed.
    - Kernel: by rank–nullity it has dimension |W| - #cosets, which
      ``detail["kernel_dim"]`` reports; nothing more is ranked for it.

    The rank of the basis is compared with the (W_J, W_K) coset count read
    off the coset tables.  On failure, ``detail["first_unfixed"]`` names
    the min rep of the first coset whose product differs from its vector,
    and ``detail["absorption_fails"]`` the idempotents that do not absorb.
    """
    ctx = pair_context(group, J, K)
    cosets, vectors = ctx.dec_kj, ctx.invariant.vectors
    reps = [xs[0] for xs in cosets]
    images = algebra._sandwiches(ctx.e_k, reps, ctx.e_j)
    # a coset past the last basis vector has no vector to equal: None pads it
    unfixed = next((x for x, image, v in zip(reps, images, (*vectors, None)) if image != v), None)
    fixed = unfixed is None and len(vectors) == len(cosets)
    detail = {
        "kernel_dim": group.order - len(cosets),
        "order": group.order,
        "basis_fixed_by_projector": fixed,
    }
    if unfixed is not None:
        detail["first_unfixed"] = group.word_name_of(unfixed)
    faults = _absorption_faults(ctx, False)
    return _pair_report(ctx, "averaging-image", ctx.invariant, detail, faults, fixed)


def report_jsonable(report: VerificationReport) -> dict:
    vecs = report.witness.vectors if report.witness is not None else ()
    out = {
        "claim": report.claim,
        "expected": report.expected,
        "computed": report.computed,
        "passed": report.passed,
        "witness": [v.to_jsonable() for v in vecs],
    }
    if report.detail:
        out["detail"] = report.detail
    return out


def _fmt(subset) -> str:
    return "{" + ",".join(map(str, subset)) + "}"
