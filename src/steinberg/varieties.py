"""Dimension bookkeeping and verification for Steinberg-type varieties.

Everything geometric here is a number derived from the root system: the
flag variety has dimension n = |positive roots|, the ambient group
d = 2n + l with l the rank, the Steinberg variety Z is purely
2n-dimensional with components indexed by W, and its parabolic analogues
X and Y have components indexed by double cosets.  The verifiers
recompute both sides of each dimension identity independently and report
exact integer comparisons.

The three per-pair verifiers share one ``PairContext`` from
``pair_context``: the (W_J, W_K) and (W_K, W_J) decompositions, each from
its own ``double_cosets`` call, plus the idempotents e_J, e_K, eps_J,
eps_K and the invariant and anti-invariant bases, each built on first
use.  Only the context of the most recent (group, J, K) is kept, so a
sweep holds one pair's worth of vectors at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from . import algebra, parabolic
from .algebra import AlgebraElement, SubspaceBasis
from .rootsys import RootSystem, WeylElement, WeylGroup, word_name


@dataclass(frozen=True)
class GeometryProfile:
    """Global constants of the group: n, d = 2n + l, l, top degree 4n."""

    n: int
    d: int
    l: int
    top_degree_z: int


@dataclass(frozen=True)
class PairProfile:
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


@dataclass(frozen=True)
class ComponentReport:
    """One irreducible component, labeled by its indexing group element.

    ``dim_zw`` is the dimension of the component of Z above the label,
    ``dim_yw`` the dimension of its image component in Y, and
    ``eta_dim_preserved`` records the minimality criterion: the projection
    keeps the dimension of the Z-component labeled by w exactly when w is
    minimal in its double coset.
    """

    label: WeylElement
    dim_zw: int
    dim_yw: int
    eta_dim_preserved: bool


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one exact dimension check.

    ``detail`` carries auxiliary exact counts (all of which must agree for
    ``passed``); the headline comparison is expected vs computed.
    """

    claim: str
    expected: int
    computed: int
    passed: bool
    witness: SubspaceBasis | None = None
    detail: dict = field(default_factory=dict)


def geometry_profile(roots: RootSystem) -> GeometryProfile:
    n = roots.n_positive
    l = roots.rank
    return GeometryProfile(n=n, d=2 * n + l, l=l, top_degree_z=4 * n)


def parabolic_length(roots: RootSystem, J) -> int:
    """Positive roots supported on J = length of the longest element of W_J."""
    subset = set(parabolic.normalize_subset(roots.rank, J))
    count = 0
    for root in roots.positive:
        if all(c == 0 or i in subset for i, c in enumerate(root.coords)):
            count += 1
    return count


def pair_profile(roots: RootSystem, J, K) -> PairProfile:
    """Dimensions of X and Y over one parabolic pair.

    f = l(w_J) + l(w_K) measures the drop from the Borel case: Y is purely
    (2n - f)-dimensional and its top homology degree is 4n - 2f.
    """
    subJ = parabolic.normalize_subset(roots.rank, J)
    subK = parabolic.normalize_subset(roots.rank, K)
    n = roots.n_positive
    len_j = parabolic_length(roots, subJ)
    len_k = parabolic_length(roots, subK)
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
    """Components of Z: one per Weyl group element, each of dimension 2n."""
    dim = 2 * group.roots.n_positive
    return tuple(
        ComponentReport(label=w, dim_zw=dim, dim_yw=dim, eta_dim_preserved=True)
        for w in group.elements
    )


def y_components(group: WeylGroup, J, K) -> tuple[ComponentReport, ...]:
    """Components of Y: one per maximal (W_J, W_K)-coset representative.

    Each has dimension dim_flag_p + dim_flag_q = dim_y (Y is
    equidimensional); the flag records whether the labeling element is
    minimal in its coset, i.e. whether the projection from Z preserved the
    dimension of the component it came from.
    """
    dec = parabolic.double_cosets(group, J, K)
    profile = pair_profile(group.roots, dec.J, dec.K)
    dim_z = 2 * group.roots.n_positive
    dim_y = profile.dim_flag_p + profile.dim_flag_q
    # minimal in W_J m W_K: no left descent in J and no right descent in K
    mask_j = sum(1 << j for j in dec.J)
    mask_k = sum(1 << k for k in dec.K)
    out = []
    for coset in dec.cosets:
        m = coset.max_rep
        minimal = not (
            group.left_descent_mask(m.index) & mask_j
            or group.right_descent_mask(m.index) & mask_k
        )
        out.append(
            ComponentReport(
                label=m,
                dim_zw=dim_z,
                dim_yw=dim_y,
                eta_dim_preserved=minimal,
            )
        )
    return tuple(out)


class PairContext:
    """The work shared by every check of one parabolic pair (J, K).

    ``dec_jk`` and ``dec_kj`` come from two separate ``double_cosets``
    calls, not one derived from the other by inversion: ``dec_jk`` is the
    expected side of the dimension reports, while ``dec_kj`` indexes the
    vectors whose span is the computed side.  Idempotents and bases are
    built on first use.
    """

    def __init__(self, group: WeylGroup, J: tuple[int, ...], K: tuple[int, ...]):
        self.group = group
        self.J = J
        self.K = K
        self.dec_jk = parabolic.double_cosets(group, J, K)
        self.dec_kj = parabolic.double_cosets(group, K, J)

    @cached_property
    def e_j(self) -> AlgebraElement:
        return algebra.trivial_idempotent(self.group, self.J)

    @cached_property
    def e_k(self) -> AlgebraElement:
        return algebra.trivial_idempotent(self.group, self.K)

    @cached_property
    def eps_j(self) -> AlgebraElement:
        return algebra.sign_idempotent(self.group, self.J)

    @cached_property
    def eps_k(self) -> AlgebraElement:
        return algebra.sign_idempotent(self.group, self.K)

    @cached_property
    def invariant(self) -> SubspaceBasis:
        """Basis of e_K QW e_J, one uniform vector per (W_K, W_J) coset."""
        return algebra._invariant_basis(self.group, self.dec_kj)

    @cached_property
    def anti_invariant(self) -> SubspaceBasis:
        """Basis of eps_K QW eps_J from the sign-averaged max reps."""
        return algebra._anti_invariant_basis(self.dec_kj, self.eps_k, self.eps_j)


def pair_context(group: WeylGroup, J, K) -> PairContext:
    """The shared context of (J, K); raises InvalidSubset on a bad subset."""
    return _pair_context(
        group,
        parabolic.normalize_subset(group.rank, J),
        parabolic.normalize_subset(group.rank, K),
    )


@lru_cache(maxsize=1)
def _pair_context(
    group: WeylGroup, J: tuple[int, ...], K: tuple[int, ...]
) -> PairContext:
    return PairContext(group, J, K)


def verify_invariant_isomorphism(group: WeylGroup, J, K) -> VerificationReport:
    """dim e_K QW e_J must equal the number of (W_J, W_K) double cosets."""
    ctx = pair_context(group, J, K)
    basis = ctx.invariant
    expected = len(ctx.dec_jk)
    computed = basis.dimension
    return VerificationReport(
        claim=f"invariant-dimension J={_fmt(ctx.J)} K={_fmt(ctx.K)}",
        expected=expected,
        computed=computed,
        passed=expected == computed,
        witness=basis,
        detail={"cosets": expected},
    )


def verify_anti_invariant_isomorphism(group: WeylGroup, J, K) -> VerificationReport:
    """dim eps_K QW eps_J must equal the number of maximal representatives."""
    ctx = pair_context(group, J, K)
    reps = [coset.max_rep for coset in ctx.dec_jk.cosets]
    basis = ctx.anti_invariant
    expected = len(reps)
    computed = basis.dimension
    return VerificationReport(
        claim=f"anti-invariant-dimension J={_fmt(ctx.J)} K={_fmt(ctx.K)}",
        expected=expected,
        computed=computed,
        passed=expected == computed,
        witness=basis,
        detail={"maximal_reps": [word_name(m.canonical_word) for m in reps]},
    )


def hotta_verification(group: WeylGroup, s: int) -> VerificationReport:
    """Three counts that must agree for a simple reflection s.

    Half the group order, the dimension of the right -1 eigenspace of s,
    and the number of elements with sw < w; additionally the descent set
    must be exactly the complement of the minimal ({s}, empty)-coset
    representatives.  All four checks feed ``passed``.
    """
    half = group.order // 2
    eigen = algebra.right_sign_eigenspace(group, s)
    descents = [w for w in group.elements if group.is_left_descent(s, w)]
    nonminimal = [
        w
        for w in group.elements
        if not parabolic.is_minimal_in_double_coset(w, [s], [])
    ]
    sets_match = descents == nonminimal
    passed = eigen.dimension == half == len(descents) and sets_match
    return VerificationReport(
        claim=f"hotta s={s + 1}",
        expected=half,
        computed=eigen.dimension,
        passed=passed,
        witness=eigen,
        detail={
            "half_order": half,
            "eigenspace_dim": eigen.dimension,
            "descent_count": len(descents),
            "descent_set_is_nonminimal_set": sets_match,
        },
    )


def averaging_image_check(group: WeylGroup, J, K) -> VerificationReport:
    """Rank and kernel of the projector v -> e_K * v * e_J on QW.

    The rank comes from row reducing one uniform vector per (W_K, W_J)
    double coset after verifying each is fixed by the projector, and is
    compared with the (W_J, W_K) coset count; the kernel dimension is
    checked against the explicit independent family
    delta_x - delta_{min_rep(x)}, which row reduction must size at
    |W| - #cosets.
    """
    ctx = pair_context(group, J, K)
    basis = ctx.invariant
    e_j, e_k = ctx.e_j, ctx.e_k
    fixed = all(e_k * v * e_j == v for v in basis.vectors)
    one, minus_one = Fraction(1), Fraction(-1)
    kernel_family = []
    for coset in ctx.dec_kj.cosets:
        rep = coset.min_rep.index
        for w in coset.elements:
            if w.index != rep:
                kernel_family.append(
                    AlgebraElement._raw(group, {w.index: one, rep: minus_one})
                )
    kernel = algebra.span_dimension(kernel_family)
    expected = len(ctx.dec_jk)
    computed = basis.dimension
    passed = (
        fixed
        and computed == expected
        and kernel.dimension == group.order - computed
    )
    return VerificationReport(
        claim=f"averaging-image J={_fmt(ctx.J)} K={_fmt(ctx.K)}",
        expected=expected,
        computed=computed,
        passed=passed,
        witness=basis,
        detail={
            "kernel_dim": kernel.dimension,
            "order": group.order,
            "basis_fixed_by_projector": fixed,
        },
    )


def report_jsonable(report: VerificationReport, include_witness: bool = True) -> dict:
    out = {
        "claim": report.claim,
        "expected": report.expected,
        "computed": report.computed,
        "passed": report.passed,
    }
    if include_witness:
        vecs = report.witness.vectors if report.witness is not None else ()
        out["witness"] = [v.to_jsonable() for v in vecs]
    if report.detail:
        out["detail"] = report.detail
    return out


def _fmt(subset) -> str:
    return "{" + ",".join(str(i) for i in subset) + "}"
