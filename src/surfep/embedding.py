"""Finite split embedding problems over a surface group, and their checkable
solution certificates.

The problem data is a semidirect product A = K x| B, with its projection
alpha and section gamma, and a surjection beta_bar from the genus-g surface
group onto B, given as a surface tuple.  A subgroup N of the surface
group is encoded through a finite quotient: a tuple nu into Q plus a
subgroup S of Q, with N = nu^-1(S); every membership or image question the
solver asks is then decidable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional, Sequence

from .errors import (
    BetaNotSurjective,
    GenusMismatch,
    NotASolution,
    TargetMismatch,
)
from .groups import (
    ActionSpec,
    FiniteGroup,
    GroupHom,
    SemidirectProduct,
    SubgroupHandle,
    _closure,
    _columns,
    semidirect_product,
    subgroup_closure,
)
from .surface import (
    SurfaceTuple,
    Word,
    basis_words,
    relation_value,
    tuple_image,
)


@dataclass(frozen=True)
class SplitEP:
    """A finite split embedding problem A = K x| B -> B for the genus-g
    surface group: the semidirect product sd it was built from, which holds
    A, alpha and gamma, and a surjection beta_bar onto B.  Only
    make_split_ep builds one and checks beta_bar; with_beta_bar checks
    nothing again."""

    sd: SemidirectProduct
    beta_bar: SurfaceTuple

    @property
    def A(self) -> FiniteGroup:
        return self.sd.group

    @property
    def B(self) -> FiniteGroup:
        return self.sd.alpha.codomain

    @property
    def alpha(self) -> GroupHom:
        return self.sd.alpha

    @property
    def gamma(self) -> GroupHom:
        return self.sd.gamma

    @property
    def genus(self) -> int:
        return self.beta_bar.genus

    @property
    def kernel_subgroup(self) -> SubgroupHandle:
        # the image of embed_k, whose values k|B| + e_B increase with k
        return SubgroupHandle(self.A, self.sd.embed_k.map)

    def with_beta_bar(self, beta_bar: SurfaceTuple) -> "SplitEP":
        return replace(self, beta_bar=beta_bar)


def make_split_ep(
    k_group: FiniteGroup,
    h_group: FiniteGroup,
    action: ActionSpec,
    beta_bar: SurfaceTuple,
    genus: Optional[int] = None,
) -> SplitEP:
    """Build A = K x| H with its canonical projection and section, and check
    beta_bar once: TargetMismatch unless it maps into H, GenusMismatch
    unless it has the given genus, then BetaNotSurjective unless it is onto
    H."""
    sd = semidirect_product(k_group, h_group, action)
    if genus is None:
        genus = beta_bar.genus
    if beta_bar.target != h_group:
        raise TargetMismatch("beta_bar", h_group.order, beta_bar.target.order)
    if beta_bar.genus != genus:
        raise GenusMismatch(genus, beta_bar.genus)
    if tuple_image(beta_bar).order != h_group.order:
        raise BetaNotSurjective()
    return SplitEP(sd, beta_bar)


@dataclass(frozen=True)
class SubgroupSpec:
    """N = nu^-1(S): a subgroup of the surface group cut out by a finite
    quotient channel."""

    Q: FiniteGroup
    nu: SurfaceTuple
    S: SubgroupHandle

    def __post_init__(self):
        if self.nu.target != self.Q:
            raise ValueError("nu must map into Q")
        if self.S.parent != self.Q:
            raise ValueError("S must be a subgroup of Q")

    @property
    def genus(self) -> int:
        return self.nu.genus

    def with_nu(self, nu: SurfaceTuple) -> "SubgroupSpec":
        return replace(self, nu=nu)


def image_of_restriction(t: SurfaceTuple, spec: SubgroupSpec) -> SubgroupHandle:
    """The image of N = nu^-1(S) under the homomorphism given by t.

    Close the pairs (t(gen), nu(gen)) under componentwise multiplication in
    target x Q; the closure T is the image of the surface group under the
    pair map (t, nu).  An element a of
    the target lies in t(N) exactly when some (a, s) with s in S lies in T:
    such a pair is the image of a single surface-group element, which nu
    sends into S, i.e. an element of N; conversely every element of N pairs
    its t-image with an S-element.  Since S is a subgroup, N is a subgroup
    and so is the returned set (SubgroupHandle re-verifies closure).

    A pair (a, q) is the flat index a*|Q| + q, and a kept generator's
    column is assembled from one column of each factor table, so no
    product table is built; the members are p // |Q| for each p in T with
    p % |Q| in S.
    """
    if t.genus != spec.nu.genus:
        raise GenusMismatch(t.genus, spec.nu.genus)
    tmul, qmul, nq = t.target.mul, spec.Q.mul, spec.Q.order

    def column(g: int) -> list[int]:
        a, v = divmod(g, nq)
        qcol = [row[v] for row in qmul]
        return [row[a] * nq + q for row in tmul for q in qcol]

    pairs, _ = _closure(
        t.target.identity * nq + spec.Q.identity,
        [a * nq + q for a, q in zip(
            (*t.ximg, *t.yimg), (*spec.nu.ximg, *spec.nu.yimg)
        )],
        column,
    )
    s_members = set(spec.S.members)
    members = sorted({p // nq for p in pairs if p % nq in s_members})
    return SubgroupHandle(t.target, tuple(members))


def _first_incompatible(
    ep: SplitEP, phi_x: Sequence[int], phi_y: Sequence[int]
) -> Optional[str]:
    """The first generator ("x3", "y1", ...) where alpha o phi differs from
    beta_bar, x before y at each position; None when they agree.  The
    mapped tuples are compared whole first, and scanned only to name the
    first mismatch."""
    amap, bx, by = ep.alpha.map, ep.beta_bar.ximg, ep.beta_bar.yimg
    f = amap.__getitem__
    if tuple(map(f, phi_x)) == bx and tuple(map(f, phi_y)) == by:
        return None
    for i in range(ep.genus):
        if amap[phi_x[i]] != bx[i]:
            return f"x{i + 1}"
        if amap[phi_y[i]] != by[i]:
            return f"y{i + 1}"
    return None


def claim_proper(ep: SplitEP, phi: SurfaceTuple) -> bool:
    """Kernel-containment criterion for surjectivity.

    Requires phi to be a solution of ep's genus (GenusMismatch otherwise;
    compatibility with beta_bar checked generatorwise); returns True iff
    Ker(alpha) lies in the closure of the phi-images.  Because beta_bar is
    surjective, that closure maps onto B, so containing the kernel forces
    it to be all of A.
    """
    if phi.genus != ep.genus:
        raise GenusMismatch(ep.genus, phi.genus)
    bad = _first_incompatible(ep, phi.ximg, phi.yimg)
    if bad is not None:
        raise NotASolution(bad)
    closure = subgroup_closure(ep.A, [*phi.ximg, *phi.yimg])
    return set(closure.members).issuperset(ep.sd.embed_k.map)


# --- certificates -------------------------------------------------------------

@dataclass(frozen=True)
class CheckRecord:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class RelativeEvidence:
    """Why a relative run stopped: the first basis position i whose
    x-difference (x1^-1 x_i or x_i x1^-1) leaves N on the certificate
    basis.  reverify_certificate finds it; a certificate file does not
    hold it."""

    offending_index: int


@dataclass(frozen=True)
class EtaSummary:
    """The move program: the first m positions whose beta_bar pair is pair
    go to the front, and s = len(kgens) kernel generators over blocks of n
    of them.  pair is the one choice: a claim, solve's or a parsed
    certificate's, holds it alone, and reverify_certificate fills in n, m
    and kgens from the problem (make_eta_params) and selected, those
    positions, from beta_bar.  selected is left out of comparisons."""

    pair: Optional[tuple[int, int]]
    n: int = 0
    m: int = 0
    kgens: tuple[int, ...] = ()
    selected: tuple[int, ...] = field(default=(), compare=False)

    @property
    def s(self) -> int:
        return len(self.kgens)


@dataclass(frozen=True)
class SolutionCertificate:
    """A claimed solution plus everything needed to re-check it from scratch.

    The candidate images and the reference map are expressed on the
    certificate basis: the original basis after the move program eta (the
    original basis itself when eta is None).  A certificate file holds
    outcome and eta.pair: the rest of eta, phi and, for a "not_reduced"
    one, relative follow from the problem and the pair
    (solver.reverify_certificate), so a parsed certificate holds none of
    them until reverify_certificate replays it.
    basis_x_words / basis_y_words spell the basis out as words in the
    original one, derived on first use; nothing on the solve or verify path
    needs them.  genus, is_solution and is_proper follow from phi and
    outcome.  The certificate claims the properties verify_solution checks,
    not a proof of them: no kernel witness is derived or recorded, and
    witnesses is always empty.
    """

    phi_x: tuple[int, ...]
    phi_y: tuple[int, ...]
    outcome: Optional[str]  # "proper" | "solution" | "invalid" | "not_reduced" | None
    checks: tuple[CheckRecord, ...] = ()
    eta: Optional[EtaSummary] = None
    witnesses: tuple = ()  # always (); perfbench/tracing.py still reads it
    relative: Optional[RelativeEvidence] = None

    @property
    def genus(self) -> int:
        return len(self.phi_x)

    @property
    def is_solution(self) -> bool:
        return self.outcome in ("proper", "solution")

    @property
    def is_proper(self) -> bool:
        return self.outcome == "proper"

    def failed_checks(self) -> tuple[CheckRecord, ...]:
        return tuple(c for c in self.checks if not c.passed)

    @cached_property
    def _basis_words(self) -> tuple[tuple[Word, ...], tuple[Word, ...]]:
        return basis_words(self.genus, self.eta.selected if self.eta else ())

    @property
    def basis_x_words(self) -> tuple[Word, ...]:
        return self._basis_words[0]

    @property
    def basis_y_words(self) -> tuple[Word, ...]:
        return self._basis_words[1]


def verify_solution(
    ep: SplitEP,
    phi_x: Sequence[int],
    phi_y: Sequence[int],
    relative: Optional[SubgroupSpec] = None,
) -> SolutionCertificate:
    """Check a candidate tuple against the problem and record every result.

    Each property the outcome claims has one exact check, read off the
    definition: surface_relation (the product of commutators is 1),
    compatibility (alpha o phi = beta_bar), image_closure (phi(Gamma) = A)
    and, with a relative, beta_n_surjective and relative_image_full (beta(N)
    = B and phi(N) = A).  "proper" is surface_relation and compatibility
    together with image_closure, or with a relative together with
    beta_n_surjective and relative_image_full.  How phi was built is not
    read.  The candidate and ep.beta_bar (and relative.nu, if given) must
    refer to the same basis.  Nothing is thrown for a failed check; failures
    land in the certificate.
    """
    checks: list[CheckRecord] = []
    g = ep.genus

    ok_shape = (
        len(phi_x) == g
        and len(phi_y) == g
        and 0 <= min(min(phi_x, default=0), min(phi_y, default=0))
        and max(max(phi_x, default=0), max(phi_y, default=0)) < ep.A.order
    )
    checks.append(CheckRecord("shape", ok_shape, f"genus {g}"))
    if not ok_shape:
        return SolutionCertificate(tuple(phi_x), tuple(phi_y), "invalid", tuple(checks))

    # the one relation check on the way out: the tuples phi is derived from
    # are built without one (see SurfaceTuple)
    value = relation_value(ep.A, phi_x, phi_y)
    ok_relation = value == ep.A.identity
    checks.append(
        CheckRecord("surface_relation", ok_relation, f"product evaluates to {value}")
    )

    bad = _first_incompatible(ep, phi_x, phi_y)
    ok_compat = bad is None
    checks.append(CheckRecord(
        "compatibility", ok_compat,
        "alpha o phi = beta_bar" if ok_compat else f"fails at {bad}",
    ))

    is_solution = ok_relation and ok_compat

    # properness: the closure of the images, which shape has range-checked
    image, _ = _closure(ep.A.identity, [*phi_x, *phi_y], _columns(ep.A.mul))
    order = len(image)
    ok_closure = order == ep.A.order
    checks.append(
        CheckRecord(
            "image_closure",
            ok_closure,
            f"closure order {order} of {ep.A.order}",
        )
    )

    is_proper = is_solution and ok_closure
    if relative is not None:
        ok_genus = relative.genus == g
        checks.append(CheckRecord("relative_genus", ok_genus, ""))
        if ok_genus:
            bn = image_of_restriction(ep.beta_bar, relative)
            bn_full = bn.order == ep.B.order
            checks.append(
                CheckRecord(
                    "beta_n_surjective", bn_full, f"|beta(N)| = {bn.order}"
                )
            )
            an = image_of_restriction(
                SurfaceTuple(ep.A, g, tuple(phi_x), tuple(phi_y)), relative
            )
            an_full = an.order == ep.A.order
            checks.append(
                CheckRecord(
                    "relative_image_full", an_full, f"|phi(N)| = {an.order}"
                )
            )
            is_proper = is_solution and bn_full and an_full
        else:
            is_proper = False

    outcome = "proper" if is_proper else ("solution" if is_solution else "invalid")
    return SolutionCertificate(
        phi_x=tuple(phi_x),
        phi_y=tuple(phi_y),
        outcome=outcome,
        checks=tuple(checks),
    )
