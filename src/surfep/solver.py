"""Constructive solvers for split embedding problems over surface groups.

The core pipeline starts from the section-composed candidate, pulls a
repeated image pair to the front of the basis by conjugation moves, then
redistributes kernel generators over blocks of equal-image generators; the
resulting map is surjective by the kernel-containment criterion and comes
with a certificate that re-verifies from scratch.  The certificate records
only the solver's one choice, the value pair moved: how often it is moved
and the kernel generators follow from the problem (make_eta_params).
Solve tries each pair that occurs often enough through
reverify_certificate, the check verify runs, which lists the pair's
positions, replays the program once, derives phi from it by the eta rule
and reads the outcome off the replay.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import repeat
from typing import Optional, Sequence

from .errors import (
    BetaNotSurjective,
    BetaNRestrictionNotSurjective,
    GenusMismatch,
    GenusTooSmall,
    HypothesisViolated,
    TargetMismatch,
)
from .groups import (
    ActionSpec,
    FiniteGroup,
    _closure,
    make_hom,
    semidirect_product,
    subgroup_closure,
    kernel,
)
from .embedding import (
    CheckRecord,
    EtaSummary,
    RelativeEvidence,
    SolutionCertificate,
    SplitEP,
    SubgroupSpec,
    image_of_restriction,
    make_split_ep,
    verify_solution,
)
from .surface import (
    SurfaceTuple,
    initial_basis_state,
    make_surface_tuple,
    map_tuple,
    normalize_to_front,
    open_subgroup_genus,
    pair_positions,
    repeated_pairs,
    tuple_image,
)


def _bounds(size_k: int, size_h: int) -> tuple[int, int]:
    """m = 2|K|^2|H| and the genus bound m|H|^2 = 2|K|^2|H|^3 for K x| H."""
    return 2 * size_k ** 2 * size_h, 2 * size_k ** 2 * size_h ** 3


def _program_sizes(ep: SplitEP) -> tuple[int, int, int]:
    """n = |A| and _bounds for A = K x| B, |K| = |A|/|B|.  n = |A|: for any
    phi with alpha o phi = beta_bar, K phi(Gamma) = alpha^-1(B) = A."""
    a, b = ep.A.order, ep.B.order
    return (a, *_bounds(a // b, b))


def make_eta_params(
    ep: SplitEP, phi: Optional[SurfaceTuple] = None
) -> EtaSummary:
    """n, m (_program_sizes) and kgens of the move program, without its
    pair; _eta_check, which solve and verify both run, adds the claimed
    pair and fills in selected.  kgens is K's greedy generating tuple (the
    seeds _closure keeps over K's elements) mapped into A by the increasing
    embed_k: each generator is the smallest kernel member not yet reached,
    so s <= log2 |K| and the blocks always fit, s(n + 1) <= 2|K|^2|B| = m.
    phi is not read; the parameter stays because perfbench/tracing.py's
    staged replay passes gamma o beta_bar."""
    n, m, _ = _program_sizes(ep)
    embed = ep.sd.embed_k
    kg = embed.domain
    kmul = kg.mul
    _, gens = _closure(kg.identity, kg.elements(), lambda a, b: kmul[a][b])
    return EtaSummary(None, n, m, tuple(embed.map[k] for k in gens))


def eta_construct(
    phi: SurfaceTuple,
    params: EtaSummary,
    ep: SplitEP,
    relative: Optional[SubgroupSpec] = None,
) -> SurfaceTuple:
    """The eta rule, in its one implementation: phi with x_{in+j+1} set to
    x_1 k_{i+1} for i < s and 1 <= j <= n, the kernel generators spread
    over the first s blocks.  Solve and verify derive phi with it
    (reverify_certificate).

    Needs phi constant on x_1..x_{sn+s} and y_1..y_{sn+s} and, in the
    relative case, both x_1^-1 x_i and x_i x_1^-1 inside N for
    2 <= i <= sn+s.  Nothing is checked on the way out, and ep is not read:
    verify_solution checks the relation, compatibility and the image of
    the result exactly.  (In the paper's proof, block i is n = |A| equal
    pairs, so it contributes c^n = 1 for its commutator c before the change
    and after it, by Lagrange; the result differs from phi only by kernel
    factors, so alpha o result = alpha o phi = beta_bar for phi = gamma o
    beta_bar_n.)  The guards cannot fire on a program that passes
    eta_program: the replay makes gamma o beta_bar_n constant on the first
    m >= s(n + 1) positions.
    """
    s, n = params.s, params.n
    g = phi.genus
    span = s * n + s
    if g < span:
        raise HypothesisViolated("genus", (span, g))
    x1, y1 = phi.ximg[0], phi.yimg[0]
    for i in range(1, span):
        if phi.ximg[i] != x1 or phi.yimg[i] != y1:
            raise HypothesisViolated("equal_images", i + 1)
    if relative is not None:
        bad = _first_leaving(relative, span)
        if bad is not None:
            raise HypothesisViolated("membership", bad)

    new_x = list(phi.ximg)
    row = phi.target.mul[x1]
    for i, k in enumerate(params.kgens):
        new_x[i * n + 1 : i * n + n + 1] = repeat(row[k], n)
    return SurfaceTuple(phi.target, g, tuple(new_x), phi.yimg)


def _first_leaving(rel_n: SubgroupSpec, last: int) -> Optional[int]:
    """The first basis position i in 2..last whose x-difference (x1^-1 x_i
    or x_i x1^-1) leaves N, read on rel_n.nu; None when none does."""
    nu = rel_n.nu
    sset = set(rel_n.S.members)
    mul = nu.target.mul
    inv1 = nu.target.inv[nu.ximg[0]]
    return next((
        i for i in range(2, last + 1)
        if mul[inv1][nu.ximg[i - 1]] not in sset
        or mul[nu.ximg[i - 1]][inv1] not in sset
    ), None)


def _replay(
    ep: SplitEP, nspec: Optional[SubgroupSpec], selected: Sequence[int]
) -> tuple[SplitEP, Optional[SubgroupSpec]]:
    """ep and nspec with beta_bar and nu replayed through the move program
    that takes the positions selected to the front, i.e. read on the
    certificate basis.  No basis word is built."""
    channels = [ep.beta_bar] + ([nspec.nu] if nspec is not None else [])
    state = normalize_to_front(initial_basis_state(channels), selected)
    rel_n = nspec.with_nu(state.channel_tuple(1)) if nspec is not None else None
    return ep.with_beta_bar(state.channel_tuple(0)), rel_n


def _solve_pipeline(
    ep: SplitEP, nspec: Optional[SubgroupSpec]
) -> SolutionCertificate:
    _, m, needed = _program_sizes(ep)
    if ep.genus < needed:
        raise GenusTooSmall(needed, ep.genus)
    if nspec is not None:
        # refused before the move search, so a refused problem costs no
        # replay; verify's beta_n_surjective computes beta(N) again, as
        # solve ends in verify's check.  Raises GenusMismatch unless nu has
        # ep's genus
        bn = image_of_restriction(ep.beta_bar, nspec)
        if bn.order != ep.B.order:
            raise BetaNRestrictionNotSurjective(bn.order, ep.B.order)

    # each claim holds only a pair; its outcome is the replay's, and
    # stopping at a position leaving N is not_reduced (escalating needs the
    # quotient construction, outside this solver).  Every pair that occurs
    # m times is tried, in order, so that a proper solution is found
    # whichever pair the labels make smallest (NoRepeatedPair if none
    # occurs m times)
    first = None
    for pair in repeated_pairs(zip(ep.beta_bar.ximg, ep.beta_bar.yimg), m):
        claim = SolutionCertificate((), (), None, eta=EtaSummary(pair))
        cert = reverify_certificate(ep, claim, nspec)
        if cert.failed_checks():
            raise AssertionError(f"solve's certificate fails {cert.failed_checks()}")
        if cert.is_proper:
            return cert
        first = first or cert
    return first


def solve_gamma_level(ep: SplitEP) -> SolutionCertificate:
    """Proper solution of a split problem with genus >= 2|A|^2 |B|."""
    return _solve_pipeline(ep, None)


def solve_relative(ep: SplitEP, nspec: SubgroupSpec) -> SolutionCertificate:
    """Proper solution restricted to N = nu^-1(S), when beta(N) = B and,
    for some pair that occurs m times, the normalized basis keeps its
    leading x-differences inside N; otherwise the smallest pair's
    certificate comes back with outcome "not_reduced"."""
    return _solve_pipeline(ep, nspec)


def _eta_check(
    ep: SplitEP, eta: Optional[EtaSummary]
) -> tuple[CheckRecord, Optional[EtaSummary]]:
    """The claimed pair checked against the problem, not searched for: a
    value pair of B that occurs at least m = 2|A|^2/|B| times among
    beta_bar's pairs, so that the program can be replayed.  Any such pair
    will do, not only the one the solver picks.  n, m and kgens are the
    problem's (make_eta_params).  Returns the check and the program with
    selected filled in: the first m of the pair's positions, listed once
    here for both the count and the replay."""
    if eta is None:
        return CheckRecord("eta_program", False, "no move program recorded"), eta
    eta = replace(make_eta_params(ep), pair=eta.pair)
    m = eta.m
    positions = pair_positions(zip(ep.beta_bar.ximg, ep.beta_bar.yimg), eta.pair)
    times = len(positions)
    occurs = f"pair {eta.pair} occurs {times} times among beta_bar's pairs"
    if not all(0 <= v < ep.B.order for v in eta.pair):
        failed = f"pair {eta.pair} is not in B x B"
    elif times < m:
        failed = f"{occurs}, fewer than m = {m}"
    else:
        failed = None
    check = CheckRecord("eta_program", failed is None, failed or f"{occurs}, m = {m}")
    selected = tuple(positions[:m]) if failed is None else ()
    return check, replace(eta, selected=selected)


def reverify_certificate(
    ep: SplitEP,
    cert: SolutionCertificate,
    nspec: Optional[SubgroupSpec] = None,
) -> SolutionCertificate:
    """Re-check a certificate from raw data, trusting none of its flags.
    Verify prints this check, and solve ends in it.  Returns cert with the
    recomputed outcome, phi in full once the program passes, the whole move
    program, and every check in order.  The claimed pair is checked
    (eta_program), not searched for, and its program replayed once on
    beta_bar (and nu).  A claim without an outcome, solve's, takes the one
    its replay shows: "not_reduced" at the first position in 2..m whose
    x-difference leaves N, "proper" otherwise.  A "not_reduced" claim needs
    beta(N) = B and some such position (offending_index), which relative
    then holds.  Any other gets phi by the eta rule, checked by
    verify_solution against what the outcome claims (the relation,
    compatibility, phi(Gamma) = A and, with nu, beta(N) = B and phi(N) =
    A), and its outcome must match (outcome_matches).  No step of the
    construction's proof is replayed.  GenusMismatch unless nu has ep's
    genus."""
    if nspec is not None and nspec.genus != ep.genus:
        raise GenusMismatch(ep.genus, nspec.genus)
    check, eta = _eta_check(ep, cert.eta)
    checks = [check]
    phi_x, phi_y = cert.phi_x, cert.phi_y
    first = None  # first position leaving N; read for not_reduced or no outcome
    if check.passed:
        ep_n, rel_n = _replay(ep, nspec, eta.selected)
        phi_n = map_tuple(ep.gamma, ep_n.beta_bar)
        phi_x, phi_y = phi_n.ximg, phi_n.yimg
        if rel_n is not None and cert.outcome in (None, "not_reduced"):
            first = _first_leaving(rel_n, eta.m)
    if cert.outcome is None:
        cert = replace(cert, outcome="proper" if first is None else "not_reduced")

    if cert.outcome == "not_reduced":
        if nspec is None:
            checks.append(CheckRecord(
                "relative_present", False, "certificate needs a relative spec"
            ))
        elif check.passed:
            bn = image_of_restriction(ep.beta_bar, nspec)
            checks += [
                CheckRecord("beta_n_surjective", bn.order == ep.B.order,
                            f"|beta(N)| = {bn.order}"),
                CheckRecord("offending_index", first is not None,
                            f"position {first} leaves N" if first else
                            f"no position in 2..{eta.m} leaves N"),
            ]
        stopped = all(c.passed for c in checks)
        return replace(cert, phi_x=phi_x, phi_y=phi_y,
                       outcome="not_reduced" if stopped else "invalid",
                       checks=tuple(checks), eta=eta,
                       relative=RelativeEvidence(first) if stopped else None)

    fresh = SolutionCertificate(phi_x, phi_y, "invalid")
    if check.passed:
        phi = eta_construct(phi_n, eta, ep_n)
        fresh = verify_solution(ep_n, phi.ximg, phi.yimg, relative=rel_n)
        checks += fresh.checks
    checks.append(CheckRecord(
        "outcome_matches",
        fresh.outcome == cert.outcome,
        f"recomputed outcome {fresh.outcome}",
    ))
    return replace(fresh, eta=eta, checks=tuple(checks))


# --- free products -------------------------------------------------------------

@dataclass(frozen=True)
class FreeProductCertificate:
    """Solution data for a problem posed over Gamma_g free with extra free
    generators: the surface part lands in the sub-semidirect product over the
    image of the surface group, the free generators go to section values."""

    ambient: FiniteGroup                 # K x| H
    surface_part: SolutionCertificate    # over K x| H0, certificate basis
    surface_x: tuple[int, ...]           # embedded into the ambient group
    surface_y: tuple[int, ...]
    g_images: tuple[int, ...]
    is_proper: bool
    checks: tuple[CheckRecord, ...]


def solve_free_product(
    k_group: FiniteGroup,
    h_group: FiniteGroup,
    action: ActionSpec,
    genus: int,
    beta_surface: SurfaceTuple,
    beta_g: Sequence[int],
) -> FreeProductCertificate:
    """Solve K x| H -> H over Gamma_g free-product extra generators.

    The surface group solves the restricted problem over H0, the image of
    beta_surface; the extra generators are sent to (1, beta value).  The
    kernel already sits inside the surface part's image, so the combined map
    is onto.
    """
    needed = _bounds(k_group.order, h_group.order)[1]
    if genus < needed:
        raise GenusTooSmall(needed, genus)
    if beta_surface.target != h_group:
        raise TargetMismatch("beta_surface", h_group.order, beta_surface.target.order)
    if beta_surface.genus != genus:
        raise GenusMismatch(genus, beta_surface.genus)
    total = subgroup_closure(h_group, [*beta_surface.ximg, *beta_surface.yimg, *beta_g])
    if total.order != h_group.order:
        raise BetaNotSurjective()

    h0 = tuple_image(beta_surface)
    h0_group, incl = h0.as_group()
    pos = {a: i for i, a in enumerate(h0.members)}
    action0 = ActionSpec(
        h0_group,
        k_group,
        tuple(action.perms[incl.map[h]] for h in h0_group.elements()),
    )
    beta0 = make_surface_tuple(
        h0_group,
        [pos[a] for a in beta_surface.ximg],
        [pos[a] for a in beta_surface.yimg],
    )
    ep0 = make_split_ep(k_group, h0_group, action0, beta0)
    surface_cert = solve_gamma_level(ep0)

    sd = semidirect_product(k_group, h_group, action)
    embed_map = [
        sd.encode(k, incl.map[h])
        for k in k_group.elements()
        for h in h0_group.elements()
    ]
    embed = make_hom(ep0.A, sd.group, embed_map)
    surface_x = tuple(embed.map[a] for a in surface_cert.phi_x)
    surface_y = tuple(embed.map[a] for a in surface_cert.phi_y)
    g_images = tuple(sd.encode(k_group.identity, b) for b in beta_g)

    checks = [
        CheckRecord("surface_part_proper", surface_cert.is_proper, "")
    ]
    closure = subgroup_closure(sd.group, [*surface_x, *surface_y, *g_images])
    full = closure.order == sd.group.order
    checks.append(
        CheckRecord(
            "image_closure", full, f"closure order {closure.order} of {sd.group.order}"
        )
    )
    kset = set(closure.members)
    kernel_in = all(k in kset for k in kernel(sd.alpha).members)
    checks.append(CheckRecord("kernel_containment", kernel_in, ""))
    compat = all(
        sd.alpha.map[g_images[i]] == beta_g[i] for i in range(len(beta_g))
    )
    checks.append(CheckRecord("free_generator_compat", compat, ""))
    is_proper = surface_cert.is_proper and full and kernel_in and compat
    if not is_proper:
        raise AssertionError("free-product assembly lost properness")
    return FreeProductCertificate(
        ambient=sd.group,
        surface_part=surface_cert,
        surface_x=surface_x,
        surface_y=surface_y,
        g_images=g_images,
        is_proper=is_proper,
        checks=tuple(checks),
    )


# --- extension planning --------------------------------------------------------

@dataclass(frozen=True)
class ExtensionPlan:
    """Arithmetic of passing to an open subgroup: the smallest index whose
    subgroup genus h leaves h - m above the solvability bound."""

    genus: int
    size_k: int
    size_h: int
    m: int
    required_index: int
    h: int

    @property
    def bound(self) -> int:
        return _bounds(self.size_k, self.size_h)[1]


def plan_extension(genus: int, size_k: int, size_h: int) -> ExtensionPlan:
    if genus < 2:
        raise GenusTooSmall(2, genus)
    if size_k < 1 or size_h < 1:
        raise ValueError("group sizes must be positive")
    m, bound = _bounds(size_k, size_h)
    required_index = -((bound + m - 1) // -(genus - 1))
    h = open_subgroup_genus(genus, required_index)
    if h - m < bound:
        raise AssertionError("index arithmetic violates the planning bound")
    return ExtensionPlan(
        genus=genus,
        size_k=size_k,
        size_h=size_h,
        m=m,
        required_index=required_index,
        h=h,
    )
