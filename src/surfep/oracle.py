"""Independent brute-force references and randomized instance generation.

Nothing here shares code paths with the solver: counts come from plain
enumeration, minimal generating sizes from unpruned subset search, basis
moves from a sequential implementation that carries the defining words
along, and the instance stream is a seeded recipe producing valid split
problems (with relative subgroup channels that are good by construction,
plus a marked fraction of deliberately failing ones).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

from .errors import BudgetExceeded, PositionOutOfRange
from .groups import (
    ActionSpec,
    FiniteGroup,
    SubgroupHandle,
    automorphism_list,
    cyclic_group,
    inversion_action,
    klein_four_group,
    subgroup_closure,
    trivial_action,
    trivial_group,
)
from .surface import (
    BasisState,
    SurfaceTuple,
    Word,
    commutator_word,
    evaluate_word,
    identity_basis_words,
    initial_basis_state,
    make_surface_tuple,
    relation_value,
    tuple_image,
)
from .embedding import SplitEP, SubgroupSpec, make_split_ep


def enumerate_surface_tuples(
    group: FiniteGroup, genus: int, budget: int = 10**8
) -> int:
    """Count 2g-tuples satisfying the surface relation, by full enumeration."""
    if genus < 0:
        raise ValueError(f"genus must be non-negative, got {genus}")
    n = group.order
    candidates = n ** (2 * genus)
    if candidates > budget:
        raise BudgetExceeded(candidates, budget)
    count = 0
    identity = group.identity
    for tup in itertools.product(range(n), repeat=2 * genus):
        if relation_value(group, tup[:genus], tup[genus:]) == identity:
            count += 1
    return count


def commuting_pairs_count(group: FiniteGroup) -> int:
    """Independent double loop; must agree with enumerate_surface_tuples(G, 1)."""
    return sum(
        1
        for a in group.elements()
        for b in group.elements()
        if group.mul[a][b] == group.mul[b][a]
    )


def random_surface_tuple(
    group: FiniteGroup, genus: int, seed: int, max_attempts: int = 10_000
) -> SurfaceTuple:
    """Rejection-sample a valid tuple; acceptance rate is about 1/|G|."""
    rng = random.Random(seed)
    n = group.order
    for _ in range(max_attempts):
        ximg = [rng.randrange(n) for _ in range(genus)]
        yimg = [rng.randrange(n) for _ in range(genus)]
        if relation_value(group, ximg, yimg) == group.identity:
            return make_surface_tuple(group, ximg, yimg)
    raise BudgetExceeded(max_attempts, max_attempts)


def reference_minimal_generators(subgroup: SubgroupHandle, limit: int = 64) -> int:
    """Unpruned reference for the minimal generating size: try every member
    subset of each size in order."""
    if subgroup.order > limit:
        raise BudgetExceeded(subgroup.order, limit)
    target = set(subgroup.members)
    if len(target) == 1:
        return 0
    for r in range(1, len(target) + 1):
        for combo in itertools.combinations(subgroup.members, r):
            closed = subgroup_closure(subgroup.parent, combo)
            if set(closed.members) == target:
                return r
    raise AssertionError("a subgroup is generated by its members")


# --- basis moves, one at a time ------------------------------------------------

@dataclass(frozen=True)
class TrackedBasis:
    """A basis state together with the defining words of its slots in the
    original basis; the reference for surface.normalize_to_front and
    surface.basis_words."""

    state: BasisState
    x_words: tuple[Word, ...]
    y_words: tuple[Word, ...]


def tracked_basis(channels) -> TrackedBasis:
    state = initial_basis_state(channels)
    return TrackedBasis(state, *identity_basis_words(state.genus))


def move_pair_to_front(basis: TrackedBasis, src: int, dst: int) -> TrackedBasis:
    """Move the basis pair at position src to position dst <= src.

    Positions strictly between dst and src shift one step back and get
    conjugated by c = [x_src, y_src] (per channel by the channel's value of
    c, and symbolically on the defining words); everything else is
    untouched.  The rotation identity P*Q = Q*P^Q keeps every channel's
    surface relation intact, and conjugation preserves image closures.
    """
    state = basis.state
    if not 1 <= dst <= src <= state.genus:
        raise PositionOutOfRange(src, dst, state.genus)
    if src == dst:
        return basis
    lo, hi = dst - 1, src - 1  # 0-based: slots lo..hi-1 shift, hi moves to lo

    def rotate(seq, between):
        return (*seq[:lo], seq[hi], *between, *seq[hi + 1 :])

    channels = []
    for t in state.channels:
        g = t.target
        c = g.commutator(t.ximg[hi], t.yimg[hi])
        x, y = (
            rotate(seq, [g.conjugate(a, c) for a in seq[lo:hi]])
            for seq in (t.ximg, t.yimg)
        )
        channels.append(SurfaceTuple(g, t.genus, x, y))
    cword = commutator_word(basis.x_words[hi], basis.y_words[hi])
    return TrackedBasis(
        BasisState(state.genus, state.originals, tuple(channels)),
        rotate(basis.x_words, [w.conjugated_by(cword) for w in basis.x_words[lo:hi]]),
        rotate(basis.y_words, [w.conjugated_by(cword) for w in basis.y_words[lo:hi]]),
    )


def check_state_invariants(basis: TrackedBasis) -> None:
    """Assert relations, word round-trips, and closure invariance."""
    state = basis.state
    assert len(basis.x_words) == len(basis.y_words) == state.genus
    for ch, original in enumerate(state.originals):
        current = state.channel_tuple(ch)
        assert len(current.ximg) == len(current.yimg) == state.genus
        # channel_tuple does not check the relation: it is asserted here
        assert relation_value(current.target, current.ximg, current.yimg) == (
            current.target.identity
        )
        words = zip(current.ximg, current.yimg, basis.x_words, basis.y_words)
        for xv, yv, xw, yw in words:
            assert evaluate_word(original, xw) == xv
            assert evaluate_word(original, yw) == yv
        assert tuple_image(current).members == tuple_image(original).members


# --- instance generation --------------------------------------------------------

# the largest |A| = |K||H| a recipe draws
MAX_ORDER_A = 16


@dataclass(frozen=True)
class InstanceRecipe:
    """Seeded recipe for a stream of valid split embedding problems."""

    seed: int
    size_k_choices: tuple[int, ...] = (2, 3, 4)
    size_h_choices: tuple[int, ...] = (1, 2, 3)
    action_mode: str = "random"  # "trivial" | "inversion" | "random"
    genus_rule: str = "exact"    # "exact" | "slack"


@dataclass(frozen=True)
class GeneratedInstance:
    name: str
    ep: SplitEP
    relative: Optional[SubgroupSpec] = None
    # None: no relative part; True: beta(N) = B by construction;
    # False: deliberately fails the beta(N) = B hypothesis
    relative_valid: Optional[bool] = None


def _group_of_order(order: int, rng: random.Random) -> FiniteGroup:
    if order == 1:
        return trivial_group()
    if order == 4 and rng.random() < 0.5:
        return klein_four_group()
    return cyclic_group(order)


def _hom_actions(h_group: FiniteGroup, k_group: FiniteGroup) -> list[ActionSpec]:
    """All actions of H on K, i.e. homomorphisms H -> Aut(K)."""
    auts = automorphism_list(k_group)
    index = {p: i for i, p in enumerate(auts)}
    comp = [
        [index[tuple(p[q[x]] for x in range(k_group.order))] for q in auts]
        for p in auts
    ]
    ident = index[tuple(range(k_group.order))]
    actions = []
    for assign in itertools.product(range(len(auts)), repeat=h_group.order):
        if assign[h_group.identity] != ident:
            continue
        if all(
            comp[assign[h1]][assign[h2]] == assign[h_group.mul[h1][h2]]
            for h1 in h_group.elements()
            for h2 in h_group.elements()
        ):
            actions.append(
                ActionSpec(h_group, k_group, tuple(auts[a] for a in assign))
            )
    return actions


def _pick_action(
    mode: str, h_group: FiniteGroup, k_group: FiniteGroup, rng: random.Random
) -> ActionSpec:
    if mode == "trivial":
        return trivial_action(h_group, k_group)
    if mode == "inversion":
        if h_group.order == 2 and k_group.order > 1:
            return inversion_action(h_group, k_group)
        return trivial_action(h_group, k_group)
    if mode == "random":
        return rng.choice(_hom_actions(h_group, k_group))
    raise ValueError(f"unknown action mode {mode!r}")


def _surjective_abelian_tuple(
    b_group: FiniteGroup, genus: int, rng: random.Random, attempts: int = 1000
) -> SurfaceTuple:
    """Random surface tuple whose x-images alone already generate the target.

    Rejection-sampled; immediate for the abelian groups the recipes use."""
    n = b_group.order
    for _ in range(attempts):
        ximg = [rng.randrange(n) for _ in range(genus)]
        yimg = [rng.randrange(n) for _ in range(genus)]
        if n > 1 and genus >= n:
            # make x-surjectivity certain for cyclic targets (additively
            # indexed, so 1 generates)
            ximg[0] = 1
        if subgroup_closure(b_group, ximg).order != n:
            continue
        if relation_value(b_group, ximg, yimg) == b_group.identity:
            return make_surface_tuple(b_group, ximg, yimg)
    raise BudgetExceeded(attempts, attempts)


def _good_relative(ep: SplitEP, rng: random.Random) -> SubgroupSpec:
    """Independent quotient channel: nu kills every x-generator, so the
    normalized basis keeps its x-differences inside N, while beta(N) = B
    because the x-images of beta_bar alone cover B."""
    q_group = cyclic_group(rng.choice((2, 3)))
    n = q_group.order
    ximg = [q_group.identity] * ep.genus
    yimg = [rng.randrange(n) for _ in range(ep.genus)]
    yimg[0] = 1  # keep nu nontrivial so N is proper
    nu = make_surface_tuple(q_group, ximg, yimg)
    s_handle = SubgroupHandle(q_group, (q_group.identity,))
    return SubgroupSpec(q_group, nu, s_handle)


def _bad_relative(ep: SplitEP) -> SubgroupSpec:
    """nu = beta_bar with trivial S: the fiber product is the diagonal, so
    beta(N) collapses to the identity whenever |B| > 1."""
    nu = make_surface_tuple(ep.B, ep.beta_bar.ximg, ep.beta_bar.yimg)
    s_handle = SubgroupHandle(ep.B, (ep.B.identity,))
    return SubgroupSpec(ep.B, nu, s_handle)


def generate_instances(
    recipe: InstanceRecipe, count: int
) -> list[GeneratedInstance]:
    """Deterministic stream of valid instances at genus 2|A|^2 |B| (or with
    slack); even positions carry a valid relative spec, every tenth carries
    a failing one."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    ks, hs = recipe.size_k_choices, recipe.size_h_choices
    for option, choices in (("size-k", ks), ("size-h", hs)):
        bad = next((c for c in choices if c < 1), None)
        if bad is not None:
            raise ValueError(f"{option} must be positive, got {bad}")
    # automorphism_list, which the random action draws from, stops at order 8
    big = next((k for k in ks if k > 8), None)
    if recipe.action_mode == "random" and big is not None:
        raise ValueError(
            f"size-k {big} is too large for --action random, which lists the "
            f"automorphisms of K by brute force up to order 8; use --action "
            f"trivial or inversion"
        )
    if not any(k * h <= MAX_ORDER_A for k in ks for h in hs):
        # the draw below would never stop
        raise ValueError(
            f"no size choice has |K||H| <= {MAX_ORDER_A}: |K| in {list(ks)}, "
            f"|H| in {list(hs)}"
        )
    rng = random.Random(recipe.seed)
    out = []
    for i in range(count):
        while True:
            size_k = rng.choice(recipe.size_k_choices)
            size_h = rng.choice(recipe.size_h_choices)
            if size_k * size_h <= MAX_ORDER_A:
                break
        k_group = _group_of_order(size_k, rng)
        h_group = _group_of_order(size_h, rng)
        action = _pick_action(recipe.action_mode, h_group, k_group, rng)
        order_a = size_k * size_h
        genus = 2 * order_a * order_a * size_h
        if recipe.genus_rule == "slack":
            genus += rng.randrange(1, 9)
        elif recipe.genus_rule != "exact":
            raise ValueError(f"unknown genus rule {recipe.genus_rule!r}")
        beta_bar = _surjective_abelian_tuple(h_group, genus, rng)
        ep = make_split_ep(k_group, h_group, action, beta_bar)
        relative = None
        relative_valid = None
        if i % 10 == 9 and size_h > 1:
            relative = _bad_relative(ep)
            relative_valid = False
        elif i % 2 == 0:
            relative = _good_relative(ep, rng)
            relative_valid = True
        out.append(
            GeneratedInstance(
                name=f"ep{i:03d}",
                ep=ep,
                relative=relative,
                relative_valid=relative_valid,
            )
        )
    return out
