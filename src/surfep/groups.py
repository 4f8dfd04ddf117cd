"""Exact finite group arithmetic over dense multiplication tables.

Elements of a group of order n are the indices 0..n-1; all structure
(products, inverses, subgroups, homomorphisms) is stored as index tables.
Every input table is validated exactly and deterministically, whatever its
order: associativity by Light's test on a greedy generating set,
multiplicativity of a map on a generating set of the domain.  A semidirect
product is assembled from its validated factors and action, not checked
again.  Subgroups and images are found by one closure under right
multiplication over the seeds that add something, which reads each
product from the column of a kept generator, built once for that
generator: a column of one table, or in a product of two groups, on flat
pair indices, one assembled from a column of each factor; permutation
groups by a breadth-first search over every generator, whose order fixes
their element indices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import (
    Callable,
    Iterable,
    NamedTuple,
    Optional,
    Sequence,
)

from .errors import (
    InvalidAction,
    NoIdentity,
    NoInverse,
    NotAHomomorphism,
    NotASubgroup,
    NotAssociative,
)


def _closure(
    identity: int, seeds: Iterable[int], column: Callable[[int], Sequence[int]]
) -> tuple[list[int], list[int]]:
    """Elements reached from the identity by right multiplication by the
    seeds, in discovery order, and the seeds kept as generators.

    column(s) returns s's column c, with c[a] = a*s for every element a;
    it is requested once for each seed kept and never for a seed already
    reached, and the walk reads products only from the columns of the kept
    generators.  The seeds are walked in first-occurrence order without
    repeats (dict.fromkeys, one bulk pass; a repeat is reached already,
    since the identity times a seed is that seed), and a seed already
    reached is skipped; the others are kept.  When a seed s is kept, every
    element found so far is multiplied by s, and each element found from
    then on by every generator kept, s included; so the walk makes |H|
    lookups per generator kept, not per distinct seed.  Every element ends
    up multiplied by every kept generator, so the reached set at each seed
    is the exact right-multiplication closure of the generators kept before
    it, on any table with a two-sided identity, associative or not.  Seeds
    range(n) thus keep a greedy generating set, each generator the smallest
    element not yet reached, and reach every element; make_group takes it
    before associativity is checked.  Skipping a seed that adds nothing
    needs a group: the reached set is then a subgroup (a finite submonoid
    of a group is one), and a seed inside it maps it onto itself.
    """
    elems = [identity]
    seen = {identity}
    gens: list[int] = []
    cols: list[Sequence[int]] = []
    for s in dict.fromkeys(seeds):
        if s in seen:
            continue
        gens.append(s)
        col = column(s)
        cols.append(col)
        i = len(elems)
        for a in elems[:i]:
            p = col[a]
            if p not in seen:
                seen.add(p)
                elems.append(p)
        while i < len(elems):
            a = elems[i]
            i += 1
            for c in cols:
                p = c[a]
                if p not in seen:
                    seen.add(p)
                    elems.append(p)
    return elems, gens


def _columns(mul: Sequence[Sequence[int]]) -> Callable[[int], tuple[int, ...]]:
    """The column function of an index table, for _closure: s -> the
    products a*s, one per row a."""
    return lambda s: tuple(map(itemgetter(s), mul))


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its full multiplication table."""

    order: int
    identity: int
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    labels: Optional[tuple[str, ...]] = None

    def product(self, *elems: int) -> int:
        acc = self.identity
        for e in elems:
            acc = self.mul[acc][e]
        return acc

    def power(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv[a], -e
        acc = self.identity
        base = a
        while e:
            if e & 1:
                acc = self.mul[acc][base]
            base = self.mul[base][base]
            e >>= 1
        return acc

    def commutator(self, a: int, b: int) -> int:
        # convention: [a, b] = a^-1 b^-1 a b
        return self.product(self.inv[a], self.inv[b], a, b)

    def conjugate(self, a: int, c: int) -> int:
        # a^c = c^-1 a c
        return self.product(self.inv[c], a, c)

    def elements(self) -> range:
        return range(self.order)


def _check_associativity(mul: tuple[tuple[int, ...], ...], identity: int) -> None:
    """Light's test on a two-sided identity: if (x*s)*y = x*(s*y) for all x, y
    and each s in S, the same holds for every product of elements of S, so
    it suffices that S reaches every element from the identity, as the
    generators _closure keeps from the seeds range(n) do.
    """
    _, gens = _closure(identity, range(len(mul)), _columns(mul))
    for s in gens:
        times_s_row = itemgetter(*mul[s])      # row of x -> [x*(s*y) for y]
        for x, row in enumerate(mul):
            left = mul[row[s]]                 # [(x*s)*y for y]
            right = times_s_row(row)
            if left != right:
                y = next(y for y, (p, q) in enumerate(zip(left, right)) if p != q)
                raise NotAssociative((x, s, y))


def _indices(rows: Sequence[Sequence], bound: int) -> bool:
    """True when every entry of rows is a plain int (never a bool or a float,
    which compare equal to ints) in 0..bound-1."""
    cells = itertools.chain.from_iterable
    return (
        set(map(type, cells(rows))) <= {int}
        and set(cells(rows)) <= set(range(bound))
    )


def make_group(
    mul_table: Sequence[Sequence[int]],
    labels: Optional[Sequence[str]] = None,
) -> FiniteGroup:
    """Validate a square index table and return the group it defines; its
    identity is the one two-sided identity, found by a scan (NoIdentity)."""
    try:
        mul = tuple(map(tuple, mul_table))
    except TypeError:
        raise ValueError("table rows must be lists of indices") from None
    n = len(mul)
    if n == 0 or any(len(row) != n for row in mul):
        raise ValueError(f"need a nonempty square table, got {n} rows")
    if not _indices(mul, n):
        raise ValueError(f"table entries must be integers in 0..{n - 1}")

    idx = tuple(range(n))
    identity = next(
        (e for e in idx
         if mul[e] == idx and all(row[e] == x for x, row in enumerate(mul))),
        None,
    )
    if identity is None:
        raise NoIdentity()

    inv = []
    for a, row in enumerate(mul):
        # first b with a*b = e = b*a
        try:
            b = row.index(identity)
            while mul[b][a] != identity:
                b = row.index(identity, b + 1)
        except ValueError:
            raise NoInverse(a) from None
        inv.append(b)

    _check_associativity(mul, identity)

    return FiniteGroup(
        order=n,
        identity=identity,
        mul=mul,
        inv=tuple(inv),
        labels=tuple(labels) if labels is not None else None,
    )


# --- subgroups ---------------------------------------------------------------

@dataclass(frozen=True)
class SubgroupHandle:
    """A validated subgroup of a parent group, as a sorted member list."""

    parent: FiniteGroup
    members: tuple[int, ...]

    def __post_init__(self):
        mem = self.members
        if list(mem) != sorted(set(mem)):
            raise NotASubgroup("members must be sorted and unique")
        if any(not 0 <= a < self.parent.order for a in mem):
            raise NotASubgroup("members must be elements of the parent")
        mset = set(mem)
        if self.parent.identity not in mset:
            raise NotASubgroup("identity missing")
        mul = self.parent.mul
        inv = self.parent.inv
        for a in mem:
            if inv[a] not in mset:
                raise NotASubgroup(f"inverse of {a} missing")
            for b in mem:
                if mul[a][b] not in mset:
                    raise NotASubgroup(f"product {a}*{b} escapes the member set")

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, a: int) -> bool:
        return a in set(self.members)

    def as_group(self) -> tuple[FiniteGroup, "GroupHom"]:
        """Reindex the members 0..|S|-1 and return (group, inclusion hom)."""
        pos = {a: i for i, a in enumerate(self.members)}
        table = [
            [pos[self.parent.mul[a][b]] for b in self.members] for a in self.members
        ]
        grp = make_group(table)
        incl = make_hom(grp, self.parent, self.members)
        return grp, incl


def subgroup_closure(group: FiniteGroup, seeds: Sequence[int]) -> SubgroupHandle:
    """Smallest subgroup containing the seeds."""
    if seeds and not (0 <= min(seeds) and max(seeds) < group.order):
        bad = next(s for s in seeds if not 0 <= s < group.order)
        raise ValueError(f"seed {bad} out of range for order {group.order}")
    members, _ = _closure(group.identity, seeds, _columns(group.mul))
    return SubgroupHandle(group, tuple(sorted(members)))


# --- homomorphisms -----------------------------------------------------------

@dataclass(frozen=True)
class GroupHom:
    """A total multiplicative map between finite groups."""

    domain: FiniteGroup
    codomain: FiniteGroup
    map: tuple[int, ...]

    @property
    def is_surjective(self) -> bool:
        return len(set(self.map)) == self.codomain.order


def make_hom(
    domain: FiniteGroup, codomain: FiniteGroup, mapping: Sequence[int]
) -> GroupHom:
    """Check f(a*s) = f(a)*f(s) for every a and each s in the greedy
    generating set of the domain (_closure over its elements), and wrap.

    With f(e) = e this is exact: every element is a product of generators,
    so f(a*s1*...*sk) = f(a)*f(s1)*...*f(sk) = f(a)*f(s1*...*sk).  f(e) = e
    is checked first, since a trivial domain has no generators.  Raises
    NotAHomomorphism with the first failing pair (a, s).
    """
    n = domain.order
    f = tuple(mapping)
    if len(f) != n:
        raise ValueError("mapping length must equal domain order")
    if not _indices((f,), codomain.order):
        raise ValueError(
            f"mapping values must be integers in 0..{codomain.order - 1}"
        )
    e = domain.identity
    if f[e] != codomain.identity:
        raise NotAHomomorphism((e, e))
    dmul, cmul = domain.mul, codomain.mul
    _, gens = _closure(e, range(n), _columns(dmul))
    for s in gens:
        fs = f[s]
        for a, row in enumerate(dmul):
            if f[row[s]] != cmul[f[a]][fs]:
                raise NotAHomomorphism((a, s))
    return GroupHom(domain, codomain, f)


def kernel(hom: GroupHom) -> SubgroupHandle:
    e = hom.codomain.identity
    members = tuple(a for a in hom.domain.elements() if hom.map[a] == e)
    return SubgroupHandle(hom.domain, members)


def image(hom: GroupHom) -> SubgroupHandle:
    # image of a hom is already closed; no closure pass needed
    return SubgroupHandle(hom.codomain, tuple(sorted(set(hom.map))))


class MinimalGenerators(NamedTuple):
    count: int
    witness: tuple[int, ...]


def minimal_generator_count(subgroup: SubgroupHandle) -> MinimalGenerators:
    """Smallest r with an r-tuple of members generating the subgroup.

    Searches tuple sizes 0, 1, 2, ... in ascending member order, pruning
    extensions by elements already inside the closure of the prefix (such an
    element never enlarges the generated subgroup).  Returns the first hit,
    so the witness is reproducible.
    """
    target = set(subgroup.members)
    parent = subgroup.parent
    if len(target) == 1:
        return MinimalGenerators(0, ())

    members = subgroup.members

    def search(prefix: tuple[int, ...], closed: set[int], start: int, r: int):
        if len(prefix) == r:
            return prefix if closed == target else None
        for i in range(start, len(members)):
            a = members[i]
            if a in closed:
                continue
            ext = subgroup_closure(parent, prefix + (a,))
            found = search(prefix + (a,), set(ext.members), i + 1, r)
            if found is not None:
                return found
        return None

    for r in range(1, len(members) + 1):
        found = search((), {parent.identity}, 0, r)
        if found is not None:
            return MinimalGenerators(r, found)
    raise AssertionError("members of a subgroup always generate it")


# --- products ----------------------------------------------------------------

@dataclass(frozen=True)
class DirectProduct:
    group: FiniteGroup
    proj1: GroupHom
    proj2: GroupHom


@dataclass(frozen=True)
class ActionSpec:
    """An action of `acting` on `acted` by automorphisms, one permutation
    of acted's indices per acting element."""

    acting: FiniteGroup
    acted: FiniteGroup
    perms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        h, k = self.acting, self.acted
        if len(self.perms) != h.order:
            raise InvalidAction("need one permutation per acting element")
        for idx, p in enumerate(self.perms):
            if sorted(p) != list(range(k.order)):
                raise InvalidAction(f"entry {idx} is not a permutation")
            for a in k.elements():
                for b in k.elements():
                    if p[k.mul[a][b]] != k.mul[p[a]][p[b]]:
                        raise InvalidAction(
                            f"entry {idx} is not an automorphism (pair {(a, b)})"
                        )
        if tuple(self.perms[h.identity]) != tuple(range(k.order)):
            raise InvalidAction("identity must act trivially")
        for h1 in h.elements():
            for h2 in h.elements():
                composed = tuple(self.perms[h1][self.perms[h2][x]] for x in range(k.order))
                if composed != tuple(self.perms[h.mul[h1][h2]]):
                    raise InvalidAction(f"not a homomorphism at pair {(h1, h2)}")


def trivial_action(acting: FiniteGroup, acted: FiniteGroup) -> ActionSpec:
    identity_perm = tuple(range(acted.order))
    return ActionSpec(acting, acted, tuple(identity_perm for _ in acting.elements()))


def inversion_action(acting: FiniteGroup, acted: FiniteGroup) -> ActionSpec:
    """Order-2 acting group inverting an abelian acted group."""
    if acting.order != 2:
        raise InvalidAction("inversion action needs an acting group of order 2")
    other = next(h for h in acting.elements() if h != acting.identity)
    perms = [None, None]
    perms[acting.identity] = tuple(range(acted.order))
    perms[other] = tuple(acted.inv)
    return ActionSpec(acting, acted, tuple(perms))


@dataclass(frozen=True)
class SemidirectProduct:
    """K x| H with elements (k, h) encoded as k*|H| + h."""

    group: FiniteGroup
    alpha: GroupHom      # projection onto H
    gamma: GroupHom      # section h -> (1, h)
    embed_k: GroupHom    # k -> (k, 1), increasing in k
    action: ActionSpec   # the action of H on K it was built from

    def encode(self, k: int, h: int) -> int:
        return k * self.alpha.codomain.order + h


def semidirect_product(
    k_group: FiniteGroup, h_group: FiniteGroup, action: ActionSpec
) -> SemidirectProduct:
    """(k, h)(k', h') = (k * h.k', hh') with the given action of H on K.

    Assembled, not validated: K and H are groups and the action is by
    automorphisms (ActionSpec), so the table is a group with identity
    (1, 1) and (k, h)^-1 = (h^-1.k^-1, h^-1), alpha and gamma are
    homomorphisms and embed_k maps K onto Ker(alpha).  Only the factors
    and the action are checked, on input."""
    if action.acting != h_group or action.acted != k_group:
        raise InvalidAction("action does not match the given factor groups")
    nk, nh = k_group.order, h_group.order
    kinv, hinv, perms = k_group.inv, h_group.inv, action.perms
    table = tuple(
        tuple(krow[a] * nh + h for a in perms[h1] for h in h_group.mul[h1])
        for krow in k_group.mul
        for h1 in range(nh)
    )
    inv = tuple(
        perms[hinv[h]][kinv[k]] * nh + hinv[h]
        for k in range(nk)
        for h in range(nh)
    )
    ke, he = k_group.identity, h_group.identity
    grp = FiniteGroup(nk * nh, ke * nh + he, table, inv)
    alpha = GroupHom(grp, h_group, tuple(x % nh for x in range(nk * nh)))
    gamma = GroupHom(h_group, grp, tuple(ke * nh + h for h in range(nh)))
    embed = GroupHom(k_group, grp, tuple(k * nh + he for k in range(nk)))
    return SemidirectProduct(grp, alpha, gamma, embed, action)


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> DirectProduct:
    """Componentwise product with index encoding (a, b) -> a*|G2| + b: the
    semidirect product with the trivial action, whose alpha is proj2, plus
    proj1."""
    sd = semidirect_product(g1, g2, trivial_action(g2, g1))
    proj1 = GroupHom(sd.group, g1, tuple(x // g2.order for x in sd.group.elements()))
    return DirectProduct(sd.group, proj1, sd.alpha)


# --- permutation realization and catalog -------------------------------------

def group_from_permutations(
    generators: Sequence[Sequence[int]],
) -> tuple[FiniteGroup, list[tuple[int, ...]]]:
    """Close a set of one-line permutations into a group.

    Elements are ordered by first discovery: start from the identity and
    repeatedly right-multiply known elements by the generators in order.
    Returns the group and the permutation realizing each element index.
    """
    if not generators:
        raise ValueError("need at least one generator permutation")
    deg = len(generators[0])
    gens = []
    for p in generators:
        if sorted(p) != list(range(deg)):
            raise ValueError(f"{p} is not a permutation of 0..{deg - 1}")
        gens.append(tuple(p))

    def mul(p, q):
        # (p * q)(i) = p(q(i))
        return tuple(p[q[i]] for i in range(deg))

    # Breadth-first over every generator, written out rather than through
    # _closure, which finds elements in another order: the element indices
    # are this discovery order, and the instance hash of every workspace
    # problem whose group is given by permutations pins them.
    elems = [tuple(range(deg))]
    index = {elems[0]: 0}
    for p in elems:  # grows while it is read
        for q in gens:
            r = mul(p, q)
            if r not in index:
                index[r] = len(elems)
                elems.append(r)
    table = [[index[mul(p, q)] for q in elems] for p in elems]
    labels = ["(" + " ".join(map(str, p)) + ")" for p in elems]
    return make_group(table, labels=labels), elems


def trivial_group() -> FiniteGroup:
    return make_group([[0]])


def cyclic_group(n: int) -> FiniteGroup:
    return make_group([[(a + b) % n for b in range(n)] for a in range(n)])


def klein_four_group() -> FiniteGroup:
    # xor table on {0, 1, 2, 3}
    return make_group([[a ^ b for b in range(4)] for a in range(4)])


def symmetric_group_3() -> FiniteGroup:
    grp, _ = group_from_permutations([(1, 0, 2), (1, 2, 0)])
    return grp


def dihedral_group_4() -> FiniteGroup:
    # symmetries of the square: rotation and a reflection on 4 vertices
    grp, _ = group_from_permutations([(1, 2, 3, 0), (3, 2, 1, 0)])
    return grp


def quaternion_group() -> FiniteGroup:
    # units {1, -1, i, -i, j, -j, k, -k} indexed 0..7: index 2q + s is the
    # unit u_q with sign (-1)^s, u_0..u_3 = 1, i, j, k
    unit_mul = {
        (0, 0): (0, 0), (0, 1): (1, 0), (0, 2): (2, 0), (0, 3): (3, 0),
        (1, 0): (1, 0), (1, 1): (0, 1), (1, 2): (3, 0), (1, 3): (2, 1),
        (2, 0): (2, 0), (2, 1): (3, 1), (2, 2): (0, 1), (2, 3): (1, 0),
        (3, 0): (3, 0), (3, 1): (2, 0), (3, 2): (1, 1), (3, 3): (0, 1),
    }
    table = []
    for a in range(8):
        qa, sa = divmod(a, 2)
        row = []
        for b in range(8):
            qb, sb = divmod(b, 2)
            qc, sc = unit_mul[(qa, qb)]
            row.append(2 * qc + ((sa + sb + sc) % 2))
        table.append(row)
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return make_group(table, labels=labels)


def catalog() -> dict[str, FiniteGroup]:
    """The small groups used throughout the tests and the CLI."""
    return {
        "trivial": trivial_group(),
        "C2": cyclic_group(2),
        "C3": cyclic_group(3),
        "C4": cyclic_group(4),
        "V4": klein_four_group(),
        "C6": cyclic_group(6),
        "S3": symmetric_group_3(),
        "D4": dihedral_group_4(),
        "Q8": quaternion_group(),
    }


def automorphism_list(group: FiniteGroup) -> list[tuple[int, ...]]:
    """All automorphisms of a small group, as permutations of its indices.

    Brute force over permutations fixing the identity; only sensible for
    order <= 8.
    """
    n = group.order
    if n > 8:
        raise ValueError("automorphism_list is brute force, order must be <= 8")
    e = group.identity
    rest = [a for a in range(n) if a != e]
    auts = []
    for imgs in itertools.permutations(rest):
        perm = [0] * n
        perm[e] = e
        for a, b in zip(rest, imgs):
            perm[a] = b
        if all(
            perm[group.mul[a][b]] == group.mul[perm[a]][perm[b]]
            for a in range(n)
            for b in range(n)
        ):
            auts.append(tuple(perm))
    return auts
