"""verify_solution's exact checks against the definitions they claim, over
whole spaces of tiny problems.

The oracle below reads only multiplication tables and the images alpha and
nu give, and computes each property from its definition:
- the relation: the product of a_i^-1 b_i^-1 a_i b_i is 1, by plain lookups;
- compatibility: alpha o phi = beta_bar, slot by slot;
- properness: <phi(x_i), phi(y_i)> = A, by its own breadth-first closure;
- for a relative N = nu^-1(S): the joint image J = <(phi(z), nu(z))> in
  A x Q over the generators z, so that phi(N) = {a : (a, q) in J, q in S}.

Every phi in A^{2g} is checked for C2 x C2, S3 and D4 at g = 1, 2 and A4 at
g = 1, with beta_bar = alpha o phi and with one slot of beta_bar changed.
Relatives take every nu into C2 and C3 with S = {0}, over a seeded sample
of phi.
"""

import itertools
import random

import pytest

import surfep as s
from surfep.embedding import SplitEP, SubgroupSpec
from surfep.surface import SurfaceTuple


def split_groups():
    """name -> K x| H for the four groups A this module covers."""
    c2, c3, v4 = s.cyclic_group(2), s.cyclic_group(3), s.klein_four_group()
    return {
        "C2xC2": s.semidirect_product(c2, c2, s.trivial_action(c2, c2)),
        "S3": s.semidirect_product(c3, c2, s.inversion_action(c2, c3)),
        # C2 swapping two of V4's involutions, C3 rotating all three
        "D4": s.semidirect_product(
            v4, c2, s.ActionSpec(c2, v4, ((0, 1, 2, 3), (0, 2, 1, 3)))),
        "A4": s.semidirect_product(
            v4, c3, s.ActionSpec(c3, v4, ((0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2)))),
    }


SDS = split_groups()
CASES = [("C2xC2", 1), ("C2xC2", 2), ("S3", 1), ("S3", 2),
         ("D4", 1), ("D4", 2), ("A4", 1)]


# --- the oracle: multiplication tables only -----------------------------------

def identity_of(mul):
    n = len(mul)
    return next(e for e in range(n) if all(mul[e][a] == a for a in range(n)))


def closure(identity, gens, product):
    """Breadth-first: everything reached from identity by right
    multiplication with gens."""
    seen, frontier = {identity}, [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for z in gens:
                b = product(a, z)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return seen


class Oracle:
    def __init__(self, sd):
        self.mul = sd.group.mul
        self.order = len(self.mul)
        self.e = identity_of(self.mul)
        self.inv = [next(b for b in range(self.order) if self.mul[a][b] == self.e)
                    for a in range(self.order)]
        self.alpha = list(sd.alpha.map)
        self.bmul = sd.alpha.codomain.mul
        self.b_order = len(self.bmul)

    def relation(self, xs, ys):
        acc = self.e
        for a, b in zip(xs, ys):
            for f in (self.inv[a], self.inv[b], a, b):
                acc = self.mul[acc][f]
        return acc == self.e

    def compatible(self, xs, ys, bx, by):
        return all(self.alpha[xs[i]] == bx[i] and self.alpha[ys[i]] == by[i]
                   for i in range(len(xs)))

    def image_order(self, xs, ys):
        return len(closure(self.e, (*xs, *ys), lambda a, z: self.mul[a][z]))

    @staticmethod
    def restricted_order(mul, images, qmul, nu_images, s_members):
        """|t(N)| for N = nu^-1(S): the first coordinates of the joint image
        J whose second coordinate lies in S."""
        pairs = closure(
            (identity_of(mul), identity_of(qmul)), list(zip(images, nu_images)),
            lambda p, z: (mul[p[0]][z[0]], qmul[p[1]][z[1]]))
        return len({a for a, q in pairs if q in s_members})

    def expected(self, xs, ys, bx, by, rel=None):
        """check name -> passed, from the definitions, and is_proper."""
        checks = {
            "surface_relation": self.relation(xs, ys),
            "compatibility": self.compatible(xs, ys, bx, by),
            "image_closure": self.image_order(xs, ys) == self.order,
        }
        solution = checks["surface_relation"] and checks["compatibility"]
        if rel is None:
            return checks, solution and checks["image_closure"]
        qmul, nu_images, s_members = rel
        checks["beta_n_surjective"] = self.restricted_order(
            self.bmul, (*bx, *by), qmul, nu_images, s_members) == self.b_order
        checks["relative_image_full"] = self.restricted_order(
            self.mul, (*xs, *ys), qmul, nu_images, s_members) == self.order
        return checks, (solution and checks["beta_n_surjective"]
                        and checks["relative_image_full"])


# --- the comparison -----------------------------------------------------------

def compare(sd, oracle, xs, ys, bx, by, spec=None, rel=None):
    g = len(xs)
    ep = SplitEP(sd, SurfaceTuple(sd.alpha.codomain, g, bx, by))
    cert = s.verify_solution(ep, xs, ys, relative=spec)
    got = {c.name: c.passed for c in cert.checks}
    assert got.pop("shape") and got.pop("relative_genus", True)
    want, proper = oracle.expected(xs, ys, bx, by, rel)
    assert got == want, (xs, ys, bx, by)
    assert cert.is_proper == proper
    assert cert.is_solution == (want["surface_relation"] and want["compatibility"])
    return {*want.items(), ("proper", proper)}


def perturbed(rng, oracle, bx, by):
    """beta_bar with one slot moved to another element of B."""
    slots = [list(bx), list(by)]
    side, i = rng.randrange(2), rng.randrange(len(bx))
    slots[side][i] = (slots[side][i] + rng.randrange(1, oracle.b_order)) % oracle.b_order
    return tuple(slots[0]), tuple(slots[1])


def assert_both_verdicts(seen, name, g, always=()):
    """Every check passed and failed somewhere, so no comparison was
    vacuous, apart from what the case forces: the checks named in always
    pass by construction, the relation holds throughout the abelian C2 x C2,
    and at genus 1 a nonabelian A, which two commuting images cannot
    generate, has no proper solution."""
    forced = {(c, False) for c in always}
    if name == "C2xC2":
        forced.add(("surface_relation", False))
    elif g == 1:
        forced.add(("proper", True))
    names = {check for check, _ in seen}
    assert seen.isdisjoint(forced)
    assert seen | forced == {(c, v) for c in names for v in (True, False)}


@pytest.mark.parametrize("name,g", CASES, ids=[f"{n}-g{g}" for n, g in CASES])
def test_every_phi_agrees_with_the_definitions(name, g):
    sd = SDS[name]
    oracle = Oracle(sd)
    rng = random.Random(f"{name}-{g}")
    seen = set()
    for images in itertools.product(range(oracle.order), repeat=2 * g):
        xs, ys = images[:g], images[g:]
        bx = tuple(oracle.alpha[a] for a in xs)
        by = tuple(oracle.alpha[a] for a in ys)
        seen |= compare(sd, oracle, xs, ys, bx, by)
        seen |= compare(sd, oracle, xs, ys, *perturbed(rng, oracle, bx, by))
    assert_both_verdicts(seen, name, g)


@pytest.mark.parametrize("name,g", CASES, ids=[f"{n}-g{g}" for n, g in CASES])
def test_every_nu_agrees_with_the_joint_image(name, g):
    sd = SDS[name]
    oracle = Oracle(sd)
    rng = random.Random(f"relative-{name}-{g}")
    every = list(itertools.product(range(oracle.order), repeat=2 * g))
    solutions = [p for p in every if oracle.relation(p[:g], p[g:])]
    seen = set()
    for q in (s.cyclic_group(2), s.cyclic_group(3)):
        trivial = s.subgroup_closure(q, [])
        for nu_images in itertools.product(range(q.order), repeat=2 * g):
            # Q is abelian, so every tuple satisfies the relation
            nu = s.make_surface_tuple(q, nu_images[:g], nu_images[g:])
            spec = SubgroupSpec(q, nu, trivial)
            rel = (q.mul, nu_images, set(trivial.members))
            for p in rng.sample(every, 3) + rng.sample(solutions, 3):
                xs, ys = p[:g], p[g:]
                bx = tuple(oracle.alpha[a] for a in xs)
                by = tuple(oracle.alpha[a] for a in ys)
                seen |= compare(sd, oracle, xs, ys, bx, by, spec, rel)
    assert_both_verdicts(seen, name, g, always=("compatibility",))
