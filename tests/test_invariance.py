"""Solve's verdict is a fact about the problem, not about how its elements
are numbered: a metamorphic test (Chen, Cheung & Yiu, "Metamorphic
testing", HKUST-CS98-01, 1998).

Each problem is rebuilt on relabelled groups, with the action, beta_bar, nu
and S mapped along; make_group finds the moved identities by its scan.
The relabelled problem is isomorphic to the original, so solve must give
the same outcome, or refuse both the same way, and the certificate mapped
along must verify on it.  The corpus is the relative set where the choice
of pair matters: K = H = Q = C2, the trivial action, g = 64, a random
beta_bar and a nu that sends 1-3 x-generators out of N = nu^-1(1); m = 16,
so 64 slots always give some pair m times, and often more than one.
"""

import random

import pytest

import surfep as s
from surfep.embedding import EtaSummary, SolutionCertificate, SubgroupSpec
from surfep.errors import SurfepError

G = 64
PROBLEMS = 40
RELABELINGS = 4


def relabelled(group, perm):
    """group with each element a renamed perm[a]."""
    table = [[0] * group.order for _ in group.elements()]
    for a in group.elements():
        for b in group.elements():
            table[perm[a]][perm[b]] = perm[group.mul[a][b]]
    return s.make_group(table)


def mapped(t, group, perm):
    """The surface tuple t read in group, t's target relabelled by perm."""
    return s.make_surface_tuple(group, [perm[a] for a in t.ximg],
                                [perm[a] for a in t.yimg])


def problem(seed):
    """The relative problem of seed: (ep, its relative, K, H)."""
    rng = random.Random(seed)
    c2 = s.cyclic_group(2)
    beta = s.make_surface_tuple(c2, [rng.randrange(2) for _ in range(G)],
                                [rng.randrange(2) for _ in range(G)])
    ep = s.make_split_ep(c2, c2, s.trivial_action(c2, c2), beta)
    out = set(rng.sample(range(G), rng.randint(1, 3)))
    nu = s.make_surface_tuple(c2, [int(i in out) for i in range(G)], [0] * G)
    return ep, SubgroupSpec(c2, nu, s.subgroup_closure(c2, [])), c2, c2


def relabel(ep, spec, k_group, h_group, rng):
    """The problem with K, H and Q relabelled by rng's permutations, and
    the permutation of H."""
    pk, ph, pq = (rng.sample(range(g.order), g.order)
                  for g in (k_group, h_group, spec.Q))
    k2, h2, q2 = (relabelled(g, p) for g, p in
                  ((k_group, pk), (h_group, ph), (spec.Q, pq)))
    perms = [None] * h2.order
    for h, perm in enumerate(ep.sd.action.perms):
        moved = [0] * k2.order
        for k, image in enumerate(perm):
            moved[pk[k]] = pk[image]
        perms[ph[h]] = tuple(moved)
    action = s.ActionSpec(h2, k2, tuple(perms))
    ep2 = s.make_split_ep(k2, h2, action, mapped(ep.beta_bar, h2, ph))
    s2 = s.subgroup_closure(q2, [pq[a] for a in spec.S.members])
    return ep2, SubgroupSpec(q2, mapped(spec.nu, q2, pq), s2), ph


def verdict(ep, spec):
    """solve's outcome, or the name of the refusal, and the certificate."""
    try:
        cert = s.solve_relative(ep, spec)
    except SurfepError as exc:
        return type(exc).__name__, None
    return cert.outcome, cert


@pytest.mark.parametrize("seed", range(PROBLEMS))
def test_outcome_does_not_depend_on_labels(seed):
    ep, spec, k_group, h_group = problem(seed)
    outcome, cert = verdict(ep, spec)
    rng = random.Random(1000 + seed)
    for _ in range(RELABELINGS):
        ep2, spec2, ph = relabel(ep, spec, k_group, h_group, rng)
        assert verdict(ep2, spec2)[0] == outcome
        if cert is None:
            continue
        # the certificate mapped along: its pair, read in the relabelled H
        pair = tuple(ph[v] for v in cert.eta.pair)
        claim = SolutionCertificate((), (), outcome, eta=EtaSummary(pair))
        fresh = s.reverify_certificate(ep2, claim, spec2)
        assert not fresh.failed_checks() and fresh.outcome == outcome
