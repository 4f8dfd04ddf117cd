"""Seeded workspaces for the benchmark workloads.

Each workload function turns a seed into the workspace document the
program reads and the outcome the benchmark expects from every problem in
it.  Equal seeds give byte-identical workspaces.  The functions call only
public ``surfep`` functions, so ``surfep`` must be importable (``run.py``
puts ``src/`` on the path).
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass, replace

from surfep import groups, oracle, serialize, surface


@dataclass(frozen=True)
class Problem:
    name: str
    # "proper": solve exits 0, verify exits 0
    # "not_reduced": solve exits 3 and writes a not_reduced certificate, verify exits 0
    # "rejected": solve exits 1 on a relative spec whose beta(N) != B, and
    # writes nothing
    expect: str


@dataclass(frozen=True)
class Workload:
    doc: dict                      # the workspace JSON handed to the program
    problems: tuple[Problem, ...]  # one pass, in call order


def _span(rec, name):
    return rec.span(name) if rec is not None else nullcontext()


def _problem_json(k_group, h_group, action, beta_bar) -> dict:
    return {
        "genus": beta_bar.genus,
        "K": serialize.group_to_json(k_group),
        "H": serialize.group_to_json(h_group),
        "action": [list(p) for p in action.perms],
        "beta_bar": {"x": list(beta_bar.ximg), "y": list(beta_bar.yimg)},
    }


def _block_balanced_tuple(group, genus, rng):
    """Seeded random surface tuple in which every block of n^2 consecutive
    generator pairs (n = |group|) holds each pair of elements exactly once,
    in shuffled order; reshuffled until the surface relation holds.

    At genus 2|A|^2|B| the pigeonhole pair then has multiplicity exactly m
    and recurs once per block, so the conjugation work (word factors,
    certificate bytes) is nearly the same for every seed; with free draws
    the ladder's certificates ranged from 71 to 82 MB over five seeds."""
    n = group.order
    pairs = [(a, b) for a in range(n) for b in range(n)]
    while True:
        ximg, yimg = [], []
        for _ in range(genus // len(pairs)):
            rng.shuffle(pairs)
            ximg += [a for a, _ in pairs]
            yimg += [b for _, b in pairs]
        if surface.relation_value(group, ximg, yimg) == group.identity:
            return surface.make_surface_tuple(group, ximg, yimg)


# --- ladder -------------------------------------------------------------------

def _v4_action(h_group, perms_of_h):
    """H acting on V4 = {0, 1, 2, 3} (xor) by permuting its three involutions;
    any permutation of them is an automorphism."""
    return groups.ActionSpec(
        h_group,
        groups.klein_four_group(),
        tuple((0, *(1 + p[i] for i in range(3))) for p in perms_of_h),
    )


def _ladder_rungs():
    c2 = groups.cyclic_group(2)
    c3 = groups.cyclic_group(3)
    swap = [(0, 1, 2), (1, 0, 2)]
    rotations = [tuple((i + k) % 3 for i in range(3)) for k in range(3)]
    return (
        ("c2xc2", c2, c2, groups.trivial_action(c2, c2)),             # |A| = 4
        ("d4", groups.klein_four_group(), c2, _v4_action(c2, swap)),       # 8
        ("a4", groups.klein_four_group(), c3, _v4_action(c3, rotations)),  # 12
    )


def ladder(seed: int, rec=None) -> Workload:
    """The three gamma-level rungs at genus 2|A|^2|B| (64, 256, 864), each
    with a seeded random surjective reference map.

    The ROADMAP's S4 rung (|A| = 24, genus 6912) is left out: its solve and
    verify are single 10 s and 20 s calls, so a run holds one sample of it,
    and that sample spread 0.15 to 0.19 (IQR / median over seeds) even in
    reference seconds.

    A random map matters: with x1 onto a generator and every other image
    trivial, the pigeonhole picks positions 2..m+1 and almost no slot is
    conjugated (the A4 certificate shrinks from 3.2 MB to 50 KB)."""
    rng = random.Random(seed)
    problems = {}
    for name, k_group, h_group, action in _ladder_rungs():
        order_a = k_group.order * h_group.order
        genus = 2 * order_a * order_a * h_group.order
        beta = _block_balanced_tuple(h_group, genus, rng)
        problems[name] = _problem_json(k_group, h_group, action, beta)
    return Workload(
        {"problems": problems}, tuple(Problem(n, "proper") for n in problems)
    )


# --- batch --------------------------------------------------------------------

# The default recipe draws |K| from (2, 3, 4) and |H| from (1, 2, 3).  The batch
# takes the same number of problems from each pair, so every seed gives the
# same size mix: the |A| = 12 problems take about 60 % of a pass, and a free
# draw of 100 problems holds 11 +- 3 of them.
BATCH_STRATA = tuple((k, h) for k in (2, 3, 4) for h in (1, 2, 3))
BATCH_PER_STRATUM = 10  # the recipe makes problem 9 of each stratum a bad relative


def batch(seed: int, rec=None) -> Workload:
    instances = []
    for k, h in BATCH_STRATA:
        recipe = oracle.InstanceRecipe(
            seed=seed, size_k_choices=(k,), size_h_choices=(h,)
        )
        with _span(rec, "oracle.generate"):
            stream = oracle.generate_instances(recipe, BATCH_PER_STRATUM)
        instances += [replace(i, name=f"k{k}h{h}_{i.name}") for i in stream]
    problems = tuple(
        Problem(i.name, "rejected" if i.relative_valid is False else "proper")
        for i in instances
    )
    return Workload(serialize.workspace_to_json(instances), problems)


# --- relative_wide ------------------------------------------------------------

# |A| = 4, so the fiber products A x Q have orders 128, 256 and 512; orders
# above 512 take the sampled validation path and cost about 18 s per call.
RELATIVE_Q_ORDERS = (32, 64, 128)
RELATIVE_REPEATS = 5
RELATIVE_GENUS = 64


def _not_reduced_problem(c2_json) -> dict:
    """The stopped relative run of tests/test_cli.py: nu varies on the x
    positions the pigeonhole selects, so the membership scan fails."""
    g = RELATIVE_GENUS
    return {
        "genus": g,
        "K": c2_json,
        "H": c2_json,
        "action": [[0, 1], [0, 1]],
        "beta_bar": {"x": [1] + [0] * (g - 1), "y": [0] * g},
        "relative": {
            "Q": c2_json,
            "nu": {"x": [0] + [i % 2 for i in range(1, g)], "y": [0] * g},
            "S": [0],
        },
    }


def relative_wide(seed: int, rec=None) -> Workload:
    """C2 x C2 at genus 64 with a random reference map, against quotients
    Q = C32, C64, C128 through a nu that kills every x-generator and sends
    the y-generators to random elements (good by construction), plus one
    not_reduced problem; repeated RELATIVE_REPEATS times with fresh maps."""
    rng = random.Random(seed)
    c2 = groups.cyclic_group(2)
    action = groups.trivial_action(c2, c2)
    c2_json = serialize.group_to_json(c2)
    problems = {}
    expect = []
    for r in range(RELATIVE_REPEATS):
        for q in RELATIVE_Q_ORDERS:
            q_group = groups.cyclic_group(q)
            # beta(N) = B needs the x-images alone to cover B, since N
            # contains every x-generator; every block has x-images 0 and 1
            beta = _block_balanced_tuple(c2, RELATIVE_GENUS, rng)
            with _span(rec, "oracle.generate"):
                nu_y = oracle.random_surface_tuple(
                    q_group, RELATIVE_GENUS, seed=rng.randrange(2**32)
                ).yimg
            obj = _problem_json(c2, c2, action, beta)
            obj["relative"] = {
                "Q": serialize.group_to_json(q_group),
                "nu": {"x": [0] * RELATIVE_GENUS, "y": list(nu_y)},
                "S": [0],
            }
            name = f"q{q}_r{r}"
            problems[name] = obj
            expect.append(Problem(name, "proper"))
        name = f"not_reduced_r{r}"
        problems[name] = _not_reduced_problem(c2_json)
        expect.append(Problem(name, "not_reduced"))
    return Workload({"problems": problems}, tuple(expect))


WORKLOADS = {"ladder": ladder, "batch": batch, "relative_wide": relative_wide}
