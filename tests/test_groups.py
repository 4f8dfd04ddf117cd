import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import surfep as s
from surfep.errors import (
    NoIdentity,
    NoInverse,
    NotAHomomorphism,
    NotAssociative,
)
from surfep.groups import _closure, automorphism_list, make_hom
from surfep.oracle import _hom_actions

from conftest import element_order


def full_subgroup(group):
    return s.subgroup_closure(group, list(group.elements()))


class TestMakeGroup:
    def test_trivial(self):
        g = s.make_group([[0]])
        assert g.order == 1 and g.identity == 0

    def test_c2_self_inverse(self):
        g = s.make_group([[0, 1], [1, 0]])
        assert g.inv == (0, 1)

    def test_s3_from_permutations(self):
        # build the composition table from the 3-element permutations and
        # check the resulting group is closed of order 6
        perms = list(itertools.permutations(range(3)))
        index = {p: i for i, p in enumerate(perms)}
        table = [
            [index[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms
        ]
        g = s.make_group(table)
        assert g.order == 6
        assert {g.mul[a][b] for a in range(6) for b in range(6)} == set(range(6))

    def test_not_associative_names_witness(self):
        # a "subtraction mod 3" table: has a right identity only
        table = [[(a - b) % 3 for b in range(3)] for a in range(3)]
        with pytest.raises((NotAssociative, NoIdentity)):
            s.make_group(table)

    def test_no_identity(self):
        # both rows read as the identity row but neither column does
        table = [[0, 1], [0, 1]]
        with pytest.raises(NoIdentity):
            s.make_group(table)

    def test_no_inverse(self):
        # constant rows: 0 is a left zero, no identity either way
        with pytest.raises((NoIdentity, NoInverse, NotAssociative)):
            s.make_group([[0, 0], [0, 1]])


class TestDirectProduct:
    def test_c2_c2_is_v4(self):
        c2 = s.cyclic_group(2)
        dp = s.direct_product(c2, c2)
        assert dp.group.order == 4
        involutions = [
            a for a in dp.group.elements()
            if a != dp.group.identity and dp.group.mul[a][a] == dp.group.identity
        ]
        assert len(involutions) == 3

    def test_trivial_times_s3(self, cat):
        dp = s.direct_product(s.trivial_group(), cat["S3"])
        assert dp.group.mul == cat["S3"].mul

    def test_c2_c3_element_orders(self):
        dp = s.direct_product(s.cyclic_group(2), s.cyclic_group(3))
        orders = [element_order(dp.group, a) for a in dp.group.elements()]
        assert all(o in (1, 2, 3, 6) for o in orders)
        assert 6 in orders
        assert all(
            dp.group.power(a, 6) == dp.group.identity for a in dp.group.elements()
        )


class TestSemidirectProduct:
    def test_trivial_action_gives_direct_product(self):
        c2 = s.cyclic_group(2)
        sd = s.semidirect_product(c2, c2, s.trivial_action(c2, c2))
        assert sd.group.order == 4
        assert all(
            sd.group.mul[a][b] == sd.group.mul[b][a]
            for a in range(4) for b in range(4)
        )
        assert sd.alpha.map == (0, 1, 0, 1)
        assert sd.gamma.map == (0, 1)

    def test_inversion_action_gives_s3(self):
        c3, c2 = s.cyclic_group(3), s.cyclic_group(2)
        sd = s.semidirect_product(c3, c2, s.inversion_action(c2, c3))
        assert sd.group.order == 6
        witness = any(
            sd.group.mul[a][b] != sd.group.mul[b][a]
            for a in range(6) for b in range(6)
        )
        assert witness

    def test_trivial_kernel(self, cat):
        triv = s.trivial_group()
        sd = s.semidirect_product(triv, cat["S3"], s.trivial_action(cat["S3"], triv))
        assert sd.group.order == 6
        assert sd.gamma.is_surjective

    def test_kernel_and_section_intersect_trivially(self, cat):
        c4, c2 = s.cyclic_group(4), s.cyclic_group(2)
        sd = s.semidirect_product(c4, c2, s.inversion_action(c2, c4))
        ker = s.kernel(sd.alpha)
        assert set(ker.members) == set(sd.embed_k.map)
        overlap = set(ker.members) & set(sd.gamma.map)
        assert overlap == {sd.group.identity}


def assembled_cases():
    """(id, K, H, action): every action of a catalog H on a catalog K, both
    of order at most 4, and the ladder's V4 x| C3 (A4) and V4 x| S3 (S4),
    H permuting V4's three involutions."""
    small = {n: g for n, g in s.catalog().items() if g.order <= 4}
    cases = [
        (f"{kn}x{hn}-{i}", k, h, act)
        for kn, k in small.items()
        for hn, h in small.items()
        for i, act in enumerate(_hom_actions(h, k))
    ]
    v4 = s.klein_four_group()
    for name, gens in (("A4", [(1, 2, 0)]), ("S4", [(1, 0, 2), (1, 2, 0)])):
        h, perms = s.group_from_permutations(gens)
        act = tuple((0, *(1 + p[i] for i in range(3))) for p in perms)
        cases.append((name, v4, h, s.ActionSpec(h, v4, act)))
    return cases


class TestAssembledSemidirectProduct:
    """semidirect_product assembles A from validated factors and checks
    nothing; make_group and make_hom must accept what it assembles."""

    @pytest.mark.parametrize(
        "k,h,action", [c[1:] for c in assembled_cases()],
        ids=[c[0] for c in assembled_cases()],
    )
    def test_validation_accepts_the_assembly(self, k, h, action):
        sd = s.semidirect_product(k, h, action)
        grp = sd.group
        checked = s.make_group(grp.mul)
        assert (checked.identity, checked.inv) == (grp.identity, grp.inv)
        assert checked == grp
        assert make_hom(grp, h, sd.alpha.map) == sd.alpha
        assert make_hom(h, grp, sd.gamma.map) == sd.gamma
        assert make_hom(k, grp, sd.embed_k.map) == sd.embed_k
        assert set(s.kernel(sd.alpha).members) == set(sd.embed_k.map)

    def test_cases_cover_every_action(self):
        # 52 actions over the catalog groups of order <= 4, plus A4 and S4
        cases = assembled_cases()
        assert len(cases) == 54
        assert {c[0] for c in cases} >= {"V4xC3-1", "V4xV4-9", "A4", "S4"}
        assert [c[1].order * c[2].order for c in cases[-2:]] == [12, 24]


class TestSubgroupClosure:
    def test_empty_seeds(self, cat):
        assert s.subgroup_closure(cat["S3"], []).members == (cat["S3"].identity,)

    def test_s3_generated_by_transposition_and_cycle(self, cat):
        s3 = cat["S3"]
        transposition = next(a for a in s3.elements() if element_order(s3, a) == 2)
        cycle = next(a for a in s3.elements() if element_order(s3, a) == 3)
        assert s.subgroup_closure(s3, [transposition, cycle]).order == 6

    def test_v4_involution(self, cat):
        assert s.subgroup_closure(cat["V4"], [1]).order == 2

    @given(st.integers(0, 5), st.integers(0, 5))
    def test_idempotent(self, a, b):
        s3 = s.symmetric_group_3()
        first = s.subgroup_closure(s3, [a, b])
        again = s.subgroup_closure(s3, list(first.members))
        assert first.members == again.members


def breadth_first_closure(identity, seeds, mul):
    """Reference for _closure: the plain breadth-first closure, every element
    reached, in discovery order, times every distinct seed."""
    gens = list(dict.fromkeys(seeds))
    elems = [identity]
    seen = {identity}
    i = 0
    while i < len(elems):
        a = elems[i]
        i += 1
        for s_ in gens:
            p = mul(a, s_)
            if p not in seen:
                seen.add(p)
                elems.append(p)
    return elems


def columns_of(table):
    """_closure's column function of an index table: x -> [a*x for each a]."""
    return lambda x: [row[x] for row in table]


def a4_group():
    """V4 x| C3 with C3 rotating the three involutions: A4, order 12."""
    c3, v4 = s.cyclic_group(3), s.klein_four_group()
    action = s.ActionSpec(c3, v4, ((0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2)))
    return s.semidirect_product(v4, c3, action).group


CLOSURE_GROUPS = list(s.catalog().values()) + [a4_group()]


@st.composite
def identity_tables(draw):
    """(table, identity): a group of CLOSURE_GROUPS with its elements
    relabelled and any number of cells outside the identity's row and
    column overwritten, so the result keeps its two-sided identity and may
    be a group, a loop, or neither."""
    base = draw(st.sampled_from(CLOSURE_GROUPS))
    n = base.order
    perm = draw(st.permutations(range(n)))
    table = [[0] * n for _ in range(n)]
    for a, row in enumerate(base.mul):
        for b, c in enumerate(row):
            table[perm[a]][perm[b]] = perm[c]
    e = perm[base.identity]
    others = [a for a in range(n) if a != e]
    if others:
        cells = st.tuples(st.sampled_from(others), st.sampled_from(others),
                          st.integers(0, n - 1))
        for x, y, v in draw(st.lists(cells, max_size=n * n)):
            table[x][y] = v
    return table, e


def seeds_with_repeats(data, grp, max_size):
    """Seeds of grp, then repeats of some and products of earlier ones,
    which the closure already holds when they come."""
    element = st.integers(0, grp.order - 1)
    seeds = data.draw(st.lists(element, max_size=max_size))
    for _ in range(data.draw(st.integers(0, 3))):
        if seeds:
            a = data.draw(st.sampled_from(seeds))
            b = data.draw(st.sampled_from(seeds))
            seeds.append(data.draw(st.sampled_from([a, grp.mul[a][b]])))
    return seeds


class TestClosure:
    """_closure skips seeds already reached and returns the ones it keeps;
    it must reach exactly what the plain breadth-first closure over every
    distinct seed reaches, reading products only from the columns of the
    generators it keeps."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_breadth_first_reference(self, data):
        grp = data.draw(st.sampled_from(CLOSURE_GROUPS))
        seeds = seeds_with_repeats(data, grp, 8)
        mul = lambda a, b: grp.mul[a][b]
        got, _ = _closure(grp.identity, seeds, columns_of(grp.mul))
        want = breadth_first_closure(grp.identity, seeds, mul)
        assert got[0] == grp.identity
        assert len(got) == len(set(got))
        assert sorted(got) == sorted(want)
        assert s.subgroup_closure(grp, seeds).members == tuple(sorted(want))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_pairs_match_breadth_first_reference(self, data):
        # image_of_restriction closes (t, nu) pairs in a product of two
        # groups, each pair (a, b) the flat index a*|G2| + b
        g1 = data.draw(st.sampled_from(CLOSURE_GROUPS))
        g2 = data.draw(st.sampled_from(CLOSURE_GROUPS))
        n2 = g2.order
        pair = st.tuples(st.integers(0, g1.order - 1), st.integers(0, n2 - 1))
        seeds = data.draw(st.lists(pair, max_size=10))
        seeds += seeds[: data.draw(st.integers(0, len(seeds)))]

        def column(x):
            a, b = divmod(x, n2)
            return [r1[a] * n2 + r2[b] for r1 in g1.mul for r2 in g2.mul]

        got, _ = _closure(
            g1.identity * n2 + g2.identity,
            iter([a * n2 + b for a, b in seeds]),
            column,
        )
        mul = lambda p, q: (g1.mul[p[0]][q[0]], g2.mul[p[1]][q[1]])
        want = breadth_first_closure((g1.identity, g2.identity), seeds, mul)
        assert len(got) == len(set(got))
        assert sorted(divmod(p, n2) for p in got) == sorted(want)

    @settings(max_examples=300, deadline=None)
    @given(identity_tables())
    def test_seeds_range_n_keep_the_greedy_generators(self, case):
        # on any table with a two-sided identity, associative or not, each
        # generator kept is the smallest element outside the closure of the
        # ones kept before it, and the walk reaches every element
        table, e = case
        mul = lambda a, b: table[a][b]
        n = len(table)
        elems, gens = _closure(e, range(n), columns_of(table))
        assert sorted(elems) == list(range(n))
        for i, g in enumerate(gens):
            before = set(breadth_first_closure(e, gens[:i], mul))
            assert g == min(set(range(n)) - before)
        assert set(breadth_first_closure(e, gens, mul)) == set(range(n))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_one_column_per_kept_generator(self, data):
        # a column is requested once for each generator kept, in order, and
        # never for a seed the closure already holds
        grp = data.draw(st.sampled_from(CLOSURE_GROUPS))
        seeds = seeds_with_repeats(data, grp, 12)
        requested = []
        column = columns_of(grp.mul)
        elems, gens = _closure(
            grp.identity, seeds, lambda x: requested.append(x) or column(x)
        )
        assert requested == gens
        mul = lambda a, b: grp.mul[a][b]
        for i, g in enumerate(gens):
            assert g not in breadth_first_closure(grp.identity, gens[:i], mul)
        assert set(seeds) <= set(elems)

    @pytest.mark.parametrize("grp", CLOSURE_GROUPS, ids=lambda g: str(g.order))
    def test_empty_redundant_and_repeated_seeds(self, grp):
        column = columns_of(grp.mul)
        mul = lambda a, b: grp.mul[a][b]
        e = grp.identity
        assert _closure(e, [], column) == ([e], [])
        assert _closure(e, [e, e], column) == ([e], [])
        everything = list(grp.elements()) * 2
        assert sorted(_closure(e, everything, column)[0]) == list(grp.elements())
        # powers of one element after it add nothing
        a = grp.order - 1
        powers = [grp.power(a, k) for k in range(1, 5)]
        assert sorted(_closure(e, powers, column)[0]) == sorted(
            breadth_first_closure(e, [a], mul)
        )


class TestKernelImage:
    def test_identity_hom(self, cat):
        h = s.make_hom(cat["S3"], cat["S3"], list(range(6)))
        assert s.kernel(h).order == 1
        assert s.image(h).order == 6

    def test_v4_projection(self):
        c2 = s.cyclic_group(2)
        dp = s.direct_product(c2, c2)
        assert s.kernel(dp.proj1).order == 2
        assert s.image(dp.proj1).order == 2

    def test_c6_reduction_kernel(self):
        c6, c2 = s.cyclic_group(6), s.cyclic_group(2)
        h = s.make_hom(c6, c2, [a % 2 for a in range(6)])
        ker = s.kernel(h)
        assert ker.members == (0, 2, 4)


class TestMinimalGenerators:
    def test_trivial(self, cat):
        sub = s.subgroup_closure(cat["S3"], [])
        assert s.minimal_generator_count(sub) == (0, ())

    def test_c6_is_cyclic(self, cat):
        count, witness = s.minimal_generator_count(full_subgroup(cat["C6"]))
        assert count == 1
        assert s.subgroup_closure(cat["C6"], list(witness)).order == 6

    @pytest.mark.parametrize("name", ["V4", "S3"])
    def test_rank_two(self, cat, name):
        count, witness = s.minimal_generator_count(full_subgroup(cat[name]))
        assert count == 2
        closed = s.subgroup_closure(cat[name], list(witness))
        assert closed.order == cat[name].order

    def test_witness_generates_exactly(self, cat):
        sub = s.subgroup_closure(cat["D4"], [1])
        count, witness = s.minimal_generator_count(sub)
        assert s.subgroup_closure(cat["D4"], list(witness)).members == sub.members
        assert (count == 0) == (sub.order == 1)


class TestGroupProperties:
    @settings(max_examples=60)
    @given(st.sampled_from(["C2", "C4", "V4", "C6", "S3", "D4", "Q8"]),
           st.randoms(use_true_random=False))
    def test_axioms_on_catalog(self, name, rnd):
        g = s.catalog()[name]
        for _ in range(10):
            a, b, c = (rnd.randrange(g.order) for _ in range(3))
            assert g.mul[g.mul[a][b]][c] == g.mul[a][g.mul[b][c]]
            assert g.mul[a][g.inv[a]] == g.identity
            assert g.mul[g.inv[a]][a] == g.identity

    def test_automorphisms_of_v4(self, cat):
        assert len(automorphism_list(cat["V4"])) == 6

    def test_automorphisms_of_c4(self):
        assert len(automorphism_list(s.cyclic_group(4))) == 2

    def test_hom_validation_catches_bad_map(self, cat):
        c4 = s.cyclic_group(4)
        with pytest.raises(Exception):
            make_hom(c4, s.cyclic_group(2), [0, 1, 1, 0])

    def test_permutation_group_first_discovery_order(self):
        grp, elems = s.group_from_permutations([(1, 2, 0)])
        assert grp.order == 3
        assert elems[0] == (0, 1, 2)

    def test_permutation_group_keeps_breadth_first_indices(self):
        # (2, 0, 1) is the square of (1, 2, 0), a redundant generator that
        # still takes part in the breadth-first order; that order fixes the
        # indices an instance hash covers, which the literals pin.
        grp, elems = s.group_from_permutations([(1, 2, 0), (2, 0, 1), (1, 0, 2)])
        assert elems == [
            (0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (2, 1, 0), (0, 2, 1),
        ]
        assert [list(row) for row in grp.mul] == [
            [0, 1, 2, 3, 4, 5],
            [1, 2, 0, 4, 5, 3],
            [2, 0, 1, 5, 3, 4],
            [3, 5, 4, 0, 2, 1],
            [4, 3, 5, 1, 0, 2],
            [5, 4, 3, 2, 1, 0],
        ]
        # D4 with its rotation repeated and its square given as well
        grp, elems = s.group_from_permutations(
            [(1, 2, 3, 0), (1, 2, 3, 0), (3, 2, 1, 0), (2, 3, 0, 1)]
        )
        assert elems == [
            (0, 1, 2, 3), (1, 2, 3, 0), (3, 2, 1, 0), (2, 3, 0, 1),
            (0, 3, 2, 1), (3, 0, 1, 2), (2, 1, 0, 3), (1, 0, 3, 2),
        ]
        assert [list(row) for row in grp.mul] == [
            [0, 1, 2, 3, 4, 5, 6, 7],
            [1, 3, 4, 5, 7, 0, 2, 6],
            [2, 6, 0, 7, 5, 4, 1, 3],
            [3, 5, 7, 0, 6, 1, 4, 2],
            [4, 2, 1, 6, 0, 7, 3, 5],
            [5, 0, 6, 1, 2, 3, 7, 4],
            [6, 7, 5, 4, 3, 2, 0, 1],
            [7, 4, 3, 2, 1, 6, 5, 0],
        ]

    def test_subgroup_as_group_roundtrip(self, cat):
        s3 = cat["S3"]
        cycle = next(a for a in s3.elements() if element_order(s3, a) == 3)
        sub = s.subgroup_closure(s3, [cycle])
        grp, incl = sub.as_group()
        assert grp.order == 3
        assert all(incl.map[i] in sub.members for i in grp.elements())


# An order-5 loop: 0 is a two-sided identity and every element is its own
# two-sided inverse, yet (1*1)*2 = 2 while 1*(1*2) = 1*3 = 4.
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def is_associative(table):
    n = len(table)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n) for b in range(n) for c in range(n)
    )


def has_inverses(table, identity):
    n = len(table)
    return all(
        any(table[a][b] == identity == table[b][a] for b in range(n))
        for a in range(n)
    )


def loop_times_cyclic(m):
    """LOOP5 x C_m with (a, b) encoded as a*m + b."""
    n = 5 * m
    return [
        [LOOP5[x // m][y // m] * m + (x + y) % m for y in range(n)]
        for x in range(n)
    ]


@st.composite
def perturbed_group_tables(draw):
    """A group table of order <= 7 with identity 0 and up to three cells
    outside row and column 0 overwritten, so the identity survives."""
    base = draw(st.sampled_from(
        [s.cyclic_group(n) for n in range(1, 8)]
        + [s.klein_four_group(), s.symmetric_group_3()]
    ))
    n = base.order
    table = [list(row) for row in base.mul]
    if n > 1:
        cells = st.tuples(
            st.integers(1, n - 1), st.integers(1, n - 1), st.integers(0, n - 1)
        )
        for x, y, v in draw(st.lists(cells, max_size=3)):
            table[x][y] = v
    return table


class TestExactValidation:
    def test_loop_is_rejected(self):
        assert has_inverses(LOOP5, 0) and not is_associative(LOOP5)
        with pytest.raises(NotAssociative):
            s.make_group(LOOP5)

    def test_large_loop_product_rejected_with_genuine_witness(self):
        table = loop_times_cyclic(103)
        assert len(table) == 515
        witnesses = []
        for _ in range(2):
            with pytest.raises(NotAssociative) as info:
                s.make_group(table)
            witnesses.append(info.value.triple)
        assert witnesses[0] == witnesses[1]
        x, y, z = witnesses[0]
        assert table[table[x][y]][z] != table[x][table[y][z]]

    def test_cyclic_513_and_identity_hom_accepted(self):
        c = s.cyclic_group(513)
        assert c.order == 513 and c.identity == 0
        hom = make_hom(c, c, list(range(513)))
        assert hom.map == tuple(range(513))

    def test_swapped_images_on_c513_rejected(self):
        c = s.cyclic_group(513)
        mapping = list(range(513))
        mapping[1], mapping[2] = mapping[2], mapping[1]
        with pytest.raises(NotAHomomorphism) as info:
            make_hom(c, c, mapping)
        a, b = info.value.pair
        assert mapping[c.mul[a][b]] != c.mul[mapping[a]][mapping[b]]

    @settings(max_examples=300, deadline=None)
    @given(perturbed_group_tables())
    # V4 with 2*3 and 3*2 overwritten: (x*1)*y = x*(1*y) still holds for
    # all x, y, so only the second greedy generator exposes the failure
    @example([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 3], [3, 2, 3, 0]])
    def test_verdict_matches_brute_force(self, table):
        valid = is_associative(table) and has_inverses(table, 0)
        try:
            s.make_group(table)
            accepted = True
        except NotAssociative as exc:
            x, y, z = exc.triple
            assert table[table[x][y]][z] != table[x][table[y][z]]
            accepted = False
        except NoInverse:
            assert not has_inverses(table, 0)
            accepted = False
        assert accepted == valid

    @pytest.mark.parametrize("entry", [1.5, "1", True, -1, 2])
    def test_table_entry_must_be_an_index(self, entry):
        table = [[0, 1], [1, 0]]
        table[0][1] = entry
        with pytest.raises(ValueError, match="table entries"):
            s.make_group(table)

    @pytest.mark.parametrize("entry", [1.5, "1", True, -1, 2])
    def test_hom_image_must_be_an_index(self, entry):
        c2 = s.cyclic_group(2)
        with pytest.raises(ValueError, match="mapping values"):
            make_hom(c2, c2, [0, entry])

    def test_map_exposed_only_by_the_second_generator(self):
        # V4 -> C4 with 0, 1 -> 0 and 2, 3 -> 1.  V4's greedy generators
        # are 1 and 2: f(a*1) = f(a)*f(1) for every a, but f(2*2) = f(0) = 0
        # while f(2)*f(2) = 2
        v4, c4 = s.klein_four_group(), s.cyclic_group(4)
        mapping = [0, 0, 1, 1]
        assert all(
            mapping[v4.mul[a][1]] == c4.mul[mapping[a]][mapping[1]]
            for a in range(4)
        )
        with pytest.raises(NotAHomomorphism) as info:
            make_hom(v4, c4, mapping)
        assert info.value.pair == (2, 2)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_hom_verdict_matches_brute_force(self, data):
        dom = data.draw(st.sampled_from(HOM_GROUPS))
        cod = data.draw(st.sampled_from(HOM_GROUPS))
        genuine = all_homs(dom, cod)
        kind = data.draw(st.sampled_from(["genuine", "perturbed", "random"]))
        if kind == "random":
            mapping = data.draw(st.lists(
                st.integers(0, cod.order - 1),
                min_size=dom.order, max_size=dom.order,
            ))
        else:
            mapping = list(data.draw(st.sampled_from(genuine)))
            if kind == "perturbed":
                a = data.draw(st.integers(0, dom.order - 1))
                mapping[a] = data.draw(st.integers(0, cod.order - 1))
        try:
            make_hom(dom, cod, mapping)
            accepted = True
        except NotAHomomorphism as exc:
            a, b = exc.pair
            assert mapping[dom.mul[a][b]] != cod.mul[mapping[a]][mapping[b]]
            accepted = False
        assert accepted == is_multiplicative(dom, cod, mapping)
        if kind == "genuine":
            assert accepted


HOM_GROUPS = list(s.catalog().values()) + [s.cyclic_group(5), s.cyclic_group(8)]


def is_multiplicative(dom, cod, mapping):
    return all(
        mapping[dom.mul[a][b]] == cod.mul[mapping[a]][mapping[b]]
        for a in range(dom.order) for b in range(dom.order)
    )


_HOMS = {}


def all_homs(dom, cod):
    """Every homomorphism dom -> cod: each assignment of images to a minimal
    generating tuple, spread over the closure, kept if multiplicative on
    all pairs.  The identity-only map is always among them."""
    key = (dom.mul, cod.mul)
    if key not in _HOMS:
        _, gens = s.minimal_generator_count(full_subgroup(dom))
        homs = []
        for images in itertools.product(range(cod.order), repeat=len(gens)):
            f = {dom.identity: cod.identity}
            frontier = [dom.identity]
            for a in frontier:
                for g, img in zip(gens, images):
                    b = dom.mul[a][g]
                    if b not in f:
                        f[b] = cod.mul[f[a]][img]
                        frontier.append(b)
            mapping = tuple(f[a] for a in range(dom.order))
            if is_multiplicative(dom, cod, mapping):
                homs.append(mapping)
        _HOMS[key] = homs
    return _HOMS[key]
