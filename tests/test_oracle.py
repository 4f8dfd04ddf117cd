import pytest
from hypothesis import given
from hypothesis import strategies as st

import surfep as s
from surfep.errors import BudgetExceeded
from surfep.oracle import commuting_pairs_count, reference_minimal_generators


class TestEnumeration:
    def test_c2_genus_one(self, cat):
        # abelian target: every pair commutes, so |G|^2 tuples
        assert s.enumerate_surface_tuples(cat["C2"], 1) == 4

    def test_s3_genus_one_equals_commuting_pairs(self, cat):
        count = s.enumerate_surface_tuples(cat["S3"], 1)
        assert count == commuting_pairs_count(cat["S3"]) == 18

    def test_s3_genus_two(self, cat):
        # frozen value, cross-checked against the character-theoretic count
        # |G|^3 * sum over irreps of dim^(2-2g) = 216 * (1 + 1 + 1/4)
        assert s.enumerate_surface_tuples(cat["S3"], 2) == 486

    def test_q8_genus_one(self, cat):
        assert s.enumerate_surface_tuples(cat["Q8"], 1) == commuting_pairs_count(
            cat["Q8"]
        )

    def test_budget(self, cat):
        with pytest.raises(BudgetExceeded):
            s.enumerate_surface_tuples(cat["S3"], 5, budget=10**4)

    @given(st.integers(2, 6))
    def test_abelian_counts_are_exact_powers(self, n):
        grp = s.cyclic_group(n)
        assert s.enumerate_surface_tuples(grp, 1) == n * n


class TestRandomTuple:
    def test_deterministic_per_seed(self, cat):
        a = s.random_surface_tuple(cat["S3"], 4, seed=5)
        b = s.random_surface_tuple(cat["S3"], 4, seed=5)
        assert a == b

    def test_valid_tuples(self, cat):
        for seed in range(10):
            t = s.random_surface_tuple(cat["D4"], 3, seed=seed)
            assert t.genus == 3  # construction validates the relation


class TestReferenceMinimalGenerators:
    def test_matches_fast_path_on_catalog(self, cat):
        for name, grp in cat.items():
            sub = s.subgroup_closure(grp, list(grp.elements()))
            fast = s.minimal_generator_count(sub)
            slow = reference_minimal_generators(sub)
            assert fast.count == slow, name

    def test_matches_on_proper_subgroups(self, cat):
        d4 = cat["D4"]
        for a in d4.elements():
            sub = s.subgroup_closure(d4, [a])
            assert s.minimal_generator_count(sub).count == \
                reference_minimal_generators(sub)

    def test_limit(self, cat):
        sub = s.subgroup_closure(cat["Q8"], list(cat["Q8"].elements()))
        with pytest.raises(BudgetExceeded):
            reference_minimal_generators(sub, limit=4)


class TestGenerateInstances:
    def test_deterministic(self):
        a = s.generate_instances(s.InstanceRecipe(seed=9), 8)
        b = s.generate_instances(s.InstanceRecipe(seed=9), 8)
        assert len(a) == len(b) == 8
        for x, y in zip(a, b):
            assert x.name == y.name
            assert x.ep.beta_bar == y.ep.beta_bar
            assert x.relative_valid == y.relative_valid

    def test_all_instances_well_formed(self):
        for inst in s.generate_instances(s.InstanceRecipe(seed=1), 12):
            ep = inst.ep
            assert ep.genus == 2 * ep.A.order ** 2 * ep.B.order
            assert ep.alpha.is_surjective
            # x-images alone generate B (the relative construction relies
            # on it)
            assert (
                s.subgroup_closure(ep.B, list(ep.beta_bar.ximg)).order
                == ep.B.order
            )

    def test_good_relatives_have_full_restriction(self):
        batch = s.generate_instances(s.InstanceRecipe(seed=2), 12)
        seen_good = False
        for inst in batch:
            if inst.relative_valid is True:
                seen_good = True
                bn = s.image_of_restriction(inst.ep.beta_bar, inst.relative)
                assert bn.order == inst.ep.B.order
        assert seen_good

    def test_bad_relatives_fail_restriction(self):
        batch = s.generate_instances(s.InstanceRecipe(seed=2), 40)
        seen_bad = False
        for inst in batch:
            if inst.relative_valid is False:
                seen_bad = True
                bn = s.image_of_restriction(inst.ep.beta_bar, inst.relative)
                assert bn.order < inst.ep.B.order
        assert seen_bad

    def test_slack_genus_rule(self):
        batch = s.generate_instances(
            s.InstanceRecipe(seed=4, genus_rule="slack"), 6
        )
        for inst in batch:
            base = 2 * inst.ep.A.order ** 2 * inst.ep.B.order
            assert base < inst.ep.genus <= base + 8

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            s.generate_instances(s.InstanceRecipe(seed=0, genus_rule="huge"), 1)

    def test_action_modes(self):
        for mode in ("trivial", "inversion", "random"):
            batch = s.generate_instances(
                s.InstanceRecipe(seed=5, action_mode=mode), 4
            )
            assert len(batch) == 4
