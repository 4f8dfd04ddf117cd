import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surfep as s
from surfep.embedding import CheckRecord, SubgroupSpec
from surfep.errors import (
    BetaNotSurjective,
    GenusMismatch,
    NotASolution,
    TargetMismatch,
)


def relative_killing_x(genus: int) -> SubgroupSpec:
    """N = kernel of the map sending every x generator to the C2 generator."""
    q = s.cyclic_group(2)
    nu = s.make_surface_tuple(q, [1] * genus, [0] * genus)
    return SubgroupSpec(q, nu, s.subgroup_closure(q, []))


class TestSplitEP:
    def test_v4_instance_shape(self, v4_instance):
        ep = v4_instance
        assert ep.A.order == 4 and ep.B.order == 2 and ep.genus == 64
        assert ep.kernel_subgroup.order == 2

    def test_beta_must_be_surjective(self, cat):
        c2 = cat["C2"]
        action = s.trivial_action(c2, c2)
        constant = s.make_surface_tuple(c2, [0, 0], [0, 0])
        with pytest.raises(BetaNotSurjective):
            s.make_split_ep(c2, c2, action, constant)

    def test_genus_mismatch(self, cat):
        c2 = cat["C2"]
        action = s.trivial_action(c2, c2)
        beta = s.make_surface_tuple(c2, [1, 0], [0, 0])
        with pytest.raises(GenusMismatch):
            s.make_split_ep(c2, c2, action, beta, genus=3)

    def test_beta_into_another_group_is_named(self, cat):
        # a C3 tuple of genus 4 on a C2 x C2 problem of genus 4: the error
        # names the target, not the genus
        c2 = cat["C2"]
        beta = s.make_surface_tuple(cat["C3"], [1, 0, 0, 0], [0, 0, 0, 0])
        with pytest.raises(TargetMismatch) as exc:
            s.make_split_ep(c2, c2, s.trivial_action(c2, c2), beta)
        assert str(exc.value) == (
            "beta_bar must map into H (order 2), not into a group of order 3"
        )

    def test_with_beta_bar_checks_nothing_again(self, v4_instance):
        # make_split_ep checked beta_bar once; a tuple read on another basis
        # is taken as given, even one that is not onto B
        constant = s.make_surface_tuple(v4_instance.B, [0, 0], [0, 0])
        ep = v4_instance.with_beta_bar(constant)
        assert ep.beta_bar is constant and ep.genus == 2 and ep.A is v4_instance.A

    def test_nontrivial_action(self, cat):
        c3, c2 = cat["C3"], cat["C2"]
        beta = s.make_surface_tuple(c2, [1, 0], [0, 0])
        ep = s.make_split_ep(c3, c2, s.inversion_action(c2, c3), beta)
        assert ep.A.order == 6
        # A = C3 x| C2 is S3: it has a noncentral element
        assert any(
            ep.A.mul[a][b] != ep.A.mul[b][a]
            for a in ep.A.elements() for b in ep.A.elements()
        )


class TestSubgroupSpec:
    def test_word_membership(self):
        spec = relative_killing_x(4)

        def in_n(word):
            return s.evaluate_word(spec.nu, word) in spec.S

        assert in_n(s.parse_word("x1^-1 x2"))
        assert in_n(s.parse_word("y3"))
        assert not in_n(s.word_x(1))
        assert in_n(s.parse_word("x1 x2 y1^-1"))

    def test_mismatched_parent_rejected(self, cat):
        q = s.cyclic_group(2)
        nu = s.make_surface_tuple(q, [1], [0])
        wrong = s.subgroup_closure(cat["C3"], [])
        with pytest.raises(ValueError):
            SubgroupSpec(q, nu, wrong)

    def test_full_s_means_whole_group(self, cat):
        # S = Q makes N the whole surface group, so beta(N) = image(beta)
        c2 = cat["C2"]
        beta = s.make_surface_tuple(c2, [1, 0], [0, 1])
        q = s.cyclic_group(3)
        nu = s.make_surface_tuple(q, [1, 2], [0, 0])
        spec = SubgroupSpec(q, nu, s.subgroup_closure(q, [1]))
        assert s.image_of_restriction(beta, spec).members == (0, 1)


class TestImageOfRestriction:
    def test_x_killing_quotient_still_surjects(self):
        # beta sends x1 to the generator and everything else to 0; N avoids
        # the x generators individually, yet x1 x2^-1-type products keep
        # beta(N) equal to all of B only when a y also hits the generator
        c2 = s.cyclic_group(2)
        beta = s.make_surface_tuple(c2, [1, 1], [0, 1])
        spec = relative_killing_x(2)
        got = s.image_of_restriction(beta, spec)
        assert got.members == (0, 1)

    def test_restriction_can_be_proper(self):
        # beta = nu: N maps into S, so beta(N) = S (here trivial)
        c2 = s.cyclic_group(2)
        beta = s.make_surface_tuple(c2, [1, 1], [0, 0])
        q = s.cyclic_group(2)
        nu = s.make_surface_tuple(q, [1, 1], [0, 0])
        spec = SubgroupSpec(q, nu, s.subgroup_closure(q, []))
        got = s.image_of_restriction(beta, spec)
        assert got.members == (0,)

    def test_genus_mismatch(self):
        c2 = s.cyclic_group(2)
        beta = s.make_surface_tuple(c2, [1, 0, 0], [0, 0, 0])
        with pytest.raises(GenusMismatch):
            s.image_of_restriction(beta, relative_killing_x(2))

    def test_against_brute_force_enumeration(self):
        # exhaustively evaluate every genus-3 word image pair (t, nu) by
        # closing in the direct product by hand and compare
        s3 = s.symmetric_group_3()
        sign = [int(s3.element_order(a) == 2) for a in s3.elements()]
        cases = [
            # (|Q|, seeds of S, nu tied to the sign of t)
            (3, [], False),
            (6, [3], False),    # nontrivial S = {0, 3}
            (6, [3], True),     # tied: the image depends on S beyond {0}
            (6, [2], True),
            (90, [], False),    # |A||Q| = 540
            (90, [30], False),  # nontrivial S of order 3 in C90
        ]
        for q_order, s_seeds, tied in cases:
            q = s.cyclic_group(q_order)
            rng = random.Random(7)
            for _ in range(10):
                t = s.random_surface_tuple(s3, 3, seed=rng.randrange(10**6))
                nu = s.random_surface_tuple(q, 3, seed=rng.randrange(10**6))
                if tied:
                    # nu = 3 sign(t) + 2 r in C6, so the pair image is a
                    # proper fiber product of S3 and C6 over C2
                    nu = s.make_surface_tuple(q, *(
                        [(3 * sign[a] + 2 * b) % 6 for a, b in zip(ts, ns)]
                        for ts, ns in ((t.ximg, nu.ximg), (t.yimg, nu.yimg))
                    ))
                spec = SubgroupSpec(q, nu, s.subgroup_closure(q, s_seeds))
                got = set(s.image_of_restriction(t, spec).members)
                # reference: products of generators and their inverses,
                # closed pairwise by hand, keeping nu-values in S
                seen = {(s3.identity, 0)}
                frontier = list(seen)
                gens = list(zip((*t.ximg, *t.yimg), (*nu.ximg, *nu.yimg)))
                gens += [(s3.inv[a], q.inv[b]) for a, b in gens]
                while frontier:
                    a, b = frontier.pop()
                    for ga, gb in gens:
                        p = (s3.mul[a][ga], q.mul[b][gb])
                        if p not in seen:
                            seen.add(p)
                            frontier.append(p)
                want = {a for a, b in seen if b in spec.S}
                assert got == want

class TestClaimProper:
    def test_identity_lift_of_v4(self, v4_instance):
        ep = v4_instance
        phi = s.map_tuple(ep.gamma, ep.beta_bar)
        # gamma-image misses the kernel, so the claim must fail
        assert s.claim_proper(ep, phi) is False

    def test_rejects_non_solutions(self, v4_instance):
        ep = v4_instance
        phi = s.map_tuple(ep.gamma, ep.beta_bar)
        bad_x = list(phi.ximg)
        bad_x[0] = next(
            a for a in ep.A.elements() if ep.alpha.map[a] != ep.beta_bar.ximg[0]
        )
        bad = s.SurfaceTuple(ep.A, ep.genus, tuple(bad_x), phi.yimg)
        with pytest.raises(NotASolution):
            s.claim_proper(ep, bad)

    @pytest.mark.parametrize("genus", [63, 65])
    def test_refuses_another_genus(self, v4_instance, genus):
        """A phi whose genus is not the problem's is refused by name, as
        verify_solution's shape check refuses it: at genus 65 the extra
        x-image, a kernel generator, would make the claim True, and at 63
        the compatibility scan would index past phi's end."""
        ep = v4_instance
        base = s.map_tuple(ep.gamma, ep.beta_bar)
        kgen = next(k for k in ep.kernel_subgroup.members if k != ep.A.identity)
        x = (*base.ximg, kgen)[:genus]
        y = (*base.yimg, ep.A.identity)[:genus]
        with pytest.raises(GenusMismatch, match="expected 64, got " + str(genus)):
            s.claim_proper(ep, s.SurfaceTuple(ep.A, genus, x, y))
        assert s.verify_solution(ep, x, y).checks[0] == CheckRecord(
            "shape", False, "genus 64"
        )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_claim_agrees_with_direct_closure(self, seed):
        # dual-route check: kernel containment iff the closure is everything
        c3, c2 = s.cyclic_group(3), s.cyclic_group(2)
        beta = s.make_surface_tuple(c2, [1, 0], [0, 1])
        ep = s.make_split_ep(c3, c2, s.inversion_action(c2, c3), beta)
        rng = random.Random(seed)
        ker = list(ep.kernel_subgroup.members)
        base = s.map_tuple(ep.gamma, ep.beta_bar)
        # kernel-perturb each image; stays compatible, relation not needed
        phi_x = tuple(ep.A.mul[rng.choice(ker)][a] for a in base.ximg)
        phi_y = tuple(ep.A.mul[rng.choice(ker)][a] for a in base.yimg)
        cand = s.SurfaceTuple(ep.A, 2, phi_x, phi_y)
        direct = s.subgroup_closure(ep.A, [*phi_x, *phi_y]).order == ep.A.order
        assert s.claim_proper(ep, cand) == direct


class TestVerifySolution:
    def test_shape_failure_short_circuits(self, v4_instance):
        cert = s.verify_solution(v4_instance, [0], [0])
        assert cert.outcome == "invalid"
        assert [c.name for c in cert.checks] == ["shape"]

    @pytest.mark.parametrize("kind, index, value", [
        ("x", 0, 4), ("x", 63, -1), ("y", 5, 99), ("y", 63, -1),
    ])
    def test_out_of_range_entry_fails_shape_alone(
        self, v4_instance, kind, index, value
    ):
        ep = v4_instance
        phi = s.map_tuple(ep.gamma, ep.beta_bar)
        images = {"x": list(phi.ximg), "y": list(phi.yimg)}
        images[kind][index] = value
        cert = s.verify_solution(ep, images["x"], images["y"])
        assert cert.outcome == "invalid"
        assert cert.checks == (CheckRecord("shape", False, "genus 64"),)

    @pytest.mark.parametrize("changed, named", [
        ((("y", 2), ("x", 3)), "fails at y2"),
        ((("x", 3), ("y", 3)), "fails at x3"),
        ((("y", 64),), "fails at y64"),
        ((), "alpha o phi = beta_bar"),
    ])
    def test_first_incompatible_generator_named(self, v4_instance, changed, named):
        # the first position, and x before y at one position
        ep = v4_instance
        phi = s.map_tuple(ep.gamma, ep.beta_bar)
        images = {"x": list(phi.ximg), "y": list(phi.yimg)}
        beta = {"x": ep.beta_bar.ximg, "y": ep.beta_bar.yimg}
        for kind, i in changed:
            images[kind][i - 1] = next(
                a for a in ep.A.elements() if ep.alpha.map[a] != beta[kind][i - 1]
            )
        cert = s.verify_solution(ep, images["x"], images["y"])
        compat = next(c for c in cert.checks if c.name == "compatibility")
        assert (compat.passed, compat.detail) == (not changed, named)

    def test_gamma_lift_is_solution_not_proper(self, v4_instance):
        ep = v4_instance
        phi = s.map_tuple(ep.gamma, ep.beta_bar)
        cert = s.verify_solution(ep, phi.ximg, phi.yimg)
        assert cert.is_solution and not cert.is_proper
        assert cert.outcome == "solution"
        names = {c.name: c.passed for c in cert.checks}
        assert names["surface_relation"] and names["compatibility"]
        assert not names["image_closure"]

    def test_broken_relation_detected(self, cat):
        s3 = cat["S3"]
        beta = s.make_surface_tuple(s3, [1, 2], [0, 0])
        ep = s.make_split_ep(s.trivial_group(), s3,
                             s.trivial_action(s3, s.trivial_group()), beta)
        trans = next(a for a in s3.elements() if s3.element_order(a) == 2)
        cyc = next(a for a in s3.elements() if s3.element_order(a) == 3)
        cert = s.verify_solution(ep, [trans, 2], [cyc, 0])
        failed = {c.name for c in cert.failed_checks()}
        assert "surface_relation" in failed or "compatibility" in failed
        assert not cert.is_proper

    def test_kernel_factor_breaking_the_relation_fails_surface_relation(self):
        # K = C3 inverted by H = C2, so A = S3 and phi(x2) = gamma(1) is an
        # involution: a kernel element of order 3 on y2 keeps alpha o phi =
        # beta_bar but not the relation
        c3, c2 = s.cyclic_group(3), s.cyclic_group(2)
        beta = s.make_surface_tuple(c2, [1, 1], [0, 0])
        ep = s.make_split_ep(c3, c2, s.inversion_action(c2, c3), beta)
        phi = s.map_tuple(ep.gamma, ep.beta_bar)
        kernel_elem = next(k for k in ep.kernel_subgroup.members if k != ep.A.identity)
        cert = s.verify_solution(ep, phi.ximg, (phi.yimg[0], kernel_elem))
        failed = [c.name for c in cert.failed_checks()]
        assert failed[0] == "surface_relation"
        assert "compatibility" not in failed

    def test_relative_checks_present(self, v4_instance):
        ep = v4_instance
        spec = relative_killing_x(ep.genus)
        phi = s.map_tuple(ep.gamma, ep.beta_bar)
        cert = s.verify_solution(ep, phi.ximg, phi.yimg, relative=spec)
        names = {c.name for c in cert.checks}
        assert {"relative_genus", "beta_n_surjective", "relative_image_full"} <= names
