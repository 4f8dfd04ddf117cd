from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surfep as s
from surfep.embedding import CheckRecord, SubgroupSpec
from surfep.errors import (
    BetaNRestrictionNotSurjective,
    GenusTooSmall,
    HypothesisViolated,
    TargetMismatch,
)
from surfep.oracle import GeneratedInstance
from surfep.solver import _first_leaving, make_eta_params

from conftest import element_order


class TestEtaParams:
    def test_v4_instance(self, v4_instance):
        ep = v4_instance
        phi = s.map_tuple(ep.gamma, ep.beta_bar)
        params = make_eta_params(ep, phi)
        assert (params.s, params.n, params.m) == (1, 4, 16)
        assert len(params.kgens) == 1
        assert params.kgens[0] in ep.kernel_subgroup.members
        assert params.kgens[0] != ep.A.identity

    def test_trivial_kernel_has_no_generators(self, cat):
        s3 = cat["S3"]
        beta = s.make_surface_tuple(s3, [1, 2], [0, 0])
        ep = s.make_split_ep(s.trivial_group(), s3,
                             s.trivial_action(s3, s.trivial_group()), beta)
        phi = s.map_tuple(ep.gamma, ep.beta_bar)
        params = make_eta_params(ep, phi)
        assert params.s == 0 and params.kgens == ()


class TestBlockLengthIsTheWholeGroup:
    """make_eta_params takes n = |A|: for any phi with alpha o phi = beta_bar
    the group K phi(Gamma) is alpha^-1(B), all of A, since beta_bar is onto
    B."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6), st.randoms(use_true_random=False))
    def test_kernel_and_any_solution_generate_a(self, seed, rnd):
        ep = s.generate_instances(s.InstanceRecipe(seed=seed), 1)[0].ep
        # a solution as acceptance test_08 builds them: gamma o beta_bar with
        # each image multiplied by a kernel element
        ker = list(ep.kernel_subgroup.members)
        base = s.map_tuple(ep.gamma, ep.beta_bar)
        phi = s.SurfaceTuple(
            ep.A, ep.genus,
            tuple(ep.A.mul[rnd.choice(ker)][a] for a in base.ximg),
            tuple(ep.A.mul[rnd.choice(ker)][a] for a in base.yimg),
        )
        closure = s.subgroup_closure(ep.A, [*ker, *phi.ximg, *phi.yimg])
        assert closure.order == ep.A.order == make_eta_params(ep, phi).n


def relabelled(group, perm):
    """group with each element a renamed perm[a]."""
    table = [[0] * group.order for _ in group.elements()]
    for a in group.elements():
        for b in group.elements():
            table[perm[a]][perm[b]] = perm[group.mul[a][b]]
    return s.make_group(table)


def elementary_abelian(k):
    return s.make_group([[a ^ b for b in range(2**k)] for a in range(2**k)])


def split_over(k_group, h_group):
    """K x| H with the trivial action and a surjective beta_bar of genus |H|;
    the kernel is K whatever the action."""
    h = list(h_group.elements())
    beta = s.make_surface_tuple(h_group, h, [h_group.identity] * len(h))
    return s.make_split_ep(k_group, h_group, s.trivial_action(h_group, k_group), beta)


def greedy_kgens(ep):
    return make_eta_params(ep, s.map_tuple(ep.gamma, ep.beta_bar)).kgens


class TestGreedyKernelGenerators:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.sampled_from(["trivial", "C2", "C3", "C4", "V4", "C6", "S3", "D4",
                         "Q8", "C2^4", "C2^5"]),
        st.sampled_from(["trivial", "C2", "S3"]),
        st.randoms(use_true_random=False),
    )
    def test_generate_the_kernel_within_log2(self, cat, k_name, h_name, rnd):
        k_group = cat.get(k_name) or elementary_abelian(int(k_name[-1]))
        perm = list(k_group.elements())
        rnd.shuffle(perm)
        ep = split_over(relabelled(k_group, perm), cat[h_name])
        kgens = greedy_kgens(ep)
        ker = ep.kernel_subgroup
        assert s.subgroup_closure(ep.A, kgens).members == ker.members
        assert 2 ** len(kgens) <= ker.order

    def test_always_fit_in_m(self, cat):
        """s(n + 1) <= m = 2|K|^2|H| for every pair of catalog groups under
        the trivial action: s <= log2 |K| and n = |K||H|, so verify derives
        the kernel generators and need not check that they fit.  s depends
        only on K."""
        for k_group in cat.values():
            sizes = set()
            for h_group in cat.values():
                eta = make_eta_params(split_over(k_group, h_group))
                assert eta.s * (eta.n + 1) <= eta.m, (k_group.order, h_group.order)
                sizes.add(eta.s)
            assert len(sizes) == 1

    def test_need_not_be_minimal(self):
        # C4 relabelled so that index 1 has order 2: the greedy tuple starts
        # there and needs two generators where one suffices
        c4 = relabelled(s.cyclic_group(4), [0, 3, 1, 2])
        assert element_order(c4, 1) == 2
        ep = split_over(c4, s.cyclic_group(2))
        kgens = greedy_kgens(ep)
        assert len(kgens) == 2
        assert s.minimal_generator_count(ep.kernel_subgroup).count == 1
        assert s.subgroup_closure(ep.A, kgens).members == ep.kernel_subgroup.members


def replayed(t, selected):
    """t on the basis the move program selected leads to."""
    state = s.normalize_to_front(s.initial_basis_state([t]), selected)
    return state.channel_tuple(0)


class TestOverridesOfGammaBetaBar:
    """phi is gamma o beta_bar on the certificate basis with the eta rule's
    overrides: x-slot in+j+1 goes to gamma(pair.x) kgens[i] for i < s and
    1 <= j <= n.  Verify takes that base as gamma applied to the replayed
    beta_bar, the solver's staged route as the replayed gamma o beta_bar;
    they agree because gamma is a homomorphism."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6), st.randoms(use_true_random=False))
    def test_gamma_commutes_with_the_replay(self, seed, rnd):
        inst = s.generate_instances(s.InstanceRecipe(seed=seed), 1)[0]
        ep = inst.ep
        k = rnd.randint(0, min(12, ep.genus))
        selected = sorted(rnd.sample(range(1, ep.genus + 1), k))
        assert s.map_tuple(ep.gamma, replayed(ep.beta_bar, selected)) == replayed(
            s.map_tuple(ep.gamma, ep.beta_bar), selected
        )

        if inst.relative_valid is False:
            return  # refused: beta(N) != B
        cert = (s.solve_gamma_level(ep) if inst.relative is None
                else s.solve_relative(ep, inst.relative))
        if cert.outcome == "not_reduced":
            return
        eta = cert.eta
        base = s.map_tuple(ep.gamma, replayed(ep.beta_bar, eta.selected))
        phi_x = list(base.ximg)
        for i, kgen in enumerate(eta.kgens):
            for j in range(1, eta.n + 1):
                phi_x[i * eta.n + j] = ep.A.mul[ep.gamma.map[eta.pair[0]]][kgen]
        assert (tuple(phi_x), base.yimg) == (cert.phi_x, cert.phi_y)


def staged(ep, relative=None):
    """The solver's stages composed from public functions on the channels
    [phi0, beta_bar, nu], the way perfbench/tracing.py's replay_stages runs
    them under --trace 1: (selected, eta)."""
    phi0 = s.map_tuple(ep.gamma, ep.beta_bar)
    params = make_eta_params(ep, phi0)
    selected = s.pigeonhole_select(list(zip(phi0.ximg, phi0.yimg)), params.m)
    channels = [phi0, ep.beta_bar] + ([relative.nu] if relative else [])
    state = s.normalize_to_front(s.initial_basis_state(channels), selected)
    rel_n = relative.with_nu(state.channel_tuple(2)) if relative else None
    eta = s.eta_construct(
        state.channel_tuple(0), params, ep.with_beta_bar(state.channel_tuple(1)), rel_n
    )
    return tuple(selected), eta


class TestStagedReplay:
    """The public stages, composed as the traced benchmark composes them,
    reproduce what the solver writes."""

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6))
    def test_gamma_level(self, seed):
        ep = s.generate_instances(s.InstanceRecipe(seed=seed), 1)[0].ep
        cert = s.solve_gamma_level(ep)
        selected, eta = staged(ep)
        assert selected == cert.eta.selected
        assert (eta.ximg, eta.yimg) == (cert.phi_x, cert.phi_y)

    def test_good_relative(self):
        inst = TestSolveRelative().good_instance()
        cert = s.solve_relative(inst.ep, inst.relative)
        assert cert.outcome == "proper"
        selected, eta = staged(inst.ep, inst.relative)
        assert selected == cert.eta.selected
        assert (eta.ximg, eta.yimg) == (cert.phi_x, cert.phi_y)


class TestEtaConstruct:
    def eta_setup(self):
        """V4 problem with phi constant on the needed prefix: beta_bar puts
        its single 1 on the last x generator, so phi(x_1..x_5) are equal."""
        c2 = s.cyclic_group(2)
        action = s.trivial_action(c2, c2)
        beta = s.make_surface_tuple(c2, [0] * 63 + [1], [0] * 64)
        ep = s.make_split_ep(c2, c2, action, beta)
        phi = s.map_tuple(ep.gamma, ep.beta_bar)
        params = make_eta_params(ep, phi)
        return ep, phi, params

    def test_modifies_exactly_the_block(self):
        ep, phi, params = self.eta_setup()
        eta = s.eta_construct(phi, params, ep)
        span = params.s * params.n  # modified x positions 2..sn+1
        kgen = params.kgens[0]
        expected = ep.A.mul[phi.ximg[0]][kgen]
        for i in range(span):
            assert eta.ximg[1 + i] == expected
        assert eta.ximg[0] == phi.ximg[0]
        assert eta.ximg[1 + span:] == phi.ximg[1 + span:]
        assert eta.yimg == phi.yimg

    def test_result_is_proper_solution(self):
        ep, phi, params = self.eta_setup()
        eta = s.eta_construct(phi, params, ep)
        cert = s.verify_solution(ep, eta.ximg, eta.yimg)
        assert cert.outcome == "proper"

    def test_kernel_witness_words(self):
        ep, phi, params = self.eta_setup()
        eta = s.eta_construct(phi, params, ep)
        for j in range(params.s):
            w = s.parse_word(f"x1^-1 x{j * params.n + 2}")
            assert s.evaluate_word(eta, w) == params.kgens[j]

    def test_rejects_unequal_prefix_images(self, v4_instance):
        ep = v4_instance  # beta_bar has its 1 at x1, breaking equal images
        phi = s.map_tuple(ep.gamma, ep.beta_bar)
        params = make_eta_params(ep, phi)
        with pytest.raises(HypothesisViolated) as exc:
            s.eta_construct(phi, params, ep)
        assert exc.value.which == "equal_images"

    def test_rejects_small_genus(self):
        ep, phi, params = self.eta_setup()
        from dataclasses import replace
        big = replace(params, n=100)
        with pytest.raises(HypothesisViolated) as exc:
            s.eta_construct(phi, big, ep)
        assert exc.value.which == "genus"

    def test_relative_membership_guard(self):
        ep, phi, params = self.eta_setup()
        # nu = beta_bar: x1 differs from x64 under nu... here the prefix
        # x-images of nu are all 0 except x64, so prefix differences stay in
        # the trivial S and the construction goes through
        q = s.cyclic_group(2)
        nu = s.make_surface_tuple(q, [0] * 63 + [1], [1] + [0] * 63)
        spec = SubgroupSpec(q, nu, s.subgroup_closure(q, []))
        eta = s.eta_construct(phi, params, ep, spec)
        assert eta.genus == 64
        # now a nu whose x2 image escapes S must be rejected
        nu_bad = s.make_surface_tuple(q, [0, 1] + [0] * 61 + [1], [0] * 64)
        spec_bad = SubgroupSpec(q, nu_bad, s.subgroup_closure(q, []))
        with pytest.raises(HypothesisViolated) as exc:
            s.eta_construct(phi, params, ep, spec_bad)
        assert exc.value.which == "membership"


class TestSolveGammaLevel:
    def test_v4_proper(self, v4_instance):
        cert = s.solve_gamma_level(v4_instance)
        assert cert.outcome == "proper"
        assert cert.eta is not None
        assert (cert.eta.s, cert.eta.n, cert.eta.m) == (1, 4, 16)
        assert len(cert.eta.selected) == 16
        assert all(c.passed for c in cert.checks)

    def test_genus_too_small(self, cat):
        c2 = cat["C2"]
        beta = s.make_surface_tuple(c2, [1] + [0] * 62, [0] * 63)
        ep = s.make_split_ep(c2, c2, s.trivial_action(c2, c2), beta)
        with pytest.raises(GenusTooSmall) as exc:
            s.solve_gamma_level(ep)
        assert exc.value.needed == 64 and exc.value.got == 63

    def test_nonabelian_kernel_action(self):
        # K = C3 with H = C2 inverting it: A = S3, g = 2*36*2 = 144
        c3, c2 = s.cyclic_group(3), s.cyclic_group(2)
        g = 144
        beta = s.make_surface_tuple(c2, [1] + [0] * (g - 1), [0] * g)
        ep = s.make_split_ep(c3, c2, s.inversion_action(c2, c3), beta)
        cert = s.solve_gamma_level(ep)
        assert cert.outcome == "proper"
        recheck = s.reverify_certificate(ep, cert)
        assert recheck.outcome == "proper"

    def test_certificate_reverifies(self, v4_instance):
        cert = s.solve_gamma_level(v4_instance)
        fresh = s.reverify_certificate(v4_instance, cert)
        assert fresh.outcome == "proper"
        assert fresh.phi_x == cert.phi_x and fresh.phi_y == cert.phi_y

    def test_tampered_certificate_fails_reverify(self, v4_instance):
        cert = s.solve_gamma_level(v4_instance)
        # a proper certificate claimed as a mere solution
        tampered = replace(cert, outcome="solution")
        fresh = s.reverify_certificate(v4_instance, tampered)
        assert fresh.is_proper
        assert [c.name for c in fresh.failed_checks()] == ["outcome_matches"]

    def test_deterministic(self, v4_instance):
        a = s.solve_gamma_level(v4_instance)
        b = s.solve_gamma_level(v4_instance)
        assert a == b

    def test_reverify_recomputes_and_replays_eta(self, v4_instance):
        cert = s.solve_gamma_level(v4_instance)
        # beta_bar has the pair (0, 0) at x2..x64: the program moves x2..x17
        assert cert.eta.pair == (0, 0) and cert.eta.selected == tuple(range(2, 18))
        # a parsed certificate has no selected; the replay fills it in
        parsed = replace(cert, eta=replace(cert.eta, selected=()))
        fresh = s.reverify_certificate(v4_instance, parsed)
        assert fresh.checks[0] == CheckRecord(
            "eta_program", True,
            "pair (0, 0) occurs 63 times among beta_bar's pairs, m = 16",
        )
        assert fresh.eta.selected == cert.eta.selected
        assert fresh.eta == cert.eta and fresh.outcome == "proper"
        # compatibility held on the replayed basis, which is the one the
        # derived words spell out
        beta_n = [s.evaluate_word(v4_instance.beta_bar, w) for w in cert.basis_x_words]
        assert [v4_instance.alpha.map[a] for a in fresh.phi_x] == beta_n

    @pytest.mark.parametrize(
        "field,value",
        [
            ("pair", (1, 0)),
            ("pair", (0, 2)),
            ("kgens", (0,)),
            ("kgens", (1, 1, 1, 1)),
            ("m", 15),
            ("n", 3),
        ],
    )
    def test_reverify_rejects_edited_eta(self, v4_instance, field, value):
        """No edited value is taken as given.  The pair is the claim's one
        choice, and an edited pair fails eta_program.  n, m and kgens are
        the problem's (make_eta_params): an edited value is not read, and
        the recomputed program and checks are the unedited ones."""
        cert = s.solve_gamma_level(v4_instance)
        edited = replace(cert, eta=replace(cert.eta, **{field: value}))
        fresh = s.reverify_certificate(v4_instance, edited)
        if field != "pair":
            assert getattr(fresh.eta, field) != value
            assert fresh.checks == cert.checks and fresh.eta == cert.eta
            return
        assert fresh.outcome == "invalid" and not fresh.is_proper
        assert [c.name for c in fresh.failed_checks()] == [
            "eta_program", "outcome_matches",
        ]
        assert field in fresh.checks[0].detail

    def test_missing_eta_fails_the_eta_check(self, v4_instance):
        cert = s.solve_gamma_level(v4_instance)
        # without a move program there is no certificate basis to read phi
        # on
        fresh = s.reverify_certificate(v4_instance, replace(cert, eta=None))
        assert fresh.outcome == "invalid" and not fresh.is_solution
        assert fresh.checks == (
            CheckRecord("eta_program", False, "no move program recorded"),
            CheckRecord("outcome_matches", False, "recomputed outcome invalid"),
        )


class TestSolveRelative:
    def good_instance(self):
        gen = s.generate_instances(s.InstanceRecipe(seed=11), 4)
        inst = next(g for g in gen if g.relative_valid is True)
        return inst

    def test_good_relative_is_proper(self):
        inst = self.good_instance()
        cert = s.solve_relative(inst.ep, inst.relative)
        assert cert.outcome == "proper"
        fresh = s.reverify_certificate(inst.ep, cert, inst.relative)
        assert fresh.outcome == "proper"

    def test_bad_relative_rejected(self):
        gen = s.generate_instances(s.InstanceRecipe(seed=3), 30)
        bad = [g for g in gen if g.relative_valid is False]
        assert bad
        for inst in bad:
            with pytest.raises(BetaNRestrictionNotSurjective):
                s.solve_relative(inst.ep, inst.relative)

    def test_not_reduced_outcome(self):
        # nu that keeps beta(N) = B but breaks a selected x-difference:
        # x-images under nu vary over positions with equal beta_bar pair
        c2 = s.cyclic_group(2)
        g = 64
        beta = s.make_surface_tuple(c2, [1] + [0] * (g - 1), [0] * g)
        ep = s.make_split_ep(c2, c2, s.trivial_action(c2, c2), beta)
        q = s.cyclic_group(2)
        # alternate nu x-values on the all-zero beta positions; y1 carries a
        # 1 so the fiber product still reaches all of B x Q
        nu_x = [0] + [i % 2 for i in range(1, g)]
        nu = s.make_surface_tuple(q, nu_x, [0] * g)
        spec = SubgroupSpec(q, nu, s.subgroup_closure(q, []))
        assert s.image_of_restriction(ep.beta_bar, spec).order == 2
        cert = s.solve_relative(ep, spec)
        assert cert.outcome == "not_reduced"
        assert cert.relative.offending_index is not None
        assert not cert.is_proper
        # phi stays in full: the genus and basis words are read from it
        assert cert.genus == g and len(cert.basis_x_words) == g
        fresh = s.reverify_certificate(ep, cert, spec)
        assert fresh.outcome == "not_reduced"
        checks = fresh.checks
        assert [c.name for c in checks] == [
            "eta_program", "beta_n_surjective", "offending_index",
        ]
        assert all(c.passed for c in checks)
        # x2 is the first position that leaves N; x3 stays in it, and x4
        # leaves it too but is not the first.  The claim's stop position is
        # not read: reverification finds x2 again
        assert cert.relative.offending_index == 2
        assert checks[-1] == CheckRecord("offending_index", True,
                                         "position 2 leaves N")
        for off in (3, 4):
            moved = replace(
                cert, relative=replace(cert.relative, offending_index=off)
            )
            fresh = s.reverify_certificate(ep, moved, spec)
            assert fresh.checks == checks and fresh.relative == cert.relative
        # a run that does not stop, claimed as not_reduced, fails the check
        stays = SubgroupSpec(q, nu, s.subgroup_closure(q, [1]))
        fresh = s.reverify_certificate(ep, cert, stays)
        assert fresh.outcome == "invalid" and fresh.relative is None
        assert fresh.checks[-1] == CheckRecord(
            "offending_index", False, "no position in 2..16 leaves N")
        fresh = s.reverify_certificate(ep, cert, None)
        assert fresh.checks[-1] == CheckRecord(
            "relative_present", False, "certificate needs a relative spec"
        )


def test_memberships_read_both_orientations(cat):
    # in S3 the two products x1^-1 x_i and x_i x1^-1 can fall on different
    # sides of an order-2 subgroup S
    s3 = cat["S3"]
    subgroup = s.subgroup_closure(s3, [next(a for a in s3.elements()
                                            if element_order(s3, a) == 2)])
    for a in s3.elements():
        for b in s3.elements():
            nu = s.make_surface_tuple(s3, [a, b], [s3.identity] * 2)
            words = ("x1^-1 x2", "x2 x1^-1")
            inside = all(
                s.evaluate_word(nu, s.parse_word(w)) in subgroup for w in words
            )
            first = _first_leaving(SubgroupSpec(s3, nu, subgroup), 2)
            assert first == (None if inside else 2)


class TestFreeProduct:
    def test_v4_free_product(self):
        c2 = s.cyclic_group(2)
        g = 64  # 2 * |K|^2 * |H|^3 with K = H = C2
        beta_surface = s.make_surface_tuple(c2, [0] * g, [0] * g)
        fp = s.solve_free_product(
            c2, c2, s.trivial_action(c2, c2), g, beta_surface, beta_g=[1]
        )
        assert fp.is_proper
        assert fp.ambient.order == 4
        # free generator goes to the section value (1_K, b)
        assert fp.g_images == (1,)
        assert all(c.passed for c in fp.checks)

    def test_surface_part_is_restricted(self):
        c2 = s.cyclic_group(2)
        g = 64
        beta_surface = s.make_surface_tuple(c2, [0] * g, [0] * g)
        fp = s.solve_free_product(
            c2, c2, s.trivial_action(c2, c2), g, beta_surface, beta_g=[1]
        )
        # surface images lie in K x| H0 with H0 trivial, i.e. the kernel copy
        ker = set(s.kernel(s.make_hom(
            fp.ambient, c2, [a % 2 for a in fp.ambient.elements()]
        )).members)
        assert set(fp.surface_x) | set(fp.surface_y) <= ker

    def test_beta_surface_into_another_group_is_named(self):
        c2, c3 = s.cyclic_group(2), s.cyclic_group(3)
        g = 64
        beta_surface = s.make_surface_tuple(c3, [0] * g, [0] * g)
        with pytest.raises(TargetMismatch, match="beta_surface must map into H"):
            s.solve_free_product(
                c2, c2, s.trivial_action(c2, c2), g, beta_surface, beta_g=[1]
            )

    def test_bound_enforced(self):
        c2 = s.cyclic_group(2)
        g = 63
        beta_surface = s.make_surface_tuple(c2, [0] * g, [0] * g)
        with pytest.raises(GenusTooSmall) as exc:
            s.solve_free_product(
                c2, c2, s.trivial_action(c2, c2), g, beta_surface, beta_g=[1]
            )
        assert exc.value.needed == 64


class TestPlanExtension:
    def test_known_plan(self):
        plan = s.plan_extension(2, 2, 2)
        assert (plan.m, plan.required_index, plan.h) == (16, 79, 80)

    def test_minimality(self):
        plan = s.plan_extension(2, 2, 2)
        smaller = s.open_subgroup_genus(2, plan.required_index - 1)
        assert smaller - plan.m < plan.bound
        assert plan.h - plan.m >= plan.bound

    def test_various_sizes(self):
        for genus in (2, 3, 5):
            for sk in (1, 2, 3):
                for sh in (1, 2, 3):
                    plan = s.plan_extension(genus, sk, sh)
                    assert plan.h == s.open_subgroup_genus(genus, plan.required_index)
                    assert plan.h - plan.m >= plan.bound
                    if plan.required_index > 1:
                        prev = s.open_subgroup_genus(genus, plan.required_index - 1)
                        assert prev - plan.m < plan.bound

    def test_genus_too_small(self):
        with pytest.raises(GenusTooSmall):
            s.plan_extension(1, 2, 2)


class TestGeneratedSuite:
    def test_small_batch_solves_and_reverifies(self):
        batch = s.generate_instances(s.InstanceRecipe(seed=42), 10)
        for inst in batch:
            assert isinstance(inst, GeneratedInstance)
            if inst.relative_valid is False:
                with pytest.raises(BetaNRestrictionNotSurjective):
                    s.solve_relative(inst.ep, inst.relative)
                continue
            if inst.relative is None:
                cert = s.solve_gamma_level(inst.ep)
                fresh = s.reverify_certificate(inst.ep, cert)
            else:
                cert = s.solve_relative(inst.ep, inst.relative)
                fresh = s.reverify_certificate(inst.ep, cert, inst.relative)
            assert cert.outcome == "proper"
            assert fresh.outcome == "proper"
