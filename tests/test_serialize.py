import hashlib
import json
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surfep as s
from surfep.embedding import SubgroupSpec
from surfep import serialize, solver
from surfep.oracle import InstanceRecipe, generate_instances
from surfep.surface import normalize_to_front
from surfep.serialize import (
    canonical_json,
    certificate_from_json,
    certificate_to_json,
    group_from_json,
    group_to_json,
    instance_hash,
    load_workspace,
    problem_from_json,
    workspace_to_json,
)


# JSON text that could mislead an outline read from quotes and braces
_NAMES = st.text(alphabet='ab{}[]":,\\ \n\u00e9\u2603', max_size=5)
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | _NAMES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_NAMES, inner, max_size=3),
    max_leaves=10,
)


# integer lists and rows of them, most of what surfep writes: empty, one
# item, negative and big ints, and a bool among the ints now and then
_INTS = st.integers() | st.integers(-3, 3)
_INT_LISTS = (
    st.lists(_INTS, max_size=6)
    | st.lists(_INTS | st.booleans(), max_size=6)
    | st.lists(st.lists(_INTS, max_size=4), max_size=4)
)
_DOCUMENTS = st.recursive(
    _VALUES | _INT_LISTS | st.floats(),
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_NAMES, inner, max_size=3)
    | st.dictionaries(st.integers(), inner, max_size=3),
    max_leaves=12,
)


class TestCanonicalJson:
    def test_sorted_keys_and_trailing_newline(self):
        text = canonical_json({"b": 1, "a": 2})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')

    def test_byte_identical_for_equal_content(self):
        assert canonical_json({"x": [1, 2]}) == canonical_json({"x": [1, 2]})

    @staticmethod
    def reference(doc):
        """doc as json.dumps(sort_keys=True, indent=2) writes a non-empty
        top-level object, with each member's value, and any other doc, as
        json.dumps writes it compact: each such value is dumped as a marker
        string, then replaced by its compact JSON (no name of _DOCUMENTS
        holds a NUL, so no marker is forged)."""
        compact = []

        def mark(value):
            compact.append(json.dumps(value, sort_keys=True, separators=(",", ":")))
            return f"\0{len(compact) - 1}\0"

        if isinstance(doc, dict) and doc:
            doc = {key: mark(value) for key, value in doc.items()}
        else:
            doc = mark(doc)
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        return re.sub(r'"\\u0000(\d+)\\u0000"', lambda m: compact[int(m[1])], text)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(doc=_DOCUMENTS)
    def test_writes_what_json_dumps_writes(self, doc):
        assert canonical_json(doc) == self.reference(doc)

    @pytest.mark.parametrize(
        "doc",
        [{None: 0}, {True: [1], False: [True, 1]}, {1.5: (), -2.0: {}},
         {float("nan"): 0.1}, [10**30, -1, 0], "\u2603\n", ()],
    )
    def test_non_string_keys_and_scalars_as_json_dumps(self, doc):
        assert canonical_json(doc) == self.reference(doc)

    def test_top_level_members_one_a_line_and_their_values_compact(self):
        doc = {"b": {"table": [[0, 1], [1, 0]], "rows": [{"y": 1, "x": []}]}, "a": {}}
        assert canonical_json(doc) == (
            '{\n  "a": {},\n  "b": {"rows":[{"x":[],"y":1}],"table":[[0,1],[1,0]]}\n}\n'
        )

    def test_unsupported_key_refused_as_json_dumps_refuses(self):
        with pytest.raises(TypeError):
            json.dumps({(1,): 0}, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            canonical_json({(1,): 0})

    def test_hash_is_stable(self):
        obj = {"genus": 2, "K": {"order": 1, "table": [[0]]}}
        assert instance_hash(obj) == instance_hash(json.loads(json.dumps(obj)))
        assert instance_hash(obj) != instance_hash({**obj, "genus": 3})

    def test_hash_is_over_compact_sorted_json(self):
        # the definition, pinned: SHA-256 of the encoding with sorted keys
        # and no whitespace, which RFC 8785 gives on such a document
        obj = {
            "genus": 1,
            "K": {"order": 2, "table": [[0, 1], [1, 0]]},
            "H": {"order": 1, "table": [[0]]},
            "action": [[0, 1]],
            "beta_bar": {"x": [0], "y": [0]},
        }
        text = (
            '{"H":{"order":1,"table":[[0]]},"K":{"order":2,"table":[[0,1],[1,0]]},'
            '"action":[[0,1]],"beta_bar":{"x":[0],"y":[0]},"genus":1}'
        )
        assert instance_hash(obj) == hashlib.sha256(text.encode()).hexdigest()
        assert instance_hash(obj) == (
            "ba84488c4728f50d87b8b7a746e3bb770d100702cfdcec3fcca0fedb04f598e2"
        )


class TestGroupJson:
    def test_roundtrip_table(self, cat):
        for name, grp in cat.items():
            again = group_from_json(group_to_json(grp))
            assert again.mul == grp.mul, name
            assert again.labels == grp.labels

    def test_flat_table(self):
        obj = {"order": 2, "table": [0, 1, 1, 0]}
        grp = group_from_json(obj)
        assert grp.order == 2 and grp.mul == ((0, 1), (1, 0))

    def test_permutations_form(self):
        obj = {"permutations": [[1, 0, 2], [1, 2, 0]]}
        grp = group_from_json(obj)
        assert grp.order == 6

    def test_exactly_one_form_required(self):
        with pytest.raises(ValueError):
            group_from_json({"order": 2})
        with pytest.raises(ValueError):
            group_from_json(
                {"table": [[0]], "permutations": [[0]]}
            )

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            group_from_json({"order": 3, "table": [[0, 1], [1, 0]]})

    @pytest.mark.parametrize(
        "obj,message",
        [({"order": 3, "table": [0, 1, 1, 0]},
          "group field K.table: flat table length must be order squared"),
         ({"order": 3, "table": [[0, 1], [1, 0]]},
          "group field K.order: declared order 3 but the group has order 2")],
        ids=["flat_table_length", "declared_order"],
    )
    def test_order_refusals_name_the_field(self, obj, message):
        with pytest.raises(ValueError) as exc:
            group_from_json(obj, "K")
        assert str(exc.value) == message


class TestTupleAndProblemJson:
    def test_tuple_from_json_named_group(self, cat):
        # beta_bar read against a group named in the workspace
        obj = {**self.problem_obj(), "H": "C2"}
        ep, _, _ = problem_from_json(obj, {"C2": cat["C2"]})
        assert ep.B is cat["C2"] and ep.beta_bar.ximg[:2] == (1, 0)

    def test_tuple_genus_mismatch(self):
        # a declared genus that differs from the length of the image lists
        # is refused by the field's name
        with pytest.raises(ValueError) as exc:
            problem_from_json({**self.problem_obj(), "genus": 3}, {})
        assert str(exc.value) == (
            "problem field genus: genus mismatch: expected 3, got 64"
        )

    def problem_obj(self, genus=64):
        return {
            "K": {"order": 2, "table": [[0, 1], [1, 0]]},
            "H": {"order": 2, "table": [[0, 1], [1, 0]]},
            "action": [[0, 1], [0, 1]],
            "beta_bar": {"x": [1] + [0] * (genus - 1), "y": [0] * genus},
        }

    def test_problem_from_json(self):
        ep, relative, _ = problem_from_json(self.problem_obj(), {})
        assert ep.A.order == 4 and ep.genus == 64
        assert relative is None

    def test_problem_with_relative(self):
        obj = self.problem_obj()
        obj["relative"] = {
            "Q": {"order": 2, "table": [[0, 1], [1, 0]]},
            "nu": {"x": [0] * 64, "y": [1] + [0] * 63},
            "S": [0],
        }
        ep, relative, _ = problem_from_json(obj, {})
        assert relative is not None and relative.Q.order == 2
        assert relative.S.members == (0,)

    def test_resolved_hash_independent_of_group_naming(self, cat):
        obj_named = dict(self.problem_obj())
        obj_named["K"] = "C2"
        groups = {"C2": cat["C2"]}
        h1 = instance_hash(problem_from_json(obj_named, groups)[2])
        h2 = instance_hash(problem_from_json(self.problem_obj(), {})[2])
        assert h1 == h2

    def test_genus_spellings_hash_alike(self, tmp_path):
        # "genus": null, the genus itself and no genus field pose one problem
        problems = {
            "null": {**self.problem_obj(), "genus": None},
            "given": {**self.problem_obj(), "genus": 64},
            "omitted": self.problem_obj(),
        }
        path = tmp_path / "ws.json"
        path.write_text(json.dumps({"problems": problems}))
        ws = load_workspace(str(path))
        assert len({ws.problem_hash(name) for name in problems}) == 1


MISSING = object()  # a field deleted instead of replaced


def not_reduced_certificate():
    """The stopped relative run of tests/test_solver.py: nu alternates on
    the x generators, so a selected x-difference leaves N."""
    c2 = s.cyclic_group(2)
    g = 64
    beta = s.make_surface_tuple(c2, [1] + [0] * (g - 1), [0] * g)
    ep = s.make_split_ep(c2, c2, s.trivial_action(c2, c2), beta)
    nu = s.make_surface_tuple(c2, [0] + [i % 2 for i in range(1, g)], [0] * g)
    return s.solve_relative(ep, SubgroupSpec(c2, nu, s.subgroup_closure(c2, [])))


def written(cert):
    return canonical_json(certificate_to_json(cert, "p", "h"))


class TestCertificateJson:
    def test_roundtrip(self, v4_instance):
        cert = s.solve_gamma_level(v4_instance)
        again = certificate_from_json(json.loads(written(cert)))
        assert written(again) == written(cert)
        # the flags follow from outcome; phi is not read, and of the move
        # program only the pair is
        for name in ("is_solution", "is_proper"):
            assert getattr(again, name) == getattr(cert, name), name
        assert again.phi_x == again.phi_y == ()
        assert again.eta.pair == cert.eta.pair
        # reverification derives phi in full, and with it the genus, and
        # the rest of the program
        fresh = s.reverify_certificate(v4_instance, again)
        for name in ("genus", "phi_x", "phi_y", "eta"):
            assert getattr(fresh, name) == getattr(cert, name), name

    def test_relative_roundtrip(self):
        inst = next(
            g
            for g in generate_instances(InstanceRecipe(seed=11), 4)
            if g.relative_valid is True
        )
        cert = s.solve_relative(inst.ep, inst.relative)
        assert cert.outcome == "proper"
        obj = json.loads(written(cert))
        # a proper certificate records no relative evidence: verify
        # recomputes every relative check from the problem
        assert "relative" not in obj
        assert written(certificate_from_json(obj)) == written(cert)

    def test_not_reduced_roundtrip(self):
        cert = not_reduced_certificate()
        assert cert.outcome == "not_reduced"
        obj = json.loads(written(cert))
        # every outcome writes the same five fields: the stop position is
        # found again by reverification
        assert set(obj) == {"format", "problem", "instance_hash", "outcome", "pair"}
        again = certificate_from_json(obj)
        assert written(again) == written(cert)
        assert again.relative is None and again.eta.pair == cert.eta.pair
        assert not (again.is_proper or again.is_solution)
        ep, spec = not_reduced_problem()
        fresh = s.reverify_certificate(ep, again, spec)
        assert fresh.relative == cert.relative and fresh.eta == cert.eta

    def test_format_guard(self):
        with pytest.raises(ValueError):
            certificate_from_json({"format": "something-else"})

    def test_no_basis_words_written(self, v4_instance):
        cert = s.solve_gamma_level(v4_instance)
        obj = certificate_to_json(cert, "p", "hash")
        assert obj["format"] == "surfep-certificate-v7"
        assert "basis" not in obj and "selected" not in obj
        # the words stay available, derived from genus and the positions the
        # replay of the pair moves
        again = s.reverify_certificate(
            v4_instance, certificate_from_json(json.loads(canonical_json(obj)))
        )
        assert again.basis_x_words == cert.basis_x_words
        assert len(again.basis_y_words) == cert.genus

    @pytest.mark.parametrize(
        "path,value",
        [
            (("genus",), True),
            (("is_proper",), 1),
            (("outcome",), None),
            (("problem",), ["p"]),
            (("n",), 1.0),
            (("pair",), "1"),
            (("kgens",), 3),
            (("pair", 0), False),
            (("checks",), "yes"),
            (("witnesses",), 7),
            (("is_solution",), 2.5),
            (("eta",), 0),
            (("phi",), []),
            (("outcome",), MISSING),
            (("problem",), MISSING),
            (("pair",), MISSING),
            (("instance_hash",), MISSING),
            (("pair", 1), None),
            (("pair",), [0]),
            (("s",), 1),
        ],
    )
    def test_field_types_checked(self, v4_instance, path, value):
        # genus, is_proper, is_solution, checks and witnesses are v2 fields,
        # s a v4 one, phi a v5 one and eta, n and kgens v6 ones: written
        # into a v7 certificate they are refused by name
        obj = json.loads(canonical_json(
            certificate_to_json(s.solve_gamma_level(v4_instance), "p", "h")
        ))
        target = obj
        for key in path[:-1]:
            target = target[key]
        if value is MISSING:
            del target[path[-1]]
            match = f"certificate field {'.'.join(path)} is missing"
        else:
            target[path[-1]] = value
            match = "certificate field " + path[0]
        with pytest.raises(ValueError, match=match):
            certificate_from_json(obj)

    def test_relative_field_types_checked(self):
        # a relative block (v6 wrote offending_index in one) is refused by
        # name whatever it holds
        obj = json.loads(written(not_reduced_certificate()))
        for key, value in (
            ("memberships", [[2, False, False]]),
            ("offending_index", "2"),
            ("offending_index", True),
            ("offending_index", 2),
            ("s_members", [0.0]),
        ):
            bad = {**obj, "relative": {key: value}}
            with pytest.raises(ValueError, match="certificate field relative"):
                certificate_from_json(bad)


def not_reduced_problem():
    """The problem of not_reduced_certificate, with its relative."""
    c2 = s.cyclic_group(2)
    g = 64
    beta = s.make_surface_tuple(c2, [1] + [0] * (g - 1), [0] * g)
    ep = s.make_split_ep(c2, c2, s.trivial_action(c2, c2), beta)
    nu = s.make_surface_tuple(c2, [0] + [i % 2 for i in range(1, g)], [0] * g)
    return ep, SubgroupSpec(c2, nu, s.subgroup_closure(c2, []))


class TestSolveEndsInVerify:
    """solve returns a certificate only once verify's checks pass on it:
    its checks are the ones reverify_certificate gives the certificate read
    back from its JSON, and the problem is replayed once per solve."""

    def reverified(self, ep, cert, relative=None):
        again = certificate_from_json(json.loads(written(cert)))
        return s.reverify_certificate(ep, again, relative)

    def test_gamma_level(self, v4_instance):
        cert = s.solve_gamma_level(v4_instance)
        assert cert.checks == self.reverified(v4_instance, cert).checks
        assert [cert.checks[0].name, cert.checks[-1].name] == [
            "eta_program", "outcome_matches"]

    def test_relative(self):
        inst = next(
            g
            for g in generate_instances(InstanceRecipe(seed=11), 4)
            if g.relative_valid is True
        )
        cert = s.solve_relative(inst.ep, inst.relative)
        assert cert.outcome == "proper"
        fresh = self.reverified(inst.ep, cert, inst.relative)
        assert cert.checks == fresh.checks
        assert "relative_image_full" in [c.name for c in cert.checks]

    def test_not_reduced(self):
        ep, spec = not_reduced_problem()
        cert = s.solve_relative(ep, spec)
        assert cert.outcome == "not_reduced"
        fresh = self.reverified(ep, cert, spec)
        assert cert.checks == fresh.checks
        assert [c.name for c in cert.checks] == [
            "eta_program", "beta_n_surjective", "offending_index"]
        # phi in full, gamma o beta_bar_n, on the parsed certificate too
        assert fresh.genus == ep.genus
        assert (fresh.phi_x, fresh.phi_y) == (cert.phi_x, cert.phi_y)

    def test_solve_refuses_what_verify_refuses(self, monkeypatch, v4_instance):
        # a pair listing that offers the pair (1, 0), which occurs fewer
        # than m times: verify fails its eta_program
        monkeypatch.setattr(solver, "repeated_pairs", lambda pairs, m: [(1, 0)])
        with pytest.raises(AssertionError, match="eta_program"):
            s.solve_gamma_level(v4_instance)

    @pytest.mark.parametrize("stops", [False, True], ids=["proper", "not_reduced"])
    def test_one_replay_per_solve(self, monkeypatch, stops):
        ep, spec = not_reduced_problem()
        if not stops:
            spec = SubgroupSpec(spec.Q, spec.nu, s.subgroup_closure(spec.Q, [1]))
        calls = {"replay": [], "listing": 0, "search": 0, "scan": 0}

        def counted(state, selected):
            calls["replay"].append(len(state.channels))
            return normalize_to_front(state, selected)

        def tally(name, real):
            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        monkeypatch.setattr(solver, "normalize_to_front", counted)
        for name, attr in (("listing", "pair_positions"),
                           ("search", "repeated_pairs"),
                           ("scan", "_first_leaving")):
            monkeypatch.setattr(solver, attr, tally(name, getattr(solver, attr)))
        cert = s.solve_relative(ep, spec)
        assert cert.outcome == ("not_reduced" if stops else "proper")
        # one replay, of beta_bar and nu together, one listing of the
        # moved pair's positions, one pair search and one scan for N
        assert calls == {"replay": [2], "listing": 1, "search": 1, "scan": 1}

        # verify replays and lists the recorded program but searches nothing;
        # a proper certificate is not scanned: its claim in N is phi(N) = A,
        # which verify_solution's relative_image_full checks
        calls.update(replay=[], listing=0, search=0, scan=0)
        again = certificate_from_json(json.loads(written(cert)))
        assert s.reverify_certificate(ep, again, spec).checks == cert.checks
        assert calls == {"replay": [2], "listing": 1, "search": 0,
                         "scan": int(stops)}


class TestWorkspace:
    def test_generated_workspace_roundtrips(self, tmp_path):
        instances = generate_instances(InstanceRecipe(seed=6), 4)
        doc = workspace_to_json(instances)
        path = tmp_path / "ws.json"
        path.write_text(canonical_json(doc))
        ws = load_workspace(str(path))
        assert set(ws.problems) == {f"ep{i:03d}" for i in range(4)}
        for inst in instances:
            ep, relative = ws.build_problem(inst.name)
            assert ep.genus == inst.ep.genus
            assert ep.beta_bar.ximg == inst.ep.beta_bar.ximg
            assert ep.A.order == inst.ep.A.order
            # the rebuilt action reproduces the same multiplication table
            assert ep.A.mul == inst.ep.A.mul
            assert (relative is None) == (inst.relative is None)

    def test_problem_hash_stable_across_loads(self, tmp_path):
        doc = workspace_to_json(generate_instances(InstanceRecipe(seed=6), 2))
        path = tmp_path / "ws.json"
        path.write_text(canonical_json(doc))
        h1 = load_workspace(str(path)).problem_hash("ep000")
        h2 = load_workspace(str(path)).problem_hash("ep000")
        assert h1 == h2

    def test_inline_groups_validated_once_per_workspace(self, tmp_path, monkeypatch):
        inst = next(
            g for g in generate_instances(InstanceRecipe(seed=11), 4)
            if g.relative is not None
        )
        path = tmp_path / "ws.json"
        path.write_text(canonical_json(workspace_to_json([inst])))
        built = []
        real = serialize.group_from_json
        monkeypatch.setattr(
            serialize, "group_from_json",
            lambda obj, *path: built.append(obj) or real(obj, *path),
        )
        for _ in range(2):
            ws = load_workspace(str(path))
            for _ in range(2):
                ws.build_problem(inst.name)
                ws.problem_hash(inst.name)
        # K, H and Q once per load: the memo lives on the workspace only
        assert len(built) == 6

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        problems=st.dictionaries(_NAMES, _VALUES, max_size=4),
        others=st.dictionaries(_NAMES.filter(lambda k: k != "groups"), _VALUES,
                               max_size=3),
        problems_first=st.booleans(),
        layout=st.sampled_from([
            {"indent": 2}, {"indent": 0}, {"separators": (",", ":")}, {},
            {"indent": 2, "ensure_ascii": False},
        ]),
    )
    def test_problems_read_as_json_loads_reads_them(
        self, problems, others, problems_first, layout
    ):
        # names and values full of quotes, braces, escapes and non-ASCII,
        # laid out compact or indented, before or after other top-level keys
        doc = {**others, "problems": problems}
        if problems_first:
            doc = {"problems": problems, **others}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "ws.json")
            path.write_text(json.dumps(doc, **layout), encoding="utf-8")
            ws = load_workspace(str(path))
            assert list(ws.problems) == list(doc["problems"])
            assert {k: ws.problems[k] for k in ws.problems} == doc["problems"]

    @pytest.mark.parametrize(
        "text,names",
        [('{"problems": {"a": 1, "b": 2, "a": 3}}', {"a": 3, "b": 2}),
         ('{"problems": {"a": 1}, "problems": {"b": {"c": 2}}}', {"b": {"c": 2}}),
         ('{"problems": 5, "problems": {"b": 2}}', {"b": 2}),
         ('{"x": [{"a": 1}], "problems": {"p\\u0041": [{"q": 1}]}}',
          {"pA": [{"q": 1}]}),
         (' \n{"problems": {}}\n ', {})],
        ids=["repeated_problem", "repeated_problems", "problems_not_object_first",
             "nested_and_escaped", "blank_around"],
    )
    def test_outline_keeps_what_json_loads_keeps(self, tmp_path, text, names):
        assert json.loads(text)["problems"] == names
        path = tmp_path / "ws.json"
        path.write_text(text)
        ws = load_workspace(str(path))
        assert dict(ws.problems.items()) == names

    def test_unknown_names_rejected(self, tmp_path):
        path = tmp_path / "ws.json"
        path.write_text(canonical_json({"problems": {}}))
        ws = load_workspace(str(path))
        with pytest.raises(ValueError):
            ws.build_problem("nope")


# --- problem_hash hashes a problem's text as read when it is the encoding ----

def compact_sha256(resolved: dict) -> str:
    """The instance hash by its definition: SHA-256 of the compact sorted
    encoding of the resolved problem."""
    return hashlib.sha256(serialize._COMPACT_JSON(resolved).encode()).hexdigest()


def reversed_keys(obj):
    """obj with every object's members in reverse order."""
    if isinstance(obj, dict):
        return {k: reversed_keys(obj[k]) for k in reversed(list(obj))}
    if isinstance(obj, list):
        return [reversed_keys(v) for v in obj]
    return obj


def _compact(obj, **kw) -> str:
    return json.dumps(obj, separators=(",", ":"), **kw)


# how the problem's own text is written; the canonical layout is what
# canonical_json writes for a member value
_PROBLEM_LAYOUTS = {
    "canonical": lambda obj: _compact(obj, sort_keys=True),
    "indent_2": lambda obj: json.dumps(obj, indent=2, sort_keys=True),
    "one_line_spaced": lambda obj: json.dumps(obj, sort_keys=True),
    "keys_reversed": lambda obj: _compact(reversed_keys(obj)),
    "keys_as_built": _compact,
    "raw_non_ascii": lambda obj: _compact(obj, sort_keys=True, ensure_ascii=False),
}


def _labelled(label):
    """An edit giving K labels, the last of them label."""
    def edit(obj, groups):
        order = obj["K"]["order"]
        obj["K"]["labels"] = [f"k{i}" for i in range(order - 1)] + [label]
    return edit


def _flat_table(obj, groups):
    obj["K"]["table"] = [cell for row in obj["K"]["table"] for cell in row]


def _named_group(obj, groups):
    groups["G"] = obj["K"]
    obj["K"] = "G"


# edits of the problem object, with the groups it may name
_OBJECT_EDITS = {
    "plain_labels": _labelled("k_last"),
    "label_with_space": _labelled("a b"),
    "label_with_quote": _labelled('a"b'),
    "label_non_ascii": _labelled("é"),
    "label_with_del": _labelled("a\x7fb"),
    "flat_table": _flat_table,
    "named_group": _named_group,
    "relative_valid": lambda obj, groups: obj.update(relative_valid=True),
    "genus_null": lambda obj, groups: obj.update(genus=None),
    "genus_omitted": lambda obj, groups: obj.pop("genus"),
}


def _repeat_first_key(text: str) -> str:
    """The problem text with its first member name repeated before it,
    holding 0: the later value wins and the names keep their order."""
    name = re.match(r'\{\s*("[^"\\]*(?:\\.[^"\\]*)*")', text).group(1)
    return "{" + name + ":0," + text[1:]


def _minus_zero(text: str) -> str:
    """The problem text with the first table cell 0 written -0."""
    at = text.index('"table":')
    cell = re.compile(r"(?<=[\[,\s])0(?=[,\]\s])")
    return text[:at] + cell.sub("-0", text[at:], count=1)


def _escaped_name(text: str) -> str:
    """The problem text with the first "order" written with an escape the
    encoder does not write, "\\u006frder"."""
    return text.replace('"order"', '"\\u006frder"', 1)


_TEXT_EDITS = {"repeated_key": _repeat_first_key, "minus_zero": _minus_zero,
               "escaped_name": _escaped_name}


def _base_problems() -> tuple[str, ...]:
    """Generated problems as JSON, relative ones among them, and a small
    relative one written out."""
    instances = generate_instances(InstanceRecipe(seed=6), 4)
    c2 = {"order": 2, "table": [[0, 1], [1, 0]]}
    small = {"genus": 2, "K": c2, "H": c2, "action": [[0, 1], [0, 1]],
             "beta_bar": {"x": [1, 0], "y": [0, 0]},
             "relative": {"Q": c2, "nu": {"x": [0, 0], "y": [1, 0]}, "S": [0]}}
    return (*(json.dumps(serialize.problem_to_json(i.ep, i.relative))
              for i in instances), json.dumps(small))


_BASE_PROBLEMS = _base_problems()


class TestHashAsRead:
    """problem_hash gives the SHA-256 of the compact sorted encoding,
    whether it hashes the problem's text as read or encodes the problem."""

    def check(self, base, layout, object_edits=(), text_edit=None,
              neighbour=None, canonical_file=True):
        """Write problem base, edited, as problem "p" of a workspace in
        layout, beside a problem "n" holding neighbour, and compare its
        problem_hash with the defined one."""
        obj, named = json.loads(base), {}
        # K is named last, so that the other edits find it inline
        for edit in sorted(object_edits, key=lambda edit: edit == "named_group"):
            _OBJECT_EDITS[edit](obj, named)
        groups = {name: group_from_json(g) for name, g in named.items()}
        resolved = problem_from_json(json.loads(json.dumps(obj)), groups)[2]
        text = _PROBLEM_LAYOUTS[layout](obj)
        if text_edit is not None:
            text = _TEXT_EDITS[text_edit](text)
        # the problem's text goes in where the placeholder is written
        doc = {"groups": named, "problems": {"n": neighbour, "p": 987654321}}
        if canonical_file:
            shell = canonical_json(doc)
        else:
            shell = json.dumps(doc, indent=2, ensure_ascii=False)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "ws.json")
            path.write_text(shell.replace("987654321", text, 1), encoding="utf-8")
            ws = load_workspace(str(path))
            assert ws.problem_hash("p") == compact_sha256(resolved)

    @pytest.mark.parametrize("layout", sorted(_PROBLEM_LAYOUTS))
    @pytest.mark.parametrize(
        "edit", [None, *sorted(_OBJECT_EDITS), *sorted(_TEXT_EDITS)]
    )
    def test_each_edit_alone(self, layout, edit):
        for base in _BASE_PROBLEMS:
            if edit in _TEXT_EDITS:
                self.check(base, layout, text_edit=edit)
            else:
                self.check(base, layout, () if edit is None else (edit,))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        base=st.sampled_from(_BASE_PROBLEMS),
        layout=st.sampled_from(sorted(_PROBLEM_LAYOUTS)),
        object_edits=st.lists(st.sampled_from(sorted(_OBJECT_EDITS)),
                              max_size=3, unique=True),
        text_edit=st.sampled_from([None, *sorted(_TEXT_EDITS)]),
        neighbour=st.sampled_from([None, 1, "é"]),
        canonical_file=st.booleans(),
    )
    def test_edits_together(self, base, layout, object_edits, text_edit,
                            neighbour, canonical_file):
        self.check(base, layout, object_edits, text_edit, neighbour,
                   canonical_file)

    def count_encodings(self, monkeypatch, problem: dict) -> tuple[int, str, str]:
        """How often problem_hash calls the encoder on problem, written to
        a canonical workspace, with the hash it gives and the defined one."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "ws.json")
            path.write_text(canonical_json({"problems": {"p": problem}}))
            ws = load_workspace(str(path))
            resolved = problem_from_json(problem, {})[2]
            calls = []
            real = serialize._COMPACT_JSON
            monkeypatch.setattr(serialize, "_COMPACT_JSON",
                                lambda obj: calls.append(obj) or real(obj))
            digest = ws.problem_hash("p")
            monkeypatch.setattr(serialize, "_COMPACT_JSON", real)
        return len(calls), digest, compact_sha256(resolved)

    def test_canonical_relative_problem_is_not_encoded(self, monkeypatch):
        # C2 x C2 at genus 64 against Q = C128, as the relative_wide workload
        # has them: the Q table is nearly all of the problem's text
        g = 64
        c2 = group_to_json(s.cyclic_group(2))
        ys = [(7 * i) % 128 for i in range(g)]
        problem = {"genus": g, "K": c2, "H": c2, "action": [[0, 1], [0, 1]],
                   "beta_bar": {"x": [1] + [0] * (g - 1), "y": [0] * g},
                   "relative": {"Q": group_to_json(s.cyclic_group(128)),
                                "nu": {"x": [0] * g, "y": ys}, "S": [0]}}
        calls, digest, expected = self.count_encodings(monkeypatch, problem)
        assert (calls, digest) == (0, expected)

    def test_canonical_ladder_problem_is_not_encoded(self, monkeypatch):
        # V4 x| C3 at genus 2|A|^2|B| = 864, as the ladder's a4 rung
        g = 864
        rotations = [[0, *(1 + (i + k) % 3 for i in range(3))] for k in range(3)]
        problem = {"genus": g, "K": group_to_json(s.klein_four_group()),
                   "H": group_to_json(s.cyclic_group(3)), "action": rotations,
                   "beta_bar": {"x": [1] + [i % 3 for i in range(1, g)],
                                "y": [(i * i) % 3 for i in range(g)]}}
        calls, digest, expected = self.count_encodings(monkeypatch, problem)
        assert (calls, digest) == (0, expected)


# --- serialize._outline against a token loop over every depth ----------------

_BLANK = re.compile(r"[ \t\n\r]*")
_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"', re.DOTALL)


def reference_outline(text: str, start: int) -> tuple[dict[str, int], dict[str, int]]:
    """What serialize._outline must return or raise, read one quote or
    brace at a time at every depth."""
    top: dict[str, int] = {}
    problems: dict[str, int] = {}
    n = len(text)

    def following(char: str, i: int) -> int:
        """Offset of the next char from offset i on; n if there is none."""
        j = text.find(char, i)
        return n if j < 0 else j

    quote, opening, closing = (following(char, start) for char in '"{}')
    depth, in_problems = 0, False
    while True:
        if quote < opening and quote < closing:
            end = text.find('"', quote + 1) + 1
            if end == 0 or text[end - 2] == "\\":  # open, or an escape to read
                string = _STRING.match(text, quote)
                if string is None:
                    raise json.JSONDecodeError(
                        "Unterminated string starting at", text, quote
                    )
                end = string.end()
            if depth <= 2:
                colon = _BLANK.match(text, end).end()
                if text.startswith(":", colon):  # a member name
                    name = json.decoder.scanstring(text, quote + 1)[0]
                    value = _BLANK.match(text, colon + 1).end()
                    if depth == 1:
                        top[name] = value
                        in_problems = name == "problems"
                        if in_problems:
                            problems = {}
                    elif in_problems:
                        problems[name] = value
            # braces inside the string are not structure
            quote = following('"', end)
            if opening < end:
                opening = following("{", end)
            if closing < end:
                closing = following("}", end)
        elif opening < closing:
            depth += 1
            opening = following("{", opening + 1)
        elif closing < n:
            depth -= 1
            if depth == 0:
                break
            closing = following("}", closing + 1)
        else:
            raise json.JSONDecodeError("Expecting '}' to close the object", text, n)
    after = _BLANK.match(text, closing + 1).end()
    if after != n:
        raise json.JSONDecodeError("Extra data", text, after)
    return top, problems


def outlined(outline, text: str):
    """outline's result on text, or its error's message, line, column and
    offset."""
    try:
        return outline(text, _BLANK.match(text).end())
    except json.JSONDecodeError as exc:
        return exc.msg, exc.lineno, exc.colno, exc.pos


# one-character edits: (offset, character to insert, or None to delete)
_EDITS = st.lists(
    st.tuples(st.integers(0, 2**16), st.sampled_from('{}"\\: ,aé') | st.none()),
    max_size=3,
)


def edited(text: str, edits) -> str:
    for offset, char in edits:
        if char is not None:
            i = offset % (len(text) + 1)
            text = text[:i] + char + text[i:]
        elif text:
            i = offset % len(text)
            text = text[:i] + text[i + 1:]
    return text


class TestOutlineMatchesReference:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        problems=st.dictionaries(_NAMES, _VALUES | st.dictionaries(_NAMES, _VALUES),
                                 max_size=4),
        others=st.dictionaries(_NAMES, _VALUES, max_size=2),
        layout=st.sampled_from([
            {"indent": 2}, {"separators": (",", ":")}, {},
            {"indent": 2, "ensure_ascii": False},
            {"separators": (",", ":"), "ensure_ascii": False},
        ]),
        edits=_EDITS,
    )
    def test_same_result_or_same_error(self, problems, others, layout, edits):
        # names and values full of quotes, braces, backslashes and non-ASCII,
        # then up to three characters inserted or deleted anywhere
        text = edited(json.dumps({**others, "problems": problems}, **layout), edits)
        assert outlined(serialize._outline, text) == outlined(reference_outline, text)

    @pytest.mark.parametrize(
        "text,seen",
        [('{"problems": {"a": {"b": 1 \\ , "c": "{"}, "d": {"e": "x"}}}', ["a", "d"]),
         ('{"problems": {"a": {"b": [\\"x"], "c": "}"}, "d": 2}}', ["a", "d"]),
         ('{"problems": {"a": {"b": {"c": "}{"}}, "d": {"e": "{"}}}', ["a", "d"]),
         ('{"problems": {"a": {"b": {"c": {"d": "}"}}}, "e": 1}}', ["a", "e"]),
         ('{"problems": {"a": {"b": "x\\"}", "c": 1}, "d": 2}}', ["a", "d"]),
         ('{"problems": {"a": {"b": "\\\\"}, "c": "x\\\\\\"{"}}', ["a", "c"]),
         ('{"problems": {"a": {}, "b": {"c": "open}}}',
          "Unterminated string starting at"),
         ('{"problems": {"a": {}, "b": {"c": "open\\"}}}',
          "Unterminated string starting at")],
        ids=["backslash_outside_strings", "backslash_before_quote",
             "brace_in_string_depth_4", "brace_in_string_depth_5",
             "escaped_quote_before_brace", "escaped_backslashes",
             "open_string_last_problem", "escaped_open_string_last_problem"],
    )
    def test_rows(self, text, seen):
        # seen: the problem names outlined, or the start of the error
        expected = outlined(reference_outline, text)
        assert outlined(serialize._outline, text) == expected
        if isinstance(seen, list):
            assert list(expected[1]) == seen
        else:
            assert expected[0] == seen
