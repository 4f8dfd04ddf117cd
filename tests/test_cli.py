import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surfep
from surfep import cli, embedding, serialize, solver, surface
from surfep.cli import main
from surfep.errors import HypothesisViolated
from surfep.serialize import canonical_json, certificate_from_json, load_workspace

from conftest import element_order


def v4_workspace(tmp_path, name="ws.json"):
    """Workspace with one solvable V4 problem and a good relative spec."""
    g = 64
    c2 = {"order": 2, "table": [[0, 1], [1, 0]]}
    doc = {
        "problems": {
            "v4": {
                "genus": g,
                "K": c2,
                "H": c2,
                "action": [[0, 1], [0, 1]],
                "beta_bar": {"x": [1] + [0] * (g - 1), "y": [0] * g},
                "relative": {
                    "Q": c2,
                    "nu": {"x": [0] * g, "y": [1] + [0] * (g - 1)},
                    "S": [0],
                },
            },
            "v4_plain": {
                "genus": g,
                "K": c2,
                "H": c2,
                "action": [[0, 1], [0, 1]],
                "beta_bar": {"x": [1] + [0] * (g - 1), "y": [0] * g},
            },
            "too_small": {
                "genus": 63,
                "K": c2,
                "H": c2,
                "action": [[0, 1], [0, 1]],
                "beta_bar": {"x": [1] + [0] * 62, "y": [0] * 63},
            },
        }
    }
    path = tmp_path / name
    path.write_text(canonical_json(doc))
    return str(path)


def not_reduced_workspace(tmp_path):
    """Workspace with one problem "p" whose relative run stops (exit 3)."""
    # relative whose nu varies on the selected x positions: beta(N) = B
    # but the membership scan stops the pipeline
    g = 64
    c2 = {"order": 2, "table": [[0, 1], [1, 0]]}
    doc = {
        "problems": {
            "p": {
                "genus": g,
                "K": c2,
                "H": c2,
                "action": [[0, 1], [0, 1]],
                "beta_bar": {"x": [1] + [0] * (g - 1), "y": [0] * g},
                "relative": {
                    "Q": c2,
                    "nu": {
                        "x": [0] + [i % 2 for i in range(1, g)],
                        "y": [0] * g,
                    },
                    "S": [0],
                },
            }
        }
    }
    ws = str(tmp_path / "nr.json")
    open(ws, "w").write(canonical_json(doc))
    return ws


class TestSolveVerify:
    def test_solve_writes_proper_certificate(self, tmp_path, capsys):
        ws = v4_workspace(tmp_path)
        out = str(tmp_path / "cert.json")
        assert main(["solve", ws, "v4_plain", "--out", out]) == 0
        cert = json.loads(open(out).read())
        assert cert["outcome"] == "proper"
        assert cert["format"] == "surfep-certificate-v7"
        assert len(cert["instance_hash"]) == 64
        # the program moves the first m = 16 occurrences of beta_bar's (0, 0);
        # with n, m and kgens, which follow from the problem, the pair
        # determines phi, and none of them is written
        assert cert["pair"] == [0, 0]
        assert set(cert) == {"format", "problem", "instance_hash", "outcome", "pair"}

    def test_solve_stdout_is_canonical(self, tmp_path, capsys):
        ws = v4_workspace(tmp_path)
        assert main(["solve", ws, "v4_plain"]) == 0
        text = capsys.readouterr().out
        obj = json.loads(text)
        assert text == canonical_json(obj)

    def test_verify_accepts_solved_certificate(self, tmp_path, capsys):
        ws = v4_workspace(tmp_path)
        out = str(tmp_path / "cert.json")
        main(["solve", ws, "v4_plain", "--out", out])
        assert main(["verify", out, ws]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert all("FAIL" not in line for line in lines)
        assert any(line.startswith("surface_relation") for line in lines)

    def test_relative_solve_and_verify(self, tmp_path, capsys):
        ws = v4_workspace(tmp_path)
        out = str(tmp_path / "cert.json")
        assert main(["solve", ws, "v4", "--out", out]) == 0
        cert = json.loads(open(out).read())
        # the relative checks are recomputed from the problem's own relative
        assert "relative" not in cert
        capsys.readouterr()
        assert main(["verify", out, ws]) == 0
        lines = capsys.readouterr().out
        for check in ("beta_n_surjective", "relative_image_full"):
            assert re.search(rf"^{check} +pass", lines, re.M)

    def test_verify_rejects_tampered_certificate(self, tmp_path, capsys):
        ws = v4_workspace(tmp_path)
        out = str(tmp_path / "cert.json")
        main(["solve", ws, "v4_plain", "--out", out])
        cert = json.loads(open(out).read())
        # a pair that beta_bar's pairs never take
        cert["pair"] = [0, 1]
        open(out, "w").write(canonical_json(cert))
        assert main(["verify", out, ws]) == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_verify_rejects_hash_mismatch(self, tmp_path, capsys):
        ws = v4_workspace(tmp_path)
        out = str(tmp_path / "cert.json")
        main(["solve", ws, "v4_plain", "--out", out])
        cert = json.loads(open(out).read())
        cert["instance_hash"] = "0" * 64
        open(out, "w").write(canonical_json(cert))
        capsys.readouterr()
        assert main(["verify", out, ws]) == 1
        assert capsys.readouterr().err == (
            "error: instance_hash: certificate field instance_hash is not the "
            "hash of problem 'v4_plain'\n"
        )

    def test_bound_failure_exit_code(self, tmp_path, capsys):
        ws = v4_workspace(tmp_path)
        assert main(["solve", ws, "too_small"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_problem(self, tmp_path, capsys):
        ws = v4_workspace(tmp_path)
        assert main(["solve", ws, "nope"]) == 1

    def test_not_reduced_exit_code(self, tmp_path, capsys):
        ws = not_reduced_workspace(tmp_path)
        out = str(tmp_path / "cert.json")
        assert main(["solve", ws, "p", "--out", out]) == 3
        cert = json.loads(open(out).read())
        assert cert["outcome"] == "not_reduced"
        # the stop position is not written: verify finds it again
        assert "relative" not in cert
        capsys.readouterr()
        # a stopped run still verifies as internally consistent
        assert main(["verify", out, ws]) == 0
        assert re.search(r"^offending_index +pass  position 2 leaves N$",
                         capsys.readouterr().out, re.M)


class TestVerifyOutOfRangePhi:
    """phi is derived from the pair: a pair value out of range fails a named
    check, and one that is not an integer is named at parse."""

    @pytest.mark.parametrize("entry", [99, -1])
    def test_named_check_and_no_traceback(self, tmp_path, capsys, entry):
        ws = str(tmp_path / "gen.json")
        out = str(tmp_path / "cert.json")
        main(["gen", "--seed", "3", "--count", "2", "--size-h", "1", "--out", ws])
        assert main(["solve", ws, "ep000", "--out", out]) == 0
        cert = json.loads(open(out).read())
        cert["pair"][0] = entry
        open(out, "w").write(canonical_json(cert))
        proc = run_python("-m", "surfep", "verify", out, ws)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "error: eta_program" in proc.stderr
        assert re.search(r"^eta_program +FAIL", proc.stdout, re.M)

    @pytest.mark.parametrize("entry", ["a", 1.5, True])
    def test_non_integer_named_at_parse(self, tmp_path, capsys, entry):
        ws = str(tmp_path / "gen.json")
        out = str(tmp_path / "cert.json")
        main(["gen", "--seed", "3", "--count", "2", "--size-h", "1", "--out", ws])
        assert main(["solve", ws, "ep000", "--out", out]) == 0
        cert = json.loads(open(out).read())
        cert["pair"][0] = entry
        open(out, "w").write(canonical_json(cert))
        proc = run_python("-m", "surfep", "verify", out, ws)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "error: certificate field pair[0] must be an integer" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("depth", [1_100, 200_000])
    def test_deeply_nested_certificate_is_named(self, tmp_path, depth):
        # deeper than the JSON decoder's recursion limit
        ws = str(tmp_path / "gen.json")
        out = str(tmp_path / "cert.json")
        main(["gen", "--seed", "3", "--count", "2", "--size-h", "1", "--out", ws])
        open(out, "w").write("[" * depth + "]" * depth)
        proc = run_python("-m", "surfep", "verify", out, ws)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr == f"error: {out} is nested too deeply to read\n"
        assert proc.stdout == ""


class TestProblemFieldTypes:
    """Workspace integers are plain ints: a float, string or bool anywhere in
    a problem is refused with a named error."""

    @pytest.mark.parametrize(
        "path,value,message",
        [
            (("K", "table", 0, 1), 1.5,
             "group field K: table entries must be integers"),
            (("K", "table", 0, 1), "1",
             "group field K: table entries must be integers"),
            (("K", "table", 0, 1), True,
             "group field K: table entries must be integers"),
            (("action", 0, 1), 1.0, "problem field action[0][1] must be"),
            (("beta_bar", "x", 0), 1.0, "problem field beta_bar.x[0] must be"),
            (("beta_bar", "y", 0), True, "problem field beta_bar.y[0] must be"),
            (("genus",), "8", "problem field genus must be"),
            (("relative", "nu", "y", 0), 1.0, "relative field nu.y[0] must be"),
            (("relative", "S", 0), True, "relative field S[0] must be"),
        ],
    )
    def test_solve_names_the_field(self, tmp_path, path, value, message):
        ws = str(tmp_path / "gen.json")
        main(["gen", "--seed", "3", "--count", "2", "--size-h", "1", "--out", ws])
        doc = json.loads(open(ws).read())
        target = doc["problems"]["ep000"]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        open(ws, "w").write(canonical_json(doc))
        proc = run_python("-m", "surfep", "solve", ws, "ep000")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert f"error: {message}" in proc.stderr
        assert proc.stdout == ""


def c3_problem():
    """K = C3 with H = C2 acting by inversion, genus 1, and the relative
    Q = C3, nu = 1, S = Q: a problem every field of which is valid."""
    c3 = {"order": 3, "table": [[(a + b) % 3 for b in range(3)] for a in range(3)]}
    return {
        "K": c3,
        "H": {"order": 2, "table": [[0, 1], [1, 0]]},
        "action": [[0, 1, 2], [0, 2, 1]],
        "beta_bar": {"x": [1], "y": [0]},
        "relative": {"Q": c3, "nu": {"x": [0], "y": [0]}, "S": [0, 1, 2]},
    }


class TestActionAndSubgroupRefusals:
    """An action that is not one of H on K by automorphisms, an S that is
    not a subgroup of Q, a genus that is not beta_bar's, a beta_bar that is
    not onto H, or a nu of another genus than beta_bar's, is refused with
    one error line naming the field."""

    @pytest.mark.parametrize(
        "field,value,message",
        [
            pytest.param("action", [[0, 1, 2]],
                         "invalid group action: need one permutation per "
                         "acting element", id="action_count"),
            pytest.param("action", [[0, 1, 2], [0, 0, 2]],
                         "invalid group action: entry 1 is not a permutation",
                         id="action_not_a_permutation"),
            pytest.param("action", [[0, 1, 2], [1, 0, 2]],
                         "invalid group action: entry 1 is not an automorphism "
                         "(pair (0, 0))", id="action_not_an_automorphism"),
            pytest.param("action", [[0, 2, 1], [0, 1, 2]],
                         "invalid group action: identity must act trivially",
                         id="action_identity_moves"),
            pytest.param("S", [0, 1],
                         "member set is not a subgroup: inverse of 1 missing",
                         id="S_not_closed"),
            pytest.param("S", [0, 99],
                         "member set is not a subgroup: members must be "
                         "elements of the parent", id="S_out_of_range"),
            pytest.param("S", [1, 2],
                         "member set is not a subgroup: identity missing",
                         id="S_no_identity"),
            pytest.param("genus", 2, "genus mismatch: expected 2, got 1",
                         id="genus_not_beta_bar_length"),
            pytest.param("beta_bar", {"x": [0], "y": [0]},
                         "the reference surjection onto B does not cover B",
                         id="beta_bar_not_onto"),
            pytest.param("nu", {"x": [0, 0], "y": [0, 0]},
                         "genus mismatch: expected 1, got 2", id="nu_long"),
        ],
    )
    def test_solve_names_the_field(self, tmp_path, capsys, field, value, message):
        problem = c3_problem()
        relative = field in ("S", "nu")
        what = "relative field" if relative else "problem field"
        (problem["relative"] if relative else problem)[field] = value
        ws = tmp_path / "ws.json"
        ws.write_text(canonical_json({"problems": {"p": problem}}))
        assert main(["solve", str(ws), "p"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"error: {what} {field}: {message}"]


def problem_edit(path, value):
    """An edit of a workspace document setting ep000's field path to value."""
    def edit(doc):
        target = doc["problems"]["ep000"]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return doc
    return edit


class TestWorkspaceStructure:
    """A workspace, group spec or problem of the wrong JSON shape is refused
    with an error naming the field."""

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda doc: [doc], "workspace field (top level) must be an object"),
            (lambda doc: {**doc, "groups": []},
             "workspace field groups must be an object"),
            (lambda doc: {"problems": list(doc["problems"])},
             "workspace field problems must be an object"),
            (lambda doc: {"problems": {"ep000": [1, 2]}},
             "workspace field problems.ep000 must be an object"),
            (problem_edit(("K",), 5), "problem field K must be a string or an object"),
            (problem_edit(("K", "labels"), 7), "group field K.labels must be a list"),
            (problem_edit(("K",), {"order": "2", "table": [0, 1, 1, 0]}),
             "group field K.order must be an integer"),
            (problem_edit(("K",), {"order": 1, "table": [0, [1]]}),
             "group field K.table[1] must be an integer"),
            (problem_edit(("K",), {"table": [[0, 1], 5]}),
             "group field K.table[1] must be a list"),
            (problem_edit(("K",), {"permutations": [[1, 0.0]]}),
             "group field K.permutations[0][1] must be an integer"),
            (problem_edit(("K",), {"table": [[0, 1], [1, 0]], "labels": ["a"]}),
             "group field K.labels must hold 2 labels, one per element, got 1"),
            (problem_edit(("K",), {"table": [[0, 1], [1, 0]],
                                   "labels": ["e", "a", "b"]}),
             "group field K.labels must hold 2 labels, one per element, got 3"),
            (problem_edit(("K",), {"permutations": [[1, 0]], "labels": ["a"]}),
             "group field K.labels must hold 2 labels, one per element, got 1"),
            (problem_edit(("K",), {"permutations": [[1, 0]],
                                   "labels": ["e", "a", "b"]}),
             "group field K.labels must hold 2 labels, one per element, got 3"),
            (problem_edit(("K",), {"table": [[0, 1], [1, 1]]}),
             "group field K: element 1 has no two-sided inverse"),
            (problem_edit(("relative", "Q"), {"table": [[0, 1], [1, 1]]}),
             "group field Q: element 1 has no two-sided inverse"),
            (problem_edit(("K",), {"table": [[0, 1, 2], [1, 0, 0], [2, 0, 0]]}),
             "group field K: multiplication table not associative at triple "
             "(1, 1, 2)"),
            (problem_edit(("K",), {"permutations": [[1, 0], [0, 1, 2]]}),
             "group field K: (0, 1, 2) is not a permutation of 0..1"),
            (problem_edit(("K",), {"table": [[0, 1], [1]]}),
             "group field K.table[1]: need a nonempty square table, got 2 rows"),
            (lambda doc: {**doc, "groups": {"G": {"table": [[0, 1], [1, 1]]}}},
             "group field groups.G: element 1 has no two-sided inverse"),
        ],
        ids=["top_level_list", "groups_list", "problems_list", "problem_list",
             "K_int", "labels_int", "flat_order_string", "mixed_table",
             "row_not_a_list", "float_permutation", "table_labels_too_few",
             "table_labels_too_many", "permutation_labels_too_few",
             "permutation_labels_too_many", "K_no_inverse", "Q_no_inverse",
             "K_not_associative", "K_permutation_lengths", "K_ragged",
             "unused_named_group"],
    )
    def test_solve_names_the_field(self, tmp_path, edit, message):
        ws = str(tmp_path / "gen.json")
        main(["gen", "--seed", "3", "--count", "2", "--size-h", "1", "--out", ws])
        doc = edit(json.loads(open(ws).read()))
        open(ws, "w").write(canonical_json(doc))
        proc = run_python("-m", "surfep", "solve", ws, "ep000")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert f"error: {message}" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "path,message",
        [(("K",), "problem field K: unknown group name 'C9'"),
         (("H",), "problem field H: unknown group name 'C9'"),
         (("relative", "Q"), "relative field Q: unknown group name 'C9'")],
        ids=["K", "H", "Q"],
    )
    def test_unknown_group_name_names_the_field(self, tmp_path, capsys, path,
                                                message):
        ws = str(tmp_path / "gen.json")
        main(["gen", "--seed", "3", "--count", "2", "--size-h", "1", "--out", ws])
        doc = problem_edit(path, "C9")(json.loads(open(ws).read()))
        open(ws, "w").write(canonical_json(doc))
        capsys.readouterr()
        assert main(["solve", ws, "ep000"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_unread_maps_are_ignored(self, tmp_path):
        # named homs, tuples and relative specs are not part of a problem;
        # a malformed one no longer stops a solve
        ws = str(tmp_path / "gen.json")
        main(["gen", "--seed", "3", "--count", "2", "--size-h", "1", "--out", ws])
        doc = json.loads(open(ws).read())
        doc["tuples"] = {"t": {"target": "C2", "x": [1.0], "y": [0]}}
        doc["homs"] = {"h": 5}
        doc["relatives"] = {"r": []}
        open(ws, "w").write(canonical_json(doc))
        proc = run_python("-m", "surfep", "solve", ws, "ep001")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["outcome"] == "proper"

    @pytest.mark.parametrize("depth", [1_100, 200_000])
    def test_deeply_nested_workspace_is_named(self, tmp_path, depth):
        ws = str(tmp_path / "deep.json")
        open(ws, "w").write("[" * depth + "]" * depth)
        proc = run_python("-m", "surfep", "solve", ws, "ep000")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr == f"error: {ws} is nested too deeply to read\n"
        assert proc.stdout == ""


class TestReadErrors:
    """A certificate or workspace that is not JSON, or not UTF-8, is refused
    with an error naming the file."""

    @pytest.mark.parametrize("which", ["certificate", "workspace"])
    @pytest.mark.parametrize(
        "data,message",
        [(b'{"problems": {', "is not JSON: "),
         (b'\xff{}', "is not UTF-8: 'utf-8' codec can't decode byte 0xff")],
        ids=["truncated", "invalid_utf8"],
    )
    def test_named_file(self, tmp_path, which, data, message):
        ws, out, _ = solved_gen3(tmp_path)
        bad = ws if which == "workspace" else out
        open(bad, "wb").write(data)
        proc = run_python("-m", "surfep", "verify", out, ws)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: {bad} {message}")
        assert proc.stderr.count("\n") == 1
        assert proc.stdout == ""


class TestNegativeCounts:
    def test_count_negative_genus(self, capsys):
        assert main(["count", "--group", "S3", "--genus", "-1"]) == 1
        assert capsys.readouterr().err == (
            "error: genus must be non-negative, got -1\n"
        )

    def test_gen_negative_count(self, tmp_path, capsys):
        ws = tmp_path / "gen.json"
        assert main(["gen", "--count", "-1", "--out", str(ws)]) == 1
        assert capsys.readouterr().err == (
            "error: count must be non-negative, got -1\n"
        )
        assert not ws.exists()


class TestNonPositiveSizes:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--size-k", "0"], "size-k must be positive, got 0"),
            (["--size-h", "2", "-2"], "size-h must be positive, got -2"),
        ],
        ids=["size_k_0", "size_h_minus_2"],
    )
    def test_gen_names_the_option(self, tmp_path, capsys, argv, message):
        ws = tmp_path / "gen.json"
        assert main(["gen", "--count", "1", *argv, "--out", str(ws)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not ws.exists()


class TestUnwritableOut:
    """An --out path that cannot be written is an error naming the path,
    with exit 1, like a file that cannot be read."""

    @pytest.mark.parametrize("target", ["missing_dir", "directory"])
    @pytest.mark.parametrize("command", ["solve", "gen"])
    def test_named_path(self, tmp_path, capsys, command, target):
        out = tmp_path / "no" / "c.json" if target == "missing_dir" else tmp_path
        argv = ["gen", "--count", "1", "--out", str(out)]
        if command == "solve":
            ws = str(tmp_path / "gen.json")
            main(["gen", "--seed", "3", "--count", "2", "--size-h", "1", "--out", ws])
            capsys.readouterr()
            argv = ["solve", ws, "ep000", "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert str(out) in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""


class TestOutIsTheWorkspace:
    """solve refuses an --out that names its workspace file, by any path,
    and leaves the workspace as it was."""

    @pytest.mark.parametrize("via", ["same_path", "symlink"])
    def test_refused_and_untouched(self, tmp_path, capsys, via):
        ws = tmp_path / "gen.json"
        main(["gen", "--seed", "3", "--count", "2", "--size-h", "1", "--out", str(ws)])
        before = ws.read_bytes()
        out = ws
        if via == "symlink":
            out = tmp_path / "link.json"
            out.symlink_to(ws)
        capsys.readouterr()
        assert main(["solve", str(ws), "ep000", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: --out {str(out)!r} is the workspace file {str(ws)!r}\n"
        )
        assert captured.out == ""
        assert ws.read_bytes() == before
        assert main(["solve", str(ws), "ep001"]) == 0


class TestHashOnlyWhatIsWritten:
    """solve hashes the problem only for the certificate it writes."""

    @pytest.fixture
    def no_hash(self, monkeypatch):
        def refuse(resolved):
            raise AssertionError("instance_hash called")

        monkeypatch.setattr(serialize, "instance_hash", refuse)

    def test_refused_relative(self, tmp_path, capsys, no_hash):
        # nu = beta_bar with S trivial: N = Ker(beta_bar), so beta(N) = 1
        g = 64
        c2 = {"order": 2, "table": [[0, 1], [1, 0]]}
        beta = {"x": [1] + [0] * (g - 1), "y": [0] * g}
        problem = {"genus": g, "K": c2, "H": c2, "action": [[0, 1], [0, 1]],
                   "beta_bar": beta, "relative": {"Q": c2, "nu": beta, "S": [0]}}
        ws = tmp_path / "ws.json"
        ws.write_text(canonical_json({"problems": {"p": problem}}))
        assert main(["solve", str(ws), "p", "--out", str(tmp_path / "c.json")]) == 1
        assert capsys.readouterr().err == (
            "error: restriction of the reference map to N has image of order 1 < 2\n"
        )
        assert not (tmp_path / "c.json").exists()

    def test_genus_below_the_bound(self, tmp_path, capsys, no_hash):
        assert main(["solve", v4_workspace(tmp_path), "too_small"]) == 2


def s3_inversion_workspace(tmp_path, name, edit=None):
    """Workspace with one problem "p": K = C3, H = C2 acting by inversion
    (so A = S3 is not abelian), beta_bar = (1, ..., 1; 0, ..., 0) at genus
    2|A|^2|B| = 144.  edit, if given, changes the problem object first."""
    g = 144
    problem = {
        "genus": g,
        "K": {"order": 3, "table": [[(a + b) % 3 for b in range(3)] for a in range(3)]},
        "H": {"order": 2, "table": [[0, 1], [1, 0]]},
        "action": [[0, 1, 2], [0, 2, 1]],
        "beta_bar": {"x": [1] * g, "y": [0] * g},
    }
    if edit is not None:
        edit(problem)
    path = tmp_path / name
    path.write_text(canonical_json({"problems": {"p": problem}}))
    return str(path)


def s3_breaking_pair():
    """S3 as a workspace group, and a transposition and a 3-cycle: their
    commutator is not the identity, so a first pair (x1, y1) of these breaks
    the relation whatever the trivial pairs after it."""
    s3 = surfep.symmetric_group_3()
    trans = next(a for a in s3.elements() if element_order(s3, a) == 2)
    cycle = next(a for a in s3.elements() if element_order(s3, a) == 3)
    return serialize.group_to_json(s3), trans, cycle


def break_beta_bar(problem):
    """H = S3, acting trivially, with beta_bar starting at the breaking pair."""
    table, trans, cycle = s3_breaking_pair()
    problem["H"] = table
    problem["action"] = [[0, 1, 2]] * 6
    problem["beta_bar"]["x"][0] = trans
    problem["beta_bar"]["y"][0] = cycle


def break_nu(problem):
    """A relative part over Q = S3 whose nu starts at the breaking pair."""
    table, trans, cycle = s3_breaking_pair()
    g = problem["genus"]
    problem["relative"] = {
        "Q": table,
        "nu": {"x": [trans] + [0] * (g - 1), "y": [cycle] + [0] * (g - 1)},
        "S": [0],
    }


class TestBrokenRelation:
    """Only the tuples read from input and the final phi have the surface
    relation checked; each input is refused by name when it breaks the
    relation.  phi, derived from the move program, keeps it (see
    test_embedding's kernel factor that breaks it)."""

    RELATION = r"product of commutators is element \d+, not the identity\n"

    @pytest.mark.parametrize(
        "edit,field",
        [(break_beta_bar, "problem field beta_bar"), (break_nu, "relative field nu")],
        ids=["beta_bar", "nu"],
    )
    def test_solve_and_verify_name_the_field(self, tmp_path, capsys, edit, field):
        good = s3_inversion_workspace(tmp_path, "good.json")
        bad = s3_inversion_workspace(tmp_path, "bad.json", edit)
        cert = str(tmp_path / "cert.json")
        assert main(["solve", good, "p", "--out", cert]) == 0
        capsys.readouterr()
        for argv in (["solve", bad, "p"], ["verify", cert, bad]):
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert re.fullmatch(f"error: {field}: {self.RELATION}", err), err


class TestUnusedProblemsAreNotDecoded:
    """solve and verify decode the named groups and their own problem; the
    other problems are only outlined, and a fault in one is reported when
    that problem is used, naming the file."""

    @pytest.mark.parametrize(
        "broken,message",
        [("[1 2]", "is not JSON: Expecting ',' delimiter"),
         ("{} 7", "is not JSON: Expecting ',' delimiter"),
         ("[" * 1_100 + "]" * 1_100, "is nested too deeply to read")],
        ids=["syntax", "trailing_value", "deep"],
    )
    def test_fault_in_another_problem(self, tmp_path, capsys, broken, message):
        ws = str(tmp_path / "gen.json")
        out = str(tmp_path / "cert.json")
        main(["gen", "--seed", "3", "--count", "2", "--size-h", "1", "--out", ws])
        doc = json.loads(open(ws).read())
        doc["problems"]["ep002"] = "BROKEN"
        open(ws, "w").write(canonical_json(doc).replace('"BROKEN"', broken))
        assert main(["solve", ws, "ep001", "--out", out]) == 0
        assert main(["verify", out, ws]) == 0
        capsys.readouterr()
        assert main(["solve", ws, "ep002"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {ws} {message}")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "text,message",
        [('{"problems": {}} {}', "Extra data: line 1 column 18"),
         ('{"problems": {"ep000": {}}', "Expecting '}' to close the object"),
         ('{"problems": {"ep000": "}}', "Unterminated string starting at"),
         ('{"problems": {"ep000": {}}}}', "Extra data: line 1 column 28")],
        ids=["second_object", "unclosed", "open_string", "extra_brace"],
    )
    def test_outline_faults_name_the_file(self, tmp_path, text, message):
        ws = str(tmp_path / "ws.json")
        open(ws, "w").write(text)
        proc = run_python("-m", "surfep", "solve", ws, "ep000")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: {ws} is not JSON: {message}")
        assert proc.stdout == ""


def solved_gen3(tmp_path):
    """ep000 of `gen --seed 3 --count 2 --size-h 1` and its certificate."""
    ws = str(tmp_path / "gen.json")
    out = str(tmp_path / "cert.json")
    main(["gen", "--seed", "3", "--count", "2", "--size-h", "1", "--out", ws])
    assert main(["solve", ws, "ep000", "--out", out]) == 0
    return ws, out, json.loads(open(out).read())


def verify_edited(ws, out, cert, capsys):
    """Write cert to out and run `surfep verify`; (exit code, stdout, stderr)."""
    open(out, "w").write(canonical_json(cert))
    capsys.readouterr()
    code = main(["verify", out, ws])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refused_field(name):
    return f"error: certificate field {name} is not part of a certificate\n"


class TestVerifyEtaProgram:
    """The recorded pair is checked against the problem: a pair of B that
    occurs at least m = 2|A|^2/|B| times among beta_bar's pairs.  n, m and
    the kernel generators are the problem's (make_eta_params): a
    certificate that writes one of them, as v6 did, is refused by name.

    ep000 has genus 8, A = C2 and B trivial: the program moves the pair
    (0, 0) at all of 1..8, with n = 2, m = 8 and kgens [1]."""

    @pytest.mark.parametrize(
        "edit,error",
        [
            (lambda c: c.update(kgens=[1, 1, 1]), refused_field("kgens")),
            (lambda c: c.update(pair=[0, 99]), "error: eta_program\n"),
            (lambda c: c.update(pair=[v + 1 for v in c["pair"]]),
             "error: eta_program\n"),
            (lambda c: c.update(pair=[0, -1]), "error: eta_program\n"),
            (lambda c: c.update(kgens=[0]), refused_field("kgens")),
            (lambda c: c.update(kgens=[]), refused_field("kgens")),
            (lambda c: c.update(m=7), refused_field("m")),
            (lambda c: c.update(n=3), refused_field("n")),
        ],
        ids=["duplicate", "out_of_range", "shifted", "negative", "kgens",
             "no_kgens", "m", "n"],
    )
    def test_edited_eta_fails_named_check(self, tmp_path, capsys, edit, error):
        ws, out, cert = solved_gen3(tmp_path)
        assert cert["pair"] == [0, 0]
        edit(cert)
        code, stdout, stderr = verify_edited(ws, out, cert, capsys)
        assert code == 1 and stderr == error
        if error == "error: eta_program\n":
            assert re.search(r"^eta_program +FAIL", stdout, re.M)
        else:
            assert stdout == ""

    @pytest.mark.parametrize("entry", ["a", 1.5, True])
    def test_non_integer_selected_named_at_parse(self, tmp_path, capsys, entry):
        # v5 writes no selected: whatever it holds, it is refused by name
        ws, out, cert = solved_gen3(tmp_path)
        cert["selected"] = [entry] + list(range(2, 9))
        code, stdout, stderr = verify_edited(ws, out, cert, capsys)
        assert code == 1 and stdout == ""
        assert stderr == refused_field("selected")

    @pytest.mark.parametrize("entry", ["a", 1.5, True])
    def test_non_integer_pair_named_at_parse(self, tmp_path, capsys, entry):
        ws, out, cert = solved_gen3(tmp_path)
        cert["pair"][0] = entry
        code, stdout, stderr = verify_edited(ws, out, cert, capsys)
        assert code == 1
        assert "error: certificate field pair[0] must be an integer" in stderr

    def test_genuine_eta_passes(self, tmp_path, capsys):
        ws, out, cert = solved_gen3(tmp_path)
        code, stdout, _ = verify_edited(ws, out, cert, capsys)
        assert code == 0
        assert re.search(
            r"^eta_program +pass +pair \(0, 0\) occurs 8 times among "
            r"beta_bar's pairs, m = 8$", stdout, re.M,
        )

    def test_pair_with_fewer_than_m_occurrences_fails(self, tmp_path, capsys):
        # v4_plain's beta_bar has the pair (1, 0) at x1 only
        ws = v4_workspace(tmp_path)
        out = str(tmp_path / "cert.json")
        assert main(["solve", ws, "v4_plain", "--out", out]) == 0
        cert = json.loads(open(out).read())
        cert["pair"] = [1, 0]
        code, stdout, stderr = verify_edited(ws, out, cert, capsys)
        assert code == 1 and "error: eta_program" in stderr
        assert re.search(
            r"^eta_program +FAIL +pair \(1, 0\) occurs 1 times among "
            r"beta_bar's pairs, fewer than m = 16$", stdout, re.M,
        )

    def test_a_second_pair_with_m_occurrences_verifies(
        self, tmp_path, capsys, monkeypatch
    ):
        """Verify checks the recorded program and does not search for the
        solver's: a certificate built on another pair that occurs m times
        verifies too."""
        g = 64
        c2 = {"order": 2, "table": [[0, 1], [1, 0]]}
        doc = {"problems": {"p": {
            "genus": g, "K": c2, "H": c2, "action": [[0, 1], [0, 1]],
            # (1, 0) at x1..x32 and (0, 0) at x33..x64, m = 16
            "beta_bar": {"x": [1] * 32 + [0] * 32, "y": [0] * g},
        }}}
        ws, out = str(tmp_path / "two.json"), str(tmp_path / "cert.json")
        open(ws, "w").write(canonical_json(doc))
        assert main(["solve", ws, "p", "--out", out]) == 0
        assert json.loads(open(out).read())["pair"] == [0, 0]

        def largest_first(pairs, m):
            # the pair listing, the largest pair that reaches m first
            return sorted(surface.repeated_pairs(pairs, m), reverse=True)

        monkeypatch.setattr(solver, "repeated_pairs", largest_first)
        assert main(["solve", ws, "p", "--out", out]) == 0
        monkeypatch.undo()
        cert = json.loads(open(out).read())
        assert cert["pair"] == [1, 0]
        code, stdout, _ = verify_edited(ws, out, cert, capsys)
        assert code == 0, stdout
        assert "pair (1, 0) occurs 32 times" in stdout


class TestVerifyDoesNotSearch:
    """surfep verify runs none of the solver's search: no listing of the
    pairs that occur m times, so no choice among them.  It derives the
    kernel generators with make_eta_params, one closure walk over K, which
    is not a search."""

    @pytest.fixture
    def no_search(self, monkeypatch):
        def patch():
            def boom(*args, **kwargs):
                raise AssertionError("the solver's search on the verify path")

            monkeypatch.setattr(solver, "repeated_pairs", boom)
        return patch

    def test_proper(self, tmp_path, capsys, no_search):
        ws = v4_workspace(tmp_path)
        out = str(tmp_path / "cert.json")
        assert main(["solve", ws, "v4", "--out", out]) == 0
        no_search()
        assert main(["verify", out, ws]) == 0

    def test_not_reduced(self, tmp_path, capsys, no_search):
        ws = not_reduced_workspace(tmp_path)
        out = str(tmp_path / "cert.json")
        assert main(["solve", ws, "p", "--out", out]) == 3
        no_search()
        assert main(["verify", out, ws]) == 0
        assert re.search(r"^offending_index +pass", capsys.readouterr().out, re.M)


def v6_eta(ws, cert):
    """The move program of cert as a v6 certificate wrote it: its pair, and
    n, m and kgens, which v7 derives from the problem."""
    ep, _ = load_workspace(ws).build_problem(cert["problem"])
    eta = solver.make_eta_params(ep)
    return {"pair": cert["pair"], "n": eta.n, "m": eta.m, "kgens": list(eta.kgens)}


def moved_positions(ws, cert):
    """The positions the move program of cert moves to the front: the first
    m whose beta_bar pair is the certificate's pair (a v4 certificate wrote
    them as eta.selected)."""
    ep, _ = load_workspace(ws).build_problem(cert["problem"])
    pair = tuple(cert["pair"])
    pairs = zip(ep.beta_bar.ximg, ep.beta_bar.yimg)
    m = solver.make_eta_params(ep).m
    return [i for i, p in enumerate(pairs, 1) if p == pair][:m]


def constant_beta_workspace(tmp_path):
    """C2 x| C2 (= V4) at genus 64 with beta_bar constant: x_i -> 1, y_i -> 0
    on every slot, so every slot has the same values and any 16 positions
    replay to the same tuple."""
    g = 64
    c2 = {"order": 2, "table": [[0, 1], [1, 0]]}
    doc = {
        "problems": {
            "flat": {
                "genus": g,
                "K": c2,
                "H": c2,
                "action": [[0, 1], [0, 1]],
                "beta_bar": {"x": [1] * g, "y": [0] * g},
            }
        }
    }
    ws = str(tmp_path / "flat.json")
    open(ws, "w").write(canonical_json(doc))
    return ws


class TestForgedBasis:
    """The old format's hole: basis words that evaluate correctly but do not
    form a basis of the surface group."""

    def solved(self, tmp_path):
        ws = constant_beta_workspace(tmp_path)
        out = str(tmp_path / "cert.json")
        assert main(["solve", ws, "flat", "--out", out]) == 0
        return ws, out, json.loads(open(out).read())

    def test_v1_forgery_in_x1_and_y1_is_refused(self, tmp_path, capsys):
        ws, out, cert = self.solved(tmp_path)
        # every word rewritten into x1 and y1 only: the same values under
        # the constant beta_bar, but no basis of the genus-64 surface group
        cert["basis"] = {
            key: [re.sub(r"([xy])\d+", r"\g<1>1", str(w)) for w in words]
            for key, words in zip(
                "xy", surface.basis_words(64, moved_positions(ws, cert))
            )
        }
        assert all(set(w.split()) <= {"x1", "y1", "x1^-1", "y1^-1"}
                   for w in cert["basis"]["x"] + cert["basis"]["y"])
        cert["format"] = "surfep-certificate-v1"
        code, stdout, stderr = verify_edited(ws, out, cert, capsys)
        assert code == 1
        assert "error: certificate format 'surfep-certificate-v1'" in stderr
        assert stdout == ""

    def test_v2_verifies_only_with_the_pigeonhole_hit(self, tmp_path, capsys):
        ws, out, cert = self.solved(tmp_path)
        assert "basis" not in cert
        assert cert["pair"] == [1, 0]
        assert moved_positions(ws, cert) == list(range(1, 17))
        code, _, _ = verify_edited(ws, out, cert, capsys)
        assert code == 0
        # same values on every slot: other selections, such as 2..17 or
        # 49..64, cannot be written, since the program moves the first m
        # occurrences of its pair; a pair that does not occur m times is
        # refused, and m, the problem's, cannot be written
        for edit in ({"pair": [0, 0]}, {"pair": [1, 1]}):
            code, stdout, stderr = verify_edited(ws, out, {**cert, **edit}, capsys)
            assert code == 1
            assert re.search(r"^eta_program +FAIL", stdout, re.M)
            assert "error: eta_program" in stderr
        for m in (17, 15):
            code, stdout, stderr = verify_edited(ws, out, {**cert, "m": m}, capsys)
            assert (code, stdout, stderr) == (1, "", refused_field("m"))


def test_solved_v1_certificate_is_refused(tmp_path, capsys):
    """A certificate in the v1 shape: a solved one plus the expanded basis
    words."""
    ws = v4_workspace(tmp_path)
    out = str(tmp_path / "cert.json")
    assert main(["solve", ws, "v4_plain", "--out", out]) == 0
    cert = json.loads(open(out).read())
    cert["basis"] = {
        key: [str(w) for w in words]
        for key, words in zip("xy", surface.basis_words(64, moved_positions(ws, cert)))
    }
    cert["format"] = "surfep-certificate-v1"
    code, stdout, stderr = verify_edited(ws, out, cert, capsys)
    assert code == 1
    assert stderr == (
        "error: certificate format 'surfep-certificate-v1' is not "
        "'surfep-certificate-v7'; re-run surfep solve to get one\n"
    )


def test_solved_v2_certificate_is_refused(tmp_path, capsys):
    """A certificate in the v2 shape: the v3 fields plus the flags, check
    records and witnesses that verify never read."""
    ws = v4_workspace(tmp_path)
    out = str(tmp_path / "cert.json")
    assert main(["solve", ws, "v4_plain", "--out", out]) == 0
    cert = json.loads(open(out).read())
    cert.update(format="surfep-certificate-v2", genus=64, is_solution=True,
                is_proper=True, checks=[], witnesses=[])
    code, stdout, stderr = verify_edited(ws, out, cert, capsys)
    assert code == 1 and stdout == ""
    assert stderr == (
        "error: certificate format 'surfep-certificate-v2' is not "
        "'surfep-certificate-v7'; re-run surfep solve to get one\n"
    )


def test_solved_v3_certificate_is_refused(tmp_path, capsys):
    """A certificate in the v3 shape: phi written in full, not as overrides."""
    ws = v4_workspace(tmp_path)
    out = str(tmp_path / "cert.json")
    assert main(["solve", ws, "v4_plain", "--out", out]) == 0
    cert = json.loads(open(out).read())
    phi = reverified_phi(ws, "v4_plain", cert)
    cert.update(format="surfep-certificate-v3",
                phi={"x": list(phi.phi_x), "y": list(phi.phi_y)})
    code, stdout, stderr = verify_edited(ws, out, cert, capsys)
    assert code == 1 and stdout == ""
    assert stderr == (
        "error: certificate format 'surfep-certificate-v3' is not "
        "'surfep-certificate-v7'; re-run surfep solve to get one\n"
    )


def reverified_phi(ws, name, cert):
    """The certificate cert of problem name, reverified: phi in full."""
    ep, relative = load_workspace(ws).build_problem(name)
    return solver.reverify_certificate(ep, certificate_from_json(cert), relative)


def test_solved_v5_certificate_is_refused(tmp_path, capsys):
    """A certificate in the v5 shape: phi written as its overrides of
    gamma o beta_bar."""
    ws = v4_workspace(tmp_path)
    out = str(tmp_path / "cert.json")
    assert main(["solve", ws, "v4_plain", "--out", out]) == 0
    cert = json.loads(open(out).read())
    phi = reverified_phi(ws, "v4_plain", cert)
    # v5 wrote phi as its overrides of gamma o beta_bar: here s = 1, n = 4
    # and x2..x5 go to gamma(0) kgens[0] = 2
    assert phi.phi_x[1:5] == (2, 2, 2, 2)
    cert = {**cert, "eta": v6_eta(ws, cert)}
    del cert["pair"]
    cert.update(format="surfep-certificate-v5",
                phi={"x": [[i, 2] for i in range(2, 6)], "y": []})
    code, stdout, stderr = verify_edited(ws, out, cert, capsys)
    assert code == 1 and stdout == ""
    assert stderr == (
        "error: certificate format 'surfep-certificate-v5' is not "
        "'surfep-certificate-v7'; re-run surfep solve to get one\n"
    )
    # written into a v7 certificate, phi is refused by name
    cert = {k: v for k, v in cert.items() if k != "eta"}
    cert.update(format="surfep-certificate-v7", pair=[0, 0])
    code, stdout, stderr = verify_edited(ws, out, cert, capsys)
    assert (code, stdout, stderr) == (1, "", refused_field("phi"))


def test_solved_v6_certificate_is_refused(tmp_path, capsys):
    """A certificate in the v6 shape: the pair inside the whole move program
    (eta with n, m and kgens), and a not_reduced run's stop position."""
    ws = not_reduced_workspace(tmp_path)
    out = str(tmp_path / "cert.json")
    assert main(["solve", ws, "p", "--out", out]) == 3
    cert = json.loads(open(out).read())
    cert = {"format": "surfep-certificate-v6", "problem": cert["problem"],
            "instance_hash": cert["instance_hash"], "outcome": cert["outcome"],
            "eta": v6_eta(ws, cert), "relative": {"offending_index": 2}}
    code, stdout, stderr = verify_edited(ws, out, cert, capsys)
    assert code == 1 and stdout == ""
    assert stderr == (
        "error: certificate format 'surfep-certificate-v6' is not "
        "'surfep-certificate-v7'; re-run surfep solve to get one\n"
    )


def test_solved_v4_certificate_is_refused(tmp_path, capsys):
    """A certificate in the v4 shape: the move program spelled out as the
    selected positions, with s, and a not_reduced run's membership flags."""
    ws = not_reduced_workspace(tmp_path)
    out = str(tmp_path / "cert.json")
    assert main(["solve", ws, "p", "--out", out]) == 3
    cert = json.loads(open(out).read())
    selected = moved_positions(ws, cert)
    eta = v6_eta(ws, cert)
    del eta["pair"]
    eta.update(s=len(eta["kgens"]), selected=selected)
    cert = {k: v for k, v in cert.items() if k != "pair"}
    cert.update(format="surfep-certificate-v4", eta=eta, relative={
        "offending_index": 2, "memberships": [[2, False, False]]})
    code, stdout, stderr = verify_edited(ws, out, cert, capsys)
    assert code == 1 and stdout == ""
    assert stderr == (
        "error: certificate format 'surfep-certificate-v4' is not "
        "'surfep-certificate-v7'; re-run surfep solve to get one\n"
    )


class TestWordFreeHotPath:
    """solve -> verify builds, writes, parses and evaluates no basis word."""

    @pytest.fixture(autouse=True)
    def no_basis_words(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("basis words on the certificate path")

        monkeypatch.setattr(surface.Word, "conjugated_by", boom)
        for mod in (surfep, surface, embedding, solver, serialize, cli):
            for name in ("expand_word", "basis_words", "parse_word"):
                monkeypatch.setattr(mod, name, boom, raising=False)

    @pytest.mark.parametrize("problem", ["v4_plain", "v4"])
    def test_solve_then_verify(self, tmp_path, capsys, problem):
        ws = v4_workspace(tmp_path)
        out = str(tmp_path / "cert.json")
        assert main(["solve", ws, problem, "--out", out]) == 0
        cert = json.loads(open(out).read())
        assert "witnesses" not in cert and "basis" not in cert
        assert main(["verify", out, ws]) == 0

    def test_not_reduced(self, tmp_path, capsys):
        ws = not_reduced_workspace(tmp_path)
        out = str(tmp_path / "cert.json")
        assert main(["solve", ws, "p", "--out", out]) == 3
        assert main(["verify", out, ws]) == 0


class TestPlanGenusCount:
    def test_plan_output(self, capsys):
        assert main(["plan", "--genus", "2", "--K", "2", "--H", "2"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out) == {"m": 16, "required_index": 79, "h": 80}
        assert out == '{\n  "h": 80,\n  "m": 16,\n  "required_index": 79\n}\n'

    def test_plan_bad_genus(self, capsys):
        assert main(["plan", "--genus", "1", "--K", "2", "--H", "2"]) == 1

    def test_genus_output(self, capsys):
        assert main(["genus", "--genus", "2", "--index", "3"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out) == {"genus": 2, "index": 3, "result": 4}
        assert out == '{\n  "genus": 2,\n  "index": 3,\n  "result": 4\n}\n'

    def test_count_catalog_group(self, capsys):
        assert main(["count", "--group", "S3", "--genus", "1"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out) == {"group": "S3", "genus": 1, "count": 18}
        assert out == '{\n  "count": 18,\n  "genus": 1,\n  "group": "S3"\n}\n'

    def test_count_budget(self, capsys):
        rc = main(["count", "--group", "S3", "--genus", "5", "--budget", "100"])
        assert rc == 1

    def test_count_unknown_group(self, capsys):
        assert main(["count", "--group", "nope", "--genus", "1"]) == 1

    def test_genus_bad_genus(self, capsys):
        # exit 2 is solve's alone; genus below 2 is an error like any other
        assert main(["genus", "--genus", "1", "--index", "2"]) == 1
        assert capsys.readouterr().err == "error: genus 1 below required bound 2\n"


class TestMainMapsEveryRefusal:
    """main is the one place a refusal becomes an exit code: what a handler
    raises, from any stage, is one error line and exit 1, never a
    traceback."""

    @pytest.mark.parametrize("exc", [ValueError("bad value"), OSError("bad file")],
                             ids=["ValueError", "OSError"])
    @pytest.mark.parametrize("target", ["solve_gamma_level", "reverify_certificate"])
    def test_solver_stage(self, tmp_path, capsys, monkeypatch, target, exc):
        ws = v4_workspace(tmp_path)
        out = str(tmp_path / "cert.json")
        assert main(["solve", ws, "v4_plain", "--out", out]) == 0

        def refuse(*args, **kwargs):
            raise exc

        monkeypatch.setattr(solver, target, refuse)
        argv = (["solve", ws, "v4_plain"] if target == "solve_gamma_level"
                else ["verify", out, ws])
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {exc}\n")


def test_verify_derives_phi_with_eta_construct(tmp_path, capsys, monkeypatch):
    """eta_construct is the eta rule verify runs: with it refusing, a proper
    certificate no longer verifies."""
    ws = v4_workspace(tmp_path)
    out = str(tmp_path / "cert.json")
    assert main(["solve", ws, "v4", "--out", out]) == 0
    assert main(["verify", out, ws]) == 0

    def refuse(*args, **kwargs):
        raise HypothesisViolated("equal_images", 2)

    monkeypatch.setattr(solver, "eta_construct", refuse)
    capsys.readouterr()
    assert main(["verify", out, ws]) == 1
    assert capsys.readouterr() == (
        "", "error: construction hypothesis violated: equal_images (witness 2)\n"
    )


class TestGen:
    def test_gen_then_solve_all(self, tmp_path, capsys):
        ws = str(tmp_path / "gen.json")
        assert main(["gen", "--seed", "7", "--count", "3", "--out", ws]) == 0
        loaded = load_workspace(ws)
        assert len(loaded.problems) == 3
        for name in loaded.problems:
            rc = main(["solve", ws, name, "--out", str(tmp_path / "c.json")])
            assert rc in (0, 1, 3)  # bad relatives exit 1 by design
            capsys.readouterr()

    def test_gen_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        main(["gen", "--seed", "3", "--count", "4", "--out", a])
        main(["gen", "--seed", "3", "--count", "4", "--out", b])
        assert open(a).read() == open(b).read()
        c = str(tmp_path / "c.json")
        main(["gen", "--seed", "4", "--count", "4", "--out", c])
        assert open(a).read() != open(c).read()

    def test_gen_refuses_a_size_k_the_random_action_cannot_take(self, capsys):
        # --action random lists every automorphism of K, by brute force up
        # to order 8; 9 used to fail deep inside with a message naming
        # neither the option nor the value
        for sizes in (["9"], ["3", "9"]):
            assert main(["gen", "--size-k", *sizes, "--size-h", "1"]) == 1
            captured = capsys.readouterr()
            assert captured.err == (
                "error: size-k 9 is too large for --action random, which lists "
                "the automorphisms of K by brute force up to order 8; use "
                "--action trivial or inversion\n"
            )
            assert captured.out == ""
        assert main(["gen", "--size-k", "9", "--size-h", "1", "--count", "1",
                     "--action", "trivial"]) == 0

    def test_gen_refuses_sizes_it_cannot_draw(self):
        # every |K||H| is 25 > 16: the draw used to loop forever
        proc = run_python("-m", "surfep", "gen", "--size-k", "5", "--size-h", "5")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr == (
            "error: no size choice has |K||H| <= 16: |K| in [5], |H| in [5]\n"
        )
        assert proc.stdout == ""


def test_c2_to_the_sixth_solves_and_verifies(tmp_path):
    """K = C2^6, H = C2, trivial action at g = 2|A|^2|B| = 65,536: the
    kernel generators are found greedily, not by an exponential search."""
    g = 65536
    c2 = {"order": 2, "table": [[0, 1], [1, 0]]}
    k = {"order": 64, "table": [[a ^ b for b in range(64)] for a in range(64)]}
    doc = {
        "problems": {
            "p": {
                "genus": g,
                "K": k,
                "H": c2,
                "action": [list(range(64))] * 2,
                "beta_bar": {"x": [1] + [0] * (g - 1), "y": [0] * g},
            }
        }
    }
    ws, out = str(tmp_path / "ws.json"), str(tmp_path / "cert.json")
    open(ws, "w").write(json.dumps(doc))
    proc = run_python("-m", "surfep", "solve", ws, "p", "--out", out, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(open(out).read())["pair"] == [0, 0]
    eta = solver.make_eta_params(load_workspace(ws).build_problem("p")[0])
    assert eta.kgens == (2, 4, 8, 16, 32, 64) and eta.n == 128
    proc = run_python("-m", "surfep", "verify", out, ws, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # 768 x-slots differ from gamma o beta_bar, but phi follows from the pair
    assert os.path.getsize(out) < 1024


def test_certificate_length_does_not_grow_with_the_genus(tmp_path, capsys):
    """Two problems that differ only in genus, both at least 2|A|^2|B| = 64,
    get certificates of one length: the program does not grow with g."""
    c2 = {"order": 2, "table": [[0, 1], [1, 0]]}
    problems = {
        name: {
            "genus": g, "K": c2, "H": c2, "action": [[0, 1], [0, 1]],
            "beta_bar": {"x": [1] + [0] * (g - 1), "y": [0] * g},
        }
        for name, g in (("small", 64), ("large", 4096))
    }
    ws = str(tmp_path / "ws.json")
    open(ws, "w").write(canonical_json({"problems": problems}))
    lengths = set()
    for name in problems:
        capsys.readouterr()
        assert main(["solve", ws, name]) == 0
        lengths.add(len(capsys.readouterr().out))
    assert len(lengths) == 1


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script", ["demo.py", "run_suite.py"])
def test_script_runs(script):
    proc = run_python(str(SCRIPTS / script))
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize(
    "layout",
    [{"indent": 2}, {"separators": (",", ":")}],
    ids=["indent2", "compact"],
)
def test_files_in_any_layout_still_work(tmp_path, layout):
    """A workspace and a certificate re-written by json.dumps give the same
    problem hash, the same certificate and a passing verify: at indent=2,
    every array item on its own line as earlier versions wrote files, and
    fully compact, as other tools write them."""
    def rewrite(path, old_path):
        obj = json.loads(open(path).read())
        open(old_path, "w").write(json.dumps(obj, sort_keys=True, **layout) + "\n")

    ws, old_ws = str(tmp_path / "ws.json"), str(tmp_path / "old_ws.json")
    assert main(["gen", "--seed", "3", "--count", "2", "--out", ws]) == 0
    rewrite(ws, old_ws)
    assert open(old_ws).read() != open(ws).read()
    solved = 0
    for name in sorted(load_workspace(ws).problems):
        assert (load_workspace(old_ws).problem_hash(name)
                == load_workspace(ws).problem_hash(name))
        cert, old_cert = str(tmp_path / "cert.json"), str(tmp_path / "old_cert.json")
        rc = main(["solve", ws, name, "--out", cert])
        assert main(["solve", old_ws, name, "--out", old_cert]) == rc
        if rc != 0:
            continue
        assert json.loads(open(old_cert).read()) == json.loads(open(cert).read())
        rewrite(cert, old_cert)
        assert main(["verify", old_cert, old_ws]) == 0
        solved += 1
    assert solved


# SHA-256 of the `gen --seed 5 --count 12` workspace followed by, for each
# problem in name order, its name, the `solve` exit code and the `solve`
# stdout.  Any change to group indexing, the solver or the certificate
# encoding or layout moves it; refactors must leave it alone.  Last derived by
# scripts/repin_v7_goldens.py, at certificate v7: it maps each v6 certificate
# to its pair, outcome, problem and hash, in the v7 format.
GOLDEN_GEN5_SHA256 = "bcbe222232cdbc8fef95b0bb9403574d736a068b856e9071f2aba2faf87d0eb2"
# SHA-256 of `surfep verify` stdout and exit codes on the certificates of
# test_verify_bytes_are_pinned.  A change to a check's name, detail, order or
# verdict moves it; moving the checks between modules must leave it alone.
# Re-pinned when the kernel-witness checks went: the v6 output with every
# witness_words, kernel_containment and witness_memberships line dropped
# and the columns re-padded hashes to this value.
GOLDEN_VERIFY_SHA256 = "c9a83624b6f6c0ce6980a8f2b8d063e19b9a64fe7e64ebb3afaf0b6d04b0c74d"


class TestGoldenBytes:
    def test_gen_and_solve_bytes_are_pinned(self, tmp_path, capsys):
        ws = str(tmp_path / "gen.json")
        assert main(["gen", "--seed", "5", "--count", "12", "--out", ws]) == 0
        digest = hashlib.sha256()
        with open(ws, "rb") as fh:
            digest.update(fh.read())
        for name in sorted(load_workspace(ws).problems):
            capsys.readouterr()
            rc = main(["solve", ws, name])
            digest.update(f"\n{name} {rc}\n".encode())
            digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == GOLDEN_GEN5_SHA256

    def test_verify_bytes_are_pinned(self, tmp_path, capsys):
        """`surfep verify` stdout and exit code on every certificate of
        `gen --seed 5 --count 12`, the not_reduced certificate of
        tests/test_mutations.py, and each with its pair reversed, which is
        another valid program where the reversed pair occurs m times (the
        label "eta.pair" names the field as v6 wrote it).
        stderr is not pinned."""
        ws = str(tmp_path / "gen5.json")
        assert main(["gen", "--seed", "5", "--count", "12", "--out", ws]) == 0
        cases = [(ws, name) for name in sorted(load_workspace(ws).problems)]
        ws3 = str(tmp_path / "gen3.json")
        main(["gen", "--seed", "3", "--count", "2", "--size-h", "1", "--out", ws3])
        doc = json.loads(open(ws3).read())
        g = doc["problems"]["ep001"]["genus"]
        doc["problems"]["ep001"]["relative"] = {
            "Q": {"order": 2, "table": [[0, 1], [1, 0]]},
            "nu": {"x": [0, 1] + [0] * (g - 2), "y": [0] * g},
            "S": [0],
        }
        open(ws3, "w").write(canonical_json(doc))
        cases.append((ws3, "ep001"))

        out = str(tmp_path / "cert.json")
        digest = hashlib.sha256()

        def verify(label, cert):
            open(out, "w").write(canonical_json(cert))
            capsys.readouterr()
            rc = main(["verify", out, workspace])
            digest.update(f"\n{label} {rc}\n".encode())
            digest.update(capsys.readouterr().out.encode())

        for workspace, name in cases:
            if main(["solve", workspace, name, "--out", out]) not in (0, 3):
                continue  # refused (beta(N) != B): no certificate
            cert = json.loads(open(out).read())
            verify(name, cert)
            edited = json.loads(json.dumps(cert))
            edited["pair"].reverse()
            verify(f"{name} eta.pair", edited)
        assert digest.hexdigest() == GOLDEN_VERIFY_SHA256


SUBCOMMANDS = {"solve", "verify", "plan", "genus", "count", "gen"}
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def declared_console_script(name):
    """The ``module:function`` target of ``name`` in ``[project.scripts]``."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def run_python(*args, timeout=60):
    """Run ``python *args`` against the surfep copy this test process imported.

    The package root goes first on PYTHONPATH and is the working directory,
    since ``-c`` and ``-m`` put the working directory first on sys.path.
    """
    root = str(Path(surfep.__file__).resolve().parent.parent)
    path = [root, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=root,
        timeout=timeout,
    )


class TestEntryPoint:
    def test_console_script_help(self):
        # Run the declared target as pip's generated wrapper does, so the test
        # is the same whether or not a `surfep` executable is installed.
        module, _, func = declared_console_script("surfep").partition(":")
        wrapper = (
            f"import sys; sys.argv[0] = 'surfep'; "
            f"from {module} import {func}; sys.exit({func}())"
        )
        proc = run_python("-c", wrapper, "--help")
        assert proc.returncode == 0, proc.stderr
        usage = re.match(r"usage: surfep [^{]*\{([^}]*)\}", proc.stdout)
        assert usage, proc.stdout
        assert set(usage.group(1).split(",")) == SUBCOMMANDS

        as_module = run_python("-m", "surfep", "--help")
        assert as_module.returncode == 0, as_module.stderr
        assert as_module.stdout == proc.stdout

    def test_cli_imports_no_numpy(self):
        # surfep has no third-party runtime dependency; every CLI start
        # pays for what `import surfep.cli` loads, and only gen and count
        # draw instances with the oracle
        code = (
            "import sys, surfep.cli; "
            "print('numpy' in sys.modules, 'surfep.oracle' in sys.modules)"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False False\n"

    def test_plain_calls_load_no_argparse(self, tmp_path):
        # argparse (and the gettext it imports) is loaded only to word
        # help and errors: a plain solve and verify never load it
        ws = v4_workspace(tmp_path)
        out = str(tmp_path / "cert.json")
        code = (
            "import sys, surfep.cli as cli\n"
            "def loaded():\n"
            "    return [m for m in ('argparse', 'gettext') if m in sys.modules]\n"
            "report = [loaded()]\n"
            "import contextlib, io\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    report.append(cli.main(['solve', {ws!r}, 'v4_plain',"
            f" '--out', {out!r}]))\n"
            f"    report.append(cli.main(['verify', {out!r}, {ws!r}]))\n"
            "report.append(loaded())\n"
            "print(report)\n"
            "cli.main(['solve', '--help'])\n"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        report, help_text = proc.stdout.split("\n", 1)
        assert report == "[[], 0, 0, []]"
        assert help_text.startswith("usage: surfep solve")


# argparse's own wording, pinned as Python 3.10 to 3.13 word it: (argv,
# (exit code, first line of stdout, stderr)) for help, usage errors and bad
# values, the stdout of help by its usage line alone
TOP_USAGE = "usage: surfep [-h] {solve,verify,plan,genus,count,gen} ...\n"
SOLVE_USAGE = "usage: surfep solve [-h] [--out OUT] file problem\n"
GEN_USAGE = (
    "usage: surfep gen [-h] [--seed SEED] [--count COUNT]\n"
    "                  [--size-k SIZE_K [SIZE_K ...]]\n"
    "                  [--size-h SIZE_H [SIZE_H ...]]\n"
    "                  [--action {trivial,inversion,random}]\n"
    "                  [--genus-rule {exact,slack}] [--out OUT]\n"
)
USAGE_ERRORS = [
    (["--help"], (0, TOP_USAGE[:-1], "")),
    (["-h", "solve"], (0, TOP_USAGE[:-1], "")),
    (["solve", "--help"], (0, SOLVE_USAGE[:-1], "")),
    (["solve", "-h"], (0, SOLVE_USAGE[:-1], "")),
    (["gen", "--help"], (0, GEN_USAGE.partition("\n")[0], "")),
    (["plan", "--help"], (0, "usage: surfep plan [-h] --genus GENUS --K K --H H", "")),
    (["verify", "-h"], (0, "usage: surfep verify [-h] certificate instance", "")),
    (["count", "-h"], (
        0, "usage: surfep count [-h] --group GROUP --genus GENUS [--file FILE]", "",
    )),
    (["genus", "-h"], (0, "usage: surfep genus [-h] --genus GENUS --index INDEX", "")),
    ([], (2, "", (
        TOP_USAGE
        + "surfep: error: the following arguments are required: command\n"
    ))),
    (["--version"], (2, "", (
        TOP_USAGE
        + "surfep: error: the following arguments are required: command\n"
    ))),
    (["solve"], (2, "", (
        SOLVE_USAGE
        + "surfep solve: error: the following arguments are required: file, "
        "problem\n"
    ))),
    (["solve", "a", "b", "c"], (2, "", (
        TOP_USAGE + "surfep: error: unrecognized arguments: c\n"
    ))),
    (["solve", "--out"], (2, "", (
        SOLVE_USAGE + "surfep solve: error: argument --out: expected one argument\n"
    ))),
    (["gen", "--size-k"], (2, "", (
        GEN_USAGE
        + "surfep gen: error: argument --size-k: expected at least one argument\n"
    ))),
    (["verify", "a"], (2, "", (
        "usage: surfep verify [-h] certificate instance\n"
        "surfep verify: error: the following arguments are required: instance\n"
    ))),
    (["verify", "a", "b", "c", "d"], (2, "", (
        TOP_USAGE + "surfep: error: unrecognized arguments: c d\n"
    ))),
    (["count", "--group", "C2"], (2, "", (
        "usage: surfep count [-h] --group GROUP --genus GENUS [--file FILE]\n"
        "                    [--budget BUDGET]\n"
        "surfep count: error: the following arguments are required: --genus\n"
    ))),
    (["genus", "--genus", "x", "--index", "2"], (2, "", (
        "usage: surfep genus [-h] --genus GENUS --index INDEX\n"
        "surfep genus: error: argument --genus: invalid int value: 'x'\n"
    ))),
    (["plan", "--genus", "3", "--K", "2"], (2, "", (
        "usage: surfep plan [-h] --genus GENUS --K K --H H\n"
        "surfep plan: error: the following arguments are required: --H\n"
    ))),
]
# argparse lists the choices of an invalid choice with repr() up to Python
# 3.12.7 and 3.13.0 and with str() after, so these rows pin stderr up to the
# refused value and the choices with their quotes dropped: (argv, stderr up
# to the choices, choices)
INVALID_CHOICES = [
    (["solv"], (
        TOP_USAGE + "surfep: error: argument command: invalid choice: 'solv'",
        "solve, verify, plan, genus, count, gen",
    )),
    (["gen", "--action", "bad"], (
        GEN_USAGE + "surfep gen: error: argument --action: invalid choice: 'bad'",
        "trivial, inversion, random",
    )),
]


def argv_id(argv):
    return " ".join(argv) or "(none)"


def parse_exit(parse, argv, capsys):
    """(exit code, stdout, stderr) of parse(argv), which must exit."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


# one argv of each command no workload runs, with main's exit code: all
# are read by the full parser alone (count's handler refuses the budget)
ARGPARSE_ONLY_ARGV = [
    (["plan", "--genus", "3", "--K", "2", "--H", "1"], 0),
    (["genus", "--index", "3", "--genus", "2"], 0),
    (["count", "--group", "C2", "--genus", "2", "--budget", "10"], 1),
    (["gen", "--size-k", "2", "3", "--count", "2", "--action", "trivial"], 0),
]
# argv -> (exit code, build_parser calls)
LEFTOVERS = [
    (["solve", "WS", "v4_plain"], (0, 0)),
    (["solve", "WS", "v4_plain", "--out", "OUT"], (0, 0)),
    (["verify", "OUT", "WS"], (0, 0)),
    (["solve", "a", "b", "c"], (2, 1)),
    *((argv, (code, 1)) for argv, code in ARGPARSE_ONLY_ARGV),
]


class TestOneFullParser:
    """main answers every argv that _read_plain does not read with the one
    full parser, build_parser."""

    def test_usage_errors_read_as_before(self, monkeypatch, capsys):
        # one list compared whole, so a failing row shows every other one
        monkeypatch.setenv("COLUMNS", "80")
        got = []
        for argv, _ in USAGE_ERRORS:
            code, out, err = parse_exit(main, argv, capsys)
            got.append((argv, (code, out.partition("\n")[0], err)))
        assert got == USAGE_ERRORS

    def test_invalid_choices_name_value_and_choices(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        got = []
        for argv, _ in INVALID_CHOICES:
            code, out, err = parse_exit(main, argv, capsys)
            refusal, _, choices = err.partition(" (choose from ")
            got.append((argv, code, out, refusal, choices.replace("'", "")))
        assert got == [
            (argv, 2, "", refusal, choices + ")\n")
            for argv, (refusal, choices) in INVALID_CHOICES
        ]

    @pytest.mark.parametrize(
        "argv, expected", LEFTOVERS, ids=[argv_id(argv) for argv, _ in LEFTOVERS]
    )
    def test_full_parser_only_for_leftovers(self, tmp_path, monkeypatch, capsys,
                                            argv, expected):
        ws = v4_workspace(tmp_path)
        out = str(tmp_path / "cert.json")
        main(["solve", ws, "v4_plain", "--out", out])
        calls = []
        build_parser = cli.build_parser

        def recording():
            calls.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", recording)
        argv = [{"WS": ws, "OUT": out}.get(a, a) for a in argv]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert (code, len(calls)) == expected


# a plain argv of each command a workload runs: _read_plain reads both
# without argparse
PLAIN_ARGV = [
    ["solve", "--out", "OUT", "WS", "v4"],
    ["verify", "OUT", "WS"],
]


def argv_tokens(command):
    """What a drawn argv of command is made of: the command's option names
    and their prefixes, and tokens argparse reads in ways of its own."""
    names = [arg for arg, _ in cli.COMMANDS[command][1] if arg.startswith("-")]
    prefixes = {name[:end] for name in names for end in range(3, len(name))}
    return sorted({*names, *prefixes, "--out=x", "-h", "--", "-", "-3", "3", "x", ""})


@st.composite
def drawn_argv(draw):
    """A command and up to six tokens: its specs in any order, each option
    that is not required at most once, each with a value, and then maybe
    one more token or one more option with a value, anywhere."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    specs = cli.COMMANDS[command][1]
    value = st.sampled_from(["3", "x", ""])
    argv = []
    for name, kwargs in draw(st.permutations(specs)):
        option = name.startswith("-")
        if option and not kwargs.get("required") and not draw(st.booleans()):
            continue
        argv += [name, draw(value)] if option else [draw(value)]
    extras = [st.just([]), st.sampled_from(argv_tokens(command)).map(lambda t: [t])]
    options = [name for name, _ in specs if name.startswith("-")]
    if options:
        extras.append(st.tuples(st.sampled_from(options), value).map(list))
    at = draw(st.integers(0, len(argv)))
    argv[at:at] = draw(st.one_of(extras))
    return [command, *argv[:6]]


def read_as_argparse(argv):
    """_read_plain(argv), required to be what the full parser reads, less
    its command, whenever it is not None."""
    args = cli._read_plain(argv)
    if args is not None:
        try:
            full = vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            pytest.fail(f"argparse refuses {argv}, which _read_plain reads")
        del full["command"]
        assert vars(args) == full
    return args


class TestPlainArgvReadsAsArgparse:
    def test_benchmark_commands_stay_plain(self):
        # every benchmark call is a solve or a verify: a type=, default= or
        # any other kwarg but help on their specs would quietly send each
        # one through argparse
        for name in ("solve", "verify"):
            for arg, kwargs in cli.COMMANDS[name][1]:
                assert set(kwargs) <= {"help"}, (name, arg)
        for argv, _ in ARGPARSE_ONLY_ARGV:
            assert cli._read_plain(argv) is None, argv

    @pytest.mark.parametrize("argv", PLAIN_ARGV, ids=argv_id)
    def test_plain_argv(self, argv):
        assert read_as_argparse(argv) is not None

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(argv=drawn_argv())
    def test_drawn_argv(self, argv):
        read_as_argparse(argv)
