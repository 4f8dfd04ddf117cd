import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import surfep
from surfep.cli import main
from surfep.serialize import canonical_json, load_workspace


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


class TestSolveVerify:
    def test_solve_writes_proper_certificate(self, tmp_path, capsys):
        ws = v4_workspace(tmp_path)
        out = str(tmp_path / "cert.json")
        assert main(["solve", ws, "v4_plain", "--out", out]) == 0
        cert = json.loads(open(out).read())
        assert cert["outcome"] == "proper"
        assert cert["format"] == "surfep-certificate-v1"
        assert len(cert["instance_hash"]) == 64

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
        assert cert["relative"] is not None
        assert main(["verify", out, ws]) == 0

    def test_verify_rejects_tampered_certificate(self, tmp_path, capsys):
        ws = v4_workspace(tmp_path)
        out = str(tmp_path / "cert.json")
        main(["solve", ws, "v4_plain", "--out", out])
        cert = json.loads(open(out).read())
        cert["phi"]["x"][0] = (cert["phi"]["x"][0] + 1) % 4
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
        assert main(["verify", out, ws]) == 1
        assert "InstanceHashMismatch" in capsys.readouterr().err

    def test_bound_failure_exit_code(self, tmp_path, capsys):
        ws = v4_workspace(tmp_path)
        assert main(["solve", ws, "too_small"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_problem(self, tmp_path, capsys):
        ws = v4_workspace(tmp_path)
        assert main(["solve", ws, "nope"]) == 1

    def test_not_reduced_exit_code(self, tmp_path, capsys):
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
        out = str(tmp_path / "cert.json")
        assert main(["solve", ws, "p", "--out", out]) == 3
        cert = json.loads(open(out).read())
        assert cert["outcome"] == "not_reduced"
        assert cert["relative"]["offending_index"] is not None
        capsys.readouterr()
        # a stopped run still verifies as internally consistent
        assert main(["verify", out, ws]) == 0


class TestVerifyOutOfRangePhi:
    @pytest.mark.parametrize("entry", [99, -1])
    def test_named_check_and_no_traceback(self, tmp_path, capsys, entry):
        ws = str(tmp_path / "gen.json")
        out = str(tmp_path / "cert.json")
        main(["gen", "--seed", "3", "--count", "2", "--size-h", "1", "--out", ws])
        assert main(["solve", ws, "ep000", "--out", out]) == 0
        cert = json.loads(open(out).read())
        cert["phi"]["x"][0] = entry
        open(out, "w").write(canonical_json(cert))
        proc = run_python("-m", "surfep", "verify", out, ws)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "error: shape" in proc.stderr
        assert re.search(r"^shape +FAIL", proc.stdout, re.M)


class TestPlanGenusCount:
    def test_plan_output(self, capsys):
        assert main(["plan", "--genus", "2", "--K", "2", "--H", "2"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {"m": 16, "required_index": 79, "h": 80}

    def test_plan_bad_genus(self, capsys):
        assert main(["plan", "--genus", "1", "--K", "2", "--H", "2"]) == 1

    def test_genus_output(self, capsys):
        assert main(["genus", "--genus", "2", "--index", "3"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {"genus": 2, "index": 3, "result": 4}

    def test_count_catalog_group(self, capsys):
        assert main(["count", "--group", "S3", "--genus", "1"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {"group": "S3", "genus": 1, "count": 18}

    def test_count_budget(self, capsys):
        rc = main(["count", "--group", "S3", "--genus", "5", "--budget", "100"])
        assert rc == 1

    def test_count_unknown_group(self, capsys):
        assert main(["count", "--group", "nope", "--genus", "1"]) == 1


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


# SHA-256 of the `gen --seed 5 --count 12` workspace followed by, for each
# problem in name order, its name, the `solve` exit code and the `solve`
# stdout.  Any change to group indexing, the solver or the certificate
# encoding moves it; refactors must leave it alone.
GOLDEN_GEN5_SHA256 = "de63298a37ec6513aaf8eaced61edcc80b8fa3a7d0a73b9644a7b0306d81d3ca"


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


def run_python(*args):
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
        timeout=60,
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
