"""Derive the v6 golden pins of tests/test_cli.py from a v5 checkout.

Run it from a v6 checkout against the source of the last v5 commit
(24f45ad):

    mkdir v5 && git archive 24f45ad | tar -x -C v5
    python scripts/repin_v6_goldens.py v5/src

Using only the v5 library, it first reproduces the two v5 pins
(GOLDEN_GEN5_SHA256 and GOLDEN_VERIFY_SHA256) from the unedited output.
It then converts every v5 certificate to v6 by dropping phi and renaming
the format, and hashes the result the way the tests do:

- in the gen golden, the workspace bytes are the same and each solve
  stdout is the converted v5 certificate;
- in the verify golden, each unedited certificate keeps its v5 stdout and
  exit code.  The script asserts this: `python -m surfep verify` on the v6
  source next to it, run on the converted certificate, must print the v5
  stdout byte for byte.  The phi.x[0] edits have no v6 counterpart and are
  dropped.  The eta.pair reversal is pinned fresh on the v6 source, since
  v6 derives phi from the program: a reversed pair that occurs m times is a
  valid alternative program there, not a mismatch with the recorded phi.

It prints both v5 pins, checked, and the two v6 pins, which the v6 code
must reproduce.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, sys.argv[1])

from surfep import serialize  # noqa: E402
from surfep.cli import main  # noqa: E402

V6_SRC = Path(__file__).resolve().parent.parent / "src"
V5_GEN5 = "bd162e206b30799fddf44aebf78a5e181dffc42e576f0ca7c4ae38eaa5fc4da3"
V5_VERIFY = "55a9e63bf1f2a6a487e32f36afd9a6a6b9b9cf9a41492e2887e4738898227750"
assert serialize.CERTIFICATE_FORMAT == "surfep-certificate-v5"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def run_v6(argv, cwd):
    """`python -m surfep argv` on the v6 source: (exit code, stdout)."""
    env = dict(os.environ, PYTHONPATH=str(V6_SRC))
    proc = subprocess.run([sys.executable, "-m", "surfep", *argv], cwd=cwd,
                          env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout


def to_v6(cert):
    """The v6 form of a v5 certificate object."""
    cert = {k: v for k, v in cert.items() if k != "phi"}
    return {**cert, "format": "surfep-certificate-v6"}


def gen5_pins(tmp):
    ws = str(tmp / "gen5.json")
    assert run(["gen", "--seed", "5", "--count", "12", "--out", ws])[0] == 0
    old, new = hashlib.sha256(), hashlib.sha256()
    data = open(ws, "rb").read()
    old.update(data)
    new.update(data)
    for name in sorted(serialize.load_workspace(ws).problems):
        rc, out = run(["solve", ws, name])
        for digest in (old, new):
            digest.update(f"\n{name} {rc}\n".encode())
        old.update(out.encode())
        if out:
            out = serialize.canonical_json(to_v6(json.loads(out)))
        new.update(out.encode())
    return old.hexdigest(), new.hexdigest()


def verify_cases(tmp):
    ws5 = str(tmp / "gen5.json")
    cases = [(ws5, name) for name in sorted(serialize.load_workspace(ws5).problems)]
    ws3 = str(tmp / "gen3.json")
    run(["gen", "--seed", "3", "--count", "2", "--size-h", "1", "--out", ws3])
    doc = json.loads(open(ws3).read())
    g = doc["problems"]["ep001"]["genus"]
    doc["problems"]["ep001"]["relative"] = {
        "Q": {"order": 2, "table": [[0, 1], [1, 0]]},
        "nu": {"x": [0, 1] + [0] * (g - 2), "y": [0] * g},
        "S": [0],
    }
    open(ws3, "w").write(serialize.canonical_json(doc))
    cases.append((ws3, "ep001"))
    return cases


def verify_pins(tmp):
    """(v5 pin, v6 pin, the number of genuine certificates compared)."""
    out = str(tmp / "cert.json")
    old, new = hashlib.sha256(), hashlib.sha256()
    genuine = 0

    def record(digest, label, rc, stdout):
        digest.update(f"\n{label} {rc}\n".encode())
        digest.update(stdout.encode())

    def verify(label, cert, workspace):
        open(out, "w").write(serialize.canonical_json(cert))
        rc, stdout = run(["verify", out, workspace])
        record(old, label, rc, stdout)
        return rc, stdout

    for workspace, name in verify_cases(tmp):
        if run(["solve", workspace, name, "--out", out])[0] not in (0, 3):
            continue
        cert = json.loads(open(out).read())
        v5_result = verify(name, cert, workspace)
        open(out, "w").write(serialize.canonical_json(to_v6(cert)))
        v6_result = run_v6(["verify", out, workspace], tmp)
        assert v6_result == v5_result, (name, v5_result, v6_result)
        record(new, name, *v6_result)
        genuine += 1
        if "phi" in cert:
            problem = json.loads(open(workspace).read())["problems"][name]
            order = problem["K"]["order"] * problem["H"]["order"]
            edited = json.loads(json.dumps(cert))
            edited["phi"]["x"][0][1] = (edited["phi"]["x"][0][1] + 1) % order
            verify(f"{name} phi.x[0]", edited, workspace)
        edited = json.loads(json.dumps(cert))
        edited["eta"]["pair"].reverse()
        verify(f"{name} eta.pair", edited, workspace)
        # pinned fresh, on the v6 code
        edited = to_v6(edited)
        open(out, "w").write(serialize.canonical_json(edited))
        record(new, f"{name} eta.pair", *run_v6(["verify", out, workspace], tmp))
    return old.hexdigest(), new.hexdigest(), genuine


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        old_gen5, new_gen5 = gen5_pins(tmp)
        old_verify, new_verify, genuine = verify_pins(tmp)
    assert old_gen5 == V5_GEN5, old_gen5
    assert old_verify == V5_VERIFY, old_verify
    print(f"v5 GOLDEN_GEN5_SHA256   {old_gen5} (reproduced)")
    print(f"v5 GOLDEN_VERIFY_SHA256 {old_verify} (reproduced)")
    print(f"verify stdout and exit code identical under v6 on {genuine} "
          f"genuine certificates")
    print(f"v6 GOLDEN_GEN5_SHA256   {new_gen5}")
    print(f"v6 GOLDEN_VERIFY_SHA256 {new_verify}")
