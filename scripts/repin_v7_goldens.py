"""Derive GOLDEN_GEN5_SHA256 of tests/test_cli.py for certificate v7.

Run it from this checkout against an unpacked copy of the parent commit,
the last one that wrote v6 certificates:

    mkdir parent && git archive <parent commit> | tar -x -C parent
    python scripts/repin_v7_goldens.py parent/src

It reads the parent's pin from parent/tests/test_cli.py, next to the src it
is given.  Using only the parent library, it first reproduces that pin from
the unedited `gen --seed 5 --count 12` workspace and `solve` stdout.  It
then maps each v6 certificate to v7: eta.pair goes to the top level as
pair, the rest of eta and a not_reduced run's relative are dropped, and the
format becomes surfep-certificate-v7.  Each is written with canonical_json
from the source next to this script, and the texts are hashed the way the
test does.  It prints both pins.  GOLDEN_VERIFY_SHA256 does not move:
verify prints the same lines for a v7 certificate as for the v6 one it
maps from.
"""

import ast
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

assert serialize.CERTIFICATE_FORMAT == "surfep-certificate-v6"
NEW_SRC = Path(__file__).resolve().parent.parent / "src"
# canonical_json of the source next to this script, on each object read
# from stdin as a JSON list; null (a solve that printed nothing) stays ""
REWRITE = (
    "import json, sys\n"
    "from surfep.serialize import canonical_json\n"
    "objs = json.load(sys.stdin)\n"
    "json.dump([o and canonical_json(o) or '' for o in objs], sys.stdout)\n"
)


def parent_gen5():
    """GOLDEN_GEN5_SHA256 as the parent's own tests/test_cli.py pins it."""
    tests = Path(sys.argv[1]).resolve().parent / "tests" / "test_cli.py"
    for node in ast.parse(tests.read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "GOLDEN_GEN5_SHA256"):
            return ast.literal_eval(node.value)
    raise SystemExit(f"{tests} pins no GOLDEN_GEN5_SHA256")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def to_v7(cert):
    """The v7 form of a v6 certificate object."""
    assert set(cert) <= {"format", "problem", "instance_hash", "outcome", "eta",
                         "relative"}, sorted(cert)
    return {"format": "surfep-certificate-v7", "problem": cert["problem"],
            "instance_hash": cert["instance_hash"], "outcome": cert["outcome"],
            "pair": cert["eta"]["pair"]}


def rewrite(objs):
    """The objects written by the canonical_json next to this script."""
    env = dict(os.environ, PYTHONPATH=str(NEW_SRC))
    proc = subprocess.run([sys.executable, "-c", REWRITE], env=env, check=True,
                          input=json.dumps(objs), capture_output=True, text=True)
    return json.loads(proc.stdout)


def gen5_pins(tmp):
    """(the parent's pin, the new pin, certificates mapped): the workspace
    text, then per problem its name, solve exit code and solve stdout,
    hashed as the test does."""
    ws = str(tmp / "gen5.json")
    assert run(["gen", "--seed", "5", "--count", "12", "--out", ws])[0] == 0
    workspace, labels, old, new = open(ws).read(), [], [], []
    for name in sorted(serialize.load_workspace(ws).problems):
        rc, out = run(["solve", ws, name])
        labels.append(f"\n{name} {rc}\n")
        old.append(out)
        new.append(out and to_v7(json.loads(out)))
    new = rewrite(new)
    pins = []
    for texts in (old, new):
        digest = hashlib.sha256(workspace.encode())
        for label, text in zip(labels, texts):
            digest.update(label.encode())
            digest.update(text.encode())
        pins.append(digest.hexdigest())
    return (*pins, sum(map(bool, old)))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        old_gen5, new_gen5, mapped = gen5_pins(Path(d))
    assert old_gen5 == parent_gen5(), old_gen5
    print(f"parent GOLDEN_GEN5_SHA256 {old_gen5} (reproduced)")
    print(f"{mapped} v6 certificates mapped to v7")
    print(f"new    GOLDEN_GEN5_SHA256 {new_gen5}")
