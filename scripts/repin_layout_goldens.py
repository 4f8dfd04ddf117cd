"""Derive GOLDEN_GEN5_SHA256 of tests/test_cli.py after a layout-only change.

Run it from this checkout against an unpacked copy of the parent commit,
the last one that wrote the previous layout:

    mkdir parent && git archive <parent commit> | tar -x -C parent
    python scripts/repin_layout_goldens.py parent/src

It reads the parent's pin from parent/tests/test_cli.py, next to the src it
is given.  Using only the parent library, it first reproduces that pin from
the unedited `gen --seed 5 --count 12` workspace and `solve` stdout.  It
then re-writes each of those same texts with canonical_json from the source
next to this script, asserts that json.loads reads the same value from the
old and the new text, and hashes the new texts the way the test does.  It
prints both pins.  GOLDEN_VERIFY_SHA256 does not move: verify's stdout does
not depend on the layout of the files it reads.
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

NEW_SRC = Path(__file__).resolve().parent.parent / "src"
# canonical_json of the source next to this script, on each text read from
# stdin as a JSON list; an empty text (a solve that printed nothing) stays
REWRITE = (
    "import json, sys\n"
    "from surfep.serialize import canonical_json\n"
    "texts = json.load(sys.stdin)\n"
    "json.dump([t and canonical_json(json.loads(t)) for t in texts], sys.stdout)\n"
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


def rewrite(texts):
    """The texts re-written by the canonical_json next to this script."""
    env = dict(os.environ, PYTHONPATH=str(NEW_SRC))
    proc = subprocess.run([sys.executable, "-c", REWRITE], env=env, check=True,
                          input=json.dumps(texts), capture_output=True, text=True)
    return json.loads(proc.stdout)


def gen5_pins(tmp):
    """(the parent's pin, the new pin): the workspace text, then per problem
    its name, solve exit code and solve stdout, hashed as the test does."""
    ws = str(tmp / "gen5.json")
    assert run(["gen", "--seed", "5", "--count", "12", "--out", ws])[0] == 0
    texts, labels = [open(ws).read()], []
    for name in sorted(serialize.load_workspace(ws).problems):
        rc, out = run(["solve", ws, name])
        labels.append(f"\n{name} {rc}\n")
        texts.append(out)
    new_texts = rewrite(texts)
    for old, new in zip(texts, new_texts):
        assert (old and json.loads(old)) == (new and json.loads(new))
    pins = []
    for version in (texts, new_texts):
        digest = hashlib.sha256(version[0].encode())
        for label, text in zip(labels, version[1:]):
            digest.update(label.encode())
            digest.update(text.encode())
        pins.append(digest.hexdigest())
    changed = sum(old != new for old, new in zip(texts, new_texts))
    return (*pins, changed, len(texts))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        old_gen5, new_gen5, changed, total = gen5_pins(Path(d))
    assert old_gen5 == parent_gen5(), old_gen5
    print(f"parent GOLDEN_GEN5_SHA256 {old_gen5} (reproduced)")
    print(f"{changed} of {total} texts re-written, each with the same json.loads value")
    print(f"new    GOLDEN_GEN5_SHA256 {new_gen5}")
