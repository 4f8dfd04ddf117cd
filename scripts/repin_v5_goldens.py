"""Derive the v5 golden pins of tests/test_cli.py from a v4 checkout.

Run it from a v5 checkout against the source of the last v4 commit
(dc7aafb):

    mkdir v4 && git archive dc7aafb | tar -x -C v4
    python scripts/repin_v5_goldens.py v4/src

Using only the v4 library, it first reproduces the two v4 pins
(GOLDEN_GEN5_SHA256 and GOLDEN_VERIFY_SHA256) from the unedited output.
It then converts every v4 certificate to v5 and hashes the result the way
the tests do:

- eta.selected and eta.s give way to eta.pair, the beta_bar value pair at
  the first selected position.  The script asserts that selected is exactly
  the first m positions with that pair, so the v5 program moves the same
  positions;
- a not_reduced certificate's relative keeps only offending_index;
- format becomes surfep-certificate-v5.

In the verify golden, the stdout of each unedited certificate and of its
phi.x[0] edit is the v4 stdout with two changes: the eta_recomputed line
becomes the eta_program line, whose detail names the pair, how often it
occurs among beta_bar's pairs, and m; and the memberships_match line is
dropped.  The name column is padded again to the longest name.  The v4
eta.selected reversal has no v5 counterpart.  The eta.pair reversal that
replaces it is pinned fresh: its stdout comes from `python -m surfep verify`
on the v5 source next to this script.  The script prints both v4 pins,
checked, and the two v5 pins, which the v5 code must reproduce.
"""

import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, sys.argv[1])

from surfep import serialize  # noqa: E402
from surfep.cli import main  # noqa: E402

V5_SRC = Path(__file__).resolve().parent.parent / "src"
V4_GEN5 = "c9eab28dda1468c842e2e429e2f2416bfc8baf8a73790950bcbcb91bf452c17d"
V4_VERIFY = "39855a95ae9052a27f34193187a7c9c9f104e4113e5192047208e4c82c0e13b8"
assert serialize.CERTIFICATE_FORMAT == "surfep-certificate-v4"

_LINE = re.compile(r"^(\S+) +(pass|FAIL)(?:  (.*))?$")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def program(cert, ws_path):
    """(pair, its number of occurrences among beta_bar's pairs) for the v4
    certificate cert, after checking that eta.selected is the first m
    occurrences of pair."""
    ep, _ = serialize.load_workspace(ws_path).build_problem(cert["problem"])
    eta = cert["eta"]
    pairs = list(zip(ep.beta_bar.ximg, ep.beta_bar.yimg))
    pair = pairs[eta["selected"][0] - 1]
    positions = [i for i, p in enumerate(pairs, 1) if p == pair]
    assert eta["selected"] == positions[: eta["m"]], cert["problem"]
    assert eta["s"] == len(eta["kgens"]), cert["problem"]
    return pair, len(positions)


def to_v5(cert, ws_path):
    """The v5 form of a v4 certificate object."""
    pair, _ = program(cert, ws_path)
    eta = cert["eta"]
    cert = {**cert, "format": "surfep-certificate-v5", "eta": {
        "pair": list(pair), "n": eta["n"], "m": eta["m"], "kgens": eta["kgens"],
    }}
    if "relative" in cert:
        cert["relative"] = {"offending_index": cert["relative"]["offending_index"]}
    return cert


def to_v5_stdout(stdout, cert, ws_path):
    """v5 verify's stdout for a v4 stdout on cert, as the module docstring
    describes."""
    pair, count = program(cert, ws_path)
    rows = []
    for line in stdout.splitlines():
        name, status, detail = _LINE.match(line).groups()
        if name == "memberships_match":
            continue
        if name == "eta_recomputed":
            assert status == "pass", line
            name = "eta_program"
            detail = (f"pair {pair} occurs {count} times among beta_bar's "
                      f"pairs, m = {cert['eta']['m']}")
        rows.append((name, status, detail))
    width = max(len(name) for name, _, _ in rows)
    return "".join(
        f"{name:<{width}}  {status}" + (f"  {detail}" if detail else "") + "\n"
        for name, status, detail in rows
    )


def run_v5(argv, cwd):
    """`python -m surfep argv` on the v5 source: (exit code, stdout)."""
    env = dict(os.environ, PYTHONPATH=str(V5_SRC))
    proc = subprocess.run([sys.executable, "-m", "surfep", *argv], cwd=cwd,
                          env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout


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
            out = serialize.canonical_json(to_v5(json.loads(out), ws))
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
    out = str(tmp / "cert.json")
    old, new = hashlib.sha256(), hashlib.sha256()

    def record(digest, label, rc, stdout):
        digest.update(f"\n{label} {rc}\n".encode())
        digest.update(stdout.encode())

    def verify(label, cert, workspace, original):
        """v4 verify on cert into old, and its v5 stdout into new."""
        open(out, "w").write(serialize.canonical_json(cert))
        rc, stdout = run(["verify", out, workspace])
        record(old, label, rc, stdout)
        record(new, label, rc, to_v5_stdout(stdout, original, workspace))

    for workspace, name in verify_cases(tmp):
        if run(["solve", workspace, name, "--out", out])[0] not in (0, 3):
            continue
        cert = json.loads(open(out).read())
        verify(name, cert, workspace, cert)
        if "phi" in cert:
            problem = json.loads(open(workspace).read())["problems"][name]
            order = problem["K"]["order"] * problem["H"]["order"]
            edited = json.loads(json.dumps(cert))
            edited["phi"]["x"][0][1] = (edited["phi"]["x"][0][1] + 1) % order
            verify(f"{name} phi.x[0]", edited, workspace, cert)
        edited = json.loads(json.dumps(cert))
        edited["eta"]["selected"].reverse()
        open(out, "w").write(serialize.canonical_json(edited))
        record(old, f"{name} eta.selected", *run(["verify", out, workspace]))
        # pinned fresh, on the v5 code
        edited = to_v5(cert, workspace)
        edited["eta"]["pair"].reverse()
        open(out, "w").write(serialize.canonical_json(edited))
        record(new, f"{name} eta.pair", *run_v5(["verify", out, workspace], tmp))
    return old.hexdigest(), new.hexdigest()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        old_gen5, new_gen5 = gen5_pins(tmp)
        old_verify, new_verify = verify_pins(tmp)
    assert old_gen5 == V4_GEN5, old_gen5
    assert old_verify == V4_VERIFY, old_verify
    print(f"v4 GOLDEN_GEN5_SHA256   {old_gen5} (reproduced)")
    print(f"v4 GOLDEN_VERIFY_SHA256 {old_verify} (reproduced)")
    print(f"v5 GOLDEN_GEN5_SHA256   {new_gen5}")
    print(f"v5 GOLDEN_VERIFY_SHA256 {new_verify}")
