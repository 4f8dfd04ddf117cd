"""Derive the v4 golden pins of tests/test_cli.py from a v3 checkout.

Run it against the source of the last v3 commit (50ff13c):

    mkdir v3 && git archive 50ff13c | tar -x -C v3
    python scripts/repin_v4_goldens.py v3/src

Using only the v3 library, it first reproduces the two v3 pins
(GOLDEN_GEN5_SHA256 and GOLDEN_VERIFY_SHA256) from the unedited output.
It then converts every v3 certificate to v4 and hashes the result the way
the tests do:

- phi becomes its overrides of gamma o beta_bar_n, where beta_bar_n is
  beta_bar replayed through eta.selected;
- instance_hash becomes the SHA-256 of the compact sorted problem JSON;
- format becomes surfep-certificate-v4.

In the verify golden, the v4 "phi.x[0]" edit changes the value of the first
x override (i, a).  Its v3 counterpart sets phi.x[i-1] to the same value, and
v3 verify must print what v4 verify prints for it.  The other cases are
verified unedited, so their stdout is the v3 stdout.  The script prints both
v3 pins, checked, and the two v4 pins, which the v4 code must reproduce.
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, sys.argv[1])

from surfep import serialize  # noqa: E402
from surfep.cli import main  # noqa: E402
from surfep.surface import initial_basis_state, map_tuple, normalize_to_front  # noqa: E402

V3_GEN5 = "21ae6debf9ab8a56ab8903102cb3f60f1d3c70b2b2e87b52a956afc0c376d0da"
V3_VERIFY = "e0fff83f4cddc340047ce26d4962395833bb66bac0c2481eb032ec25faa632fb"
assert serialize.CERTIFICATE_FORMAT == "surfep-certificate-v3"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def compact_hash(ws, name):
    resolved = serialize.resolve_problem_json(ws._problem(name), ws.groups)
    text = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def overrides(base, full):
    return [[i, a] for i, (b, a) in enumerate(zip(base, full), 1) if a != b]


def to_v4(cert, ws_path):
    """The v4 form of a v3 certificate object."""
    ws = serialize.load_workspace(ws_path)
    name = cert["problem"]
    cert = {**cert, "format": "surfep-certificate-v4",
            "instance_hash": compact_hash(ws, name)}
    if "phi" in cert:
        ep, _ = ws.build_problem(name)
        state = normalize_to_front(
            initial_basis_state([ep.beta_bar]), cert["eta"]["selected"]
        )
        base = map_tuple(ep.gamma, state.channel_tuple(0))
        cert["phi"] = {
            "x": overrides(base.ximg, cert["phi"]["x"]),
            "y": overrides(base.yimg, cert["phi"]["y"]),
        }
    return cert


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
            out = serialize.canonical_json(to_v4(json.loads(out), ws))
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

    def verify(label, cert, workspace, digests):
        open(out, "w").write(serialize.canonical_json(cert))
        rc, stdout = run(["verify", out, workspace])
        for digest in digests:
            digest.update(f"\n{label} {rc}\n".encode())
            digest.update(stdout.encode())

    for workspace, name in verify_cases(tmp):
        if run(["solve", workspace, name, "--out", out])[0] not in (0, 3):
            continue
        cert = json.loads(open(out).read())
        verify(name, cert, workspace, (old, new))
        if "phi" in cert:
            problem = json.loads(open(workspace).read())["problems"][name]
            order = problem["K"]["order"] * problem["H"]["order"]
            edited = json.loads(json.dumps(cert))
            edited["phi"]["x"][0] = (edited["phi"]["x"][0] + 1) % order
            verify(f"{name} phi.x[0]", edited, workspace, (old,))
            i, a = to_v4(cert, workspace)["phi"]["x"][0]
            edited = json.loads(json.dumps(cert))
            edited["phi"]["x"][i - 1] = (a + 1) % order
            verify(f"{name} phi.x[0]", edited, workspace, (new,))
        edited = json.loads(json.dumps(cert))
        edited["eta"]["selected"].reverse()
        verify(f"{name} eta.selected", edited, workspace, (old, new))
    return old.hexdigest(), new.hexdigest()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        old_gen5, new_gen5 = gen5_pins(tmp)
        old_verify, new_verify = verify_pins(tmp)
    assert old_gen5 == V3_GEN5, old_gen5
    assert old_verify == V3_VERIFY, old_verify
    print(f"v3 GOLDEN_GEN5_SHA256   {old_gen5} (reproduced)")
    print(f"v3 GOLDEN_VERIFY_SHA256 {old_verify} (reproduced)")
    print(f"v4 GOLDEN_GEN5_SHA256   {new_gen5}")
    print(f"v4 GOLDEN_VERIFY_SHA256 {new_verify}")
