"""Every field of a certificate is read by `surfep verify`: changed, given
another JSON type or deleted, it makes verify exit 1 with an error naming
the field or the failing check.  Fields that verify does not read are
refused by name."""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest

from surfep.cli import main
from surfep.serialize import canonical_json, certificate_from_json, load_workspace
from surfep.solver import reverify_certificate


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def certificates(tmp_path_factory):
    """kind -> (workspace, certificate object) for ep000 of `gen --seed 3
    --count 2 --size-h 1` (proper, relative), its ep001 (proper, gamma
    level), and ep001 given the relative Q = C2, nu.x = (0, 1, 0, ...),
    S = {0}, whose run stops at position 2 (not_reduced)."""
    tmp = tmp_path_factory.mktemp("mutations")
    ws = str(tmp / "gen.json")
    assert run(["gen", "--seed", "3", "--count", "2", "--size-h", "1", "--out", ws])[0] == 0
    doc = json.loads(open(ws).read())
    g = doc["problems"]["ep001"]["genus"]
    doc["problems"]["ep001"]["relative"] = {
        "Q": {"order": 2, "table": [[0, 1], [1, 0]]},
        "nu": {"x": [0, 1] + [0] * (g - 2), "y": [0] * g},
        "S": [0],
    }
    ws_nr = str(tmp / "gen_nr.json")
    open(ws_nr, "w").write(canonical_json(doc))
    out = {}
    for kind, workspace, name, code in (
        ("relative", ws, "ep000", 0),
        ("gamma", ws, "ep001", 0),
        ("not_reduced", ws_nr, "ep001", 3),
    ):
        cert = str(tmp / f"{kind}.json")
        assert run(["solve", workspace, name, "--out", cert])[0] == code
        out[kind] = (workspace, json.loads(open(cert).read()))
    assert out["not_reduced"][1]["relative"]["offending_index"] == 2
    return out


def verify(tmp_path, workspace, cert):
    path = str(tmp_path / "edited.json")
    open(path, "w").write(canonical_json(cert))
    return run(["verify", path, workspace])


def refusal(code, out, err):
    """None when verify refused with a named error, else what went wrong.

    The error line names a field (checked by the caller) or, when checks
    ran, the first failing one."""
    if code != 1:
        return f"exit {code}"
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    if len(errors) != 1:
        return f"stderr {err!r}"
    failed = re.findall(r"^(\S+) +FAIL", out, re.M)
    if failed and errors[0] != f"error: {failed[0]}":
        return f"{errors[0]!r} does not name the failing check {failed[0]}"
    return None


def fields(obj, path=()):
    """(path, value) of every field below obj."""
    for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
        sub = path + (key,)
        yield sub, value
        if isinstance(value, (dict, list)):
            yield from fields(value, sub)


OTHER_OUTCOME = {"proper": "solution", "not_reduced": "proper"}


def same_type(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return OTHER_OUTCOME.get(value, value + "x")
    if isinstance(value, list):
        return value[1:] if value else [0]
    return {}


def other_type(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return 0
    if isinstance(value, list):
        return {}
    return []


def mutated(cert, path, how):
    cert = json.loads(json.dumps(cert))
    parent = cert
    for key in path[:-1]:
        parent = parent[key]
    if how == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = how(parent[path[-1]])
    return cert


def field_name(path):
    """The last key of path, the name the error must contain."""
    return next(key for key in reversed(path) if isinstance(key, str))


@pytest.mark.parametrize("kind", ["gamma", "relative", "not_reduced"])
def test_every_field_mutation_is_refused(certificates, tmp_path, kind):
    workspace, cert = certificates[kind]
    assert verify(tmp_path, workspace, cert)[0] == 0
    wrong = []
    paths = list(fields(cert))
    for path, _ in paths:
        for how in (same_type, other_type, "delete"):
            code, out, err = verify(tmp_path, workspace, mutated(cert, path, how))
            problem = refusal(code, out, err)
            if problem is None and "FAIL" not in out and field_name(path) not in err:
                problem = f"{err.strip()!r} names neither {field_name(path)} nor a check"
            if problem is not None:
                label = how if isinstance(how, str) else how.__name__
                wrong.append(f"{'.'.join(map(str, path))} {label}: {problem}")
    assert not wrong, "\n".join(wrong)
    assert len(paths) > 10


# The edits that verified with exit 0 on the v2 certificates, with the fields
# that v3 no longer writes put back: each is now refused by name.
V2_WITNESS = {"word": "x1^-1 x2", "value": 1, "in_n_left": True, "in_n_right": True}
V2_CHECK = {"name": "shape", "passed": True, "detail": "genus 8"}


def readd(key, value):
    return lambda cert: {**cert, key: value}


def readd_relative(key, value):
    def edit(cert):
        relative = {"memberships": [], "offending_index": None}
        return {**cert, "relative": {**relative, key: value}}
    return edit


def readd_nested(block, key, value):
    return lambda cert: {**cert, block: {**cert[block], key: value}}


V2_EDITS = [
    ("relative", "genus", readd("genus", 9), "genus"),
    ("relative", "is_solution", readd("is_solution", False), "is_solution"),
    ("relative", "checks_emptied", readd("checks", []), "checks"),
    ("relative", "passed_flipped", readd("checks", [{**V2_CHECK, "passed": False}]),
     "checks"),
    ("relative", "witnesses_emptied", readd("witnesses", []), "witnesses"),
    ("relative", "in_n_left_flipped",
     readd("witnesses", [{**V2_WITNESS, "in_n_left": False}]), "witnesses"),
    ("relative", "q_order", readd_relative("q_order", 3), "relative"),
    ("relative", "s_members", readd_relative("s_members", [0, 1]), "relative"),
    ("relative", "beta_n_image", readd_relative("beta_n_image", []), "relative"),
    ("relative", "memberships",
     readd_relative("memberships", [[2, False, True]]), "relative"),
    ("relative", "offending_index", readd_relative("offending_index", 2), "relative"),
    # a v3 proper certificate has no relative block to delete, and verify
    # recomputes the relative checks from the problem; the one certificate
    # that has the block cannot lose it
    ("not_reduced", "relative_deleted", lambda cert: {
        k: v for k, v in cert.items() if k != "relative"
    }, "relative"),
    ("not_reduced", "phi_changed", readd("phi", {"x": [1] * 32, "y": [0] * 32}), "phi"),
    ("not_reduced", "phi_truncated", readd("phi", {"x": [0], "y": [0]}), "phi"),
    ("not_reduced", "genus", readd("genus", 33), "genus"),
    ("not_reduced", "q_order", readd_nested("relative", "q_order", 3), "relative.q_order"),
    ("not_reduced", "beta_n_image", readd_nested("relative", "beta_n_image", [0]),
     "relative.beta_n_image"),
    ("not_reduced", "checks", readd("checks", []), "checks"),
    ("not_reduced", "witnesses", readd("witnesses", [V2_WITNESS]), "witnesses"),
]


@pytest.mark.parametrize(
    "kind,edit,field", [(k, e, f) for k, _, e, f in V2_EDITS],
    ids=[f"{k}-{name}" for k, name, _, _ in V2_EDITS],
)
def test_v2_edits_are_refused(certificates, tmp_path, kind, edit, field):
    workspace, cert = certificates[kind]
    code, out, err = verify(tmp_path, workspace, edit(cert))
    assert code == 1 and out == ""
    assert err.startswith(f"error: certificate field {field} ")


def set_phi(key, value):
    return lambda phi, ctx: phi.update({key: value})


def set_entry(k, value):
    return lambda phi, ctx: phi["x"][0].__setitem__(k, value(ctx))


# The edits of phi that v5 certificates refused, each applied to phi as v5
# wrote it (its overrides of gamma o beta_bar) and put back into the v6
# certificate.  v6 derives phi from eta, so every one is refused by name
# before a check runs.  ctx holds the genus g, |A| as order and phi in full
# as full.
PHI_EDITS = [
    ("x_object", set_phi("x", {})),
    ("y_integer", set_phi("y", 2)),
    ("pair_integer", lambda phi, ctx: phi["x"].__setitem__(0, 2)),
    ("pair_of_one", lambda phi, ctx: phi["x"][0].pop()),
    ("pair_of_three", lambda phi, ctx: phi["x"][0].append(0)),
    ("position_string", set_entry(0, lambda ctx: "2")),
    ("value_bool", set_entry(1, lambda ctx: True)),
    ("unsorted", lambda phi, ctx: phi["x"].reverse()),
    ("duplicate", lambda phi, ctx: phi["x"].insert(1, list(phi["x"][0]))),
    ("position_0", set_phi("y", [[0, 0]])),
    ("position_g_plus_1", lambda phi, ctx: phi["y"].append([ctx["g"] + 1, 0])),
    ("value_order", set_entry(1, lambda ctx: ctx["order"])),
    ("value_negative", set_entry(1, lambda ctx: -1)),
    ("dropped", lambda phi, ctx: phi["x"].pop(0)),
    ("spurious", lambda phi, ctx: phi["y"].insert(0, [1, ctx["full"].phi_y[0]])),
]


@pytest.mark.parametrize("kind", ["gamma", "relative"])
@pytest.mark.parametrize(
    "edit", [e for _, e in PHI_EDITS], ids=[name for name, _ in PHI_EDITS],
)
def test_phi_override_edits_are_refused(certificates, tmp_path, kind, edit):
    workspace, cert = certificates[kind]
    ep, relative = load_workspace(workspace).build_problem(cert["problem"])
    # phi in full, through the library: the reverified certificate
    full = reverify_certificate(ep, certificate_from_json(cert), relative)
    assert full.outcome == "proper"
    span = len(cert["eta"]["kgens"]) * cert["eta"]["n"]
    phi = {"x": [[i, full.phi_x[i - 1]] for i in range(2, span + 2)], "y": []}
    edit(phi, {"g": ep.genus, "order": ep.A.order, "full": full})
    code, out, err = verify(tmp_path, workspace, {**cert, "phi": phi})
    assert (code, out) == (1, "")
    assert err == (
        "error: certificate field phi is not part of a certificate with "
        "outcome 'proper'\n"
    )
