"""JSON interchange for groups, tuples, problems, and certificates.

All emitted JSON is canonical (sorted keys, fixed separators, trailing
newline) so identical inputs give byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Optional

from .embedding import (
    CheckRecord,
    EtaSummary,
    KernelWitness,
    RelativeEvidence,
    SolutionCertificate,
    SplitEP,
    SubgroupSpec,
    make_split_ep,
)
from .groups import (
    ActionSpec,
    FiniteGroup,
    GroupHom,
    SubgroupHandle,
    group_from_permutations,
    make_group,
    make_hom,
)
from .surface import SurfaceTuple, make_surface_tuple, parse_word

# v2 records the certificate basis as its move program (eta.selected) only;
# v1 also wrote every basis element out as an expanded word
CERTIFICATE_FORMAT = "surfep-certificate-v2"


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def instance_hash(resolved_problem: dict) -> str:
    return hashlib.sha256(canonical_json(resolved_problem).encode()).hexdigest()


# --- typed reading ------------------------------------------------------------

_TYPE_NAMES = {
    int: "an integer",
    bool: "true or false",
    str: "a string",
    list: "a list",
    dict: "an object",
    type(None): "null",
}

_CERT = "certificate field"


def _typed(value: Any, kinds, path: str, what: str = _CERT) -> Any:
    """value if it has one of the JSON types kinds (an int is never a bool),
    else a ValueError naming the field: "<what> <path> must be ..."."""
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    if isinstance(value, kinds) and (bool in kinds or not isinstance(value, bool)):
        return value
    expected = " or ".join(_TYPE_NAMES[k] for k in kinds)
    raise ValueError(f"{what} {path} must be {expected}, got {value!r}")


def _get(obj: dict, path: str, kinds=None, what: str = _CERT) -> Any:
    """The field of obj that path ends in (its last dotted segment), typed by
    _typed unless kinds is None; a missing field is named too."""
    key = path.rpartition(".")[2]
    if key not in obj:
        raise ValueError(f"{what} {path} is missing")
    return obj[key] if kinds is None else _typed(obj[key], kinds, path, what)


def _ints(value: Any, path: str, what: str = _CERT) -> tuple[int, ...]:
    items = _typed(value, list, path, what)
    if not set(map(type, items)) <= {int}:  # name the first offender
        for i, v in enumerate(items):
            _typed(v, int, f"{path}[{i}]", what)
    return tuple(items)


def _objects(value: Any, path: str) -> list[tuple[str, dict]]:
    return [
        (f"{path}[{i}]", _typed(v, dict, f"{path}[{i}]"))
        for i, v in enumerate(_typed(value, list, path))
    ]


# --- groups -------------------------------------------------------------------

def group_to_json(group: FiniteGroup) -> dict:
    obj: dict[str, Any] = {
        "order": group.order,
        "table": [list(row) for row in group.mul],
    }
    if group.labels is not None:
        obj["labels"] = list(group.labels)
    return obj


def group_from_json(obj: dict) -> FiniteGroup:
    has_table = "table" in obj
    has_perms = "permutations" in obj
    if has_table == has_perms:
        raise ValueError("group object needs exactly one of 'table' or 'permutations'")
    labels = obj.get("labels")
    if has_table:
        table = obj["table"]
        if table and isinstance(table[0], int):
            # row-major flat list
            n = obj["order"]
            if len(table) != n * n:
                raise ValueError("flat table length must be order squared")
            table = [table[i * n : (i + 1) * n] for i in range(n)]
        group = make_group(table, labels=labels)
    else:
        group, _ = group_from_permutations(obj["permutations"])
        if labels is not None:
            group = FiniteGroup(
                group.order, group.identity, group.mul, group.inv, tuple(labels)
            )
    if "order" in obj and obj["order"] != group.order:
        raise ValueError(
            f"declared order {obj['order']} but the group has order {group.order}"
        )
    return group


def _resolve_group(spec: Any, groups: dict[str, FiniteGroup]) -> FiniteGroup:
    """A group spec is a name in groups, an inline group object, or a group
    already built from one (see Workspace)."""
    if isinstance(spec, FiniteGroup):
        return spec
    if isinstance(spec, str):
        if spec not in groups:
            raise ValueError(f"unknown group name {spec!r}")
        return groups[spec]
    return group_from_json(spec)


# --- homs and tuples ----------------------------------------------------------

def hom_from_json(obj: dict, groups: dict[str, FiniteGroup]) -> GroupHom:
    return make_hom(
        _resolve_group(obj["domain"], groups),
        _resolve_group(obj["codomain"], groups),
        obj["map"],
    )


def tuple_from_json(obj: dict, groups: dict[str, FiniteGroup]) -> SurfaceTuple:
    target = _resolve_group(obj["target"], groups)
    t = make_surface_tuple(target, obj["x"], obj["y"])
    if "genus" in obj and obj["genus"] != t.genus:
        raise ValueError("declared genus does not match image list length")
    return t


def tuple_to_json(t: SurfaceTuple, target_name: str) -> dict:
    return {
        "target": target_name,
        "genus": t.genus,
        "x": list(t.ximg),
        "y": list(t.yimg),
    }


# --- problems -----------------------------------------------------------------

def _surface_tuple(
    target: FiniteGroup, obj: dict, path: str, what: str
) -> SurfaceTuple:
    """The surface tuple in field path of obj: an object with integer lists
    x and y."""
    images = _get(obj, path, dict, what)
    x, y = (_ints(_get(images, f"{path}.{k}"), f"{path}.{k}", what) for k in "xy")
    return make_surface_tuple(target, x, y)


def relative_from_json(obj: dict, groups: dict[str, FiniteGroup]) -> SubgroupSpec:
    what = "relative field"
    q_group = _resolve_group(_get(obj, "Q", what=what), groups)
    nu = _surface_tuple(q_group, obj, "nu", what)
    members = _ints(_get(obj, "S", what=what), "S", what)
    s_handle = SubgroupHandle(q_group, tuple(sorted(set(members))))
    return SubgroupSpec(q_group, nu, s_handle)


def problem_from_json(
    obj: dict, groups: dict[str, FiniteGroup]
) -> tuple[SplitEP, Optional[SubgroupSpec]]:
    what = "problem field"
    k_group = _resolve_group(_get(obj, "K", what=what), groups)
    h_group = _resolve_group(_get(obj, "H", what=what), groups)
    perms = tuple(
        _ints(p, f"action[{i}]", what)
        for i, p in enumerate(_get(obj, "action", list, what))
    )
    action = ActionSpec(h_group, k_group, perms)
    beta_bar = _surface_tuple(h_group, obj, "beta_bar", what)
    genus = _typed(obj.get("genus"), (int, type(None)), "genus", what)
    ep = make_split_ep(k_group, h_group, action, beta_bar, genus=genus)
    relative = None
    if obj.get("relative") is not None:
        rel = _typed(obj["relative"], dict, "relative", what)
        relative = relative_from_json(rel, groups)
    return ep, relative


def resolve_problem_json(obj: dict, groups: dict[str, FiniteGroup]) -> dict:
    """Inline every group reference so the object is self-contained; this is
    what the instance hash covers."""

    def inline(spec):
        return group_to_json(_resolve_group(spec, groups))

    resolved = {
        "genus": obj.get("genus", len(obj["beta_bar"]["x"])),
        "K": inline(obj["K"]),
        "H": inline(obj["H"]),
        "action": [list(p) for p in obj["action"]],
        "beta_bar": {
            "x": list(obj["beta_bar"]["x"]),
            "y": list(obj["beta_bar"]["y"]),
        },
    }
    if obj.get("relative") is not None:
        rel = obj["relative"]
        resolved["relative"] = {
            "Q": inline(rel["Q"]),
            "nu": {"x": list(rel["nu"]["x"]), "y": list(rel["nu"]["y"])},
            "S": sorted(set(rel["S"])),
        }
    return resolved


@dataclass(frozen=True)
class Workspace:
    groups: dict[str, FiniteGroup]
    homs: dict[str, GroupHom]
    tuples: dict[str, SurfaceTuple]
    problems: dict[str, dict]            # raw JSON objects, built on demand
    relatives: dict[str, dict]
    # problem name -> its object with K, H and the relative Q built
    _built: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _problem(self, name: str) -> dict:
        """Problem name's JSON object with K, H and the relative Q replaced by
        their groups, so build_problem and problem_hash share one validation
        of each inline group."""
        if name not in self._built:
            if name not in self.problems:
                raise ValueError(f"unknown problem {name!r}")
            obj = dict(self.problems[name])
            for role in ("K", "H"):
                if role in obj:
                    obj[role] = _resolve_group(obj[role], self.groups)
            rel = obj.get("relative")
            if isinstance(rel, dict) and "Q" in rel:
                obj["relative"] = {**rel, "Q": _resolve_group(rel["Q"], self.groups)}
            self._built[name] = obj
        return self._built[name]

    def build_problem(self, name: str) -> tuple[SplitEP, Optional[SubgroupSpec]]:
        return problem_from_json(self._problem(name), self.groups)

    def build_relative(self, name: str) -> SubgroupSpec:
        if name not in self.relatives:
            raise ValueError(f"unknown relative spec {name!r}")
        return relative_from_json(self.relatives[name], self.groups)

    def problem_hash(self, name: str) -> str:
        return instance_hash(resolve_problem_json(self._problem(name), self.groups))


def load_workspace(path: str) -> Workspace:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    groups = {
        name: group_from_json(obj) for name, obj in doc.get("groups", {}).items()
    }
    homs = {
        name: hom_from_json(obj, groups) for name, obj in doc.get("homs", {}).items()
    }
    tuples = {
        name: tuple_from_json(obj, groups)
        for name, obj in doc.get("tuples", {}).items()
    }
    return Workspace(
        groups=groups,
        homs=homs,
        tuples=tuples,
        problems=dict(doc.get("problems", {})),
        relatives=dict(doc.get("relatives", {})),
    )


# --- certificates -------------------------------------------------------------

def certificate_to_json(
    cert: SolutionCertificate, problem_name: str, content_hash: str
) -> dict:
    obj: dict[str, Any] = {
        "format": CERTIFICATE_FORMAT,
        "problem": problem_name,
        "instance_hash": content_hash,
        "genus": cert.genus,
        "outcome": cert.outcome,
        "is_solution": cert.is_solution,
        "is_proper": cert.is_proper,
        "phi": {"x": list(cert.phi_x), "y": list(cert.phi_y)},
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in cert.checks
        ],
        "witnesses": [
            {
                "word": str(w.word),
                "value": w.value,
                "in_n_left": w.in_n_left,
                "in_n_right": w.in_n_right,
            }
            for w in cert.witnesses
        ],
    }
    if cert.eta is not None:
        obj["eta"] = {
            "s": cert.eta.s,
            "n": cert.eta.n,
            "m": cert.eta.m,
            "kgens": list(cert.eta.kgens),
            "selected": list(cert.eta.selected),
        }
    if cert.relative is not None:
        obj["relative"] = {
            "q_order": cert.relative.q_order,
            "s_members": list(cert.relative.s_members),
            "beta_n_image": list(cert.relative.beta_n_image),
            "memberships": [list(m) for m in cert.relative.memberships],
            "offending_index": cert.relative.offending_index,
        }
    return obj


def certificate_from_json(obj: Any) -> SolutionCertificate:
    """Parse a certificate, checking every field's JSON type; values are
    checked by reverification, not here."""
    fmt = _typed(obj, dict, "(top level)").get("format")
    if fmt != CERTIFICATE_FORMAT:
        raise ValueError(
            f"certificate format {fmt!r} is not {CERTIFICATE_FORMAT!r}; "
            f"re-run surfep solve to get one"
        )
    _get(obj, "problem", str)
    _get(obj, "instance_hash", str)
    phi = _get(obj, "phi", dict)
    eta = None
    if "eta" in obj:
        e = _get(obj, "eta", dict)
        eta = EtaSummary(
            s=_get(e, "eta.s", int),
            n=_get(e, "eta.n", int),
            m=_get(e, "eta.m", int),
            kgens=_ints(_get(e, "eta.kgens"), "eta.kgens"),
            selected=_ints(_get(e, "eta.selected"), "eta.selected"),
        )
    relative = None
    if "relative" in obj:
        r = _get(obj, "relative", dict)
        memberships = []
        for i, m in enumerate(_get(r, "relative.memberships", list)):
            path = f"relative.memberships[{i}]"
            if len(_typed(m, list, path)) != 3:
                raise ValueError(f"certificate field {path} must have 3 entries")
            memberships.append(tuple(
                _typed(v, kind, f"{path}[{k}]")
                for k, (v, kind) in enumerate(zip(m, (int, bool, bool)))
            ))
        relative = RelativeEvidence(
            q_order=_get(r, "relative.q_order", int),
            s_members=_ints(_get(r, "relative.s_members"), "relative.s_members"),
            beta_n_image=_ints(
                _get(r, "relative.beta_n_image"), "relative.beta_n_image"
            ),
            memberships=tuple(memberships),
            offending_index=_get(r, "relative.offending_index", (int, type(None))),
        )
    return SolutionCertificate(
        genus=_get(obj, "genus", int),
        phi_x=_ints(_get(phi, "phi.x"), "phi.x"),
        phi_y=_ints(_get(phi, "phi.y"), "phi.y"),
        is_solution=_get(obj, "is_solution", bool),
        is_proper=_get(obj, "is_proper", bool),
        outcome=_get(obj, "outcome", str),
        checks=tuple(
            CheckRecord(
                _get(c, f"{path}.name", str),
                _get(c, f"{path}.passed", bool),
                _typed(c.get("detail", ""), str, f"{path}.detail"),
            )
            for path, c in _objects(_get(obj, "checks"), "checks")
        ),
        eta=eta,
        witnesses=tuple(
            KernelWitness(
                parse_word(_get(w, f"{path}.word", str)),
                _get(w, f"{path}.value", int),
                _typed(w.get("in_n_left"), (bool, type(None)), f"{path}.in_n_left"),
                _typed(w.get("in_n_right"), (bool, type(None)), f"{path}.in_n_right"),
            )
            for path, w in _objects(_get(obj, "witnesses"), "witnesses")
        ),
        relative=relative,
    )


# --- workspace emission -------------------------------------------------------

def workspace_to_json(instances) -> dict:
    """Serialize generated instances into a workspace document.

    K and H are emitted inline per problem; relatives are inline too.
    """
    problems = {}
    for inst in instances:
        ep = inst.ep
        obj: dict[str, Any] = {
            "genus": ep.genus,
            "K": group_to_json(ep.kernel_subgroup.as_group()[0]),
            "H": group_to_json(ep.B),
            "action": _action_from_ep(ep),
            "beta_bar": {"x": list(ep.beta_bar.ximg), "y": list(ep.beta_bar.yimg)},
        }
        if inst.relative is not None:
            obj["relative"] = {
                "Q": group_to_json(inst.relative.Q),
                "nu": {
                    "x": list(inst.relative.nu.ximg),
                    "y": list(inst.relative.nu.yimg),
                },
                "S": list(inst.relative.S.members),
            }
            obj["relative_valid"] = inst.relative_valid
        problems[inst.name] = obj
    return {"problems": problems}


def _action_from_ep(ep: SplitEP) -> list[list[int]]:
    """Recover the action of B on Ker(alpha) from the split structure:
    conjugation by the section values, read in kernel coordinates."""
    kgrp, incl = ep.kernel_subgroup.as_group()
    pos = {a: i for i, a in enumerate(ep.kernel_subgroup.members)}
    perms = []
    for b in ep.B.elements():
        c = ep.gamma.map[b]
        perm = [
            pos[ep.A.product(c, incl.map[k], ep.A.inv[c])]
            for k in kgrp.elements()
        ]
        perms.append(perm)
    return perms
