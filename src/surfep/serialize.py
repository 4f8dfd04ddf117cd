"""JSON interchange for groups, problems, workspaces, and certificates.

Every file surfep writes is canonical_json, so identical inputs give
byte-identical outputs: the top-level object has one member per line at
indent 2, with sorted keys and ": ", and each member's value, nested objects
included, is on its line in the compact encoding (sorted keys, "," and ":"
separators) that the instance hash is over, which equals RFC 8785 on the
documents surfep writes: integers, booleans, null and ASCII strings.  The
top level stays one member per line because perfbench finds a certificate's
outcome by its '\n  "outcome": ' line.  Readers accept any JSON layout.
Every field read is type-checked, and a malformed one is named in the error.
A problem read from a workspace file is hashed as the text it was read from
when that text already is its compact sorted encoding (_as_encoded says why
that test is exact), as canonical_json writes a problem that carries no
relative_valid and no group label with a space, a '-' or a character the
encoder escapes, and is encoded again otherwise; the hash is the same
either way.
A certificate holds the one choice of the move program, the value pair it
moves, and no phi: reverification derives the rest of the program and phi
from the problem and the pair.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from .embedding import (
    EtaSummary,
    SolutionCertificate,
    SplitEP,
    SubgroupSpec,
    make_split_ep,
)
from .groups import (
    ActionSpec,
    FiniteGroup,
    SubgroupHandle,
    group_from_permutations,
    make_group,
)
from .errors import BetaNotSurjective, GenusMismatch, SurfepError
from .surface import SurfaceTuple, make_surface_tuple

# v7 writes the beta_bar value pair the move program moves and nothing that
# verify derives from the problem: n, m, the kernel generators, phi and a
# not_reduced run's stop position; older formats are refused
CERTIFICATE_FORMAT = "surfep-certificate-v7"


_COMPACT_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def canonical_json(obj: Any) -> str:
    """obj as JSON and a newline: a non-empty top-level object one member per
    line at indent 2, with sorted keys and ": ", each member's value on its
    line as _COMPACT_JSON writes it ("b": {"table":[[0,1],[1,0]]}), and
    every other value on one line as _COMPACT_JSON writes it."""
    if not (isinstance(obj, dict) and obj):
        return _COMPACT_JSON(obj) + "\n"
    members = ",\n  ".join(
        _COMPACT_JSON(_key(key)) + ": " + _COMPACT_JSON(obj[key]) for key in sorted(obj)
    )
    return "{\n  " + members + "\n}\n"


def _key(key: Any) -> str:
    """A member name as json.dumps writes it, before it is quoted."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):  # bools are ints
        return json.dumps(key)
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
    )


def instance_hash(resolved_problem: dict, read: tuple = ()) -> str:
    """SHA-256 of the compact sorted JSON of a resolved problem.

    read, if given, is (value, text, start, end): the problem as decoded
    from text[start:end].  When those characters already are that encoding
    (_as_encoded), they are hashed as read instead of encoding the problem
    again; the digest is the same."""
    data = _as_encoded(resolved_problem, *read) if read else None
    if data is None:
        data = _COMPACT_JSON(resolved_problem).encode()
    return hashlib.sha256(data).hexdigest()


# what the compact encoding of a resolved problem never holds: JSON
# whitespace, the backslash of an escape, the sign of -0, and DEL, which it
# escapes as \u007f
_NEVER_ENCODED = (" ", "\t", "\n", "\r", "\\", "-", "\x7f")


def _as_encoded(resolved: dict, value: Any, text: str, start: int, end: int):
    """text[start:end] as bytes when they are _COMPACT_JSON(resolved), else
    None.  They are when value, decoded from them, equals resolved, they
    are ASCII without a character of _NEVER_ENCODED, and every object lists
    its names in sorted order, once: the text holds as many '":' as names.

    That is exact.  Every leaf problem_from_json reads is type-checked as an
    int or a string, so equality rules out floats and bools, and a JSON int
    has one spelling but for -0, which holds a '-'.  A string without a
    backslash holds no quote, so '":' only ends a name, and a name repeated
    in the text counts twice there but once in value.  The encoder writes an
    ASCII string verbatim unless it holds a quote, a backslash or a control
    character, which JSON text cannot hold raw, or DEL."""
    if value != resolved:
        return None
    raw = text[start:end]
    if not raw.isascii() or any(char in raw for char in _NEVER_ENCODED):
        return None
    if raw.count('":') != _sorted_names(value):
        return None
    return raw.encode()


def _sorted_names(obj: dict) -> int:
    """How many member names obj and the objects among its member values
    hold, or -1 when one of them lists its names out of sorted order.  A
    resolved problem holds no object inside a list, so this counts all."""
    names = list(obj)
    if names != sorted(names):
        return -1
    count = len(names)
    for member in obj.values():
        if isinstance(member, dict):
            inner = _sorted_names(member)
            if inner < 0:
                return -1
            count += inner
    return count


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
_WORKSPACE = "workspace field"
_GROUP = "group field"
_PROBLEM = "problem field"
_RELATIVE = "relative field"


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


def _items(value: Any, kind: type, path: str, what: str) -> tuple:
    items = _typed(value, list, path, what)
    if not set(map(type, items)) <= {kind}:  # name the first offender
        for i, v in enumerate(items):
            _typed(v, kind, f"{path}[{i}]", what)
    return tuple(items)


def _ints(value: Any, path: str, what: str = _CERT) -> tuple[int, ...]:
    return _items(value, int, path, what)


# --- groups -------------------------------------------------------------------

def group_to_json(group: FiniteGroup) -> dict:
    obj: dict[str, Any] = {
        "order": group.order,
        "table": [list(row) for row in group.mul],
    }
    if group.labels is not None:
        obj["labels"] = list(group.labels)
    return obj


def group_from_json(obj: Any, path: str = "group") -> FiniteGroup:
    """The group an object with a table (rows, or row-major with its order)
    or permutations describes; path names its fields in errors."""
    obj = _typed(obj, dict, path, _GROUP)
    has_table = "table" in obj
    has_perms = "permutations" in obj
    if has_table == has_perms:
        raise ValueError(
            f"group {path} needs exactly one of 'table' or 'permutations'"
        )
    labels = obj.get("labels")
    if labels is not None:
        labels = _items(labels, str, f"{path}.labels", _GROUP)
    order = _get(obj, f"{path}.order", int, _GROUP) if "order" in obj else None
    if has_table:
        table = _typed(obj["table"], list, f"{path}.table", _GROUP)
        if table and isinstance(table[0], int):
            # row-major flat list
            table = _ints(table, f"{path}.table", _GROUP)
            n = _get(obj, f"{path}.order", int, _GROUP)
            if len(table) != n * n:
                raise ValueError(f"{_GROUP} {path}.table: flat table length "
                                 "must be order squared")
            table = [table[i * n : (i + 1) * n] for i in range(n)]
        else:
            for i, row in enumerate(table):
                _typed(row, list, f"{path}.table[{i}]", _GROUP)
        named = next((f"{path}.table[{i}]" for i, row in enumerate(table)
                      if len(row) != len(table)), path)
        with _naming(named, _GROUP):
            group = make_group(table, labels=labels)
    else:
        perms = _typed(obj["permutations"], list, f"{path}.permutations", _GROUP)
        perms = [_ints(p, f"{path}.permutations[{i}]", _GROUP)
                 for i, p in enumerate(perms)]
        with _naming(path, _GROUP):
            group, _ = group_from_permutations(perms)
        if labels is not None:
            group = FiniteGroup(
                group.order, group.identity, group.mul, group.inv, labels
            )
    if order is not None and order != group.order:
        raise ValueError(
            f"{_GROUP} {path}.order: declared order {order} but the group has "
            f"order {group.order}"
        )
    if labels is not None and len(labels) != group.order:
        raise ValueError(
            f"{_GROUP} {path}.labels must hold {group.order} labels, one per "
            f"element, got {len(labels)}"
        )
    return group


def _resolve_group(
    spec: Any, groups: dict[str, FiniteGroup], path: str, what: str
) -> FiniteGroup:
    """A group spec is a name in groups or an inline group object."""
    if isinstance(_typed(spec, (str, dict), path, what), str):
        if spec not in groups:
            raise ValueError(f"{what} {path}: unknown group name {spec!r}")
        return groups[spec]
    return group_from_json(spec, path)


# --- problems -----------------------------------------------------------------

def _images(obj: dict, path: str, what: str) -> tuple[tuple[int, ...], ...]:
    """The x and y integer lists of the object in field path of obj."""
    images = _get(obj, path, dict, what)
    return tuple(_ints(_get(images, f"{path}.{k}", what=what), f"{path}.{k}", what)
                 for k in "xy")


@contextmanager
def _naming(path: str, what: str):
    """Prefix an error raised while the value read from field path is built
    with the field's name: "<what> <path>: <error>"."""
    try:
        yield
    except (SurfepError, ValueError) as exc:
        raise ValueError(f"{what} {path}: {exc}") from None


def _surface_tuple(
    group: FiniteGroup, images: tuple[tuple[int, ...], ...], path: str, what: str
) -> SurfaceTuple:
    """make_surface_tuple on the images read from field path: the one place
    a tuple from input has its relation checked."""
    with _naming(path, what):
        return make_surface_tuple(group, *images)


def problem_to_json(ep: SplitEP, relative: Optional[SubgroupSpec]) -> dict:
    """A problem as a workspace holds it, every group inline and the genus
    explicit: what gen writes (with relative_valid) and what the instance
    hash covers."""
    obj: dict[str, Any] = {
        "genus": ep.genus,
        "K": group_to_json(ep.sd.embed_k.domain),
        "H": group_to_json(ep.B),
        "action": [list(p) for p in ep.sd.action.perms],
        "beta_bar": {"x": list(ep.beta_bar.ximg), "y": list(ep.beta_bar.yimg)},
    }
    if relative is not None:
        obj["relative"] = {
            "Q": group_to_json(relative.Q),
            "nu": {"x": list(relative.nu.ximg), "y": list(relative.nu.yimg)},
            "S": list(relative.S.members),
        }
    return obj


def problem_from_json(
    obj: dict, groups: dict[str, FiniteGroup]
) -> tuple[SplitEP, Optional[SubgroupSpec], dict]:
    """The problem obj describes, its relative (None without one), and the
    resolved problem the instance hash covers: problem_to_json of the two,
    built from the values read.  Each field is read once."""
    k_group = _resolve_group(_get(obj, "K", what=_PROBLEM), groups, "K", _PROBLEM)
    h_group = _resolve_group(_get(obj, "H", what=_PROBLEM), groups, "H", _PROBLEM)
    perms = tuple(
        _ints(p, f"action[{i}]", _PROBLEM)
        for i, p in enumerate(_get(obj, "action", list, _PROBLEM))
    )
    with _naming("action", _PROBLEM):
        action = ActionSpec(h_group, k_group, perms)
    beta = _images(obj, "beta_bar", _PROBLEM)
    genus = _typed(obj.get("genus"), (int, type(None)), "genus", _PROBLEM)
    beta_bar = _surface_tuple(h_group, beta, "beta_bar", _PROBLEM)
    try:
        ep = make_split_ep(k_group, h_group, action, beta_bar, genus=genus)
    except GenusMismatch as exc:
        raise ValueError(f"{_PROBLEM} genus: {exc}") from None
    except BetaNotSurjective as exc:
        raise ValueError(f"{_PROBLEM} beta_bar: {exc}") from None
    rel = obj.get("relative")
    if rel is None:
        return ep, None, problem_to_json(ep, None)
    rel = _typed(rel, dict, "relative", _PROBLEM)
    q_group = _resolve_group(_get(rel, "Q", what=_RELATIVE), groups, "Q", _RELATIVE)
    nu = _images(rel, "nu", _RELATIVE)
    members = sorted(set(_ints(_get(rel, "S", what=_RELATIVE), "S", _RELATIVE)))
    nu_tuple = _surface_tuple(q_group, nu, "nu", _RELATIVE)
    with _naming("nu", _RELATIVE):
        if nu_tuple.genus != ep.genus:
            raise GenusMismatch(ep.genus, nu_tuple.genus)
    with _naming("S", _RELATIVE):
        s_handle = SubgroupHandle(q_group, tuple(members))
    relative = SubgroupSpec(q_group, nu_tuple, s_handle)
    return ep, relative, problem_to_json(ep, relative)


class _Members(Mapping):
    """The members of a JSON object in a file's text, by name: where each
    value starts, decoded afresh whenever it is read."""

    def __init__(self, text: str, starts: dict[str, int], path: str):
        self._text, self._starts, self._path = text, starts, path

    def __getitem__(self, name: str) -> Any:
        return self.read(name)[0]

    def read(self, name: str) -> tuple:
        """Member name's value, decoded, the text and where the value
        starts and ends in it: instance_hash's read."""
        start = self._starts[name]
        value, end = _value_at(self._text, start, self._path)
        return value, self._text, start, end

    def __contains__(self, name: object) -> bool:
        return name in self._starts

    def __iter__(self):
        return iter(self._starts)

    def __len__(self) -> int:
        return len(self._starts)


@dataclass(frozen=True)
class Workspace:
    """A workspace file's named groups and its problems.  A problem is
    decoded and built when first asked for, and keeps where its text lies
    in the file, so that problem_hash hashes that text as read when it
    already is the compact sorted encoding, and encodes the problem only
    otherwise."""

    groups: dict[str, FiniteGroup]
    # raw JSON values by name, decoded from the file when read
    problems: _Members
    # problem name -> problem_from_json's (ep, relative, resolved) and the
    # problem's _Members.read
    _built: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _problem(self, name: str) -> tuple:
        """Problem name read once, for both build_problem and problem_hash."""
        if name not in self._built:
            if name not in self.problems:
                raise ValueError(f"unknown problem {name!r}")
            read = self.problems.read(name)
            obj = _typed(read[0], dict, f"problems.{name}", _WORKSPACE)
            self._built[name] = (*problem_from_json(obj, self.groups), read)
        return self._built[name]

    def build_problem(self, name: str) -> tuple[SplitEP, Optional[SubgroupSpec]]:
        return self._problem(name)[:2]

    def problem_hash(self, name: str) -> str:
        return instance_hash(*self._problem(name)[2:])


@contextmanager
def _reading(path: str):
    """Turn a file that is not UTF-8, not JSON, or nested too deeply to
    decode into a ValueError naming path."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not JSON: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path} is nested too deeply to read") from None


def read_json(path: str) -> Any:
    """The JSON document in file path."""
    with _reading(path):
        return json.loads(Path(path).read_bytes().decode("utf-8"))


_BLANK = re.compile(r"[ \t\n\r]*")
_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"', re.DOTALL)
_DECODER = json.JSONDecoder()


def _value_at(text: str, start: int, path: str) -> tuple[Any, int]:
    """The JSON value at offset start of text (the file path), decoded in
    full, and the offset just past it; a ',' or '}' must follow it."""
    with _reading(path):
        value, end = _DECODER.raw_decode(text, start)
        after = _BLANK.match(text, end).end()
        if not text.startswith((",", "}"), after):
            raise json.JSONDecodeError("Expecting ',' delimiter", text, after)
    return value, end


def _outline(text: str, start: int) -> tuple[dict[str, int], dict[str, int]]:
    """Where the values start of the members of the object at offset start
    of text and of the members of its "problems" object, by name; a
    repeated name keeps its last value, as json.loads does.

    Only quotes, braces and backslashes are read, not the values: a string
    left open, braces that do not close, or anything after the object is a
    JSONDecodeError.  Names are read at depths 1 and 2, string by string.
    Deeper, inside a member's value, one loop steps over each string with
    two finds (its closing quote, the next opening one) and over each brace
    with one; a string is read exactly only when no quote follows it or the
    next brace or backslash comes before the quote that does."""
    top: dict[str, int] = {}
    problems: dict[str, int] = {}
    n = len(text)
    find = text.find

    def following(char: str, i: int) -> int:
        """Offset of the next char from offset i on; n if there is none."""
        j = find(char, i)
        return n if j < 0 else j

    def string_end(quote: int) -> int:
        """Offset just past the string that starts at offset quote."""
        string = _STRING.match(text, quote)
        if string is None:
            raise json.JSONDecodeError("Unterminated string starting at", text, quote)
        return string.end()

    quote, opening, closing = (following(char, start) for char in '"{}')
    backslash = -1  # offset of the next backslash, kept by the inner walk
    depth, in_problems = 0, False
    while True:
        if quote < opening and quote < closing:
            end = find('"', quote + 1) + 1
            if end == 0 or text[end - 2] == "\\":  # open, or an escape to read
                end = string_end(quote)
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
            if depth < 3:
                continue
            # inside a member's value no name is read: walk to depth 2, with
            # the finds inlined, since a call per step costs a tenth here
            if backslash < quote:  # behind the walk, outside any string
                backslash = following("\\", quote)
            while True:
                if quote < opening and quote < closing:
                    end = find('"', quote + 1)  # the closing quote, if no escape
                    if not quote < end < backslash or opening < end or closing < end:
                        # open, or a backslash or brace comes first: read it
                        end = string_end(quote) - 1
                        if opening < end:
                            opening = following("{", end)
                        if closing < end:
                            closing = following("}", end)
                        if backslash < end:
                            backslash = following("\\", end)
                    quote = find('"', end + 1)
                    if quote < 0:
                        quote = n
                elif opening < closing:
                    depth += 1
                    opening = find("{", opening + 1)
                    if opening < 0:
                        opening = n
                elif closing < n:
                    depth -= 1
                    closing = find("}", closing + 1)
                    if closing < 0:
                        closing = n
                    if depth == 2:
                        break
                else:  # nothing left to close it: refused below
                    break
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


def load_workspace(path: str) -> Workspace:
    """Read a workspace: named groups and problems.  Other top-level keys
    are ignored.

    The named groups are decoded and validated on every load, and a problem
    when it is built; the rest of the file is only checked for closed
    strings and balanced braces, not decoded."""
    with _reading(path):
        text = Path(path).read_bytes().decode("utf-8")
        start = _BLANK.match(text).end()
        if not text.startswith("{", start):
            # not an object: decoding it all says what it is instead
            _typed(json.loads(text), dict, "(top level)", _WORKSPACE)
        top, problems = _outline(text, start)
    named = _typed(
        _value_at(text, top["groups"], path)[0] if "groups" in top else {},
        dict, "groups", _WORKSPACE,
    )
    groups = {name: group_from_json(g, f"groups.{name}") for name, g in named.items()}
    if "problems" in top and not text.startswith("{", top["problems"]):
        _typed(_value_at(text, top["problems"], path)[0], dict, "problems", _WORKSPACE)
    return Workspace(groups=groups, problems=_Members(text, problems, path))


# --- certificates -------------------------------------------------------------

_OUTCOMES = ("proper", "solution", "invalid", "not_reduced")
_CERT_FIELDS = ("format", "problem", "instance_hash", "outcome", "pair")


def certificate_to_json(
    cert: SolutionCertificate, problem_name: str, content_hash: str
) -> dict:
    return {
        "format": CERTIFICATE_FORMAT,
        "problem": problem_name,
        "instance_hash": content_hash,
        "outcome": cert.outcome,
        "pair": list(cert.eta.pair),
    }


def certificate_from_json(obj: Any) -> SolutionCertificate:
    """Parse a certificate, checking every field's JSON type and refusing any
    field that verify does not read, phi and the v6 eta included; values are
    checked by reverification, not here.  eta comes back holding only the
    pair, and phi empty: the rest follows from the problem and the pair
    (reverify_certificate).
    """
    top = _typed(obj, dict, "(top level)")
    fmt = _get(top, "format", str)
    if fmt != CERTIFICATE_FORMAT:
        raise ValueError(
            f"certificate format {fmt!r} is not {CERTIFICATE_FORMAT!r}; "
            f"re-run surfep solve to get one"
        )
    outcome = _get(top, "outcome", str)
    if outcome not in _OUTCOMES:
        raise ValueError(
            f"certificate field outcome must be one of {', '.join(_OUTCOMES)}, "
            f"got {outcome!r}"
        )
    extra = next((k for k in top if k not in _CERT_FIELDS), None)
    if extra is not None:
        raise ValueError(f"certificate field {extra} is not part of a certificate")
    _get(top, "problem", str)
    _get(top, "instance_hash", str)
    pair = _ints(_get(top, "pair"), "pair")
    if len(pair) != 2:
        raise ValueError("certificate field pair must be a [value, value] pair")
    return SolutionCertificate((), (), outcome, eta=EtaSummary(pair))


# --- workspace emission -------------------------------------------------------

def workspace_to_json(instances) -> dict:
    """Serialize generated instances into a workspace document.

    K and H are emitted inline per problem; relatives are inline too.
    """
    problems = {}
    for inst in instances:
        obj = problem_to_json(inst.ep, inst.relative)
        if inst.relative is not None:
            obj["relative_valid"] = inst.relative_valid
        problems[inst.name] = obj
    return {"problems": problems}
