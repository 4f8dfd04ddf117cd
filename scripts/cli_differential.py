"""Compare `surfep` CLI behaviour between this tree and a baseline.

    python scripts/cli_differential.py BASELINE

BASELINE is a git revision (its ``src/`` is taken with ``git archive``) or
the ``src`` directory of another checkout.  A corpus of valid and hostile
calls goes through ``surfep.cli.main`` in one child process per tree: `gen`
at several recipes and `solve` of every problem they hold, `plan`, `genus`
and `count`, bad argv for all six commands and argv that argparse reads in
ways of its own, unreadable files, every field of four certificates and of
three workspace problems set to each of ten hostile values or deleted, a
relative ``nu`` of another genus than ``beta_bar``'s, problem bodies whose
strings hold braces, escaped quotes and backslashes, and a string left open
inside a problem body, then `verify` of every certificate against every
variant.  Each call's exit code, stdout, stderr and any file it writes must
match byte for byte.  The summary counts the differing calls by command and
by which of exit code, stdout, stderr and written file differ.  It counts
the differing calls that differ only in layout: they match in exit code
and stderr, and each stdout or written file that differs reads to the same
json.loads value.  It then shows the first 20 calls that differ in more
than layout, each part that differs as its first differing line on both
trees, cut to 160 characters.  The one
difference allowed is a call the baseline left to a traceback (an uncaught
ValueError or OSError) that this tree answers with exit 1 and
``error: <the same message>``; those are counted as mended.  Exits 0 when
nothing else differs, layout included.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent / "src"
HOSTILE = (None, True, -1, 0, 2**40, 1.5, "a", [], {}, [-1])
DELETE = "<deleted>"
FIELDS = ("exit code", "stdout", "stderr", "written file")  # a result's parts
C2 = {"order": 2, "table": [[0, 1], [1, 0]]}
G = 64


# --- the child: run calls through cli.main ------------------------------------

def run_cases(cases_path: str, out_dir: str) -> None:
    """Print one result per case of the JSON list in cases_path, running
    under whichever surfep PYTHONPATH names."""
    from surfep.cli import main

    results = []
    out = os.path.join(out_dir, "out.json")
    for argv in json.loads(Path(cases_path).read_text()):
        argv = [a.replace("{OUT}", out) for a in argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # recorded, and compared with the other tree
                code = ["uncaught", type(exc).__name__,
                        isinstance(exc, (ValueError, OSError)), str(exc)]
        written = None
        if os.path.exists(out):
            written = Path(out).read_text(encoding="utf-8", errors="replace")
            os.remove(out)
        results.append([code, stdout.getvalue(), stderr.getvalue(), written])
    json.dump(results, sys.stdout)


# --- the parent: build the corpus, run both trees, compare --------------------

def baseline_src(spec: str, work: Path) -> str:
    if os.path.isdir(spec):
        return os.path.abspath(spec)
    tar = subprocess.run(["git", "archive", spec, "src"], capture_output=True,
                         check=True, cwd=HERE.parent).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(work / "baseline", filter="data")
    return str(work / "baseline" / "src")


def run_tree(src: str, cases: list, work: Path, side: str) -> list:
    cases_path = work / "cases.json"
    cases_path.write_text(json.dumps(cases))
    out_dir = work / f"out_{side}"
    out_dir.mkdir(exist_ok=True)
    env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}
    proc = subprocess.run(
        [sys.executable, __file__, "--run", str(cases_path), str(out_dir)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout)


def compare(cases: list, base: list, new: list, tally: dict) -> None:
    for argv, b, n in zip(cases, base, new):
        tally["cases"] += 1
        if b == n:
            continue
        code = b[0]
        if (isinstance(code, list) and code[2] and n[0] == 1
                and n[1] == b[1] and n[2] == b[2] + f"error: {code[3]}\n"
                and n[3] == b[3]):
            tally["mended"].append((argv, code[1], code[3]))
        else:
            tally["differ"].append((argv, b, n))


def layout_only(b: list, n: list) -> bool:
    """Whether results b and n match in exit code and stderr, and each
    stdout or written file that differs reads to the same json.loads value."""
    if b[0] != n[0] or b[2] != n[2]:
        return False
    for x, y in ((b[1], n[1]), (b[3], n[3])):
        if x != y:
            try:
                if json.loads(x) != json.loads(y):
                    return False
            except (TypeError, ValueError):  # None, or not JSON
                return False
    return True


def first_difference(x, y) -> str:
    """Where two parts of a result first differ: an exit code (or a file
    not written) in full, a text as the number of its first differing line
    and that line on each side, cut to 160 characters."""
    if not (isinstance(x, str) and isinstance(y, str)):
        return f"baseline {x!r}, this tree {y!r}"
    xs, ys = x.splitlines(), y.splitlines()
    i = next((i for i, (a, b) in enumerate(zip(xs, ys)) if a != b),
             min(len(xs), len(ys)))

    def line(lines):
        return repr(lines[i][:160]) if i < len(lines) else "(no such line)"
    return f"line {i + 1}: baseline {line(xs)}, this tree {line(ys)}"


def problem_workspace() -> dict:
    """C2 x| C2 at genus 64: a good relative, a plain problem, one below the
    bound, and a relative run that stops (not_reduced)."""
    beta = {"x": [1] + [0] * (G - 1), "y": [0] * G}
    plain = {"genus": G, "K": C2, "H": C2, "action": [[0, 1], [0, 1]],
             "beta_bar": beta}
    doc = {"groups": {"C2": C2}, "problems": {
        "v4": {**plain, "relative": {
            "Q": "C2", "nu": {"x": [0] * G, "y": [1] + [0] * (G - 1)}, "S": [0]}},
        "v4_plain": plain,
        "too_small": {**plain, "genus": G - 1,
                      "beta_bar": {"x": [1] + [0] * (G - 2), "y": [0] * (G - 1)}},
        "p": {**plain, "relative": {
            "Q": C2, "nu": {"x": [0] + [i % 2 for i in range(1, G)],
                            "y": [0] * G}, "S": [0]}},
    }}
    return json.loads(json.dumps(doc))  # no shared members: each edit is one field


def paths(value, prefix=()):
    """Every field path into value: each object member and the first and
    last item of each list, recursively."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield prefix + (key,)
            yield from paths(value[key], prefix + (key,))
    elif isinstance(value, list) and value:
        for i in sorted({0, len(value) - 1}):
            yield prefix + (i,)
            yield from paths(value[i], prefix + (i,))


def variants(doc, prefix=()):
    """doc with the field at each path under prefix set to each hostile
    value or deleted, then with an unknown member added at prefix."""
    for path in paths(_at(doc, prefix), prefix):
        for value in HOSTILE + (DELETE,):
            edited = copy.deepcopy(doc)
            parent = _at(edited, path[:-1])
            if value == DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            yield edited
    edited = copy.deepcopy(doc)
    _at(edited, prefix)["unexpected"] = 1
    yield edited


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def argv_cases(work: Path, ws: str) -> list:
    """Valid and bad argv for every command."""
    missing = str(work / "missing" / "x.json")
    link = work / "ws_link.json"
    link.symlink_to(ws)
    files = []
    for name, data in {
        "empty": b"", "not_json": b"{", "not_utf8": b"\xff\xfe",
        "list": b"[1, 2]", "deep": b"[" * 100000 + b"]" * 100000,
        "extra": b"{} {}", "open_string": b'{"problems": {"a', "null": b"null",
    }.items():
        path = work / f"{name}.json"
        path.write_bytes(data)
        files.append(str(path))
    cases = [
        [], ["--help"], ["solv"], ["solve"], ["solve", ws], ["verify", ws],
        ["solve", ws, "v4", "extra"], ["solve", ws, "v4", "--bogus"],
        ["solve", ws, "nope"], ["solve", missing, "v4"],
        ["solve", str(work), "v4"], ["solve", ws, "v4", "--out", str(work)],
        ["solve", ws, "v4", "--out", missing], ["solve", ws, "v4", "--out", ws],
        ["solve", ws, "v4", "--out", str(link)],
        ["solve", ws, "too_small", "--out", "{OUT}"],
        ["solve", ws, "p", "--out", "{OUT}"],
        ["solve", ws, "v4_plain", "--out", "{OUT}"],
        ["verify", missing, ws], ["verify", ws, ws], ["verify", str(work), ws],
        ["plan", "--genus", "2", "--K", "2", "--H", "2"],
        ["plan", "--genus", "1", "--K", "2", "--H", "2"],
        ["plan", "--genus", "5", "--K", "0", "--H", "2"],
        ["plan", "--genus", "x", "--K", "2", "--H", "2"], ["plan"],
        ["genus", "--genus", "2", "--index", "3"],
        ["genus", "--genus", "1", "--index", "2"],
        ["genus", "--genus", "3", "--index", "0"], ["genus", "--genus", "3"],
        ["count", "--group", "C2", "--genus", "2"],
        ["count", "--group", "S3", "--genus", "1"],
        ["count", "--group", "nope", "--genus", "2"],
        ["count", "--group", "C2", "--genus", "-1"],
        ["count", "--group", "S3", "--genus", "3", "--budget", "10"],
        ["count", "--group", "C2", "--genus", "1", "--file", ws],
        ["count", "--group", "C2", "--genus", "1", "--file", missing],
        ["gen", "--count", "-1"], ["gen", "--count", "1", "--size-k", "0"],
        ["gen", "--count", "1", "--size-h", "-2"],
        ["gen", "--count", "1", "--size-k", "9", "--size-h", "1"],
        ["gen", "--count", "2", "--out", "{OUT}"],
        ["gen", "--count", "1", "--out", missing],
        ["gen", "--count", "1", "--out", str(work)], ["gen", "--action", "bogus"],
        # argv that argparse reads in ways of its own, and plain forms
        ["solve", ws, "v4", "--out={OUT}"], ["solve", ws, "v4", "--o", "{OUT}"],
        ["solve", "--", ws, "v4"], ["solve", "-", "v4"],
        ["solve", ws, "v4", "--out", str(work / "first.json"), "--out", "{OUT}"],
        ["genus", "--genus", "-3", "--index", "2"],
        ["gen", "--count", "1", "--size-k", "2", "-2"],
        ["solve", "--out", "{OUT}", ws, "v4"],
        ["gen", "--size-k", "2", "3", "--size-h", "1", "--count", "2"],
    ]
    cases += [[name, "--help"] for name in ("solve", "verify", "plan", "genus",
                                             "count", "gen")]
    for path in files:
        cases += [["solve", path, "v4"], ["verify", path, ws], ["verify", ws, path],
                  ["count", "--group", "C2", "--genus", "1", "--file", path]]
    return cases


def main(argv: list[str]) -> int:
    if argv[:1] == ["--run"]:
        run_cases(*argv[1:])
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    tally = {"cases": 0, "mended": [], "differ": []}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        base_src = baseline_src(argv[0], work)

        def both(cases):
            """Run cases on both trees, compare, and return the baseline's
            results."""
            base = run_tree(base_src, cases, work, "base")
            compare(cases, base, run_tree(str(HERE), cases, work, "new"), tally)
            return base

        ws_doc = problem_workspace()
        ws = str(work / "ws.json")
        Path(ws).write_text(json.dumps(ws_doc))

        # gen workspaces and the certificate of every problem in them
        recipes = [["--seed", "3", "--count", "6"],
                   ["--seed", "7", "--count", "4", "--size-k", "2", "4", "--size-h",
                    "1", "2", "--action", "inversion", "--genus-rule", "slack"],
                   ["--seed", "1", "--count", "3", "--action", "trivial"]]
        gen_paths = []
        for i, out in enumerate(both([["gen", *r] for r in recipes])):
            gen_paths.append(str(work / f"gen{i}.json"))
            Path(gen_paths[-1]).write_text(out[1])
        solves = [["solve", ws, name] for name in ws_doc["problems"]]
        for path in gen_paths:
            solves += [["solve", path, name]
                       for name in json.loads(Path(path).read_text())["problems"]]
        certs = {}
        for argv_, out in zip(solves, both(solves)):
            if out[0] in (0, 3):
                cert = work / f"cert{len(certs)}.json"
                cert.write_text(out[1])
                certs[(argv_[1], argv_[2])] = str(cert)
        both([["verify", cert, path] for (path, _), cert in certs.items()])
        both(argv_cases(work, ws))

        # hostile certificates, verified against their workspace
        cases = []
        for key in [(ws, "v4"), (ws, "v4_plain"), (ws, "p"), (gen_paths[0], "ep000")]:
            doc = json.loads(Path(certs[key]).read_text())
            for edited in variants(doc):
                path = work / f"hc_{len(cases)}.json"
                path.write_text(json.dumps(edited))
                cases.append(["verify", str(path), key[0]])
        both(cases)

        # hostile workspace problems, solved and verified against
        cases = []
        gen_doc = json.loads(Path(gen_paths[0]).read_text())
        for doc, name, cert in [(ws_doc, "v4", certs[(ws, "v4")]),
                                (ws_doc, "v4_plain", certs[(ws, "v4_plain")]),
                                (gen_doc, "ep000", certs[(gen_paths[0], "ep000")])]:
            for edited in variants(doc, ("problems", name)):
                path = work / f"hw_{len(cases)}.json"
                path.write_text(json.dumps(edited))
                cases += [["solve", str(path), name], ["verify", cert, str(path)]]
        # the named groups, the two top-level members themselves, and a
        # relative nu one pair longer: a valid C2 tuple of genus G + 1
        tops = [{**ws_doc, key: value} for key in ("groups", "problems")
                for value in HOSTILE]
        long_nu = copy.deepcopy(ws_doc)
        for images in long_nu["problems"]["v4"]["relative"]["nu"].values():
            images.append(0)
        for edited in [*variants(ws_doc, ("groups",)), *tops, long_nu]:
            path = work / f"hw_{len(cases)}.json"
            path.write_text(json.dumps(edited))
            cases += [["solve", str(path), "v4"],
                      ["verify", certs[(ws, "v4")], str(path)]]
        # strings holding braces, escaped quotes and backslashes in the body
        # of the solved problem (a group name, an unread member) and of an
        # unused one, compact and indented; then a string left open inside
        # the body of the last problem
        odd = '}{"\\'
        escaped = copy.deepcopy(ws_doc)
        escaped["groups"][odd] = C2
        escaped["problems"]["v4"]["K"] = odd
        escaped["problems"]["v4"]["note"] = {odd: [odd, {"\\": '"}'}]}
        escaped["problems"]["too_small"]["note"] = {"a": {odd: {"b": odd + "{"}}}
        open_string = copy.deepcopy(ws_doc)
        open_string["problems"]["p"]["note"] = "OPEN"
        texts = [json.dumps(escaped),
                 json.dumps(escaped, indent=2, ensure_ascii=False),
                 json.dumps(open_string).replace('"OPEN"', '"open')]
        for text in texts:
            path = work / f"hw_{len(cases)}.json"
            path.write_text(text, encoding="utf-8")
            cases += [["solve", str(path), name] for name in ws_doc["problems"]]
            cases += [["verify", certs[(ws, "v4")], str(path)]]
        both(cases)

    mended, differ = len(tally["mended"]), len(tally["differ"])
    print(f"{tally['cases']} cases: {tally['cases'] - mended - differ} identical, "
          f"{mended} tracebacks mended, {differ} differ")
    layout = sum(layout_only(b, n) for _, b, n in tally["differ"])
    print(f"{layout} of the {differ} differing calls differ only in layout")
    for argv_, kind, message in tally["mended"]:
        print(f"mended: {argv_[0]} ({kind}: {message})")
    groups = Counter(
        (argv_[0] if argv_ else "(no command)",
         ", ".join(f for f, x, y in zip(FIELDS, b, n) if x != y))
        for argv_, b, n in tally["differ"])
    for (command, fields), count in sorted(groups.items()):
        print(f"differ: {count} {command} call(s) in {fields}")
    shown = [(argv_, b, n) for argv_, b, n in tally["differ"]
             if not layout_only(b, n)]
    for argv_, b, n in shown[:20]:
        print(f"DIFFER: {argv_}")
        for field, x, y in zip(FIELDS, b, n):
            if x != y:
                print(f"  {field}: {first_difference(x, y)}")
    return 1 if tally["differ"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
