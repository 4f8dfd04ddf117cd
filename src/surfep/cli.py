"""Command-line front end: instance files in, certificates and reports out.

Exit codes: 0 success / proper solution, 1 validation or verification error,
2 solvability bound failure (solve only), 3 the relative pipeline stopped
at a membership failure (outcome "not_reduced").  The handlers raise what
refuses a call, and main alone turns it into one "error:" line and exit 1.
Diagnostics go to stderr, results to stdout or the requested output file.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from . import solver
from .errors import GenusTooSmall, SurfepError
from .groups import catalog
from .serialize import (
    canonical_json,
    certificate_from_json,
    certificate_to_json,
    load_workspace,
    read_json,
    workspace_to_json,
)
from .surface import open_subgroup_genus

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BOUND = 2
EXIT_NOT_REDUCED = 3

def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _same_file(a: str, b: str) -> bool:
    """True when the paths a and b name one existing file, through any
    symlink."""
    return os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b)


def cmd_solve(args) -> int:
    if args.out is not None and _same_file(args.out, args.file):
        raise ValueError(f"--out {args.out!r} is the workspace file {args.file!r}")
    ws = load_workspace(args.file)
    ep, relative = ws.build_problem(args.problem)
    try:
        if relative is None:
            cert = solver.solve_gamma_level(ep)
        else:
            cert = solver.solve_relative(ep, relative)
    except GenusTooSmall as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND

    # hashed only now: a refused problem writes no certificate
    content_hash = ws.problem_hash(args.problem)
    _emit(
        canonical_json(certificate_to_json(cert, args.problem, content_hash)),
        args.out,
    )
    if cert.outcome == "not_reduced":
        print(
            f"not reduced: membership fails at basis position "
            f"{cert.relative.offending_index}",
            file=sys.stderr,
        )
        return EXIT_NOT_REDUCED
    return EXIT_OK


def cmd_verify(args) -> int:
    ws = load_workspace(args.instance)
    cert_obj = read_json(args.certificate)
    # type-checks problem and instance_hash, which are read below
    cert = certificate_from_json(cert_obj)
    name = cert_obj["problem"]
    ep, relative = ws.build_problem(name)
    if ws.problem_hash(name) != cert_obj["instance_hash"]:
        raise ValueError(
            f"instance_hash: certificate field instance_hash "
            f"is not the hash of problem {name!r}"
        )
    checks = solver.reverify_certificate(ep, cert, relative).checks

    width = max(len(c.name) for c in checks)
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        line = f"{c.name:<{width}}  {status}"
        if c.detail:
            line += f"  {c.detail}"
        print(line)
    failing = next((c for c in checks if not c.passed), None)
    if failing is not None:
        print(f"error: {failing.name}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def cmd_plan(args) -> int:
    plan = solver.plan_extension(args.genus, args.K, args.H)
    sys.stdout.write(
        canonical_json(
            {"m": plan.m, "required_index": plan.required_index, "h": plan.h}
        )
    )
    return EXIT_OK


def cmd_genus(args) -> int:
    result = open_subgroup_genus(args.genus, args.index)
    sys.stdout.write(
        canonical_json({"genus": args.genus, "index": args.index, "result": result})
    )
    return EXIT_OK


def cmd_count(args) -> int:
    from . import oracle

    if args.file is not None:
        ws = load_workspace(args.file)
        groups = dict(catalog())
        groups.update(ws.groups)
    else:
        groups = catalog()
    if args.group not in groups:
        raise ValueError(f"unknown group {args.group!r}")
    count = oracle.enumerate_surface_tuples(
        groups[args.group], args.genus, budget=args.budget
    )
    sys.stdout.write(
        canonical_json({"group": args.group, "genus": args.genus, "count": count})
    )
    return EXIT_OK


def cmd_gen(args) -> int:
    from . import oracle

    recipe = oracle.InstanceRecipe(
        seed=args.seed,
        size_k_choices=tuple(args.size_k),
        size_h_choices=tuple(args.size_h),
        action_mode=args.action,
        genus_rule=args.genus_rule,
    )
    instances = oracle.generate_instances(recipe, args.count)
    _emit(canonical_json(workspace_to_json(instances)), args.out)
    return EXIT_OK


# name -> (help, argument specs, handler), in the order help lists them;
# each spec is the (name, kwargs) of one add_argument call.  Defaults and
# choices are tuples, since every parser built from the table shares them.
COMMANDS = {
    "solve": (
        "solve a problem from a workspace file",
        [
            ("file", {"help": "workspace JSON file"}),
            ("problem", {"help": "problem name inside the workspace"}),
            ("--out", {"help": "certificate output path (default stdout)"}),
        ],
        cmd_solve,
    ),
    "verify": (
        "re-check a certificate against its instance",
        [
            ("certificate", {"help": "certificate JSON file"}),
            ("instance", {"help": "workspace JSON file"}),
        ],
        cmd_verify,
    ),
    "plan": (
        "open-subgroup extension arithmetic",
        [
            ("--genus", {"type": int, "required": True}),
            ("--K", {"type": int, "required": True, "help": "kernel order"}),
            ("--H", {"type": int, "required": True, "help": "quotient order"}),
        ],
        cmd_plan,
    ),
    "genus": (
        "genus of an open subgroup",
        [
            ("--genus", {"type": int, "required": True}),
            ("--index", {"type": int, "required": True}),
        ],
        cmd_genus,
    ),
    "count": (
        "count surface tuples by enumeration",
        [
            ("--group", {"required": True}),
            ("--genus", {"type": int, "required": True}),
            ("--file", {"help": "workspace providing extra named groups"}),
            ("--budget", {"type": int, "default": 10**8}),
        ],
        cmd_count,
    ),
    "gen": (
        "generate a workspace of random instances",
        [
            ("--seed", {"type": int, "default": 0}),
            ("--count", {"type": int, "default": 10}),
            ("--size-k", {"type": int, "nargs": "+", "default": (2, 3, 4)}),
            ("--size-h", {"type": int, "nargs": "+", "default": (1, 2, 3)}),
            (
                "--action",
                {"choices": ("trivial", "inversion", "random"), "default": "random"},
            ),
            ("--genus-rule", {"choices": ("exact", "slack"), "default": "exact"}),
            ("--out", {"help": "output path (default stdout)"}),
        ],
        cmd_gen,
    ),
}


def _with_command(
    parser: argparse.ArgumentParser, name: str
) -> argparse.ArgumentParser:
    """Add command name's arguments and handler to parser."""
    _, specs, handler = COMMANDS[name]
    for arg, kwargs in specs:
        parser.add_argument(arg, **kwargs)
    parser.set_defaults(func=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full ``surfep`` parser, one subparser per command in COMMANDS.
    main builds it only to answer an argv that names no command, or to
    word the error for arguments a command's own parser leaves over."""
    parser = argparse.ArgumentParser(
        prog="surfep",
        description="Solve and verify finite split embedding problems over "
        "surface groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        _with_command(sub.add_parser(name, help=help_text), name)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one ``surfep`` call.  When argv names a command in COMMANDS,
    only that command's parser is built, as the ``surfep <command>``
    subparser of build_parser would be, and parses the rest of argv.
    Anything else, and arguments that parser leaves over, goes to the full
    parser, whose help and errors read as they always have.  What a
    handler raises is mapped here alone: one ``error:`` line, EXIT_ERROR."""
    if argv is None:
        argv = sys.argv[1:]
    args = None
    if argv and argv[0] in COMMANDS:
        name = argv[0]
        parser = _with_command(argparse.ArgumentParser(prog=f"surfep {name}"), name)
        args, extras = parser.parse_known_args(argv[1:])
        if extras:
            args = None
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SurfepError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
