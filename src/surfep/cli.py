"""Command-line front end: instance files in, certificates and reports out.

Exit codes: 0 success / proper solution, 1 validation or verification error,
2 solvability bound failure, 3 the relative pipeline stopped at a membership
failure (outcome "not_reduced").  Diagnostics go to stderr, results to
stdout or the requested output file.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import oracle, solver
from .errors import (
    BetaNRestrictionNotSurjective,
    GenusTooSmall,
    SurfepError,
)
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


def cmd_solve(args) -> int:
    try:
        ws = load_workspace(args.file)
        ep, relative = ws.build_problem(args.problem)
        content_hash = ws.problem_hash(args.problem)
    except (SurfepError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    try:
        if relative is None:
            cert = solver.solve_gamma_level(ep)
        else:
            cert = solver.solve_relative(ep, relative)
    except GenusTooSmall as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except (BetaNRestrictionNotSurjective, SurfepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

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
    try:
        ws = load_workspace(args.instance)
        cert_obj = read_json(args.certificate)
        cert = certificate_from_json(cert_obj)
        name = cert_obj["problem"]
        ep, relative = ws.build_problem(name)
        if ws.problem_hash(name) != cert_obj["instance_hash"]:
            print(
                f"error: instance_hash: certificate field instance_hash "
                f"is not the hash of problem {name!r}",
                file=sys.stderr,
            )
            return EXIT_ERROR
    except (SurfepError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    try:
        checks = solver.reverify_certificate(ep, cert, relative).checks
    except SurfepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

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
    try:
        plan = solver.plan_extension(args.genus, args.K, args.H)
    except (SurfepError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    sys.stdout.write(
        canonical_json(
            {"m": plan.m, "required_index": plan.required_index, "h": plan.h}
        )
    )
    return EXIT_OK


def cmd_genus(args) -> int:
    try:
        result = open_subgroup_genus(args.genus, args.index)
    except (SurfepError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    sys.stdout.write(
        canonical_json({"genus": args.genus, "index": args.index, "result": result})
    )
    return EXIT_OK


def cmd_count(args) -> int:
    try:
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
    except (SurfepError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    sys.stdout.write(
        canonical_json({"group": args.group, "genus": args.genus, "count": count})
    )
    return EXIT_OK


def cmd_gen(args) -> int:
    try:
        recipe = oracle.InstanceRecipe(
            seed=args.seed,
            size_k_choices=tuple(args.size_k),
            size_h_choices=tuple(args.size_h),
            action_mode=args.action,
            genus_rule=args.genus_rule,
        )
        instances = oracle.generate_instances(recipe, args.count)
    except (SurfepError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    _emit(canonical_json(workspace_to_json(instances)), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfep",
        description="Solve and verify finite split embedding problems over "
        "surface groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a problem from a workspace file")
    p.add_argument("file", help="workspace JSON file")
    p.add_argument("problem", help="problem name inside the workspace")
    p.add_argument("--out", help="certificate output path (default stdout)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="re-check a certificate against its instance")
    p.add_argument("certificate", help="certificate JSON file")
    p.add_argument("instance", help="workspace JSON file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("plan", help="open-subgroup extension arithmetic")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--K", type=int, required=True, help="kernel order")
    p.add_argument("--H", type=int, required=True, help="quotient order")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("genus", help="genus of an open subgroup")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--index", type=int, required=True)
    p.set_defaults(func=cmd_genus)

    p = sub.add_parser("count", help="count surface tuples by enumeration")
    p.add_argument("--group", required=True)
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--file", help="workspace providing extra named groups")
    p.add_argument("--budget", type=int, default=10**8)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("gen", help="generate a workspace of random instances")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--size-k", type=int, nargs="+", default=[2, 3, 4])
    p.add_argument("--size-h", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument(
        "--action", choices=["trivial", "inversion", "random"], default="random"
    )
    p.add_argument("--genus-rule", choices=["exact", "slack"], default="exact")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
