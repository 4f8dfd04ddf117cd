#!/usr/bin/env python3
"""Benchmark of surfep's certificate path: build workspace -> solve -> write
certificate -> read certificate -> verify.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Run from the repository root.  One client in one thread, closed loop: every
problem goes through ``surfep.cli.main`` in-process with the argv a user
types (``solve WS P --out CERT``, then ``verify CERT WS``), each call after
the previous one returns.  Passes over the workload's problems repeat while
one more pass, at the mean pass time so far, still ends within ``--seconds``;
there is always at least one.  Every exit code, certificate
outcome and verify result is checked, and certificate bytes must repeat
across passes.

``setup_s`` is the median of five fresh interpreters importing
``surfep.cli`` plus the median of five builds of the workspace from the
seed.  ``--trace 0`` prints the end-to-end metrics, with every time in
reference seconds: wall seconds rescaled by a reference kernel that runs
between problems, so that the host's speed phases cancel (``speed.py``).  ``--trace 1`` makes one
pass in which each problem runs untraced and is then replayed under a
recorder that takes spans per layer (written as JSON lines under
``.perfbench_trace/``), then probes the groups validation cliff, and prints
the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A run with any failed check exits 1 and reports only ``ok_frac``.
The program is imported from ``src/`` of the checkout; without it the run
exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACE_DIR = ROOT / ".perfbench_trace"
WORKLOADS = ("ladder", "batch", "relative_wide")
SETUP_REPEATS = 5
EXPECTED_EXIT = {"proper": 0, "not_reduced": 3, "rejected": 1}
# the CLI's message for a relative spec whose beta(N) is not all of B
REJECTED_MESSAGE = "restriction of the reference map to N"
# the top-level "outcome" of a canonical certificate (sorted keys, indent 2)
_OUTCOME = re.compile(rb'\n  "outcome": "([a-z_]+)"')

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "verify_s": "s",
    "problems_per_s": "1/s",
    "cert_bytes": "bytes",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

# span name -> "<span>_s" total seconds; the *_CALLS spans also get "<span>_calls"
SPAN_TIMES = (
    "cli.solve", "cli.verify",
    "serialize.load_problem", "serialize.problem_hash",
    "serialize.cert_write", "serialize.cert_read",
    "surface.pigeonhole", "surface.normalize",
    "solver.solve", "solver.reverify", "solver.phi0",
    "solver.eta_params", "solver.eta_construct",
    "embedding.verify_solution", "embedding.claim_proper",
    "embedding.image_of_restriction",
    "groups.make_group", "groups.make_hom",
    "groups.direct_product", "groups.subgroup_closure",
    "oracle.generate",
)
SPAN_CALLS = (
    "embedding.image_of_restriction",
    "groups.make_group", "groups.make_hom",
    "groups.direct_product", "groups.subgroup_closure",
)
COUNTS = (
    "serialize.cert_bytes", "serialize.word_factors",
    "surface.conjugated_slots", "surface.evaluated_factors",
    "solver.not_reduced", "solver.rejected",
    "groups.max_validated_order", "groups.sampled_tables",
    "groups.table_cells_checked",
)
LAYERS = ("cli", "serialize", "solver", "surface", "embedding", "groups", "oracle")
PROBES = tuple(
    f"groups.{fn}_s.n{n}" for fn in ("make_group", "make_hom") for n in (512, 513)
)

PER_LAYER = {
    **{f"{s}_s": "s" for s in SPAN_TIMES},
    **{f"{s}_calls": "count" for s in SPAN_CALLS},
    **{c: "bytes" if c == "serialize.cert_bytes" else "count" for c in COUNTS},
    "groups.distinct_table_ratio": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{p: "s" for p in PROBES},
    "trace.overhead_s": "s",
}


@dataclass
class Pass:
    index: int = 0  # the pass's number in its run, tagging its clock laps
    solve_s: float = 0.0
    verify_s: float = 0.0
    wall_s: float = 0.0
    cert_bytes: int = 0
    problems: int = 0
    faults: list = field(default_factory=list)


def _cli(cli, argv, clock, tag):
    """Run `surfep <argv>` in-process; (exit code, wall seconds, stdout,
    stderr).  The call is the clock lap `tag`; the time since the previous
    lap is the pass's "other" time.

    A traceback out of the program is a failed call, reported as exit -1."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        clock.lap((tag[0], "other"))
        try:
            code = cli.main(argv)
        except Exception:  # noqa: BLE001 - the run goes on and reports it
            traceback.print_exc()
            code = -1
        dt = clock.lap(tag)
    return code, dt, out.getvalue(), err.getvalue()


def _certificate_fault(data: bytes, expect: str, name: str, shas: dict):
    """Outcome recorded in the certificate, and its bytes against earlier
    passes of this run."""
    m = _OUTCOME.search(data)
    if m is None or m.group(1).decode() != expect:
        return f"certificate outcome {m and m.group(1)!r}, expected {expect!r}"
    digest = hashlib.sha256(data).hexdigest()
    if shas.setdefault(name, digest) != digest:
        return "certificate bytes differ from an earlier pass"
    return None


def _solve_fault(p, code: int, err: str, cert: Path):
    want = EXPECTED_EXIT[p.expect]
    if code != want:
        return f"solve exit {code}, expected {want}: {err.strip()[:200]}"
    if p.expect == "rejected":
        if REJECTED_MESSAGE not in err:
            return f"rejected without the beta(N) message: {err.strip()[:200]}"
        if cert.exists():
            return "rejected problem wrote a certificate"
    elif not cert.is_file():
        return "no certificate written"
    return None


def run_problem(
    ctx, p, ws_path: str, work: Path, shas: dict, res: Pass, clock
) -> None:
    """`surfep solve` and `surfep verify` on one problem, added to res
    (wall seconds) and to the clock's laps."""
    cert = work / f"{p.name}.json"
    cert.unlink(missing_ok=True)
    argv = ["solve", ws_path, p.name, "--out", str(cert)]
    code, dt, _, err = _cli(ctx.cli, argv, clock, (res.index, "solve"))
    res.solve_s += dt
    fault = _solve_fault(p, code, err, cert)
    if fault is None and p.expect != "rejected":
        data = cert.read_bytes()
        res.cert_bytes += len(data)
        fault = _certificate_fault(data, p.expect, p.name, shas)
        del data
        argv = ["verify", str(cert), ws_path]
        code, dt, out, err = _cli(ctx.cli, argv, clock, (res.index, "verify"))
        res.verify_s += dt
        if fault is None and (code != 0 or "FAIL" in out):
            fault = f"verify exit {code}: {err.strip()[:200]}"
    cert.unlink(missing_ok=True)
    if fault is not None:
        res.faults.append(f"{p.name}: {fault}")


def run_pass(ctx, wl, ws_path: str, work: Path, shas: dict, clock, index: int):
    """One closed-loop pass over the workload's problems; the reference
    kernel runs between problems, at most every half second."""
    res = Pass(index=index, problems=len(wl.problems))
    gc.collect()
    clock.lap(None)
    t0 = time.perf_counter()
    for p in wl.problems:
        run_problem(ctx, p, ws_path, work, shas, res, clock)
        clock.lap((index, "other"))
        clock.mark()
    res.wall_s = time.perf_counter() - t0
    return res


def traced_pass(ctx, rec, wl, ws_path: str, work: Path) -> tuple[Pass, list]:
    """Each problem untraced, then replayed stage by stage under the
    recorder right after, so the two see the same machine load.  Returns
    the untraced totals and the replay's faults."""
    tracing = ctx.tracing
    base = Pass(problems=len(wl.problems))
    shas, faults = {}, []
    # wall seconds only: the untraced and traced calls of one problem are
    # next to each other, so they see the same speed phase
    clock = ctx.speed.Clock(every=float("inf"))
    gc.collect()
    for p in wl.problems:
        run_problem(ctx, p, ws_path, work, shas, base, clock)
        rec.problem = p.name
        cert_path = work / f"{p.name}.json"
        fault = None
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            with tracing.wrapped(rec):
                code, cert, problem = tracing.replay_solve(
                    rec, ws_path, p.name, str(cert_path)
                )
                if code != EXPECTED_EXIT[p.expect]:
                    fault = f"replayed solve exit {code}"
                elif cert is not None:
                    fault = _certificate_fault(
                        cert_path.read_bytes(), p.expect, p.name, shas
                    )
                    if fault is None and not tracing.replay_verify(
                        rec, ws_path, str(cert_path)
                    ):
                        fault = "replayed verify failed"
            if fault is None and cert is not None:
                if not tracing.replay_stages(rec, problem, cert):
                    fault = "stage replay disagrees with the certificate"
        del cert, problem
        cert_path.unlink(missing_ok=True)
        if fault is not None:
            faults.append(f"{p.name}: {fault} (traced)")
    rec.problem = None
    return base, faults


def layer_metrics(rec, base: Pass, probe: dict) -> dict:
    counts = rec.counts
    m = {f"{s}_s": rec.total(s) for s in SPAN_TIMES}
    m.update({f"{s}_calls": rec.calls(s) for s in SPAN_CALLS})
    m.update({c: counts[c] for c in COUNTS})
    m["groups.distinct_table_ratio"] = (
        counts["groups.distinct_tables"] / rec.calls("groups.make_group")
    )
    self_times = rec.self_times()
    m.update({f"{layer}.self_s": self_times[layer] for layer in LAYERS})
    m.update(probe)
    m["trace.overhead_s"] = (m["cli.solve_s"] + m["cli.verify_s"]) - (
        base.solve_s + base.verify_s
    )
    return m


class _Context:
    """The surfep modules and benchmark modules, imported from the checkout."""

    def __init__(self):
        self.cli = importlib.import_module("surfep.cli")
        self.serialize = importlib.import_module("surfep.serialize")
        self.workloads = importlib.import_module("workloads")
        self.tracing = importlib.import_module("tracing")
        self.speed = importlib.import_module("speed")


def _startup() -> None:
    """Start a fresh interpreter and import what `surfep solve` runs on."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import surfep.cli"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)


def _build(ctx, name: str, seed: int, ws_path: Path, rec=None):
    """Build the workload from its seed and write the workspace; returns
    (workload, workspace text)."""
    wl = ctx.workloads.WORKLOADS[name](seed, rec)
    text = ctx.serialize.canonical_json(wl.doc)
    ws_path.write_text(text, encoding="utf-8")
    return wl, text


def measure(ctx, name: str, seed: int, seconds: int, work: Path):
    """Set-up repeats, then closed-loop passes; times are reference
    seconds (speed.Clock), medians over the repeats and passes."""
    ws_path = work / "workspace.json"
    clock = ctx.speed.Clock()
    texts = set()
    for i in range(SETUP_REPEATS):
        clock.lap(None)
        _startup()
        clock.lap(("startup", i))
        clock.mark(force=True)
    for i in range(SETUP_REPEATS):
        clock.lap(None)
        wl, text = _build(ctx, name, seed, ws_path)
        clock.lap(("build", i))
        clock.mark(force=True)
        texts.add(text)
    passes, shas = [], {}
    start = time.perf_counter()
    while True:
        passes.append(
            run_pass(ctx, wl, str(ws_path), work, shas, clock, len(passes))
        )
        elapsed = time.perf_counter() - start
        # one more pass only if, at the mean pass time so far, it ends in time
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    ref = clock.close()
    faults = [f for p in passes for f in p.faults]
    if len(texts) != 1:
        faults.append("workspace bytes differ between builds from one seed")

    def per_pass(kind):
        return [ref.get((p.index, kind), 0.0) for p in passes]

    solve, verify, other = per_pass("solve"), per_pass("verify"), per_pass("other")
    metrics = {
        "setup_s": statistics.median(ref["startup", i] for i in range(SETUP_REPEATS))
        + statistics.median(ref["build", i] for i in range(SETUP_REPEATS)),
        "solve_s": statistics.median(solve),
        "verify_s": statistics.median(verify),
        "problems_per_s": statistics.median(
            p.problems / (s + v + o)
            for p, s, v, o in zip(passes, solve, verify, other)
        ),
        "cert_bytes": passes[0].cert_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    attempted = sum(p.problems for p in passes)
    return metrics, attempted, faults


def measure_traced(ctx, name: str, seed: int, work: Path):
    ws_path = work / "workspace.json"
    rec = ctx.tracing.Recorder()
    rec.problem = "setup"
    wl, _ = _build(ctx, name, seed, ws_path, rec)
    base, faults = traced_pass(ctx, rec, wl, str(ws_path), work)
    probe = ctx.tracing.cliff_probe()
    TRACE_DIR.mkdir(exist_ok=True)
    rec.write_jsonl(TRACE_DIR / f"{name}-seed{seed}.jsonl")
    return layer_metrics(rec, base, probe), 2 * base.problems, base.faults + faults


def _result(correct: bool, attempted: int, failed: int, metrics: dict, units: dict):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "surfep" / "__init__.py").is_file():
        print(f"perfbench: no surfep source tree under {SRC}", file=sys.stderr)
        return 2
    # one client, one thread: keep numpy's BLAS pool from starting workers
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    ctx = _Context()

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, attempted, faults = measure_traced(
                ctx, args.workload, args.seed, work
            )
            units = PER_LAYER
        else:
            metrics, attempted, faults = measure(
                ctx, args.workload, args.seed, args.seconds, work
            )
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    failed = len(faults)
    ok_frac = 1 - failed / attempted
    for f in faults:
        print(f"perfbench: FAIL {f}", file=sys.stderr)
    if faults:
        print(_result(False, attempted, failed, {"ok_frac": ok_frac}, END_TO_END))
        return 1
    if not args.trace:
        metrics["ok_frac"] = ok_frac
    if set(metrics) != set(units):
        raise AssertionError(
            f"metrics differ from the declared set: {set(metrics) ^ set(units)}"
        )
    print(_result(True, attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
