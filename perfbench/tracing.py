"""Span recorder and the traced replay of the certificate path.

Spans and counts are taken by the benchmark around calls into each layer's
public functions; the program itself is not instrumented.  The CLI's solve
and verify stages are replayed through the functions ``surfep.cli`` calls,
while the ``groups`` and ``embedding`` functions named in WRAPPED are
swapped for timing wrappers at every ``surfep`` module attribute that binds
them, and restored afterwards.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from surfep import cli, errors, groups, serialize, solver, surface

WRAPPED = {
    "groups": ("make_group", "make_hom", "direct_product", "subgroup_closure"),
    "embedding": ("image_of_restriction", "verify_solution", "claim_proper"),
}

class Recorder:
    """Spans (name, start, end, parent, problem) and named counts, kept in
    memory until write_jsonl."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.problem = None
        self.tables: set[bytes] = set()  # digests of validated group tables
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self.problem)

    def total(self, name: str) -> float:
        return sum(e - s for n, s, e, _, _ in self.spans if n == name)

    def calls(self, name: str) -> int:
        return sum(1 for n, *_ in self.spans if n == name)

    def self_times(self) -> Counter:
        """Per layer (the span name up to its first dot): span durations
        minus the time their child spans cover."""
        child = [0.0] * len(self.spans)
        for _, s, e, parent, _ in self.spans:
            if parent is not None:
                child[parent] += e - s
        out = Counter()
        for (name, s, e, _, _), c in zip(self.spans, child):
            out[name.split(".")[0]] += e - s - c
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, s, e, parent, problem) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": s, "end": e,
                    "parent": parent, "problem": problem,
                }) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


# --- wrappers -----------------------------------------------------------------

def _validated(rec: Recorder, n: int, kwargs) -> bool:
    """Count one table validation of order n; True on the sampled path."""
    threshold = kwargs.get(
        "full_check_threshold", getattr(groups, "FULL_CHECK_THRESHOLD", None)
    )
    sampled = threshold is not None and n > threshold
    rec.counts["groups.max_validated_order"] = max(
        rec.counts["groups.max_validated_order"], n
    )
    rec.counts["groups.sampled_tables"] += sampled
    return sampled


def _count_make_group(rec: Recorder, mul_table, *args, **kwargs) -> None:
    n = len(mul_table)
    sampled = _validated(rec, n, kwargs)
    rec.counts["groups.table_cells_checked"] += 10 * n * n if sampled else n ** 3
    digest = hashlib.blake2b(
        np.asarray(mul_table, dtype=np.int64).tobytes(), digest_size=16
    ).digest()
    rec.counts["groups.distinct_tables"] += digest not in rec.tables
    rec.tables.add(digest)


def _count_make_hom(rec: Recorder, domain, *args, **kwargs) -> None:
    _validated(rec, domain.order, kwargs)


# counts taken from a call's arguments, outside its span
_COUNTERS = {"groups.make_group": _count_make_group, "groups.make_hom": _count_make_hom}


def _wrap(rec: Recorder, name: str, fn):
    count = _COUNTERS.get(name)

    def wrapper(*args, **kwargs):
        if count is not None:
            count(rec, *args, **kwargs)
        with rec.span(name):
            return fn(*args, **kwargs)

    return wrapper


@contextmanager
def wrapped(rec: Recorder):
    """Swap every WRAPPED function for its timing wrapper wherever a surfep
    module binds it, for the duration of the block."""
    modules = [
        m for name, m in list(sys.modules.items())
        if name == "surfep" or name.startswith("surfep.")
    ]
    swapped = []
    try:
        for modname, names in WRAPPED.items():
            home = importlib.import_module(f"surfep.{modname}")
            for attr in names:
                fn = getattr(home, attr)
                wrapper = _wrap(rec, f"{modname}.{attr}", fn)
                for mod in modules:
                    if getattr(mod, attr, None) is fn:
                        setattr(mod, attr, wrapper)
                        swapped.append((mod, attr, fn))
        yield
    finally:
        for mod, attr, fn in reversed(swapped):
            setattr(mod, attr, fn)


# --- replays ------------------------------------------------------------------

def replay_solve(rec: Recorder, ws_path: str, name: str, cert_path: str):
    """cmd_solve's stages; returns (exit code, certificate or None, problem).

    Writes the same canonical bytes as `surfep solve --out`."""
    with rec.span("cli.solve"):
        with rec.span("serialize.load_problem"):
            ws = serialize.load_workspace(ws_path)
            ep, relative = ws.build_problem(name)
        with rec.span("serialize.problem_hash"):
            content_hash = ws.problem_hash(name)
        with rec.span("solver.solve"):
            try:
                if relative is None:
                    cert = solver.solve_gamma_level(ep)
                else:
                    cert = solver.solve_relative(ep, relative)
            except errors.BetaNRestrictionNotSurjective:
                rec.counts["solver.rejected"] += 1
                return cli.EXIT_ERROR, None, (ep, relative)
        with rec.span("serialize.cert_write"):
            text = serialize.canonical_json(
                serialize.certificate_to_json(cert, name, content_hash)
            )
            with open(cert_path, "w", encoding="utf-8") as fh:
                fh.write(text)
    rec.counts["serialize.cert_bytes"] += len(text)
    del text
    words = (*cert.basis_x_words, *cert.basis_y_words)
    factors = sum(len(w.factors) for w in words)
    rec.counts["serialize.word_factors"] += factors + sum(
        len(w.word.factors) for w in cert.witnesses
    )
    if cert.eta is not None and cert.eta.selected:
        # slots below the last selected position that were not selected
        last = cert.eta.selected[-1]
        rec.counts["surface.conjugated_slots"] += last - len(cert.eta.selected)
    if cert.outcome == "not_reduced":
        # verify re-evaluates the basis words under nu only
        rec.counts["surface.evaluated_factors"] += factors
        rec.counts["solver.not_reduced"] += 1
        return cli.EXIT_NOT_REDUCED, cert, (ep, relative)
    # reverify evaluates every basis word under beta_bar, and under nu too
    # for a relative problem
    rec.counts["surface.evaluated_factors"] += factors * (1 + (relative is not None))
    return cli.EXIT_OK, cert, (ep, relative)


def replay_verify(rec: Recorder, ws_path: str, cert_path: str) -> bool:
    """cmd_verify's stages; True when every check passes.

    A not_reduced certificate is rechecked by `surfep verify` as a whole,
    since the library has no public recheck for it."""
    with rec.span("cli.verify"):
        with rec.span("serialize.cert_read"):
            with open(cert_path, encoding="utf-8") as fh:
                obj = json.load(fh)
            cert = serialize.certificate_from_json(obj)
        if cert.outcome == "not_reduced":
            return cli.main(["verify", cert_path, ws_path]) == cli.EXIT_OK
        with rec.span("serialize.load_problem"):
            ws = serialize.load_workspace(ws_path)
            ep, relative = ws.build_problem(obj["problem"])
        with rec.span("serialize.problem_hash"):
            if ws.problem_hash(obj["problem"]) != obj["instance_hash"]:
                return False
        del obj
        with rec.span("solver.reverify"):
            fresh = solver.reverify_certificate(ep, cert, relative)
    return (
        not fresh.failed_checks()
        and fresh.outcome == cert.outcome
        and fresh.is_proper == cert.is_proper
    )


def replay_stages(rec: Recorder, problem, cert) -> bool:
    """Rerun the solver pipeline stage by stage through public functions;
    True when the selected positions and eta images match the certificate."""
    ep, relative = problem
    with rec.span("solver.replay"):
        with rec.span("solver.phi0"):
            phi0 = surface.map_tuple(ep.gamma, ep.beta_bar)
        with rec.span("solver.eta_params"):
            params = solver.make_eta_params(ep, phi0)
        with rec.span("surface.pigeonhole"):
            selected = surface.pigeonhole_select(
                list(zip(phi0.ximg, phi0.yimg)), params.m
            )
        with rec.span("surface.normalize"):
            channels = [phi0, ep.beta_bar] + ([relative.nu] if relative else [])
            state = surface.normalize_to_front(
                surface.initial_basis_state(channels), selected
            )
        if tuple(selected) != cert.eta.selected:
            return False
        if cert.outcome == "not_reduced":
            return True
        with rec.span("solver.eta_construct"):
            rel_n = relative.with_nu(state.channel_tuple(2)) if relative else None
            eta = solver.eta_construct(
                state.channel_tuple(0),
                params,
                ep.with_beta_bar(state.channel_tuple(1)),
                rel_n,
            )
    return eta.ximg == cert.phi_x and eta.yimg == cert.phi_y


# --- the groups validation cliff ----------------------------------------------

def cliff_probe() -> dict[str, float]:
    """One make_group and one make_hom on cyclic tables either side of the
    exhaustive-validation threshold."""
    out = {}
    for n in (512, 513):
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        t = time.perf_counter()
        grp = groups.make_group(table)
        out[f"groups.make_group_s.n{n}"] = time.perf_counter() - t
        t = time.perf_counter()
        groups.make_hom(grp, grp, list(range(n)))
        out[f"groups.make_hom_s.n{n}"] = time.perf_counter() - t
    return out
