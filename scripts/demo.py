#!/usr/bin/env python3
"""Walk through one embedding problem end to end.

Builds the Klein-four problem (K = C2, H = C2, trivial action, genus 64),
solves it, prints the certificate highlights, and re-verifies it from the
serialized JSON — the same round trip the CLI performs.
"""

import json
import sys

import surfep as s
from surfep.serialize import (
    canonical_json,
    certificate_from_json,
    certificate_to_json,
    instance_hash,
    problem_from_json,
)


def main() -> int:
    g = 64
    c2 = s.cyclic_group(2)
    beta = s.make_surface_tuple(c2, [1] + [0] * (g - 1), [0] * g)
    ep = s.make_split_ep(c2, c2, s.trivial_action(c2, c2), beta)
    print(f"problem: A of order {ep.A.order} over B of order {ep.B.order}, "
          f"genus {g}")

    cert = s.solve_gamma_level(ep)
    print(f"outcome: {cert.outcome}")
    print(f"eta parameters: s={cert.eta.s} n={cert.eta.n} m={cert.eta.m}")
    print(f"move program: the first {cert.eta.m} positions with beta_bar pair "
          f"{cert.eta.pair}: {cert.eta.selected[:6]}...")
    rewritten = sum(
        1 for w in cert.basis_x_words + cert.basis_y_words if len(w.factors) != 1
    )
    print(f"basis words rewritten by conjugation: {rewritten} of {2 * g}")

    # serialize, parse back, and re-verify from raw data
    problem_json = {
        "genus": g,
        "K": {"order": 2, "table": [[0, 1], [1, 0]]},
        "H": {"order": 2, "table": [[0, 1], [1, 0]]},
        "action": [[0, 1], [0, 1]],
        "beta_bar": {"x": list(beta.ximg), "y": list(beta.yimg)},
    }
    content_hash = instance_hash(problem_from_json(problem_json, {})[2])
    text = canonical_json(certificate_to_json(cert, "demo", content_hash))
    print(f"certificate: {len(text)} bytes, instance hash {content_hash[:16]}...")

    parsed = certificate_from_json(json.loads(text))
    fresh = s.reverify_certificate(ep, parsed)
    print(f"independent re-verification: {fresh.outcome}")
    for c in fresh.checks:
        print(f"  {c.name}: {'pass' if c.passed else 'FAIL'}")
    return 0 if fresh.outcome == "proper" else 1


if __name__ == "__main__":
    sys.exit(main())
