"""Reference kernel for the host's current speed.

The benchmark's host is a shared VM whose speed drifts by up to a third in
phases of tens of seconds to minutes, and a whole 30-second run can sit in
one phase.  So every timed interval of a run is bracketed by two runs of a
fixed reference kernel and rescaled to the speed at which the kernel takes
``REFERENCE_S`` seconds (see ``Clock``).

The kernel does, in about equal parts, the three kinds of work surfep spends its
time on: JSON encoding and decoding of nested integer lists (certificate
write and read), tuple and dict churn in pure Python (symbolic basis words),
and numpy gathers on a multiplication table (group validation).  It is
deterministic and does not depend on surfep, so a change to the program
never changes it.
"""

from __future__ import annotations

import json
import time

import numpy as np

# seconds the kernel takes at the reference speed: a round figure near its
# 0.10 to 0.12 s on a 2-vCPU shared VM (Intel Xeon, Python 3.11); it only
# sets the scale of the reported seconds and must never change
REFERENCE_S = 0.1

_WORDS = [[(i * 7 + j) % 97 - 48 for j in range(i % 23 + 1)] for i in range(7500)]
_TEXT = json.dumps({"words": _WORDS})
_N = 224
_TABLE = (np.arange(_N)[:, None] + np.arange(_N)[None, :]) % _N


def _json_part() -> int:
    doc = json.loads(_TEXT)
    return len(json.dumps(doc, separators=(",", ":")))


def _python_part() -> int:
    seen: dict = {}
    word: tuple = ()
    for i in range(45000):
        letter = (i * 31) % 17 - 8
        if word and word[-1] == -letter:
            word = word[:-1]
        else:
            word = (word + (letter,))[-12:]
        seen[word] = seen.get(word, 0) + 1
    return len(seen)


def _numpy_part() -> int:
    bad = 0
    for a in range(_N):
        left = _TABLE[_TABLE[a]]
        right = _TABLE[a][_TABLE]
        bad += int(not np.array_equal(left, right))
    return bad


def kernel_s() -> float:
    """Seconds one run of the reference kernel takes now."""
    t = time.perf_counter()
    _json_part()
    _python_part()
    _numpy_part()
    return time.perf_counter() - t


class Clock:
    """Times intervals in reference seconds.

    ``lap(tag)`` closes the interval since the previous lap; tags are any
    hashable values.  Calls of
    ``kernel_s`` split the run into segments; an interval's wall seconds
    are scaled by ``REFERENCE_S`` over the mean of the two kernel times
    that bracket its segment, so a phase change shows in the kernel as
    much as in the program and cancels.  ``mark()`` runs the kernel when
    ``every`` wall seconds have passed since the last one; ``close()``
    runs it once more and returns the scaled intervals, in lap order, as
    {tag: reference seconds}."""

    def __init__(self, every: float = 0.5):
        self.every = every
        self._kernels = [kernel_s()]
        self._laps: list = []  # (segment, tag, wall seconds)
        self._t = self._last_kernel = time.perf_counter()

    def lap(self, tag) -> float:
        """Close the interval since the previous lap (or kernel run) and
        return its wall seconds; a tag of None drops it."""
        now = time.perf_counter()
        dt = now - self._t
        if tag is not None:
            self._laps.append((len(self._kernels) - 1, tag, dt))
        self._t = now
        return dt

    def mark(self, force: bool = False) -> None:
        if force or time.perf_counter() - self._last_kernel >= self.every:
            self._kernels.append(kernel_s())
            self._t = self._last_kernel = time.perf_counter()

    def close(self) -> dict:
        self.mark(force=True)
        k = self._kernels
        out: dict = {}
        for seg, tag, dt in self._laps:
            scale = REFERENCE_S / ((k[seg] + k[seg + 1]) / 2)
            out[tag] = out.get(tag, 0.0) + dt * scale
        return out
