"""A fixed host-speed probe, owned by the benchmark.

On a shared host the same code runs up to about 20 % slower for minutes at
a time.  The benchmark calls ``kernel`` once per round of ops and scales
each op's time by how long the kernel took in the rounds around it, so
drift in host speed cancels out.  The kernel imports nothing
from rotoreig, so a change to the program cannot change it.  It mixes the
kinds of work rotoreig does: small numpy products on 16 coefficients,
Python objects with slots, float formatting and indented JSON.

``startup_kernel`` does the same for the set-up probes, whose work is
interpreter start-up and imports rather than arithmetic.
"""

from __future__ import annotations

import json
import marshal
import os

import numpy as np

_RES = np.array([a ^ b for a in range(16) for b in range(16)], dtype=np.int64)
_SIGN = np.array([(-1.0) ** bin(a & b).count("1") for a in range(16)
                  for b in range(16)])
_A = np.linspace(0.1, 1.6, 16)
_B = _A[::-1].copy()


class _Pair:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x, self.y = x, y

    def __add__(self, other: "_Pair") -> "_Pair":
        return _Pair(self.x + other.x, self.y * 0.999 + other.y)


def kernel() -> str:
    a = _A
    for _ in range(24):
        w = _SIGN * np.outer(a, _B).ravel()
        c = np.bincount(_RES, weights=w, minlength=16)
        a = c / float(np.sqrt(np.dot(c, c)))
    p, q = _Pair(0.0, 1.0), _Pair(0.5, 0.25)
    rows = []
    for i in range(60):
        p = p + q
        rows.append({"k": p.x + i, "energies": [repr(p.y), repr(-p.y)]})
    return json.dumps({"rows": rows, "a": a.tolist()}, indent=2)


# a fixed module source for ``startup_kernel`` to compile
_MODULE_SOURCE = "\n".join(
    f"class C{i}:\n    __slots__ = ('x',)\n\n"
    f"    def f(self, x, y={i}.5):\n        return [x * y, str(x), {{'k': x, 'n': {i}}}]\n"
    for i in range(30))


def startup_kernel() -> None:
    """Work shaped like interpreter start-up and imports: file stats,
    compiling and (un)marshalling code, and faulting in fresh memory pages.

    Import speed drifts with the host differently from ``kernel``; the
    set-up probes scale by this one instead."""
    for _ in range(120):
        os.stat(__file__)
    code = compile(_MODULE_SOURCE, "<startup_kernel>", "exec")
    for _ in range(10):
        marshal.loads(marshal.dumps(code))
    pages = bytearray(8 << 20)
    pages[::4096] = b"x" * (len(pages) // 4096)
