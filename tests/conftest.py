"""Shared fixtures: session-scoped representation cache.

Constructing a polynomial model is the expensive step (closure under the
lowering operators plus full verification), so every test that needs a model
goes through one session-wide cache keyed by (n, rows, eps, side).  Det
twists of already-built models are produced by sharing the generator caches
instead of re-running the closure.  ``run_optimized`` runs a snippet under
``python -O``, where a self-check must still raise.  ``labels_5000`` lists
the O(3)..O(9) labels that the character oracle's tests sweep.
"""

import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import orthobranch
from orthobranch.branching import fd_label
from orthobranch.weights import rank_context
from orthobranch.matrixrep import MatrixRep, construct_irrep, det_twisted


class RepCache:
    def __init__(self):
        self._store = {}

    def get(self, n: int, mu, eps=None, which: str = "big",
            dim_cap: int = 500) -> MatrixRep:
        mu = tuple(int(c) for c in mu)
        key = (n, mu, eps, which)
        hit = self._store.get(key)
        if hit is not None:
            return hit
        ctx = rank_context(n)
        size = (n + 1) if which == "big" else n
        # for a det twist of an already-built sibling, share the model
        if eps == -1:
            base_eps = 1 if (size % 2 or mu[-1] == 0) else None
            base = self._store.get((n, mu, base_eps, which))
            if base is None and size % 2 == 0 and mu[-1] >= 1:
                base = self._store.get((n, mu, None, which))
            if base is not None:
                rep = det_twisted(base)
                self._store[key] = rep
                return rep
        rep = construct_irrep(ctx, mu, eps=eps, which=which, dim_cap=dim_cap)
        self._store[key] = rep
        return rep


@pytest.fixture(scope="session")
def reps() -> RepCache:
    return RepCache()


@pytest.fixture(scope="session")
def run_optimized():
    """run(code, *argv): the stdout of code run in a ``python -O`` subprocess
    with this package importable, after checking that it exited with 0."""
    env = dict(os.environ, PYTHONPATH=str(Path(orthobranch.__file__).resolve().parent.parent))

    def run(code: str, *argv: str) -> str:
        done = subprocess.run([sys.executable, "-O", "-c", code, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run


@pytest.fixture(scope="session")
def labels_5000():
    """(size, partition) of every O(3)..O(9) label with first row at most 12
    and dimension at most 5,000, rows in lexicographic order, + before -."""
    out = []
    for size in range(3, 10):
        for mu in product(range(13), repeat=size // 2):
            if list(mu) == sorted(mu, reverse=True) and fd_label(size, mu).dim() <= 5000:
                out.extend(dict.fromkeys((size, fd_label(size, mu, eps).partition)
                                         for eps in (1, -1)))
    return out
