"""One round of a workload in a fresh process: the child that run.py starts.

    python3 bench/round.py --workload NAME --seed N --trace 0|1

It imports orthobranch, draws the round's queries from the seed, runs them
one after another on this single thread, then checks the answers outside
the timed part.  It prints the round's results as one JSON line, with
``ready``, the ``time.monotonic`` moment the first query was ready.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import workloads  # noqa: E402  (imports orthobranch)
from spans import Tracer  # noqa: E402


def plain(x):
    """JSON-ready copy of an output: exact rationals as strings."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    if isinstance(x, dict):
        return {str(k): plain(v) for k, v in x.items()}
    return x


def digest(output) -> str:
    text = json.dumps(plain(output), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    queries = workloads.make_queries(args.workload, args.seed, ROOT)
    ready = time.monotonic()
    tracer = Tracer(bool(args.trace))
    answers = []
    start = time.perf_counter()
    for q in queries:
        span = tracer.begin_query(q["id"])
        try:
            answers.append((workloads.run_query(q, tracer), None))
        except Exception as exc:  # a query that raises is a failed operation
            answers.append((None, f"{type(exc).__name__}: {exc}"))
        tracer.end_query(span)
    wall = time.perf_counter() - start

    check_start = time.perf_counter()
    failed, wrong, problems, counts = checks.evaluate(queries, answers)
    check_s = time.perf_counter() - check_start

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "ready": ready,
        "wall_s": wall,
        "check_s": check_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "attempted": len(queries),
        "failed": failed,
        "wrong": wrong,
        "problems": problems,
        "digests": [[q["id"], digest(out)] for q, (out, _e) in zip(queries, answers)],
        "counts": counts,
        "layers": tracer.totals(),
        "spans": tracer.spans,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
