"""Benchmark of orthobranch's verified answers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs rounds of one workload for about S seconds, set-up included.  Each
round is a fresh single-threaded process (bench/round.py) that imports
orthobranch with cold caches, draws the round's queries from the seed,
answers them and checks the answers; this process only waits for it.  Every
round of a run repeats the same queries, so outputs must match between
rounds byte for byte.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` rounds alternate untraced and
traced, the metrics are the per-layer ones, and every span is written to
bench/out/spans-<workload>-<seed>.jsonl.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
MIN_ROUNDS = 3  # untraced; a traced run makes at least two pairs
ROUND_TIMEOUT_S = 90

END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MiB"), ("setup_s", "s"))
LAYERS = ("matrixrep.construct", "homspace.hom_space", "measure.measure_scalar",
          "measure.b_eval", "matrixrep.bundle_load", "matrixrep.bundle_dump",
          "matrixrep.act", "matrixrep.casimir", "measure.power_identity",
          "enveloping.build", "enveloping.verify_identities", "cli.main",
          "branching.stability_scan", "branching.decompose", "branching.oracle",
          "branching.interlace", "verma.fusion")


def run_round(workload: str, seed: int, trace: bool) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "round.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=ROUND_TIMEOUT_S, check=False)
    ended = time.monotonic()
    lines = proc.stdout.decode("utf-8").splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"round of {workload} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawned
    result["round_s"] = ended - spawned
    result["traced"] = trace
    return result


def run_rounds(workload: str, seed: int, deadline: float, trace: bool) -> list:
    """Rounds until the next one would end after ``deadline`` (a
    ``time.monotonic`` value), at least MIN_ROUNDS of them; with tracing,
    pairs of an untraced and a traced round, at least two pairs."""
    step = (False, True) if trace else (False,)
    least = 4 if trace else MIN_ROUNDS
    rounds = []
    while True:
        for traced in step:
            rounds.append(run_round(workload, seed, traced))
        expected = statistics.median(r["round_s"] for r in rounds) * len(step)
        if len(rounds) >= least and time.monotonic() + expected > deadline:
            return rounds


def tally(rounds: list) -> tuple:
    """(attempted, failed, correct) over all rounds.  A query whose output
    differs from the first round's counts as failed and wrong."""
    first = dict(rounds[0]["digests"])
    attempted = failed = wrong = 0
    for r in rounds:
        attempted += r["attempted"]
        failed += r["failed"]
        wrong += r["wrong"]
        changed = sum(1 for qid, d in r["digests"] if first.get(qid) != d)
        failed += changed
        wrong += changed
        if r["counts"] != rounds[0]["counts"]:
            wrong += 1
    return attempted, failed, wrong == 0


def end_to_end(rounds: list) -> dict:
    """``wall_s`` is the total over the run's rounds divided by their number;
    ``setup_s`` and ``peak_rss_mb`` are medians over the rounds."""
    metrics = {name: {"value": statistics.median(r[name] for r in rounds), "unit": unit}
               for name, unit in END_TO_END}
    metrics["wall_s"]["value"] = statistics.fmean(r["wall_s"] for r in rounds)
    return metrics


def per_layer(rounds: list) -> dict:
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    metrics = {}
    for layer in LAYERS:
        value = statistics.median(r["layers"].get(layer, 0.0) for r in traced)
        metrics[f"{layer}_s"] = {"value": value, "unit": "s"}
    for name, value in traced[0]["counts"].items():
        metrics[name] = {"value": value, "unit": "count"}
    metrics["bench.check_s"] = {"value": statistics.median(r["check_s"] for r in plain),
                                "unit": "s"}
    metrics["run.cpu_s"] = {"value": statistics.median(r["cpu_s"] for r in plain),
                            "unit": "s"}
    overhead = (statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in plain))
    metrics["run.trace_overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def write_spans(workload: str, seed: int, rounds: list) -> None:
    path = os.path.join(OUT, f"spans-{workload}-{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for k, r in enumerate(rounds):
            for span_id, name, start, end, parent, query in r["spans"]:
                fh.write(json.dumps({"round": k, "id": span_id, "name": name,
                                     "start": start, "end": end, "parent": parent,
                                     "query": query}) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=55)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + args.seconds

    if not os.path.isfile(os.path.join(ROOT, "src", "orthobranch", "__init__.py")):
        print("bench: no orthobranch sources under src/ next to bench/", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    # byte-compile once so that no round pays for it inside its set-up time
    for tree in (os.path.join(ROOT, "src"), BENCH):
        compileall.compile_dir(tree, quiet=1)
    workloads.write_bundles(workloads.make_queries(args.workload, args.seed, ROOT))

    rounds = run_rounds(args.workload, args.seed, deadline, bool(args.trace))
    attempted, failed, correct = tally(rounds)
    metrics = per_layer(rounds) if args.trace else end_to_end(rounds)
    if args.trace:
        write_spans(args.workload, args.seed, rounds)
    for r in rounds:
        for entry in r["problems"]:
            print(f"bench: {entry['query']}: {'; '.join(entry['problems'])}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(dict(result, rounds=[{key: r[key] for key in ("traced", "wall_s", "setup_s",
                                                                 "peak_rss_mb", "cpu_s")}
                                        for r in rounds]), fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
