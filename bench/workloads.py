"""The benchmark's two workloads: seeded inputs and the calls that answer
each query.

A query is a dict with an ``id``, a ``kind`` and the inputs of that kind.
``make_queries(workload, seed)`` draws a round's queries from the seed alone,
with a fixed number of draws from each size stratum so that the work of a
round hardly moves with the seed.  ``run_query`` answers one query through
orthobranch's public functions, each call wrapped by the tracer, and returns
plain outputs that ``checks.check`` verifies after the round's timed part.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

import orthobranch as ob
from orthobranch import cli
from orthobranch.matrixrep import bundle_to_json

import reference as ref

WORKLOADS = ("matrix_models", "branching_tables")

# Raised dimension cap for the branching oracle; the program's default is
# 20,000 and the decompositions below go past it on purpose.
ORACLE_DIM_CAP = 10 ** 7

# --- matrix_models, part 1: symmetry-breaking operators on models -----------
# Big models of O(n+1) by dimension stratum: (n, rows).  Each stratum keeps
# labels whose verify-scalar pipeline does about the same work, so that a
# round costs about the same whatever the seed.  Left out: O(4) labels with
# a second row of 3 or more (closure alone takes 2 to 9 s at dimensions 14
# to 54); the dimension-105 models, whose cheapest pair (O(6), rows 4,0,0)
# does as much work as the rest of this part and moves by a quarter with i;
# and labels with three nonzero rows, which the models do not cover.
SBO_STRATA = (
    # (draws per round, pool)
    (3, ((3, (2, 0)), (3, (3, 0)), (4, (1, 0)), (4, (1, 1)), (4, (2, 0)),
         (5, (1, 0, 0)), (6, (1, 0, 0)))),
    (2, ((3, (4, 1)), (6, (1, 1, 0)), (6, (2, 0, 0)))),
    (1, ((4, (5, 0)),)),
)
SBO_SUB_DIM_MAX = 30


def _sbo_queries(rng):
    out = []
    for draws, pool in SBO_STRATA:
        for n, rows in rng.sample(pool, draws):
            size = n + 1
            eps = rng.choice((1, -1))
            alpha = ref.label_partition(size, rows, eps)
            subs = []
            for beta in sorted(ref.interlacing(size, alpha)):
                sub_rows, sub_eps = ref.partition_label(n, beta)
                if (sum(1 for c in sub_rows if c) <= 2
                        and ref.o_dim(n, beta) <= SBO_SUB_DIM_MAX):
                    subs.append((sub_rows, sub_eps))
            sub_rows, sub_eps = rng.choice(subs)
            out.append({
                "kind": "sbo", "n": n, "big": rows, "big_eps": eps,
                "sub": sub_rows, "sub_eps": sub_eps,
                "i": rng.randint(1, ref.rank_of(size)), "eps": rng.choice((1, -1)),
            })
    return out


def _run_sbo(q, T):
    ctx = ob.rank_context(q["n"])
    big = T.call("matrixrep.construct", ob.construct_irrep, ctx, q["big"],
                 eps=q["big_eps"], which="big")
    sub = T.call("matrixrep.construct", ob.construct_irrep, ctx, q["sub"],
                 eps=q["sub_eps"], which="sub")
    mult, ops = T.call("homspace.hom_space", ob.hom_space, big, sub)
    res = T.call("measure.measure_scalar", ob.measure_scalar, ops[0], q["i"], q["eps"])
    b = [T.call("measure.b_eval", ob.b_eval, ops[0], ell) for ell in (1, 2, 3)]
    value = res.value
    return {
        "big_dim": big.dim, "sub_dim": sub.dim, "mult": mult, "operators": len(ops),
        "scalar": (value.numerator, value.denominator, value.defined),
        "probes": res.probes_checked, "b": b,
    }


# --- branching_tables -------------------------------------------------------
# Stability scans by rank, each pool of about equal cost:
# (n, base point xi, sub rows pi, box bound).  Every base point is away from
# the fences of pi's infinitesimal character and keeps the whole box under
# the oracle's default dimension cap, which stability_scan cannot raise.
# The n = 3 pool, drawn twice, has distinct base points, so that the two
# draws do not share their work through the character caches.
_h = Fraction
SCAN_STRATA = (
    (2, ((3, (8, 6), (2,), 2), (3, (7, 1), (2,), 2), (3, (6, 4), (2,), 2),
         (3, (7, 2), (3,), 2), (3, (7, 6), (3,), 2), (3, (6, 3), (1,), 2),
         (3, (5, 3), (1,), 2))),
    (1, ((4, (_h(15, 2), _h(11, 2)), (3, 1), 2), (4, (_h(15, 2), _h(11, 2)), (2, 1), 2),
         (4, (_h(15, 2), _h(11, 2)), (2, 0), 2), (4, (_h(15, 2), _h(13, 2)), (2, 0), 2),
         (4, (_h(17, 2), _h(3, 2)), (3, 0), 2))),
    (1, ((5, (8, 7, 6), (3, 1), 1), (5, (7, 6, 3), (3, 1), 1), (5, (8, 6, 5), (2, 0), 1))),
)
# O(7) labels for full_decomposition, by dimension stratum, largest first:
# 79,002-97,755, 47,025-51,051 and 19,683-20,825.
DECOMPOSE_STRATA = (
    (1, ((7, 3, 1), (8, 4, 0), (7, 3, 2))),
    (1, ((6, 3, 2), (7, 4, 0))),
    (1, ((5, 3, 1), (6, 2, 1))),
)
ORACLE_SAMPLES = 4
FUSION_WIDTH = 11
FUSION_K_MAX = 9


def _branching_queries(rng):
    out = []
    a0 = rng.randint(-6, -3)
    out.append({"kind": "fusion", "a": tuple(range(a0, a0 + FUSION_WIDTH)),
                "k_max": FUSION_K_MAX})
    for draws, pool in DECOMPOSE_STRATA:
        for rows in rng.sample(pool, draws):
            eps = rng.choice((1, -1))
            out.append({"kind": "decompose", "rows": rows, "eps": eps})
            alpha = ref.label_partition(7, rows, eps)
            inside = sorted(ref.interlacing(7, alpha))
            # half the samples interlace, half are one box outside the rule
            for beta in rng.sample(inside, ORACLE_SAMPLES // 2):
                out.append({"kind": "oracle", "rows": rows, "eps": eps,
                            "sub": ref.partition_label(6, beta)})
            misses = []
            for beta in inside:
                for k in range(len(beta) + 1):
                    grown = list(beta) + [0]
                    grown[k] += 1
                    grown = tuple(c for c in grown if c)
                    if (grown not in inside and list(grown) == sorted(grown, reverse=True)
                            and ref.valid_partition(6, grown)):
                        misses.append(grown)
            for beta in rng.sample(sorted(set(misses)), ORACLE_SAMPLES // 2):
                out.append({"kind": "oracle", "rows": rows, "eps": eps,
                            "sub": ref.partition_label(6, beta)})
    for draws, pool in SCAN_STRATA:
        for n, xi, pi, bound in rng.sample(pool, draws):
            out.append({"kind": "scan", "n": n, "xi": tuple(Fraction(c) for c in xi),
                        "pi": pi, "bound": bound})
    return out


def _run_scan(q, T):
    report = T.call("branching.stability_scan", ob.stability_scan, q["xi"],
                    ob.fd_label(q["n"], q["pi"]), q["bound"])
    return {
        "samples": [(lam, m) for lam, m in report.samples],
        "constant": report.constant,
        "crossings": [(a, b, d) for a, b, d in report.fence_crossings],
    }


def _run_decompose(q, T):
    big = ob.fd_label(7, q["rows"], q["eps"])
    pairs = T.call("branching.decompose", ob.full_decomposition, big,
                   dim_cap=ORACLE_DIM_CAP)
    return {"constituents": [(label.mu, label.eps, c) for label, c in pairs]}


def _run_oracle(q, T):
    big = ob.fd_label(7, q["rows"], q["eps"])
    sub = ob.fd_label(6, *q["sub"])
    mult = T.call("branching.oracle", ob.oracle_multiplicity, big, sub,
                  dim_cap=ORACLE_DIM_CAP)
    predicted = T.call("branching.interlace", ob.interlace_predicate, big, sub)
    return {"mult": mult, "interlace": predicted}


def _run_fusion(q, T):
    avals = [Fraction(a) for a in q["a"]]
    table = T.call("verma.fusion", ob.fusion_grid, avals, range(q["k_max"] + 1))
    cells = []
    for a, b, c, mult in table:
        oracle = T.call("verma.fusion", ob.fusion_oracle, ob.FusionQuery(a, b, c))
        cells.append((a, b, c, mult, oracle))
    return {"cells": cells}


# --- matrix_models, part 2: identity suite, bundles and the CLI -------------
IDENTITY_NS = (3, 4, 5, 6)
# Models written to bundles before the rounds start, by dimension stratum.
BUNDLE_STRATA = (
    (1, ((3, (2, 1)), (3, (3, 0)), (3, (3, 2)), (3, (4, 0)))),
    (1, ((3, (3, 1)), (4, (3, 0)), (3, (5, 0)))),
    (1, ((3, (5, 2)),)),
)
# Small inputs for one invocation of each CLI subcommand.
CLI_SCAN_POOL = SCAN_STRATA[0][1]
CLI_BUNDLE = (3, (1, 0), 1)
CLI_VERIFY_POOL = ((3, (1, 0), (0,)), (3, (1, 0), (1,)), (3, (2, 0), (1,)),
                   (4, (1, 0), (1, 0)), (5, (1, 0, 0), (1, 0)))


def bundle_path(root: str, n: int, rows, eps: int) -> str:
    tag = "-".join(str(c) for c in rows)
    return os.path.join(root, "bench", "out", "bundles",
                        f"n{n}_{tag}_{'p' if eps == 1 else 'm'}.json")


def _identity_queries(rng, root):
    out = [{"kind": "identities", "n": n} for n in IDENTITY_NS]
    for draws, pool in BUNDLE_STRATA:
        for n, rows in rng.sample(pool, draws):
            eps = rng.choice((1, -1))
            out.append({"kind": "bundle", "n": n, "rows": rows, "eps": eps,
                        "path": bundle_path(root, n, rows, eps)})
    n, rows, eps = CLI_BUNDLE
    cli_bundle = {"n": n, "rows": rows, "eps": eps, "path": bundle_path(root, n, rows, eps)}
    out.extend({"kind": "cli", "argv": argv, "bundle": cli_bundle}
               for argv in _cli_argvs(rng, cli_bundle["path"]))
    return out


def _weight_arg(coords) -> str:
    return ",".join(str(Fraction(c)) for c in coords)


def _cli_argvs(rng, bundle: str):
    n = rng.choice((3, 4, 5))
    r, s = (n + 1) // 2, n // 2
    xi = [Fraction(rng.randint(1, 17), 2) for _ in range(r)]
    nu = [Fraction(rng.randint(0, 8), 2) for _ in range(s)]
    lam = [Fraction(rng.randint(1, 17), 2) for _ in range(r)]
    sn, sxi, spi, sbound = rng.choice(CLI_SCAN_POOL)
    bn = rng.choice((3, 4, 5))
    big_rows = tuple(sorted((rng.randint(0, 3) for _ in range((bn + 1) // 2)), reverse=True))
    sub_rows = tuple(sorted((rng.randint(0, 3) for _ in range(bn // 2)), reverse=True))
    vn, vbig, vsub = rng.choice(CLI_VERIFY_POOL)
    a0 = rng.randint(-6, -2)
    render_nu = (Fraction(rng.randint(2, 12), 2), Fraction(rng.randint(0, 2), 2))
    return [
        ["regions", "--n", str(n), "--xi", _weight_arg(xi), "--nu", _weight_arg(nu)],
        ["scalar", "--n", str(n), "--i", str(rng.randint(1, r)),
         "--eps", rng.choice("+-"), "--lambda", _weight_arg(lam), "--nu", _weight_arg(nu)],
        ["branch", "--n", str(bn), "--big", _weight_arg(big_rows),
         "--sub", _weight_arg(sub_rows)],
        ["stability", "--n", str(sn), "--xi", _weight_arg(sxi), "--pi", _weight_arg(spi),
         "--bound", str(sbound)],
        ["verify-ue", "--n", "3", "--max-degree", "3", "--bundle", bundle],
        ["verify-scalar", "--n", str(vn), "--big", _weight_arg(vbig),
         "--sub", _weight_arg(vsub), "--i", "1", "--eps", rng.choice("+-")],
        ["verma-demo", "--a-min", str(a0), "--a-max", str(a0 + 4), "--k-max", "4"],
        ["render", "--n", "4", "--nu", _weight_arg(render_nu), "--axes", "1,2",
         "--range", "0,10"],
    ]


def write_bundles(queries) -> None:
    """Build and write the models the bundle queries read.  Runs before any
    round starts; the program under test writes its own bundles."""
    specs = {q["path"]: q for q in queries if q["kind"] == "bundle"}
    specs.update((q["bundle"]["path"], q["bundle"]) for q in queries if q["kind"] == "cli")
    for path, spec in sorted(specs.items()):
        rep = ob.construct_irrep(ob.rank_context(spec["n"]), spec["rows"], eps=spec["eps"],
                                 which="big")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(bundle_to_json(ob.rep_to_bundle(rep)) + "\n")


def _ladder_rhs(N: int, n: int):
    full, sub = ob.casimir(n, "full"), ob.casimir(n, "sub")
    if N == 2:
        return full - sub
    return full.scale(1 - n) + sub.scale(n)


def _run_identities(q, T):
    checks, failures = T.call("enveloping.verify_identities", ob.verify_identities,
                              q["n"], 4)
    return {"checks": checks, "failures": failures[:1], "failed": len(failures)}


def _run_bundle(q, T):
    with open(q["path"], "r", encoding="utf-8") as fh:
        bundle = json.load(fh)
    rep = T.call("matrixrep.bundle_load", ob.rep_from_bundle, bundle)
    n = len(rep.indices) - 1
    casimir = T.call("matrixrep.casimir", ob.casimir_scalar, rep)
    ladders = []
    for N in (2, 3):
        lhs = T.call("enveloping.build", ob.build_A, N, n)
        rhs = T.call("enveloping.build", _ladder_rhs, N, n)
        ladders.append(T.call("matrixrep.act", ob.act, lhs, rep)
                       == T.call("matrixrep.act", ob.act, rhs, rep))
    powers = [T.call("measure.power_identity", ob.verify_power_identity, rep, N)
              for N in (1, 2, 3)]
    again = T.call("matrixrep.bundle_dump", ob.rep_to_bundle, rep)
    same = all(again[key] == bundle[key] for key in ("dim", "generators", "matrices"))
    return {"dim": rep.dim, "indices": rep.indices, "casimir": casimir,
            "ladders": ladders, "powers": powers, "roundtrip": same}


def _run_cli(q, T):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = T.call("cli.main", cli.main, list(q["argv"]))
        except SystemExit as exc:
            code = exc.code
    return {"code": code, "text": buf.getvalue()}


_RUN = {
    "sbo": _run_sbo,
    "scan": _run_scan,
    "decompose": _run_decompose,
    "oracle": _run_oracle,
    "fusion": _run_fusion,
    "identities": _run_identities,
    "bundle": _run_bundle,
    "cli": _run_cli,
}


def make_queries(workload: str, seed: int, root: str):
    rng = random.Random(f"{workload}/{seed}")
    if workload == "matrix_models":
        queries = _sbo_queries(rng) + _identity_queries(rng, root)
    elif workload == "branching_tables":
        queries = _branching_queries(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for k, q in enumerate(queries):
        q["id"] = f"{q['kind']}.{k}"
    return queries


def run_query(q, tracer):
    return _RUN[q["kind"]](q, tracer)
