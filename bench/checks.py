"""Checks of every query's outputs against values computed apart from the
program (``reference``) or against properties the method must have.

``check(query, output)`` returns the list of problems found; an empty list
means the answer is verified.  ``counts(query, output)`` gives the work a
query did, as per-layer counters fixed by the inputs.
"""
from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

import reference as ref


def _scan_partition(size: int, lam):
    """Partition of the big label a stability scan reads at lam (sign +1)."""
    rows = [int(a - p) for a, p in zip(lam, ref.own_rho(size))]
    return ref.label_partition(size, rows, 1)


def _check_sbo(q, out):
    n, size = q["n"], q["n"] + 1
    alpha = ref.label_partition(size, q["big"], q["big_eps"])
    beta = ref.label_partition(n, q["sub"], q["sub_eps"])
    problems = []
    if out["big_dim"] != ref.o_dim(size, alpha):
        problems.append(f"big model dimension {out['big_dim']} != Weyl {ref.o_dim(size, alpha)}")
    if out["sub_dim"] != ref.o_dim(n, beta):
        problems.append(f"sub model dimension {out['sub_dim']} != Weyl {ref.o_dim(n, beta)}")
    want = ref.interlace_mult(size, alpha, beta)
    if out["mult"] != want or out["operators"] != want:
        problems.append(f"hom_space multiplicity {out['mult']} with {out['operators']} "
                        f"operators, interlacing says {want}")
    lam, nu = ref.inf_char(size, q["big"]), ref.inf_char(n, q["sub"])
    g, phi = ref.closed_scalar(n, q["i"], q["eps"], lam, nu)
    num, den, defined = out["scalar"]
    if defined != (phi != 0):
        problems.append(f"scalar defined={defined} but closed-form phi = {phi}")
    elif defined and Fraction(num) / Fraction(den) != g / phi:
        problems.append(f"measured scalar {Fraction(num) / Fraction(den)} != C = {g / phi}")
    for ell, got in zip((1, 2, 3), out["b"]):
        closed = ref.closed_b(ell, n, lam, nu)
        if got != closed:
            problems.append(f"b_eval ell={ell} gave {got}, closed form {closed}")
    return problems


def _check_scan(q, out):
    n, size = q["n"], q["n"] + 1
    beta = ref.label_partition(n, q["pi"], 1)
    problems = []
    if not out["samples"]:
        problems.append("scan returned no samples")

    def interlace_at(lam):
        return ref.interlace_mult(size, _scan_partition(size, lam), beta)

    for lam, m in out["samples"]:
        if m != interlace_at(lam):
            problems.append(f"sample {lam}: multiplicity {m} != interlacing {interlace_at(lam)}")
    values = {m for _lam, m in out["samples"]}
    if not out["constant"] or len(values) > 1:
        problems.append(f"scan not constant on its region: constant={out['constant']}, "
                        f"values {sorted(values)}")
    for a, b, d in out["crossings"]:
        if d != interlace_at(b) - interlace_at(a):
            problems.append(f"crossing {a} -> {b}: jump {d} != "
                            f"{interlace_at(b) - interlace_at(a)}")
    return problems


def _check_decompose(q, out):
    alpha = ref.label_partition(7, q["rows"], q["eps"])
    got = {}
    for rows, eps, c in out["constituents"]:
        beta = ref.label_partition(6, rows, eps)
        got[beta] = got.get(beta, 0) + c
    want = ref.interlacing(7, alpha)
    problems = []
    for beta in sorted(set(got) | set(want)):
        if got.get(beta, 0) != want.get(beta, 0):
            problems.append(f"constituent {beta}: multiplicity {got.get(beta, 0)}, "
                            f"interlacing {want.get(beta, 0)}")
    total = sum(c * ref.o_dim(6, beta) for beta, c in got.items())
    if total != ref.o_dim(7, alpha):
        problems.append(f"sum of mult*dim(sub) = {total} != dim(big) = {ref.o_dim(7, alpha)}")
    return problems


def _check_oracle(q, out):
    want = ref.interlace_mult(7, ref.label_partition(7, q["rows"], q["eps"]),
                              ref.label_partition(6, *q["sub"]))
    if out["mult"] == out["interlace"] == want:
        return []
    return [f"oracle {out['mult']}, interlace_predicate {out['interlace']}, "
            f"interlacing {want}"]


def _check_fusion(q, out):
    avals = [Fraction(a) for a in q["a"]]
    grid = [(a, b, a + b - 2 * k) for a in avals for b in avals for k in range(q["k_max"] + 1)]
    cells = out["cells"]
    problems = []
    if [tuple(cell[:3]) for cell in cells] != grid:
        problems.append(f"fusion grid has {len(cells)} cells, not the {len(grid)} asked for")
    for a, b, c, mult, oracle in cells:
        kernel = ref.fusion_kernel(a, b, c)
        if not mult == oracle == kernel:
            problems.append(f"fusion ({a},{b},{c}): closed form {mult}, oracle {oracle}, "
                            f"kernel recount {kernel}")
    return problems


def _check_identities(q, out):
    if out["failed"] or out["checks"] <= 0:
        return [f"verify_identities(n={q['n']}) ran {out['checks']} checks, "
                f"{out['failed']} failed: {out['failures']}"]
    return []


def _check_bundle(q, out):
    size = q["n"] + 1
    alpha = ref.label_partition(size, q["rows"], q["eps"])
    problems = []
    if out["dim"] != ref.o_dim(size, alpha) or len(out["indices"]) != size:
        problems.append(f"bundle model dim {out['dim']} on {len(out['indices'])} "
                        f"coordinates, expected dim {ref.o_dim(size, alpha)} on {size}")
    lam, rho = ref.inf_char(size, q["rows"]), ref.own_rho(size)
    expected = sum(c * c for c in lam) - sum(c * c for c in rho)
    if out["casimir"] != expected:
        problems.append(f"bundle Casimir {out['casimir']} != |lambda|^2-|rho|^2 = {expected}")
    for N, ok in zip((2, 3), out["ladders"]):
        if not ok:
            problems.append(f"ladder identity A_{N} fails on the bundle")
    for N, ok in zip((1, 2, 3), out["powers"]):
        if not ok:
            problems.append(f"power identity N={N} fails on the bundle")
    if not out["roundtrip"]:
        problems.append("re-serialized bundle differs from the file it was loaded from")
    return problems


def _check_cli(q, out):
    argv = q["argv"]
    if out["code"] != 0:
        return [f"{argv[0]} exited with {out['code']}"]
    text = out["text"]
    args = dict(zip(argv[1::2], argv[2::2]))
    if argv[0] == "render":
        return [] if text.startswith("<svg") and text.endswith("</svg>\n") else \
            ["render did not print an SVG document"]
    if argv[0] == "verma-demo":
        rows = list(csv.reader(io.StringIO(text)))
        problems = [f"verma-demo row {row}: columns disagree with the kernel recount"
                    for row in rows[1:]
                    if not row[3] == row[4] == str(ref.fusion_kernel(*row[:3]))]
        return problems if len(rows) > 1 else ["verma-demo printed no rows"]
    obj = json.loads(text)
    n = int(args.get("--n", 0))
    if argv[0] == "branch":
        size = n + 1
        alpha = ref.label_partition(size, [int(c) for c in args["--big"].split(",")], 1)
        beta = ref.label_partition(n, [int(c) for c in args["--sub"].split(",")], 1)
        want = ref.interlace_mult(size, alpha, beta)
        if obj["multiplicity"] != want or obj["interlace"] != want:
            return [f"branch {obj['multiplicity']}/{obj['interlace']} != interlacing {want}"]
    if argv[0] == "scalar":
        lam = [Fraction(c) for c in args["--lambda"].split(",")]
        nu = [Fraction(c) for c in args["--nu"].split(",")]
        g, phi = ref.closed_scalar(n, int(args["--i"]), 1 if args["--eps"] == "+" else -1,
                                   lam, nu)
        if obj["g"] != str(g) or obj["C"]["defined"] != (phi != 0):
            return [f"scalar g={obj['g']} defined={obj['C']['defined']}, closed g={g}"]
    if argv[0] in ("verify-ue", "verify-scalar") and obj.get("ok") is not True:
        return [f"{argv[0]} did not report ok"]
    if argv[0] == "stability" and obj.get("constant") is not True:
        return ["stability scan not constant on its region"]
    return []


CHECKS = {
    "sbo": _check_sbo,
    "scan": _check_scan,
    "decompose": _check_decompose,
    "oracle": _check_oracle,
    "fusion": _check_fusion,
    "identities": _check_identities,
    "bundle": _check_bundle,
    "cli": _check_cli,
}


def check(q, out):
    return CHECKS[q["kind"]](q, out)


def evaluate(queries, answers):
    """Tally one round: ``(failed, wrong, problems, counts)``.

    ``answers`` holds ``(output, error)`` per query.  A query fails when it
    raised (``error``) or when a check of its output finds a problem; the
    latter also counts as ``wrong``.  Counters add up over verified answers.
    """
    failed = wrong = 0
    problems = []
    totals = dict.fromkeys(COUNTERS, 0)
    for q, (out, error) in zip(queries, answers):
        found = [error] if error else check(q, out)
        if found:
            failed += 1
            wrong += 0 if error else 1
            problems.append({"query": q["id"], "problems": found[:3]})
        else:
            for key, value in counts(q, out).items():
                totals[key] += value
    return failed, wrong, problems, totals


COUNTERS = ("matrixrep.model_dim_sum", "homspace.operators", "measure.probes_checked",
            "enveloping.checks_run", "branching.scan_points", "branching.big_dim_sum",
            "verma.cells")


def counts(q, out) -> dict:
    kind = q["kind"]
    if kind == "sbo":
        return {"matrixrep.model_dim_sum": out["big_dim"] + out["sub_dim"],
                "homspace.operators": out["operators"],
                "measure.probes_checked": out["probes"]}
    if kind == "bundle":
        return {"matrixrep.model_dim_sum": out["dim"]}
    if kind == "identities":
        return {"enveloping.checks_run": out["checks"]}
    if kind == "scan":
        return {"branching.scan_points": len(out["samples"]) + len(out["crossings"])}
    if kind == "decompose":
        return {"branching.big_dim_sum": ref.o_dim(7, ref.label_partition(7, q["rows"], q["eps"]))}
    if kind == "fusion":
        return {"verma.cells": len(out["cells"])}
    return {}
