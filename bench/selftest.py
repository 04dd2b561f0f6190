"""Self-test of the benchmark's checks: no check may be vacuous.

    python3 bench/selftest.py

For every kind of query it builds a right answer from the reference
formulas, confirms that the round's tally accepts it, then feeds deliberately
wrong variants (a multiplicity off by one, a scalar off by 1/2, a scan that
is not constant on its region, a fusion count that disagrees with the other
route, ...) and confirms that each one is counted as a failed, wrong
operation.  It also checks that a query whose output changes between rounds
is counted as failed.  Exits 1 if any wrong value slips through.
"""
from __future__ import annotations

import copy
import os
import sys
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402

HALF = Fraction(1, 2)


def sbo_case():
    q = {"id": "sbo", "kind": "sbo", "n": 4, "big": (2, 1), "big_eps": 1,
         "sub": (1, 0), "sub_eps": 1, "i": 1, "eps": 1}
    lam, nu = ref.inf_char(5, q["big"]), ref.inf_char(4, q["sub"])
    g, phi = ref.closed_scalar(4, 1, 1, lam, nu)
    out = {"big_dim": ref.o_dim(5, (2, 1)), "sub_dim": ref.o_dim(4, (1,)), "mult": 1,
           "operators": 1, "scalar": (g, phi, True), "probes": 3,
           "b": [ref.closed_b(ell, 4, lam, nu) for ell in (1, 2, 3)]}
    wrong = {
        "multiplicity off by one": lambda o: o.update(mult=2, operators=2),
        "scalar off by 1/2": lambda o: o.update(scalar=(g + HALF * phi, phi, True)),
        "scalar claimed undefined": lambda o: o.update(scalar=(0, 0, False)),
        "b_eval ell=3 off by 1": lambda o: o["b"].__setitem__(2, o["b"][2] + 1),
        "big model dimension off by one": lambda o: o.update(big_dim=o["big_dim"] + 1),
    }
    return q, out, wrong


def scan_case():
    q = {"id": "scan", "kind": "scan", "n": 3, "xi": (Fraction(3), Fraction(1)),
         "pi": (2,), "bound": 1}
    # lambda - rho = (2,1) and (3,1) interlace (2); (3,3) does not
    inside, far = ((Fraction(3), Fraction(1)), (Fraction(4), Fraction(1))), \
        (Fraction(4), Fraction(3))
    out = {"samples": [(lam, 1) for lam in inside], "constant": True,
           "crossings": [(inside[0], far, -1)]}
    wrong = {
        "sample multiplicity off by one": lambda o: o["samples"].__setitem__(
            0, (inside[0], 2)),
        "scan not constant on its region": lambda o: o["samples"].append((far, 0)),
        "scan reported as not constant": lambda o: o.update(constant=False),
        "crossing jump off by one": lambda o: o.update(crossings=[(inside[0], far, 0)]),
    }
    return q, out, wrong


def decompose_case():
    q = {"id": "decompose", "kind": "decompose", "rows": (2, 1, 0), "eps": 1}
    out = {"constituents": [ref.partition_label(6, beta) + (1,)
                            for beta in sorted(ref.interlacing(7, (2, 1)))]}
    wrong = {
        "constituent multiplicity off by one": lambda o: o["constituents"].__setitem__(
            0, o["constituents"][0][:2] + (2,)),
        "constituent missing": lambda o: o["constituents"].pop(),
    }
    return q, out, wrong


def oracle_case():
    q = {"id": "oracle", "kind": "oracle", "rows": (2, 1, 0), "eps": 1,
         "sub": ((1, 0, 0), 1)}
    out = {"mult": 1, "interlace": 1}
    wrong = {
        "oracle multiplicity off by one": lambda o: o.update(mult=2),
        "oracle and predicate agree on a wrong value": lambda o: o.update(mult=0, interlace=0),
    }
    return q, out, wrong


def fusion_case():
    q = {"id": "fusion", "kind": "fusion", "a": (-2, -1, 0), "k_max": 2}
    cells = []
    for a in q["a"]:
        for b in q["a"]:
            for k in range(3):
                c = a + b - 2 * k
                m = ref.fusion_kernel(a, b, c)
                cells.append((Fraction(a), Fraction(b), Fraction(c), m, m))
    out = {"cells": cells}
    jump = next(k for k, cell in enumerate(cells) if cell[3] == 2)

    def oracle_disagrees(o):
        a, b, c, m, _ = o["cells"][0]
        o["cells"][0] = (a, b, c, m, m + 1)

    def both_routes_wrong(o):
        a, b, c, _m, _o = o["cells"][jump]
        o["cells"][jump] = (a, b, c, 1, 1)

    wrong = {
        "fusion count disagrees with the other route": oracle_disagrees,
        "both routes wrong, caught by the kernel recount": both_routes_wrong,
        "grid cell missing": lambda o: o["cells"].pop(),
    }
    return q, out, wrong


def identities_case():
    q = {"id": "identities", "kind": "identities", "n": 3}
    out = {"checks": 153, "failures": [], "failed": 0}
    wrong = {
        "an identity failed": lambda o: o.update(failed=1, failures=[{"check": "jacobi"}]),
        "no checks ran": lambda o: o.update(checks=0),
    }
    return q, out, wrong


def bundle_case():
    q = {"id": "bundle", "kind": "bundle", "n": 3, "rows": (2, 1), "eps": 1, "path": ""}
    lam, rho = ref.inf_char(4, (2, 1)), ref.own_rho(4)
    out = {"dim": ref.o_dim(4, (2, 1)), "indices": (0, 1, 2, 3),
           "casimir": sum(c * c for c in lam) - sum(c * c for c in rho),
           "ladders": [True, True], "powers": [True, True, True], "roundtrip": True}
    wrong = {
        "Casimir scalar off by 1/2": lambda o: o.update(casimir=o["casimir"] + HALF),
        "ladder identity fails": lambda o: o["ladders"].__setitem__(1, False),
        "power identity fails": lambda o: o["powers"].__setitem__(0, False),
        "round trip changes the matrices": lambda o: o.update(roundtrip=False),
        "model dimension off by one": lambda o: o.update(dim=o["dim"] + 1),
    }
    return q, out, wrong


def cli_cases():
    branch = {"id": "cli.branch", "kind": "cli",
              "argv": ["branch", "--n", "3", "--big", "2,1", "--sub", "1"]}
    branch_out = {"code": 0, "text": '{"interlace": 1, "multiplicity": 1}\n'}
    demo = {"id": "cli.demo", "kind": "cli",
            "argv": ["verma-demo", "--a-min", "0", "--a-max", "0", "--k-max", "0"]}
    demo_out = {"code": 0, "text": "a,b,c,multiplicity,oracle\r\n0,0,0,1,1\r\n"}
    return [
        (branch, branch_out, {
            "branch multiplicity off by one": lambda o: o.update(
                text='{"interlace": 1, "multiplicity": 2}\n'),
            "exit code 1": lambda o: o.update(code=1),
        }),
        (demo, demo_out, {
            "verma-demo columns disagree": lambda o: o.update(
                text="a,b,c,multiplicity,oracle\r\n0,0,0,1,2\r\n"),
        }),
    ]


def main() -> int:
    cases = [sbo_case(), scan_case(), decompose_case(), oracle_case(), fusion_case(),
             identities_case(), bundle_case()] + cli_cases()
    slipped = []
    tried = 0
    for q, out, wrong in cases:
        failed, _w, problems, _c = checks.evaluate([q], [(out, None)])
        if failed:
            slipped.append(f"{q['id']}: the right answer was rejected: {problems}")
        for label, mutate in wrong.items():
            bad = copy.deepcopy(out)
            mutate(bad)
            failed, wrong_count, _p, _c = checks.evaluate([q], [(bad, None)])
            tried += 1
            if (failed, wrong_count) != (1, 1):
                slipped.append(f"{q['id']}: '{label}' was not counted as a failed operation")
    # an output that differs between two rounds
    rounds = [{"attempted": 1, "failed": 0, "wrong": 0, "counts": {},
               "digests": [["cli.branch", digest]]} for digest in ("aa", "bb")]
    tried += 1
    if run.tally(rounds) != (2, 1, False):
        slipped.append("an output that changed between rounds was not counted as failed")
    # a query that raises
    tried += 1
    if checks.evaluate([cases[0][0]], [(None, "RuntimeError: boom")])[:2] != (1, 0):
        slipped.append("a query that raised was not counted as failed")
    for line in slipped:
        print(f"selftest: {line}")
    print(f"selftest: {tried - len(slipped)} of {tried} wrong values were caught")
    return 1 if slipped else 0


if __name__ == "__main__":
    sys.exit(main())
