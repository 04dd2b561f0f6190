"""Command-line surface for the package.

Subcommands:

- ``regions``       region descriptor (support, multi-signature, fence status)
- ``scalar``        the named scalar family values for one query
- ``branch``        branching multiplicity + interlacing prediction
- ``stability``     multiplicity scan over a region, with jump report
- ``verify-ue``     symbolic identity suite; ``--bundle`` adds ``bundle-casimir``,
                    ``bundle-reflection`` and ``bundle-power`` (``_cmd_verify_ue``)
- ``verify-scalar`` measured vs closed-form scalars on constructed models
- ``verma-demo``    rank-one fusion jump table
- ``render``        SVG slice of the fence arrangement

All numeric flags parse exact rationals ("p/q" or "p"); float syntax is
rejected.  Outputs are deterministic: JSON with sorted keys, CSV per RFC
4180 (CRLF line endings), SVG 1.1 with fixed element ordering and no
timestamps.  Exit codes: 0 success; 1 identity violation or failed model
self-check, with a replayable JSON counterexample on the output stream (a
failed self-check reports ``{"check": "self-check", "argv": [...], "error":
"<Type>: <message>"}``); 2 usage error, which includes a resource cap
(``--dim-cap``) and a file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from fractions import Fraction
from itertools import product
from typing import List, Optional, Sequence, Tuple

from .weights import ResourceLimitError, rank_context
from .characters import CharacterCheckError
from .regions import region_descriptor
from .scalars import (
    C_val,
    b_closed,
    g_val,
    h_val,
    nonvanishing_predicate,
    phi_val,
    scalar_query,
)
from .branching import (
    DEFAULT_DIM_CAP,
    fd_label,
    interlace_predicate,
    oracle_multiplicity,
    stability_scan,
)
from .matrixrep import DEFAULT_DIM_CAP as MODEL_DIM_CAP
from .verma import FusionQuery, fusion_grid, fusion_oracle


def _parse_rat(text: str) -> Fraction:
    t = text.strip()
    if any(c in t for c in ".eE") and not t.lstrip("+-").isdigit():
        raise ValueError(f"not an exact rational: {text!r} (use p/q)")
    return Fraction(t)


def _parse_weight(text: str) -> Tuple[Fraction, ...]:
    return tuple(_parse_rat(p) for p in text.split(","))


def _parse_rows(text: str) -> Tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


def _parse_eps(text: str) -> int:
    t = text.strip()
    if t in ("+", "+1", "1"):
        return 1
    if t in ("-", "-1"):
        return -1
    raise ValueError(f"sign must be + or -, got {text!r}")


def _rat_s(x) -> str:
    return str(Fraction(x))


def _weight_obj(w) -> List[str]:
    return [_rat_s(c) for c in w]


def _label_obj(label) -> dict:
    return {
        "group_size": label.group_size,
        "rows": list(label.mu),
        "eps": label.eps,
    }


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(obj, out: Optional[str]) -> int:
    _emit(_json_text(obj), out)
    return 1


def _csv_text(rows: Sequence[Sequence[str]]) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _region_obj(desc) -> dict:
    return {
        "base": _weight_obj(desc.base),
        "nu": _weight_obj(desc.nu),
        "support": [[k.i, k.j, k.delta] for k in desc.signature.support],
        "signature": [[[k.i, k.j, k.delta], s] for k, s in desc.signature.entries],
        "away_from_fences": desc.away_from_fences,
    }


def _cmd_regions(args) -> int:
    ctx = rank_context(args.n)
    if (len(args.xi), len(args.nu)) != (ctx.r, ctx.s):
        raise ValueError(f"xi must have length {ctx.r} and nu length {ctx.s} for n = {ctx.n}")
    _emit(_json_text(_region_obj(region_descriptor(args.xi, args.nu))), args.out)
    return 0


def _cmd_scalar(args) -> int:
    ctx = rank_context(args.n)
    q = scalar_query(ctx, args.i, args.eps, args.lam, args.nu)
    obj = {
        "h": _rat_s(h_val(q)),
        "phi": _rat_s(phi_val(q)),
        "g": None,
        "C": None,
        "nonvanishing": None,
    }
    if args.nu is not None:
        c = C_val(q)
        obj["g"] = _rat_s(g_val(q))
        obj["C"] = {
            "numerator": _rat_s(c.numerator),
            "denominator": _rat_s(c.denominator),
            "defined": c.defined,
            "value": _rat_s(Fraction(c.numerator) / Fraction(c.denominator))
            if c.defined else None,
        }
        obj["nonvanishing"] = nonvanishing_predicate(q)
    _emit(_json_text(obj), args.out)
    return 0


def _cmd_branch(args) -> int:
    big = fd_label(args.n + 1, args.big, args.big_eps)
    sub = fd_label(args.n, args.sub, args.sub_eps)
    mult = oracle_multiplicity(big, sub, dim_cap=args.dim_cap)
    obj = {
        "big": _label_obj(big),
        "sub": _label_obj(sub),
        "multiplicity": mult,
        "interlace": interlace_predicate(big, sub),
    }
    _emit(_json_text(obj), args.out)
    return 0


def _cmd_stability(args) -> int:
    sub = fd_label(args.n, args.pi, args.pi_eps)
    report = stability_scan(args.xi, sub, args.bound, args.eps, dim_cap=args.dim_cap)
    desc = report.region
    obj = {
        "region": _region_obj(desc),
        "sub": _label_obj(sub),
        "samples": [[_weight_obj(lam), m] for lam, m in report.samples],
        "constant": report.constant,
        "fence_crossings": [
            [_weight_obj(a), _weight_obj(b), d] for a, b, d in report.fence_crossings
        ],
    }
    _emit(_json_text(obj), args.out)
    if args.csv:
        rows = [[f"lam_{i + 1}" for i in range(len(desc.base))] + ["multiplicity"]]
        for lam, m in report.samples:
            rows.append([_rat_s(c) for c in lam] + [str(m)])
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(_csv_text(rows))
    return 0


def _cmd_verify_ue(args) -> int:
    """``verify_identities``, then, if it passes, these checks on ``--bundle``:
    - ``bundle-casimir``: -sum X[a,b]^2 is the label's scalar (catches e.g. a
      doubled generator entry);
    - ``bundle-reflection``: ``verify_reflection`` (catches e.g. the identity
      as the reflection, one of its columns negated, or the whole of it
      negated where the label is not induced);
    - ``bundle-power``, N = 2 .. min(max-degree, 3):
      ``power_identity_counterexample`` (catches e.g. a negated generator,
      whose Casimir is unchanged); a failure carries the first basis vector
      and slot that differ.  N = 1 cannot fail: A_1 = 0 and B_1,j = X_0j read
      the same columns."""
    from .enveloping import verify_identities
    from .matrixrep import (casimir_scalar, expected_casimir_scalar, rep_from_bundle,
                            verify_reflection)
    from .measure import power_identity_counterexample

    rep = None
    if args.bundle:
        # read the bundle first: an unreadable one is a usage error, reported
        # before the identity suite runs
        with open(args.bundle, "r", encoding="utf-8") as fh:
            rep = rep_from_bundle(json.load(fh))
    checks, failures = verify_identities(args.n, args.max_degree)
    bundle_checks = 0
    if rep is not None and not failures:
        params = {"bundle": args.bundle}
        powers = range(2, min(args.max_degree, 3) + 1)
        bundle_checks = 2 + len(powers)
        casimir = {"check": "bundle-casimir", "params": params}
        try:
            cs = casimir_scalar(rep)
        except AssertionError as exc:  # the invariant is no scalar
            return _fail({**casimir, "error": str(exc)}, args.out)
        if cs != expected_casimir_scalar(rep):
            return _fail({**casimir, "measured": _rat_s(cs),
                          "expected": _rat_s(expected_casimir_scalar(rep))}, args.out)
        try:
            verify_reflection(rep)
        except AssertionError as exc:
            return _fail({"check": "bundle-reflection", "params": params, "error": str(exc)},
                         args.out)
        for N in powers:
            where = power_identity_counterexample(rep, N)
            if where is not None:
                return _fail({"check": "bundle-power", "params": {**params, "N": N}, **where},
                             args.out)
    if failures:
        return _fail({"checks_run": checks, "counterexample": failures[0]}, args.out)
    _emit(_json_text({
        "checks_run": checks,
        "bundle_checks": bundle_checks,
        "ok": True,
    }), args.out)
    return 0


def _cmd_verify_scalar(args) -> int:
    from .homspace import hom_space
    from .matrixrep import bundle_to_json, construct_irrep, rep_to_bundle
    from .measure import IdentityViolationError, b_eval, measure_scalar

    ctx = rank_context(args.n)
    big = construct_irrep(ctx, args.big, eps=args.big_eps, which="big",
                          dim_cap=args.dim_cap)
    sub = construct_irrep(ctx, args.sub, eps=args.sub_eps, which="sub",
                          dim_cap=args.dim_cap)
    if args.emit_big:
        with open(args.emit_big, "w", encoding="utf-8") as fh:
            fh.write(bundle_to_json(rep_to_bundle(big)) + "\n")
    if args.emit_sub:
        with open(args.emit_sub, "w", encoding="utf-8") as fh:
            fh.write(bundle_to_json(rep_to_bundle(sub)) + "\n")
    mult, ops = hom_space(big, sub)
    obj = {
        "big": _label_obj(big.label),
        "sub": _label_obj(sub.label),
        "big_dim": big.dim,
        "sub_dim": sub.dim,
        "lambda": _weight_obj(big.inf_char),
        "nu": _weight_obj(sub.inf_char),
        "multiplicity": mult,
        "checks": [],
    }
    if mult == 0:
        obj["ok"] = True
        _emit(_json_text(obj), args.out)
        return 0
    op = ops[0]
    q = scalar_query(ctx, args.i, args.eps, big.inf_char, sub.inf_char)
    closed = C_val(q)
    params = {"n": args.n, "big": list(args.big), "sub": list(args.sub),
              "i": args.i, "eps": args.eps}
    try:
        measured = measure_scalar(op, args.i, args.eps)
    except IdentityViolationError as exc:
        return _fail({"check": "scalar-proportionality", "params": params,
                      "error": str(exc)}, args.out)
    entry = {
        "i": args.i,
        "eps": args.eps,
        "measured": {
            "numerator": _rat_s(measured.value.numerator),
            "denominator": _rat_s(measured.value.denominator),
            "defined": measured.value.defined,
        },
        "closed": {
            "numerator": _rat_s(closed.numerator),
            "denominator": _rat_s(closed.denominator),
            "defined": closed.defined,
        },
    }
    obj["checks"].append(entry)
    if measured.value.defined != closed.defined:
        obj["ok"] = False
        return _fail(obj, args.out)
    if measured.value.defined:
        mv = Fraction(measured.value.numerator) / Fraction(measured.value.denominator)
        cv = Fraction(closed.numerator) / Fraction(closed.denominator)
        entry["value"] = _rat_s(mv)
        if mv != cv:
            obj["ok"] = False
            return _fail(obj, args.out)
    for ell in (1, 2, 3):
        try:
            got = b_eval(op, ell)
        except IdentityViolationError as exc:
            return _fail({"check": "power-proportionality", "params": {**params, "power": ell},
                          "error": str(exc)}, args.out)
        want = b_closed(ell, ctx, big.inf_char, sub.inf_char)
        obj["checks"].append({
            "power": ell,
            "measured": _rat_s(got),
            "closed": _rat_s(want),
        })
        if got != want:
            obj["ok"] = False
            return _fail(obj, args.out)
    obj["ok"] = True
    _emit(_json_text(obj), args.out)
    return 0


def _cmd_verma_demo(args) -> int:
    avals = [Fraction(v) for v in range(args.a_min, args.a_max + 1)]
    table = fusion_grid(avals, range(0, args.k_max + 1))
    rows = [["a", "b", "c", "multiplicity", "oracle"]]
    for (a, b, c, mult) in table:
        oracle = fusion_oracle(FusionQuery(a, b, c))
        if mult != oracle:
            return _fail({
                "check": "fusion-consistency",
                "params": {"a": _rat_s(a), "b": _rat_s(b), "c": _rat_s(c)},
                "predicted": mult,
                "oracle": oracle,
            }, args.out)
        rows.append([_rat_s(a), _rat_s(b), _rat_s(c), str(mult), str(oracle)])
    _emit(_csv_text(rows), args.out)
    return 0


# ---------------------------------------------------------------------------
# SVG rendering of a fence-arrangement slice
# ---------------------------------------------------------------------------

_SVG_SIZE = 640
_SVG_MARGIN = 60


def _sig_color(entries) -> str:
    import hashlib  # here, not at the top: only the SVG needs OpenSSL's md5

    canon = ";".join(f"{k.i},{k.j},{k.delta}:{s}" for k, s in entries)
    digest = hashlib.md5(canon.encode("utf-8")).hexdigest()
    hue = int(digest[:6], 16) % 360
    return f"hsl({hue}, 55%, 86%)"


def render_region_slice(n: int, xi, nu, axes: Tuple[int, int],
                        lo: Fraction, hi: Fraction) -> str:
    """Deterministic SVG of the fence arrangement restricted to two axes.

    Fences are the lines axis_value = +-1/2 - delta*nu_j over the supported
    sign combinations at the base point; cells between fences are shaded by a
    hash of the multi-signature at the cell center; dots mark the integral
    translates of the base point inside its chamber.
    """
    from .regions import multi_signature, signature_support
    from .weights import chamber_test, is_nonsingular

    ctx = rank_context(n)
    xi = tuple(Fraction(c) for c in xi)
    nu = tuple(Fraction(c) for c in nu)
    ax1, ax2 = axes
    if ax1 == ax2:
        raise ValueError("axes must be two distinct coordinate indices")
    for a in (ax1, ax2):
        if not 1 <= a <= ctx.r:
            raise ValueError(f"axis {a} outside 1..{ctx.r}")
    if not hi > lo:
        raise ValueError("range must have positive size")
    if len(xi) != ctx.r:
        raise ValueError(f"base point must have length {ctx.r}")
    if len(nu) != ctx.s:
        raise ValueError(f"nu must have length {ctx.s}")

    support = signature_support(xi, nu)
    span = hi - lo
    scale = Fraction(_SVG_SIZE - 2 * _SVG_MARGIN) / span

    def px(v: Fraction) -> str:
        return f"{float(_SVG_MARGIN + (v - lo) * scale):.2f}"

    def py(v: Fraction) -> str:
        return f"{float(_SVG_SIZE - _SVG_MARGIN - (v - lo) * scale):.2f}"

    fence_vals = {ax1: set(), ax2: set()}
    half = Fraction(1, 2)
    for key in support:
        if key.i not in (ax1, ax2):
            continue
        for side in (half, -half):
            v = side - key.delta * nu[key.j - 1]
            if lo < v < hi:
                fence_vals[key.i].add(v)
    xs = sorted(fence_vals[ax1])
    ys = sorted(fence_vals[ax2])

    parts: List[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">'
    )
    parts.append(
        f'<rect x="0" y="0" width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>'
    )

    # shaded cells between consecutive fence values
    cuts_x = [lo] + xs + [hi]
    cuts_y = [lo] + ys + [hi]
    for cx in range(len(cuts_x) - 1):
        for cy in range(len(cuts_y) - 1):
            midx = (cuts_x[cx] + cuts_x[cx + 1]) / 2
            midy = (cuts_y[cy] + cuts_y[cy + 1]) / 2
            probe = list(xi)
            probe[ax1 - 1] = midx
            probe[ax2 - 1] = midy
            sig = multi_signature(probe, nu)
            color = _sig_color(sig.entries)
            x0, x1v = cuts_x[cx], cuts_x[cx + 1]
            y0, y1v = cuts_y[cy], cuts_y[cy + 1]
            w = float((x1v - x0) * scale)
            h = float((y1v - y0) * scale)
            parts.append(
                f'<rect x="{px(x0)}" y="{py(y1v)}" '
                f'width="{w:.2f}" height="{h:.2f}" fill="{color}"/>'
            )

    # fence lines
    for v in xs:
        parts.append(
            f'<line x1="{px(v)}" y1="{py(hi)}" x2="{px(v)}" y2="{py(lo)}" '
            f'stroke="#333333" stroke-width="1.5"/>'
        )
    for v in ys:
        parts.append(
            f'<line x1="{px(lo)}" y1="{py(v)}" x2="{px(hi)}" y2="{py(v)}" '
            f'stroke="#333333" stroke-width="1.5"/>'
        )

    # frame and axis labels
    parts.append(
        f'<rect x="{px(lo)}" y="{py(hi)}" '
        f'width="{float(span * scale):.2f}" height="{float(span * scale):.2f}" '
        f'fill="none" stroke="#000000" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{px((lo + hi) / 2)}" y="{_SVG_SIZE - 18}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="16">'
        f"axis {ax1}</text>"
    )
    parts.append(
        f'<text x="18" y="{py((lo + hi) / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16" '
        f'transform="rotate(-90 18 {py((lo + hi) / 2)})">axis {ax2}</text>'
    )

    # lattice dots: integral translates of the base along the two axes,
    # restricted to the base's chamber (a singular base has none)
    k_lo = math.ceil(lo - xi[ax1 - 1])
    k_hi = math.floor(hi - xi[ax1 - 1])
    l_lo = math.ceil(lo - xi[ax2 - 1])
    l_hi = math.floor(hi - xi[ax2 - 1])
    inside = chamber_test(xi) if is_nonsingular(xi) else None
    dots = product(range(k_lo, k_hi + 1), range(l_lo, l_hi + 1)) if inside else ()
    for k, l in dots:
        pt = list(xi)
        pt[ax1 - 1] = xi[ax1 - 1] + k
        pt[ax2 - 1] = xi[ax2 - 1] + l
        if inside(pt):
            parts.append(
                f'<circle cx="{px(pt[ax1 - 1])}" cy="{py(pt[ax2 - 1])}" '
                f'r="3" fill="#1a4d8f"/>'
            )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_render(args) -> int:
    ctx = rank_context(args.n)
    if args.xi is None:
        from .branching import family_base

        xi = family_base(ctx)
    else:
        xi = args.xi
    lo, hi = args.range
    svg = render_region_slice(args.n, xi, args.nu, tuple(args.axes), lo, hi)
    _emit(svg, args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="orthobranch",
        description="Exact branching combinatorics and symmetry-breaking "
                    "scalars for nested orthogonal groups.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("regions", help="region descriptor for a base point")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--xi", type=_parse_weight, required=True)
    sp.add_argument("--nu", type=_parse_weight, required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_regions)

    sp = sub.add_parser("scalar", help="scalar family values for one query")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--i", type=int, required=True)
    sp.add_argument("--eps", type=_parse_eps, required=True)
    sp.add_argument("--lambda", dest="lam", type=_parse_weight, required=True)
    sp.add_argument("--nu", type=_parse_weight)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_scalar)

    sp = sub.add_parser("branch", help="branching multiplicity for one pair")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--big", type=_parse_rows, required=True)
    sp.add_argument("--big-eps", type=_parse_eps, default=1)
    sp.add_argument("--sub", type=_parse_rows, required=True)
    sp.add_argument("--sub-eps", type=_parse_eps, default=1)
    sp.add_argument("--dim-cap", type=int, default=DEFAULT_DIM_CAP)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_branch)

    sp = sub.add_parser("stability", help="multiplicity scan over a region")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--xi", type=_parse_weight, required=True)
    sp.add_argument("--pi", type=_parse_rows, required=True)
    sp.add_argument("--pi-eps", type=_parse_eps, default=1)
    sp.add_argument("--bound", type=int, default=4)
    sp.add_argument("--eps", type=_parse_eps, default=None)
    sp.add_argument("--dim-cap", type=int, default=DEFAULT_DIM_CAP)
    sp.add_argument("--csv")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_stability)

    sp = sub.add_parser("verify-ue", help="symbolic identity suite")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--max-degree", type=int, default=4)
    sp.add_argument("--bundle", help="also verify a serialized matrix bundle")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_verify_ue)

    sp = sub.add_parser("verify-scalar",
                        help="measured vs closed-form scalars on models")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--big", type=_parse_rows, required=True)
    sp.add_argument("--big-eps", type=_parse_eps, default=None)
    sp.add_argument("--sub", type=_parse_rows, required=True)
    sp.add_argument("--sub-eps", type=_parse_eps, default=None)
    sp.add_argument("--i", type=int, required=True)
    sp.add_argument("--eps", type=_parse_eps, required=True)
    sp.add_argument("--dim-cap", type=int, default=MODEL_DIM_CAP)
    sp.add_argument("--emit-big", help="write the big model's matrix bundle")
    sp.add_argument("--emit-sub", help="write the sub model's matrix bundle")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_verify_scalar)

    sp = sub.add_parser("verma-demo", help="rank-one fusion jump table")
    sp.add_argument("--a-min", type=int, default=-6)
    sp.add_argument("--a-max", type=int, default=4)
    sp.add_argument("--k-max", type=int, default=8)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_verma_demo)

    sp = sub.add_parser("render", help="SVG slice of the fence arrangement")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--nu", type=_parse_weight, required=True)
    sp.add_argument("--axes", type=_parse_rows, required=True,
                    help="two axis indices, e.g. 1,2")
    sp.add_argument("--range", type=_parse_weight, required=True,
                    help="lo,hi for both axes")
    sp.add_argument("--xi", type=_parse_weight, default=None)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_render)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "render":
        if len(args.axes) != 2 or args.axes[0] == args.axes[1]:
            parser.error("--axes needs two distinct indices")
        if len(args.range) != 2 or not args.range[1] > args.range[0]:
            parser.error("--range needs lo,hi with hi > lo")
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        parser.error(str(exc))
        return 2  # unreachable; parser.error exits
    except (ResourceLimitError, OSError) as exc:
        # A resource cap or an unreadable file is a usage error, not a
        # refuted identity: one line on stderr and exit code 2.
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except (CharacterCheckError, AssertionError) as exc:
        # A model self-check failed: the input refutes an identity the
        # construction relies on, so it is reported like one, with the argv
        # that replays it.
        return _fail({"check": "self-check", "argv": argv,
                      "error": f"{type(exc).__name__}: {exc}"}, args.out)


if __name__ == "__main__":
    sys.exit(main())
