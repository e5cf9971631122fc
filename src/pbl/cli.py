"""Command-line interface: tracing, classification, periodicity, surfaces.

Outputs are deterministic for a fixed invocation (including --seed): JSON is
emitted with sorted keys and default float repr, CSV rows in a fixed order.
Exit codes: 0 success, 2 validation or file error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .billiard import (
    closure_test,
    rectangle_ratio,
    recompute_drift,
    trace,
    trajectory_from_dict,
    trajectory_to_dict,
)
from .confocal import (
    ConfocalFamily,
    INF,
    Line,
    _caustic_json,
    interlacing_report,
    jacobi_coordinates,
)
from .errors import NumericalError, ValidationError
from .metric import Signature, sq_norm
from .periodicity import (
    cayley_condition,
    find_periodic_caustics,
    find_periodic_caustics_plane,
    lightlike_period,
    poncelet_verify,
)
from .relativistic import (
    cusp_edge_lambda,
    decorated_coordinates,
    relativistic_type,
    tropic_point,
    tropic_surface_normal,
    tropic_tangent_norm_sq,
)


def _parse_sig(s: str) -> Signature:
    parts = s.split(",")
    if len(parts) != 2:
        raise ValueError("--sig expects two comma-separated integers, e.g. 2,1")
    return Signature(int(parts[0]), int(parts[1]))


def _parse_numbers(s: str, exact: bool = False) -> tuple:
    """A comma list of numbers: "inf" in any case, else a Fraction with
    ``exact``, else a float.  The library judges the values."""
    return tuple(INF if tok.strip().lower() == "inf" else Fraction(tok) if exact else float(tok)
                 for tok in s.split(","))


def _family(args, exact: bool = False) -> ConfocalFamily:
    return ConfocalFamily(_parse_sig(args.sig), _parse_numbers(args.axes, exact))


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload, out_path: str | None) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out_path)


def _closure_json(rep) -> dict:
    """The simulated closure of a PonceletReport, as JSON fields."""
    return {
        "closed": rep.closed,
        "samples": rep.samples,
        "worstPositionError": rep.worst_position_error,
    }


# ------------------------------------------------------------- subcommands


def _cmd_trace(args) -> int:
    fam = _family(args)
    traj = trace(fam, _parse_numbers(args.start), _parse_numbers(args.dir), args.bounces)
    _emit_json(trajectory_to_dict(traj), args.out)
    return 0


def _cmd_caustics(args) -> int:
    fam = _family(args)
    rep = interlacing_report(fam, Line(_parse_numbers(args.start), _parse_numbers(args.dir)))
    payload = {
        "caustics": _caustic_json(rep.caustic_set),
        "lineType": rep.line_type.value,
        "interlacingPassed": rep.passed,
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_classify_point(args) -> int:
    fam = _family(args)
    point = _parse_numbers(args.point)
    gj = jacobi_coordinates(fam, point)
    payload = {
        "coordinates": [float(r) for r in gj.real_roots],
        "complexPair": list(gj.complex_pair) if gj.complex_pair else None,
    }
    if args.lambda0 is not None:
        payload["type"] = str(relativistic_type(fam, point, args.lambda0))
    _emit_json(payload, args.out)
    return 0


def _cmd_decorate(args) -> int:
    fam = _family(args)
    deco = decorated_coordinates(fam, _parse_numbers(args.point))
    payload = {
        "coordinates": [{"lambda": float(lam), "type": str(rt)} for rt, lam in deco]
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_cayley(args) -> int:
    fam = _family(args, exact=args.exact)
    params = _parse_numbers(args.caustics, exact=args.exact)
    ok = cayley_condition(fam, params, args.n, exact=args.exact)
    _emit("true\n" if ok else "false\n", args.out)
    return 0


def _cmd_search_periodic(args) -> int:
    fam = _family(args)
    if fam.d > 2:
        sets = find_periodic_caustics(fam, args.n)
        caustics = [list(cs) for cs in sets]
    else:
        caustics = find_periodic_caustics_plane(fam, args.n)
        sets = [(alpha,) for alpha in caustics]
    closure = []
    for cs in sets:
        try:
            closure.append(_closure_json(poncelet_verify(fam, cs, args.n)))
        except (ValidationError, NumericalError):
            closure.append(None)
    _emit_json({"n": args.n, "caustics": caustics, "closure": closure}, args.out)
    return 0


def _cmd_lightlike(args) -> int:
    a, b = _parse_numbers(args.axes)
    res = lightlike_period(a, b, args.max_n)
    payload = {
        "n": res[0] if res else None,
        "k": res[1] if res else None,
        "rectangleRatio": rectangle_ratio(a, b),
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_tropic(args) -> int:
    """The tropic surface of the (2, 1) family as CSV kind,sheet,lambda,t,x,y,z.

    One grid: lambda at the cell midpoints of (-c, a), each degenerate one
    moved 1e-3 of a cell up, and t at the cell midpoints of (0, 2 pi).
    ``surface`` rows skip the cusp neighbourhoods, where
    ``tropic_tangent_norm_sq`` < 1e-6; ``cusp`` rows follow
    ``cusp_edge_lambda`` on the same t; V1-V4 are the vertices of sheet +1.
    The worst light-like residual |<n, n>| / |n|^2 of the surface normals
    goes to stderr, so stdout stays CSV.
    """
    fam = ConfocalFamily(Signature(2, 1), _parse_numbers(args.axes))
    n_lam, n_t = (int(tok) for tok in args.grid.lower().split("x"))
    if n_lam < 1 or n_t < 1:
        raise ValueError("grid must be NxM with positive counts")
    a, b, c = (float(v) for v in fam.axes)
    step = (a + c) / n_lam
    lams = [-c + (i + 0.5) * step for i in range(n_lam)]
    lams = [lam + 1e-3 * step if fam.is_degenerate_parameter(lam) else lam for lam in lams]
    ts = [(j + 0.5) * 2.0 * math.pi / n_t for j in range(n_t)]
    rows, worst = [], 0.0
    for sheet in (1, -1):
        for lam in lams:
            for t in ts:
                if tropic_tangent_norm_sq(fam, lam, t) < 1e-6:
                    continue
                normal = tropic_surface_normal(fam, lam, t, sheet)
                worst = max(worst, abs(sq_norm(normal, fam.sig)) / float(normal @ normal))
                rows.append(("surface", sheet, lam, t))
    kept = len(rows)
    for sheet in (1, -1):
        rows.extend(("cusp", sheet, cusp_edge_lambda(fam, t), t) for t in ts)
    rows += [("V1", 1, b, 0.0), ("V2", 1, b, math.pi),
             ("V3", 1, a, 3 * math.pi / 2), ("V4", 1, a, math.pi / 2)]
    lines = ["kind,sheet,lambda,t,x,y,z"]
    for kind, sheet, lam, t in rows:
        x, y, z = (float(v) for v in tropic_point(fam, lam, t, sheet))
        lines.append(f"{kind},{sheet},{lam!r},{t!r},{x!r},{y!r},{z!r}")
    _emit("\n".join(lines) + "\n", args.out)
    print(f"worst light-like residual over {kept} surface samples: {worst:.2e}", file=sys.stderr)
    return 0


def _cmd_poncelet(args) -> int:
    fam = _family(args)
    params = _parse_numbers(args.caustics)
    rep = poncelet_verify(fam, params, args.n, samples=args.samples, seed=args.seed,
                          tol=args.tol)
    payload = {
        "condition": rep.condition,
        "n": rep.n,
        "caustics": _caustic_json(rep.caustics),
        **_closure_json(rep),
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_verify(args) -> int:
    with open(args.file) as fh:
        data = json.load(fh)
    traj = trajectory_from_dict(data)
    recomputed = recompute_drift(traj)
    recorded = traj.invariant_drift
    rep = closure_test(traj, args.tol) if len(traj.points) >= 2 else None
    payload = {
        "driftRecorded": recorded,
        "driftRecomputed": recomputed,
        "driftMatches": recomputed == recorded,
        "closed": rep.closed if rep else None,
        "period": rep.period if rep else None,
        "positionError": rep.position_error if rep else None,
    }
    _emit_json(payload, args.out)
    return 0 if payload["driftMatches"] else 2


# ------------------------------------------------------------------ parser


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pbl",
        description="Confocal quadrics and billiards in pseudo-Euclidean spaces",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--sig", required=True, help="signature k,l")
        sp.add_argument("--axes", required=True, help="axis parameters a1,a2,...")
        sp.add_argument("--out", help="output file (default: stdout)")

    sp = sub.add_parser("trace", help="trace a billiard trajectory")
    common(sp)
    sp.add_argument("--start", required=True)
    sp.add_argument("--dir", required=True)
    sp.add_argument("--bounces", type=int, required=True)
    sp.set_defaults(func=_cmd_trace)

    sp = sub.add_parser("caustics", help="caustic parameters of a line")
    common(sp)
    sp.add_argument("--start", required=True)
    sp.add_argument("--dir", required=True)
    sp.set_defaults(func=_cmd_caustics)

    sp = sub.add_parser("classify-point", help="generalized Jacobi coordinates")
    common(sp)
    sp.add_argument("--point", required=True)
    sp.add_argument("--lambda0", type=float, default=None,
                    help="also give the relativistic type of this pencil member")
    sp.set_defaults(func=_cmd_classify_point)

    sp = sub.add_parser("decorate", help="coordinates with relativistic types")
    common(sp)
    sp.add_argument("--point", required=True)
    sp.set_defaults(func=_cmd_decorate)

    sp = sub.add_parser("cayley", help="analytic periodicity test")
    common(sp)
    sp.add_argument("--caustics", required=True,
                    help="caustic parameters, 'inf' allowed")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--exact", action="store_true",
                    help="decide the rank in exact rational arithmetic "
                         "(inputs parsed as rationals p/q)")
    sp.set_defaults(func=_cmd_cayley)

    sp = sub.add_parser("search-periodic",
                        help="search for periodic caustics and simulate their closure")
    common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=_cmd_search_periodic)

    sp = sub.add_parser("lightlike", help="light-like period of a planar table")
    sp.add_argument("--axes", required=True, help="a,b")
    sp.add_argument("--max-n", type=int, default=128)
    sp.add_argument("--out", help="output file (default: stdout)")
    sp.set_defaults(func=_cmd_lightlike)

    sp = sub.add_parser("tropic",
                        help="export the tropic surface, its cusp edge and vertices as CSV")
    sp.add_argument("--axes", required=True, help="a,b,c of the (2, 1) family")
    sp.add_argument("--grid", default="100x100", help="lambda x t resolution, e.g. 100x100")
    sp.add_argument("--out", help="output file (default: stdout)")
    sp.set_defaults(func=_cmd_tropic)

    sp = sub.add_parser("poncelet", help="simulate closure for a periodic caustic set")
    common(sp)
    sp.add_argument("--caustics", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--samples", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.set_defaults(func=_cmd_poncelet)

    sp = sub.add_parser("verify", help="re-check a stored trajectory file")
    sp.add_argument("file", help="trajectory JSON produced by 'pbl trace'")
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--out", help="output file (default: stdout)")
    sp.set_defaults(func=_cmd_verify)

    return p


def run_cli(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    return run_cli(argv)


if __name__ == "__main__":
    sys.exit(main())
