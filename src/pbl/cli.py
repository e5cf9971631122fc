"""Command-line interface: tracing, classification, periodicity, surfaces.

Outputs are deterministic for a fixed invocation (including --seed): JSON is
emitted with sorted keys and default float repr, CSV rows in a fixed order.
Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

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
    caustics,
    interlacing_report,
    jacobi_coordinates,
)
from .errors import NumericalError, ValidationError
from .metric import Signature
from .periodicity import (
    SCAN_SAMPLES,
    SearchWindow,
    cayley_condition,
    default_search_window,
    find_periodic_caustics_plane,
    lightlike_period,
    poncelet_verify,
)
from .relativistic import (
    decorated_coordinates,
    relativistic_type,
    tropic_cone_residual,
    tropic_point,
)


def _parse_sig(s: str) -> Signature:
    parts = s.split(",")
    if len(parts) != 2:
        raise ValueError("--sig expects two comma-separated integers, e.g. 2,1")
    return Signature(int(parts[0]), int(parts[1]))


def _parse_vector(s: str) -> np.ndarray:
    return np.array([float(tok) for tok in s.split(",")])


def _parse_axes(s: str, exact: bool = False) -> tuple:
    toks = [tok.strip() for tok in s.split(",")]
    if exact:
        return tuple(Fraction(tok) for tok in toks)
    return tuple(float(tok) for tok in toks)


def _parse_caustics(s: str, exact: bool = False) -> tuple:
    out = []
    for tok in s.split(","):
        tok = tok.strip()
        if tok.lower() == "inf":
            out.append(INF)
        elif exact:
            out.append(Fraction(tok))
        else:
            out.append(float(tok))
    return tuple(out)


def _family(args, exact: bool = False) -> ConfocalFamily:
    return ConfocalFamily(_parse_sig(args.sig), _parse_axes(args.axes, exact))


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload, out_path: str | None) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out_path)


def _caustic_list(params) -> list:
    return ["inf" if not math.isfinite(p) else float(p) for p in params]


# ------------------------------------------------------------- subcommands


def _cmd_trace(args) -> int:
    fam = _family(args)
    traj = trace(fam, _parse_vector(args.start), _parse_vector(args.dir), args.bounces)
    _emit_json(trajectory_to_dict(traj), args.out)
    return 0


def _cmd_caustics(args) -> int:
    fam = _family(args)
    line = Line(_parse_vector(args.start), _parse_vector(args.dir))
    cs = caustics(fam, line)
    rep = interlacing_report(fam, line)
    payload = {
        "caustics": _caustic_list(cs),
        "lineType": rep.line_type.value,
        "interlacingPassed": rep.passed,
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_classify_point(args) -> int:
    fam = _family(args)
    point = _parse_vector(args.point)
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
    deco = decorated_coordinates(fam, _parse_vector(args.point))
    payload = {
        "coordinates": [{"lambda": float(lam), "type": str(rt)} for rt, lam in deco]
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_cayley(args) -> int:
    fam = _family(args, exact=args.exact)
    params = _parse_caustics(args.caustics, exact=args.exact)
    ok = cayley_condition(fam, params, args.n, exact=args.exact)
    _emit("true\n" if ok else "false\n", args.out)
    return 0


def _cmd_search_periodic(args) -> int:
    fam = _family(args)
    if args.window:
        lo, hi = (float(tok) for tok in args.window.split(","))
        window = SearchWindow(lo, hi, args.samples)
    else:
        window = default_search_window(fam, args.samples)
    roots = find_periodic_caustics_plane(fam, args.n, window)
    _emit_json({"n": args.n, "caustics": roots}, args.out)
    return 0


def _cmd_lightlike(args) -> int:
    a, b = _parse_axes(args.axes)
    res = lightlike_period(a, b, args.max_n)
    payload = {
        "n": res[0] if res else None,
        "k": res[1] if res else None,
        "rectangleRatio": rectangle_ratio(a, b),
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_tropic(args) -> int:
    sig = _parse_sig(args.sig)
    fam = ConfocalFamily(sig, _parse_axes(args.axes))
    n_lam, n_t = (int(tok) for tok in args.grid.lower().split("x"))
    if n_lam < 1 or n_t < 1:
        raise ValueError("grid must be NxM with positive counts")
    a, b, c = (float(v) for v in fam.axes)
    lo, hi = -c, a
    step = (hi - lo) / n_lam
    lines = ["sheet,lambda,t,x,y,z"]
    for sheet, label in ((1, "+"), (-1, "-")):
        for i in range(n_lam):
            lam = lo + (i + 0.5) * step
            if fam.is_degenerate_parameter(lam):
                lam += 1e-3 * step
            for j in range(n_t):
                t = (j + 0.5) * 2.0 * math.pi / n_t
                p = tropic_point(fam, lam, t, sheet)
                x, y, z = (float(c) for c in p)
                lines.append(f"{label},{lam!r},{t!r},{x!r},{y!r},{z!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_poncelet(args) -> int:
    fam = _family(args)
    params = _parse_caustics(args.caustics)
    rep = poncelet_verify(fam, params, args.n, samples=args.samples, seed=args.seed,
                          tol=args.tol)
    payload = {
        "condition": rep.condition,
        "n": rep.n,
        "caustics": _caustic_list(rep.caustics),
        "samples": rep.samples,
        "closed": rep.closed,
        "worstPositionError": rep.worst_position_error,
    }
    _emit_json(payload, args.out)
    return 0


def _cmd_verify(args) -> int:
    with open(args.file) as fh:
        data = json.load(fh)
    traj = trajectory_from_dict(data)
    recomputed = recompute_drift(traj)
    recorded = float(data["drift"])
    rep = closure_test(traj, args.tol) if len(traj.bounces) >= 2 else None
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

    def common(sp, sig=True):
        if sig:
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

    sp = sub.add_parser("search-periodic", help="scan for periodic caustics (d=2)")
    common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--window", help="scan interval lo,hi")
    sp.add_argument("--samples", type=int, default=SCAN_SAMPLES)
    sp.set_defaults(func=_cmd_search_periodic)

    sp = sub.add_parser("lightlike", help="light-like period of a planar table")
    sp.add_argument("--axes", required=True, help="a,b")
    sp.add_argument("--max-n", type=int, default=128)
    sp.add_argument("--out", help="output file (default: stdout)")
    sp.set_defaults(func=_cmd_lightlike)

    sp = sub.add_parser("tropic", help="export the tropic surface as CSV")
    sp.add_argument("--sig", default="2,1", help="signature k,l (default 2,1)")
    sp.add_argument("--axes", required=True, help="a,b,c")
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
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    return run_cli(argv)


if __name__ == "__main__":
    sys.exit(main())
