"""Command-line front-end.

Exit codes: 0 = analysis completed (whatever the verdict), 2 = input or usage
error.  --json emits the machine-readable report document; the default output
is a short human-readable summary.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from functools import cache

import numpy as np

from .errors import InvalidK, MixLociError, ParameterOutOfRange
from .io import complex_to_pairs, load_state
from .loci import SearchConfig, locus_zero, sample_locus, spectral_pencil
from .mixing import (GenericityQuery, ZeroLoci, check_component_necessary,
                     check_mixed_mix_eigen, check_pure_mix_eigen, check_reduced_constraints,
                     monte_carlo_genericity)
from .numeric import ToleranceConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixloci", allow_abbrev=False,
        description="Rank-degeneracy loci and mixing obstructions for bipartite states")
    parser.add_argument("--tol-rank", type=float, default=1e-8,
                        help="relative rank tolerance (default 1e-8)")
    parser.add_argument("--tol-floor", type=float, default=1e-12,
                        help="absolute rank-threshold floor (default 1e-12)")
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("locus", help="compute a rank-degeneracy locus")
    p.add_argument("--state", required=True)
    p.add_argument("--side", choices=("A", "B"), default="A")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--starts", type=int, default=64)

    p = sub.add_parser("check-mix", help="test a candidate mixture component")
    p.add_argument("--target", required=True)
    p.add_argument("--component", required=True)
    p.add_argument("--side", choices=("A", "B"), default="A")
    p.add_argument("--k", default="all", help="rank bound, or 'all'")
    p.add_argument("--starts", type=int, default=64)

    p = sub.add_parser("bounds", help="Schmidt-rank caps from the exact rank-0 loci")
    p.add_argument("--state", required=True)

    p = sub.add_parser("majorize", help="eigenvalue majorization constraints")
    p.add_argument("--p", help="comma-separated probabilities (pure-decomposition test)")
    p.add_argument("--target", help="target state file")
    p.add_argument("--components", nargs="+", default=(), help="component state files")
    p.add_argument("--weights", help="comma-separated mixing weights")
    p.add_argument("--reduced", action="store_true",
                   help="also check the partial-trace constraints")

    p = sub.add_parser("genericity", help="Monte-Carlo check of the measure-zero predicate")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--starts", type=int, default=16)
    return parser


def _report(args, command: str, inputs: dict, verdict: str, data: dict) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "verdict": verdict,
        "data": data,
        "seed": args.seed,
        "tolerances": {"rank_rel_tol": args.tol_rank, "abs_floor": args.tol_floor},
    }


def _emit(args, report: dict, human: str) -> int:
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(human)
    return 0


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise ParameterOutOfRange(f"malformed number list {text!r}") from exc


def _cmd_locus(args, tol: ToleranceConfig) -> int:
    state = load_state(args.state)
    pencil = spectral_pencil(state.density, args.side, tol)
    inputs = {"state": state.sha256, "side": args.side, "k": args.k}
    config = SearchConfig(starts=args.starts, seed=args.seed)  # checked for k = 0 too
    if args.k == 0:
        locus = locus_zero(pencil, tol)
        points = locus.points()
        data = {
            "projective_dimension": locus.projective_dimension,
            "basis": [complex_to_pairs(locus.basis[:, j])
                      for j in range(locus.basis.shape[1])],
            "points": [complex_to_pairs(pt.coords) for pt in points],
        }
        verdict = "EMPTY" if locus.is_empty else "NONEMPTY"
        human = (f"V_{args.side}^0: dimension {locus.projective_dimension}"
                 + ("" if locus.is_empty else
                    f", points {[np.round(pt.coords, 6).tolist() for pt in points]}"))
        return _emit(args, _report(args, "locus", inputs, verdict, data), human)
    sample = sample_locus(pencil, args.k, config, tol)
    verdict = "TRIVIAL" if sample.trivial else ("FOUND" if sample.points else "NONE_FOUND")
    data = {
        "trivial": sample.trivial,
        "points": [complex_to_pairs(pt.coords) for pt in sample.points],
        "residuals": list(sample.residuals),
        "search_stats": sample.search_stats,
    }
    human = (f"V_{args.side}^{args.k}: {verdict}, {len(sample.points)} point(s), "
             f"stats {sample.search_stats}")
    return _emit(args, _report(args, "locus", inputs, verdict, data), human)


def _cmd_check_mix(args, tol: ToleranceConfig) -> int:
    target = load_state(args.target)
    component = load_state(args.component)
    try:
        k = None if args.k == "all" else int(args.k)
    except ValueError as exc:
        raise InvalidK(f"--k must be an integer or 'all', got {args.k!r}") from exc
    config = SearchConfig(starts=args.starts, seed=args.seed)
    verdict = check_component_necessary(target.density, component.density,
                                        side=args.side, k=k, config=config, tol=tol)
    inputs = {"target": target.sha256, "component": component.sha256,
              "side": args.side, "k": args.k}
    data = {"range": vars(verdict.range_test), "reason": verdict.reason,
            "search_stats": {str(kk): st for kk, st in verdict.stats.items()}}
    if verdict.certificate is not None:
        cert = verdict.certificate
        data.update(asdict(cert), witness=complex_to_pairs(cert.witness.coords))
    return _emit(args, _report(args, "check-mix", inputs, verdict.status, data),
                 f"{verdict.status}: {verdict.reason}")


def _cmd_bounds(args, tol: ToleranceConfig) -> int:
    state = load_state(args.state)
    loci = ZeroLoci.of(state.density, tol)
    data = {
        "dim_V_A_0": loci.dim_a,
        "dim_V_B_0": loci.dim_b,
        "cap_side_A": loci.cap_a,
        "cap_side_B": loci.cap_b,
        "schmidt_rank_cap": loci.schmidt_rank_cap,
        "forces_separable": loci.forces_separable,
        "excludes_max_schmidt_rank": loci.excludes_max_schmidt_rank,
    }
    inputs = {"state": state.sha256}
    human = (f"schmidt_rank_cap={loci.schmidt_rank_cap} "
             f"(side A {loci.cap_a}, side B {loci.cap_b}), "
             f"forces_separable={loci.forces_separable}, "
             f"excludes_max_schmidt_rank={loci.excludes_max_schmidt_rank}")
    return _emit(args, _report(args, "bounds", inputs, "OK", data), human)


def _cmd_majorize(args, tol: ToleranceConfig) -> int:
    """Theorems 1 and 2 read eigenvalues only: no rank call, so `tol` is unused."""
    if args.p is not None:
        if args.target is None:
            raise ParameterOutOfRange("--p requires --target")
        if args.components or args.weights is not None or args.reduced:
            raise ParameterOutOfRange("--p takes no --components, --weights or --reduced")
        probs = _parse_floats(args.p)
        target = load_state(args.target)
        ok = check_pure_mix_eigen(target.density, probs)
        inputs = {"target": target.sha256, "p": probs}
        data = {"pure_decomposition_possible": ok,
                "spectrum": list(map(float, target.density.eigenvalues()))}
        return _emit(args, _report(args, "majorize", inputs, "PASS" if ok else "FAIL", data),
                     f"Theorem-1 check: {'pass' if ok else 'fail'}")
    if args.target is None or not args.components or args.weights is None:
        raise ParameterOutOfRange("majorize needs --p or (--target --components --weights)")
    weights = _parse_floats(args.weights)
    target = load_state(args.target)
    components = [load_state(f) for f in args.components]
    ok = check_mixed_mix_eigen(target.density, weights, [c.density for c in components])
    data = {"eigen_constraint": ok}
    if args.reduced:
        reduced_ok = check_reduced_constraints(target.density, weights,
                                               [c.density for c in components])
        data["reduced_constraint"] = reduced_ok
        ok = ok and reduced_ok
    inputs = {"target": target.sha256, "components": [c.sha256 for c in components],
              "weights": weights}
    return _emit(args, _report(args, "majorize", inputs, "PASS" if ok else "FAIL", data),
                 f"Theorem-2 check: {'pass' if ok else 'fail'} ({data})")


def _cmd_genericity(args, tol: ToleranceConfig) -> int:
    query = GenericityQuery(args.m, args.n, args.r, args.t, args.trials, seed=args.seed)
    config = SearchConfig(starts=args.starts, seed=args.seed, stop_at_first=True)
    report = monte_carlo_genericity(query, config, tol)
    inputs = {"m": args.m, "n": args.n, "r": args.r, "t": args.t,
              "trials": args.trials}
    data = {
        "predicate_holds": report.predicate_holds,
        "codimension": report.codimension,
        "nonempty_fraction": report.nonempty_fraction,
        "residual_summary": report.residual_summary,
        "trials": args.trials,
    }
    verdict = "EMPTY_GENERIC" if report.predicate_holds else "PREDICATE_FAILS"
    if args.trials == 0:
        verdict = "NO_TRIALS"
    human = (f"predicate={report.predicate_holds}, codimension={report.codimension}, "
             f"nonempty_fraction={report.nonempty_fraction}, "
             f"residuals={report.residual_summary}")
    return _emit(args, _report(args, "genericity", inputs, verdict, data), human)


_HANDLERS = {
    "locus": _cmd_locus,
    "check-mix": _cmd_check_mix,
    "bounds": _cmd_bounds,
    "majorize": _cmd_majorize,
    "genericity": _cmd_genericity,
}


@cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process; parsing reads it and never changes it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.seed < 0:  # for every command, those that draw nothing too
            raise ParameterOutOfRange(f"seed must be >= 0, got {args.seed}")
        tol = ToleranceConfig(rank_rel_tol=args.tol_rank, abs_floor=args.tol_floor)
        return _HANDLERS[args.command](args, tol)
    except (MixLociError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
