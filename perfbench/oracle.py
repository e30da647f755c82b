"""Per-request output oracle.

`Oracle.check(request, rc, stdout)` returns an `Outcome`.  A request fails if
it raised, exited non-zero, printed no JSON, or its report contradicts what is
known about its inputs.  Rank calls here never go through the package's pencil
or search: the oracle factors rho itself with `numpy.linalg.eigh`, evaluates
that factor's pencil M(r) at the reported point, requires it to reproduce
`hermitian_form(rho, r, side)`, and applies the package's documented rank
policy to the singular values of M(r).  A semidecision that finds nothing where
something exists (a certificate, a 3x3 witness) is not a failure; it lowers
`found`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from mixloci import (BipartiteShape, GenericityQuery, eigen_ensemble, in_locus,
                     monte_carlo_genericity, pencil_from_ensemble, random_density)
from mixloci.cli import build_parser
from mixloci.io import load_state
from mixloci.loci import ProjectivePoint, SearchConfig, hermitian_form

GUARD = 10.0
RANK_REL, RANK_FLOOR = 1e-8, 1e-12  # the package's default ToleranceConfig
# Criterion 8: sigma_max of a unit-point evaluation is at most sqrt(t) = 2 for
# 4x4 r=4 t=2, so every rank threshold there is below 1e-8 * 2 * 4.
GENERIC_THRESHOLD_BOUND = 1e-8 * 2 * 4


@dataclass(frozen=True)
class Outcome:
    ok: bool
    reason: str = ""
    points: int = 0      # verified locus points returned
    findable: int = 0    # things known to exist that the request should find
    found: int = 0       # ... and did find, verified
    starts: int = 0      # search starts behind the returned points


def threshold(sigma_max: float, shape) -> float:
    """The package's rank policy: max(1e-8 * sigma_max * max(rows, cols), 1e-12)."""
    return max(RANK_REL * sigma_max * max(shape), RANK_FLOOR)


def findable(request: dict) -> int:
    """What the request's inputs are known to hold: a failed request finds none of it."""
    return {"infeasible": 1,
            "generic_nonempty": request.get("trials", 0),
            "locus0": int(request.get("expected_dim", -1) >= 0)}.get(request["kind"], 0)


class Factor:
    """rho = V diag(lam) V^dagger over the eigenvalues above the package's
    threshold, with V's columns reshaped to m x n coefficient matrices: the
    same pencil the package builds from rho's spectral ensemble, up to a
    unitary on its columns, which leaves every singular value unchanged."""

    def __init__(self, rho):
        self.rho = rho
        lam, vecs = np.linalg.eigh(rho.matrix)
        lam, vecs = lam[::-1], vecs[:, ::-1]
        keep = lam > threshold(lam[0], rho.matrix.shape)
        self.lam = lam[keep]
        # each dropped eigenvalue moves the form by at most its modulus
        self.form_tol = 1e-9 * lam[0] + np.abs(lam[~keep]).sum()
        self.blocks = {"A": vecs[:, keep].reshape(rho.shape.m, rho.shape.n, -1)}
        self.blocks["B"] = np.transpose(self.blocks["A"], (1, 0, 2))

    def evaluate(self, coords, side: str) -> np.ndarray:
        """M(r) at the normalised point, checked against the Hermitian form of rho."""
        point = ProjectivePoint.of(coords)
        M = np.tensordot(point.coords, self.blocks[side], axes=(0, 0))
        form = hermitian_form(self.rho, point, side)
        if np.linalg.norm((M * self.lam) @ M.conj().T - form, 2) > self.form_tol:
            raise ValueError("pencil factor does not reproduce the Hermitian form")
        return M

    def singular_values(self, coords, side: str) -> tuple[np.ndarray, float]:
        M = self.evaluate(coords, side)
        s = np.linalg.svd(M, compute_uv=False)
        return s, threshold(s[0], M.shape)

    def rank0_residual(self, coords, side: str) -> tuple[float, float]:
        """sigma_max of M(r) and the package's threshold for the stacked pencil,
        whose null space is the exact rank-0 locus."""
        blocks = self.blocks[side]
        stacked = blocks.reshape(blocks.shape[0], -1).T
        s = np.linalg.norm(self.evaluate(coords, side), 2)
        return s, threshold(np.linalg.norm(stacked, 2), stacked.shape)


def _coords(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return arr[:, 0] + 1j * arr[:, 1]


class Oracle:
    def __init__(self):
        self._factors = {}
        self._verified = {}  # (argv, stdout) -> Outcome, for repeated identical outputs

    def factor(self, path: str) -> Factor:
        if path not in self._factors:
            self._factors[path] = Factor(load_state(path).density)
        return self._factors[path]

    def check(self, request: dict, rc, stdout: str) -> Outcome:
        """The request's outcome; `findable` comes from the request, so a failed
        request lowers found_frac as well as ok_frac."""
        if rc != 0:
            return Outcome(False, f"exit status {rc!r}", findable=findable(request))
        key = (tuple(request["argv"]), stdout)
        if key not in self._verified:
            try:
                report = json.loads(stdout)
                args = build_parser().parse_args(request["argv"])
                outcome = getattr(self, "_" + request["kind"])(request, args, report)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                outcome = Outcome(False, f"malformed report: {exc!r}")
            self._verified[key] = dataclasses.replace(outcome, findable=findable(request))
        return self._verified[key]

    # -- certify ---------------------------------------------------------
    def _infeasible(self, request, args, report) -> Outcome:
        if report["verdict"] == "NO_OBSTRUCTION_FOUND":
            return Outcome(True)
        if report["verdict"] != "INFEASIBLE":
            return Outcome(False, f"verdict {report['verdict']}")
        reason = self.recheck_certificate(args.target, args.component, report["data"])
        return Outcome(not reason, reason, found=int(not reason))

    def recheck_certificate(self, target: str, component: str, cert: dict) -> str:
        """Empty string if the witness lies in V^k(target) and outside V^k(component)
        by the guard band on both sides, judged on each rho's own pencil factor."""
        k, side, witness = cert["k"], cert["side"], _coords(cert["witness"])
        st, cut_t = self.factor(target).singular_values(witness, side)
        sc, cut_c = self.factor(component).singular_values(witness, side)
        sigma_t = st[k] if k < st.size else 0.0
        sigma_c = sc[k] if k < sc.size else 0.0
        if sigma_t > cut_t / GUARD:
            return f"witness not in V^{k}(target): sigma {sigma_t:.3e} > {cut_t / GUARD:.3e}"
        if sigma_c < GUARD * cut_c:
            return f"witness not clear of V^{k}(component): sigma {sigma_c:.3e}"
        if not cert["rank_in_target"] <= k < cert["rank_in_component"]:
            return "reported ranks do not straddle k"
        return ""

    def _mixture(self, request, args, report) -> Outcome:
        if report["verdict"] != "NO_OBSTRUCTION_FOUND":
            return Outcome(False, f"genuine mixture reported {report['verdict']}")
        return Outcome(True)

    def _locus(self, request, args, report) -> Outcome:
        if report["verdict"] not in ("FOUND", "NONE_FOUND"):
            return Outcome(False, f"verdict {report['verdict']}")
        data = report["data"]
        factor = self.factor(args.state)
        points = [ProjectivePoint.of(_coords(p)) for p in data["points"]]
        for pt in points:
            s, cut = factor.singular_values(pt.coords, args.side)
            if args.k < s.size and s[args.k] > cut:
                return Outcome(False, f"point off V^{args.k}: sigma {s[args.k]:.3e}")
        for i, pt in enumerate(points):
            if any(pt.same_point(q) for q in points[:i]):
                return Outcome(False, "duplicate point")
        if request.get("near_line") and not any(
                abs(pt.coords[0]) <= 1e-6 and abs(pt.coords[1]) <= 1e-6 for pt in points):
            return Outcome(False, "no point on the line r1 = r2 = 0")
        return Outcome(True, points=len(points), starts=data["search_stats"]["starts"])

    # -- genericity ------------------------------------------------------
    def _generic_empty(self, request, args, report) -> Outcome:
        data = report["data"]
        if report["verdict"] != "EMPTY_GENERIC" or data["nonempty_fraction"] != 0.0:
            return Outcome(False, f"4x4 verdict {report['verdict']}, "
                                  f"nonempty {data['nonempty_fraction']}")
        gap = data["residual_summary"]["min"] / GENERIC_THRESHOLD_BOUND
        if gap < 10:
            return Outcome(False, f"residual gap {gap:.3g} < 10")
        return Outcome(True)

    def _generic_nonempty(self, request, args, report) -> Outcome:
        """Recompute the witnesses the CLI does not print, check that they
        reproduce its report, and recheck each with in_locus."""
        data = report["data"]
        if report["verdict"] != "PREDICATE_FAILS":
            return Outcome(False, f"3x3 verdict {report['verdict']}")
        query = GenericityQuery(args.m, args.n, args.r, args.t, args.trials, seed=args.seed)
        rerun = monte_carlo_genericity(
            query, SearchConfig(starts=args.starts, seed=args.seed, stop_at_first=True))
        if (rerun.nonempty_fraction != data["nonempty_fraction"]
                or rerun.residual_summary != data["residual_summary"]):
            return Outcome(False, "report does not reproduce")
        found = 0
        for trial, witness in enumerate(rerun.witnesses):
            if witness is None:
                continue
            rho = random_density(BipartiteShape(args.m, args.n), args.r, seed=[args.seed, trial])
            if not in_locus(pencil_from_ensemble(eigen_ensemble(rho), "A"), args.t, witness):
                return Outcome(False, f"trial {trial} witness not in V^{args.t}")
            found += 1
        return Outcome(True, points=found, found=found)

    # -- exact -----------------------------------------------------------
    def _bounds(self, request, args, report) -> Outcome:
        data = report["data"]
        shape = self.factor(args.state).rho.shape
        m, n = shape.m, shape.n
        wrong = {key: data.get(key) for key, value in request["expected"].items()
                 if data.get(key) != value}
        dim_a, dim_b = data["dim_V_A_0"], data["dim_V_B_0"]
        if (data["cap_side_A"] != m - 1 - dim_a or data["cap_side_B"] != n - 1 - dim_b
                or data["schmidt_rank_cap"] != min(data["cap_side_A"], data["cap_side_B"], m, n)
                or data["forces_separable"] != (dim_a == m - 2 or dim_b == n - 2)
                or data["excludes_max_schmidt_rank"] != (dim_a >= 0 or dim_b >= 0)):
            wrong["derived"] = "inconsistent with the locus dimensions"
        return Outcome(not wrong, f"bounds differ: {wrong}" if wrong else "")

    def _locus0(self, request, args, report) -> Outcome:
        data = report["data"]
        expected = request["expected_dim"]
        if data["projective_dimension"] != expected or \
                report["verdict"] != ("EMPTY" if expected < 0 else "NONEMPTY"):
            return Outcome(False, f"rank-0 locus dimension {data['projective_dimension']}, "
                                  f"expected {expected}")
        factor = self.factor(args.state)
        points = [_coords(p) for p in data["points"]]
        if len(points) != expected + 1:
            return Outcome(False, f"{len(points)} basis points for dimension {expected}")
        for coords in points:
            s, cut = factor.rank0_residual(coords, args.side)
            if s > cut:
                return Outcome(False, f"basis point off V^0: sigma_max {s:.3e} > {cut:.3e}")
        golden = request.get("expected_point")
        if golden is not None and not ProjectivePoint.of(points[0]).same_point(
                ProjectivePoint.of(golden)):
            return Outcome(False, "rank-0 point differs from the golden point")
        return Outcome(True, points=len(points), found=int(expected >= 0))

    def _majorize(self, request, args, report) -> Outcome:
        if report["verdict"] != request["expected"]:
            return Outcome(False, f"majorize {report['verdict']}, expected {request['expected']}")
        return Outcome(True)
