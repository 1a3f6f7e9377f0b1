"""Command-line front end.

    bihkit check     SCENARIO   residual evaluation (direct/theorem/both)
    bihkit audit     SCENARIO   lemma and identity audits
    bihkit variation SCENARIO   first-variation test of the functionals
    bihkit props     SCENARIO   proposition/inequality checkers
    bihkit energy    SCENARIO   the five functionals by quadrature

Exit codes: 0 all requested verdicts pass, 2 a numeric verdict failed,
3 scenario validation error, 4 internal error.  An ambient given only by its
curvature model (abstract_gcsf, abstract_gssf) supports `audit` alone.
`--csv` writes the per-point norms of `check`; other commands ignore it.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import __version__
from .audits import curvature_trace_audit, run_all_audits
from .calculus import FLAG_TOL, PointError, WeightError, map_jets, point_rows
from .props import proposition_checkers
from .report import render_report, write_csv
from .residuals import compare_modes, direct_field, theorem_residual
from .scenario import ScenarioError, _validate, load_scenario
from .spaces import SpaceError
from .variational import ENERGIES, VariationError, energies, first_variation_suite

PASS, NUMERIC_FAIL, VALIDATION_FAIL, INTERNAL_FAIL = 0, 2, 3, 4


def _base_report(sc, command, args):
    return {
        "tool_version": __version__,
        "command": command,
        "scenario": sc.path,
        "scenario_digest": f"sha256:{sc.digest}",
        "errata": "on" if _errata_on(sc, args) else "off",
        "seed": args.seed if args.seed is not None else sc.seed,
    }


def _errata_on(sc, args):
    if args.errata is not None:
        return args.errata == "on"
    return sc.mode.get("errata", "on") == "on"


def cmd_check(sc, args, out, blocks):
    tol = args.tol if args.tol is not None else sc.tolerance("mode_agreement", 1e-6)
    mode = args.mode or sc.mode.get("residual", "both")
    kind = sc.mode.get("kind", "fbh")
    corollary = sc.mode.get("corollary")
    errata = _errata_on(sc, args)
    rows = []
    # numpy's maxima keep a NaN, which fails the verdicts; Python's max may drop it
    worst_direct = 0.0
    worst_delta = 0.0
    worst_theorem = 0.0
    reduction_delta = 0.0
    while blocks:
        ev = blocks.pop(0)  # released once used
        cmp = direct = rep = None
        if mode == "both":
            cmp = compare_modes(ev, kind=kind, errata=errata)
            direct, rep = cmp["direct"], cmp["report"]
        elif mode == "direct":
            direct = direct_field(kind, ev)
        else:
            rep = theorem_residual(ev, kind=kind, errata=errata)
        columns = {}
        if direct is not None:
            columns["direct_norm"] = ev.norm(direct)
            worst_direct = np.maximum(worst_direct, columns["direct_norm"].max())
        if rep is not None:
            columns["theorem_normal_norm"] = rep.normal_norm
            columns["theorem_tangent_norm"] = rep.tangent_norm
            worst_theorem = np.maximum(worst_theorem, (rep.total_norm / rep.scale).max())
        if cmp is not None:
            columns["mode_delta_normal"] = cmp["delta_normal"]
            columns["mode_delta_tangent"] = cmp["delta_tangent"]
            worst_delta = np.max([worst_delta, cmp["delta_normal"].max(),
                                  cmp["delta_tangent"].max()])
            if "itemized_corrections" not in out:
                first = next(filter(None, map(rep.corrections_at, range(len(ev)))), None)
                if first:
                    out["itemized_corrections"] = first
        if corollary:
            rep_parent = rep or theorem_residual(ev, kind=kind, errata=errata)
            rep_cor = theorem_residual(ev, kind=kind, errata=errata, corollary=corollary)
            columns["reduction_delta"] = np.maximum(
                ev.norm(rep_parent.normal - rep_cor.normal),
                ev.norm(rep_parent.tangent - rep_cor.tangent),
            ) / rep_parent.scale
            reduction_delta = np.maximum(reduction_delta, columns["reduction_delta"].max())
        rows += point_rows(ev, columns)
    out["kind"] = kind
    out["points"] = len(rows)
    out["rows"] = rows
    if mode in ("direct", "both"):
        out["max_direct_norm"] = worst_direct
        out["direct_verdict"] = (
            "harmonic-type residual ~ 0 (within tol)"
            if worst_direct <= tol else "nonzero residual"
        )
    if mode in ("theorem", "both"):
        out["max_theorem_norm"] = worst_theorem
    exit_code = PASS
    if mode == "both":
        out["max_mode_delta"] = worst_delta
        out["mode_agreement"] = bool(worst_delta <= tol)
        if not out["mode_agreement"]:
            exit_code = NUMERIC_FAIL
    if corollary:
        rtol = sc.tolerance("reduction", 1e-10)
        out["corollary"] = corollary
        out["max_reduction_delta"] = reduction_delta
        out["reduction_agreement"] = bool(reduction_delta <= rtol)
        if not out["reduction_agreement"]:
            exit_code = NUMERIC_FAIL
    return exit_code


def cmd_audit(sc, args, out, blocks):
    tol = args.tol if args.tol is not None else sc.tolerance("audit", 1e-6)
    points = sc.sample_points()
    if not sc.immersion.ambient.has_metric:
        seed = args.seed if args.seed is not None else sc.seed
        # evaluate the immersion map as plain chart positions
        psi = map_jets(sc.immersion, points, 0)
        chart_points = psi.point_values(len(points))
        result = curvature_trace_audit(sc.immersion.ambient, chart_points, seed=seed)
        out["curvature_trace_audit"] = result
        worst = float(np.max([result["normal_trace"], result["tangent_trace"]]))
        out["max_delta"] = worst
        out["pass"] = bool(worst <= tol)
        return PASS if out["pass"] else NUMERIC_FAIL
    summary = run_all_audits(sc.immersion, blocks)[1]
    out["summary"] = summary
    out["points"] = len(points)
    # numpy's maximum keeps a NaN, which fails the verdict
    keys = ("deltaH_translated", "lemgene1_corrected", "lemgene2_corrected", "lemgene3",
            "identity_max")
    worst = float(np.max([summary[key] for key in keys]))
    out["max_delta"] = worst
    out["pass"] = bool(worst <= tol)
    return PASS if out["pass"] else NUMERIC_FAIL


def cmd_variation(sc, args, out, blocks):
    imm = sc.immersion
    grid = sc.quadrature()
    variation = sc.default_variation()
    tol = args.tol if args.tol is not None else sc.tolerance("variation", 1e-5)
    which_list = [args.functional] if args.functional else list(ENERGIES)
    try:
        sweeps = first_variation_suite(imm, grid, which_list, variation)
    except VariationError as exc:
        raise ScenarioError(str(exc), "variation", "components") from None
    results = []
    ok = True
    for which in which_list:
        fv = sweeps[which]
        plateau = min(fv["deltas"])
        scale = 1.0 + abs(fv["rhs"])
        entry = {
            "functional": which,
            "steps": fv["steps"],
            "finite_differences": fv["lhs"],
            "pairing_value": fv["rhs"],
            "deltas": fv["deltas"],
            "plateau": plateau,
            "pass": bool(plateau <= tol * scale),
        }
        ok = ok and entry["pass"]
        results.append(entry)
    out["results"] = results
    out["pass"] = ok
    return PASS if ok else NUMERIC_FAIL


def cmd_props(sc, args, out, blocks):
    tol = args.tol if args.tol is not None else sc.tolerance("identity", 1e-8)
    verdicts = proposition_checkers(sc.immersion, blocks, tol=tol,
                                    flag_tol=sc.tolerance("flags", FLAG_TOL))
    out["verdicts"] = verdicts
    bad = any(v.get("verdict") == "violated" for v in verdicts)
    out["pass"] = not bad
    return PASS if not bad else NUMERIC_FAIL


def cmd_energy(sc, args, out, blocks):
    grid = sc.quadrature()
    values = energies(sc.immersion, grid)
    out["energies"] = values
    out["quadrature_nodes"] = len(grid)
    return PASS


COMMANDS = {
    "check": cmd_check,
    "audit": cmd_audit,
    "variation": cmd_variation,
    "props": cmd_props,
    "energy": cmd_energy,
}


def build_parser():
    ap = argparse.ArgumentParser(prog="bihkit", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("scenario", help="path to a scenario file")
    ap.add_argument("--mode", choices=["direct", "theorem", "both"], default=None)
    ap.add_argument("--tol", type=float, default=None)
    ap.add_argument("--errata", choices=["on", "off"], default=None)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--report", default=None, help="write the report document here")
    ap.add_argument("--csv", default=None, help="write the per-point norms of `check` as CSV")
    ap.add_argument("--quiet", action="store_true")
    ap.add_argument("--functional", choices=list(ENERGIES), default=None,
                    help="restrict `variation` to one functional")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        sc = load_scenario(args.scenario, validate=False)
        if not sc.immersion.ambient.has_metric and args.command != "audit":
            raise ScenarioError(f"{sc.ambient_kind} has only a curvature model; "
                                "`audit` is the one command it supports", "ambient", "kind")
        # the validated evaluation blocks of the sample points, shared with the
        # command; the quadrature commands evaluate their own nodes instead
        quadrature = args.command in ("energy", "variation")
        blocks = _validate(sc, 3 if quadrature else 4)
        if quadrature:
            blocks.clear()
        out = _base_report(sc, args.command, args)
        code = COMMANDS[args.command](sc, args, out, blocks)
    except (ScenarioError, SpaceError, OSError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return VALIDATION_FAIL
    except PointError as exc:  # sample points fail as ScenarioErrors
        where = ("weight", "f") if isinstance(exc, WeightError) else ("sampling", "grid")
        error = ScenarioError(f"quadrature node {exc.point} rejected: {exc}", *where)
        print(f"validation error: {error}", file=sys.stderr)
        return VALIDATION_FAIL
    except Exception as exc:  # pragma: no cover - guarded surface
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_FAIL
    out["wall_time_ms"] = int((time.monotonic() - started) * 1000)
    text = render_report(out)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.csv and args.command == "check":
        rows = out["rows"]
        header = sorted({k for r in rows for k in r if k != "point"})
        csv_rows = [
            [";".join(f"{x!r}" for x in r["point"])] + [r.get(k, "") for k in header]
            for r in rows
        ]
        write_csv(args.csv, ["point"] + header, csv_rows)
    if not args.quiet:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
