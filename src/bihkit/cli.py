"""Command-line front end.

Each command reads the options listed with it, plus `--report PATH` (write
the report there too) and `--quiet` (no report on stdout), and no other:
an option a command does not read exits 3.  `--tol` replaces the scenario's
tolerance of the command's verdict, `--mode` and `--errata` its [mode]
residual and errata.

    bihkit check     SCENARIO   residual evaluation (direct/theorem/both);
                     --mode, --tol, --errata, --csv PATH (per-point norms)
    bihkit audit     SCENARIO   lemma and identity audits; --tol
    bihkit variation SCENARIO   first-variation test of the functionals;
                     --tol, --functional NAME (that functional only)
    bihkit props     SCENARIO   proposition/inequality checkers; --tol
    bihkit energy    SCENARIO   the five functionals by quadrature

Exit codes: 0 all requested verdicts pass, 2 a numeric verdict failed,
3 scenario validation error, a usage error (argparse's message on stderr),
a `--tol` that is not a finite non-negative number or an unwritable
`--report`/`--csv` path (one stderr line names the option, stdout stays
empty), 4 internal error.  An ambient given only by its curvature model
(abstract_gcsf, abstract_gssf) supports `audit` alone; its map and
coefficients must be finite at the sample points, and only its curve and
hypersurface flags can be asserted or denied (exit 3).

`energy` and `variation` read the quadrature nodes, at order 3 and 4, from
validation's one pass over the sample points, then the nodes (on all-periodic
axes the nodes are the sample points), on every axis kind alike: a sample
point failing only at order 4 is one to `variation`, as to `check`, and a
failing sample point or flag is reported before a failing node.  Each block
is released once a command has joined what it reads of it (`calculus.joined`).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import __version__
from .audits import curvature_trace_audit, run_all_audits
from .calculus import joined, point_rows
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
        "errata": args.errata or sc.mode.get("errata", "on"),
        "seed": sc.seed,
    }


def cmd_check(sc, args, out, blocks):
    tol = args.tol if args.tol is not None else sc.tolerance("mode_agreement")
    mode = args.mode or sc.mode.get("residual", "both")
    kind = sc.mode.get("kind", "fbh")
    corollary = sc.mode.get("corollary")
    errata = out["errata"] == "on"

    def per_point(ev):
        """A block's per-point norms and deltas; its first corrections to `out`."""
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
        if rep is not None:
            columns["theorem_normal_norm"] = rep.normal_norm
            columns["theorem_tangent_norm"] = rep.tangent_norm
            columns["theorem_norm"] = rep.total_norm / rep.scale
        if cmp is not None:
            columns["mode_delta_normal"] = cmp["delta_normal"]
            columns["mode_delta_tangent"] = cmp["delta_tangent"]
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
        return columns

    table = vars(joined(blocks, per_point))
    points, theorem_norm = table.pop("points"), table.pop("theorem_norm", None)
    out["kind"] = kind
    out["points"] = len(points)
    out["rows"] = point_rows(points, table)
    # numpy's maxima keep a NaN, which fails the verdicts; Python's max may drop it
    if mode in ("direct", "both"):
        out["max_direct_norm"] = worst_direct = np.max(table["direct_norm"])
        out["direct_verdict"] = (
            "harmonic-type residual ~ 0 (within tol)"
            if worst_direct <= tol else "nonzero residual"
        )
    if mode in ("theorem", "both"):
        out["max_theorem_norm"] = np.max(theorem_norm)
    exit_code = PASS
    if mode == "both":
        out["max_mode_delta"] = worst_delta = np.max([table["mode_delta_normal"],
                                                      table["mode_delta_tangent"]])
        out["mode_agreement"] = bool(worst_delta <= tol)
        if not out["mode_agreement"]:
            exit_code = NUMERIC_FAIL
    if corollary:
        rtol = sc.tolerance("reduction")
        out["corollary"] = corollary
        out["max_reduction_delta"] = reduction_delta = np.max(table["reduction_delta"])
        out["reduction_agreement"] = bool(reduction_delta <= rtol)
        if not out["reduction_agreement"]:
            exit_code = NUMERIC_FAIL
    return exit_code


def cmd_audit(sc, args, out, blocks):
    tol = args.tol if args.tol is not None else sc.tolerance("audit")
    if not sc.immersion.ambient.has_metric:
        # `blocks` are the map's values at the sample points, validated finite
        result = curvature_trace_audit(sc.immersion.ambient, blocks, seed=sc.seed)
        out["curvature_trace_audit"] = result
        worst = float(np.max([result["normal_trace"], result["tangent_trace"]]))
    else:
        summary = run_all_audits(blocks)
        out["summary"] = summary
        out["points"] = len(sc.sample_points())
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
    tol = args.tol if args.tol is not None else sc.tolerance("variation")
    which_list = [args.functional] if args.functional else list(ENERGIES)
    try:
        sweeps = first_variation_suite(imm, grid, blocks, which_list, variation)
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
    tol = args.tol if args.tol is not None else sc.tolerance("identity")
    verdicts = proposition_checkers(sc.immersion, blocks, tol, sc.tolerance("flags"))
    out["verdicts"] = verdicts
    bad = any(v.get("verdict") == "violated" for v in verdicts)
    out["pass"] = not bad
    return PASS if not bad else NUMERIC_FAIL


def cmd_energy(sc, args, out, blocks):
    grid = sc.quadrature()
    values = energies(grid, blocks)
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

# The options each command reads besides --report and --quiet.
OPTIONS = {"check": ("--mode", "--tol", "--errata", "--csv"), "audit": ("--tol",),
           "variation": ("--tol", "--functional"), "props": ("--tol",), "energy": ()}
# The jet order each command reads: tau2, the Laplacian of H and the Euler-Lagrange
# fields take four derivatives of the map, the propositions three; the energies
# read values alone, at the three that validation needs.
ORDERS = {"check": 4, "audit": 4, "variation": 4, "props": 3, "energy": 3}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 3, as a validation error: 2 is a failed verdict
        self.print_usage(sys.stderr)
        self.exit(VALIDATION_FAIL, f"{self.prog}: error: {message}\n")


def build_parser():
    ap = _Parser(prog="bihkit", description=__doc__,
                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("scenario", help="path to a scenario file")
    ap.add_argument("--mode", choices=["direct", "theorem", "both"], default=None)
    ap.add_argument("--tol", type=float, default=None)
    ap.add_argument("--errata", choices=["on", "off"], default=None)
    ap.add_argument("--report", default=None, help="write the report document here")
    ap.add_argument("--csv", default=None, help="write the per-point norms of `check` as CSV")
    ap.add_argument("--quiet", action="store_true")
    ap.add_argument("--functional", choices=list(ENERGIES), default=None,
                    help="restrict `variation` to one functional")
    return ap


# built once per process: each `add_argument` asks the terminal for its size
_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    for option in sorted(set().union(*OPTIONS.values()) - set(OPTIONS[args.command])):
        if getattr(args, option[2:]) is not None:
            _PARSER.error(f"argument {option}: not read by `{args.command}`, which reads "
                          f"{', '.join(OPTIONS[args.command] + ('--report', '--quiet'))}")
    # as the [tolerances] values: inf would pass every verdict, nan or a
    # negative one fail them all
    if args.tol is not None and not 0.0 <= args.tol < float("inf"):
        print(f"validation error: --tol must be a finite non-negative number, got {args.tol!r}",
              file=sys.stderr)
        return VALIDATION_FAIL
    started = time.monotonic()
    try:
        sc = load_scenario(args.scenario, validate=False)
        if not sc.immersion.ambient.has_metric and args.command != "audit":
            raise ScenarioError(f"{sc.ambient_kind} has only a curvature model; "
                                "`audit` is the one command it supports", "ambient", "kind")
        # the evaluation blocks the command reads, from validation's one pass:
        # of the sample points, or of the quadrature nodes for the energies
        nodes = sc.quadrature().points if args.command in ("energy", "variation") else None
        blocks = _validate(sc, ORDERS[args.command], nodes)
        out = _base_report(sc, args.command, args)
        code = COMMANDS[args.command](sc, args, out, blocks)
    except (ScenarioError, SpaceError, OSError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return VALIDATION_FAIL
    except Exception as exc:  # pragma: no cover - guarded surface
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_FAIL
    out["wall_time_ms"] = int((time.monotonic() - started) * 1000)
    text = render_report(out)
    try:
        if args.report:
            option, path = "--report", args.report
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        if args.csv:
            option, path = "--csv", args.csv
            write_csv(path, out["rows"])
    except OSError as exc:
        print(f"output error: cannot write {option} {path}: {exc.strerror or exc}",
              file=sys.stderr)
        return VALIDATION_FAIL
    if not args.quiet:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
