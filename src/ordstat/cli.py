"""Command-line front end.

Subcommands: ``reproduce`` runs one of the four builtin comparisons,
``compare`` runs a scenario file, ``oracle-check`` exercises the
closed-form-vs-enumeration identity, ``simulate`` cross-checks an
independent scenario against Monte Carlo.  Curve CSVs, SVG plots, and
text verdicts land in --out-dir (or $ORDSTAT_OUT, or ./ordstat-out).

Exit codes: 0 success, 1 I/O failure, 2 hypothesis failure, 3 dominance
or concordance failure, 64 malformed scenario/configuration.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache, lru_cache
from itertools import repeat
from pathlib import Path

import numpy as np

from .copula import _Independence
from .mcsim import SimConfig, mc_vs_analytic_report
from .orderstats import DependentSampleSpec, oracle_identity_max_deviation
from .scenarios import (
    EXAMPLE_IDS,
    ScenarioError,
    builtin_example,
    load_scenario_file,
)
from .stochorder import (
    PRIMARY_CHECK,
    DominanceReport,
    Grid,
    Scenario,
    check_hr,
    check_st,
    scenario_hazard_functions,
    scenario_survival_functions,
    validate_theorem,
)
from .svgplot import render_curve_plot

ORACLE_TOLERANCE = 1e-10


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_outputs(paths: list[Path], grid: Grid, blocks, report: str) -> None:
    """Write the curves CSV of ``blocks``, their SVG plot and ``report`` to
    ``paths`` in that order, then echo the report to stdout."""
    texts = (_csv_text(grid, blocks), render_curve_plot(grid.x, blocks), report)
    for path, text in zip(paths, texts):
        _write_atomic(path, text)
    sys.stdout.write(report)


def _cells(vals: list) -> list[str]:
    """``vals`` at 17 significant digits, formatted in one call."""
    return ("%.17g\n" * len(vals) % tuple(vals)).split("\n")[:-1]


def _column(values, rows: int, hazard: bool = False) -> list[str]:
    """``rows`` CSV cells holding ``values`` at 17 significant digits.

    ``None`` gives an empty column.  A hazard cell is empty where the value
    is not finite, and so are the rows past the end of ``values``: hazards
    cover ``Grid.positive_x``, which lacks only a final u = 1 point.
    """
    if values is None:
        return [""] * rows
    cells = _cells(values.tolist())
    if hazard:
        for i in np.flatnonzero(~np.isfinite(values)).tolist():
            cells[i] = ""
    return cells + [""] * (rows - len(cells))


@lru_cache(maxsize=8)
def _ux_cells(grid: Grid) -> tuple[str, ...]:
    """The joined ``u,x`` cells of ``grid``'s rows, formatted once per grid
    (a grid's u and x are read-only)."""
    return tuple(map(",".join, zip(_cells(grid.u.tolist()), _cells(grid.x.tolist()))))


def _csv_text(grid: Grid, blocks) -> str:
    """Schema u,x,sf_X,sf_Y,hr_X,hr_Y,source; each block's rows ascend in u.

    A block is (source, sf_X, sf_Y, hr_X, hr_Y) with survivals over
    ``grid.x``, hazards over ``grid.positive_x`` and ``None`` for a column
    left empty.  Empty hazard cells distinguish "not computed" (x = 0,
    survival-only comparisons) and non-finite values from an actual zero.
    """
    rows, ux = grid.u.size, _ux_cells(grid)
    lines = ["u,x,sf_X,sf_Y,hr_X,hr_Y,source"]
    for source, sf_x, sf_y, hr_x, hr_y in blocks:
        lines += map(",".join, zip(ux, _column(sf_x, rows), _column(sf_y, rows),
                                   _column(hr_x, rows, hazard=True),
                                   _column(hr_y, rows, hazard=True), repeat(source)))
    return "\n".join(lines) + "\n"


def _run_checks(scenario: Scenario) -> dict[str, DominanceReport]:
    sf_x, sf_y = scenario_survival_functions(scenario)
    checks = {"st": check_st(sf_x, sf_y, scenario.grid)}
    hazards = scenario_hazard_functions(scenario)
    if hazards is not None:
        checks["hr"] = check_hr(hazards[0], hazards[1], sf_x, sf_y, scenario.grid)
    return checks


def _report_text(scenario: Scenario, hyp, checks: dict[str, DominanceReport],
                 exit_code: int, files: list[Path]) -> str:
    grid = scenario.grid
    lines = [
        f"scenario: {scenario.name or 'unnamed'}",
        f"theorem tag: {scenario.theorem}",
        f"grid: {grid.u.size} points, u in [{grid.u[0]:g}, {grid.u[-1]:g}], x = -log(u)",
        "",
    ]
    if hyp.conditions:
        lines.append("hypothesis conditions:")
        for c in hyp.conditions:
            mark = "pass" if c.passed else "FAIL"
            detail = f"  ({c.detail})" if c.detail else ""
            lines.append(f"  [{mark}] {c.name}{detail}")
    else:
        lines.append("hypothesis conditions: none (untagged scenario)")
    lines.append("")
    lines.append("order checks (finite-grid certificates):")
    for order, rep in checks.items():
        mark = "pass" if rep.holds else "FAIL"
        lines.append(f"  [{mark}] {order}: min margin {rep.min_margin:.6e} "
                     f"at x={rep.witness_x:.6g}")
        if rep.ratio_margin is not None:
            rmark = "pass" if rep.ratio_holds else "FAIL"
            lines.append(f"         [{rmark}] survival-ratio monotonicity: "
                         f"min step {rep.ratio_margin:.6e}")
            if not rep.routes_agree:
                lines.append("         WARNING: the two hazard-order routes disagree "
                             "(numerical instability)")
        if rep.skipped:
            lines.append("         points skipped by the hazard route (a survival "
                         f"is 0): {rep.skipped}")
    lines.append("")
    lines.append(f"verdict: {'PASS' if exit_code == 0 else 'FAIL'} (exit {exit_code})")
    if files:
        lines.append("files:")
        lines.extend(f"  {p}" for p in files)
    return "\n".join(lines) + "\n"


def _output_paths(out_dir: str | None, stem: str, output: dict) -> list[Path]:
    """The CSV, SVG and report paths in ``out_dir`` (else $ORDSTAT_OUT, else
    ./ordstat-out), named by ``output`` or else from ``stem``, made from the
    scenario's name.  A file name that is not bare, or two that coincide,
    are rejected, naming their keys."""
    names = {"csv": f"{stem}_curves.csv", "svg": f"{stem}_plot.svg",
             "report": f"{stem}_report.txt", **output}
    for key, name in names.items():
        # a directory part, "." or ".." would leave or replace --out-dir
        if Path(name).name != name or name == "..":
            where = f"output.{key}" if key in output else "name"
            raise ScenarioError(f"{where} gives the file {name!r}, not a bare file name")
        same = [f"output.{k}" for k, other in names.items() if other == name]
        if len(same) > 1:
            raise ScenarioError(f"{' and '.join(same)} name the same file {name!r}")
    out = Path(out_dir or os.environ.get("ORDSTAT_OUT") or "ordstat-out")
    return [out / name for name in names.values()]


def _run_comparison(scenario: Scenario, out_dir: str | None,
                    output: dict | None = None) -> int:
    paths = _output_paths(out_dir, scenario.name or "scenario", output or {})

    hyp = validate_theorem(scenario)
    checks = _run_checks(scenario)

    exit_code = 0
    if not hyp.ok:
        exit_code = 2
    elif not checks[PRIMARY_CHECK[scenario.theorem]].holds:
        exit_code = 3

    sf = checks["st"].curves
    hr = checks["hr"].curves if "hr" in checks else {}
    blocks = [("analytic", sf["X"], sf["Y"], hr.get("X"), hr.get("Y"))]
    _write_outputs(paths, scenario.grid, blocks,
                   _report_text(scenario, hyp, checks, exit_code, paths))
    return exit_code


def _cmd_reproduce(args) -> int:
    scenario = builtin_example(args.example, _grid_override(args))
    return _run_comparison(scenario, args.out_dir)


def _cmd_compare(args) -> int:
    scenario, output = load_scenario_file(args.scenario, _grid_override(args))
    return _run_comparison(scenario, args.out_dir, output)


def _cmd_oracle_check(args) -> int:
    if not 2 <= args.n <= 10:
        raise ValueError(f"--n must lie in [2, 10], got {args.n}")
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        raise ValueError(f"--seed must be at least 0, got {args.seed}")
    worst = oracle_identity_max_deviation(max_n=args.n, trials=args.trials,
                                          seed=args.seed)
    ok = worst <= ORACLE_TOLERANCE
    print(f"oracle identity: max |closed form - count oracle| = {worst:.3e} "
          f"over {args.trials} random samples (n <= {args.n}) "
          f"[{'OK' if ok else 'VIOLATION'}]")
    return 0 if ok else 3


def _cmd_simulate(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be at least 0, got {args.seed}")
    if args.replications < 1:
        raise ValueError(f"--replications must be at least 1, got {args.replications}")
    scenario, output = load_scenario_file(args.scenario, _grid_override(args))
    side = scenario.side_x
    if not (isinstance(side, DependentSampleSpec)
            and isinstance(side.generator, _Independence) and scenario.law_x is None):
        print("simulate needs an independent x_side without a sample-size law",
              file=sys.stderr)
        return 2
    paths = _output_paths(args.out_dir, (scenario.name or "scenario") + "_mc", output)
    config = SimConfig(replications=args.replications, seed=args.seed,
                       marginals=side.marginals, grid=scenario.grid)
    report = mc_vs_analytic_report(config)

    blocks = [("analytic", report.analytic, None, None, None),
              ("mc", report.empirical, None, None, None)]
    verdict = "PASS" if report.passed else "FAIL"
    _write_outputs(paths, scenario.grid, blocks,
                   f"scenario: {scenario.name}\n"
                   f"replications: {config.replications}  seed: {config.seed}  "
                   f"rng: {report.algorithm}\n"
                   f"max standardized deviation: {report.max_std_dev:.4f} "
                   f"(threshold 4.0)\nverdict: {verdict}\n")
    return 0 if report.passed else 3


def _grid_override(args) -> dict:
    return {"points": args.grid_points, "u_min": args.u_min}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ordstat`` parser, built once per process and shared by every
    ``main`` call; it holds no state between parses."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--grid-points", type=int, default=None,
                        help="number of u-grid points (default 1000)")
    shared.add_argument("--u-min", type=float, default=None,
                        help="smallest u on the grid (default 1e-3)")
    shared.add_argument("--out-dir", default=None,
                        help="output directory (default $ORDSTAT_OUT or ./ordstat-out)")

    parser = argparse.ArgumentParser(
        prog="ordstat",
        description="Fail-safe system lifetime comparisons for tilted "
                    "proportional-hazards samples")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reproduce", parents=[shared],
                       help="run one of the builtin comparisons")
    p.add_argument("example", type=int, choices=EXAMPLE_IDS)
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("compare", parents=[shared],
                       help="run a scenario JSON file")
    p.add_argument("scenario")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("oracle-check",
                       help="closed form vs subset-enumeration oracle")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("simulate", parents=[shared],
                       help="Monte Carlo concordance for an independent scenario")
    p.add_argument("scenario")
    p.add_argument("--replications", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 64
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 64
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
