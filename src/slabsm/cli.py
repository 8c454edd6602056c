"""Command-line front end: run solvers, reproduce the summary tables, and
emit residual-history CSV."""

from __future__ import annotations

import argparse
import sys

from .driver import (METHODS, IterationConfig, RunReport,
                     STATUS_CONVERGED, run_problem, si_infinite_medium_rho)
from .problem import (BUILTIN_NAMES, ProblemError, ProblemSpec,
                      builtin_problem, builtin_reference_c, connection_strength,
                      load_problem, validate_scattering)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2


class UsageError(Exception):
    pass


def _fmt_res(x: float) -> str:
    return f"{x:.5e}"


def _fmt_rho(rho) -> str:
    return "n/a" if rho is None else f"{rho:.2f}"


def _resolve_problem(args) -> tuple[ProblemSpec, str | None]:
    """Returns (spec, builtin-name-or-None); exactly one source allowed."""
    if args.problem and args.config:
        raise UsageError("give either --problem or --config, not both")
    if args.problem:
        name = args.problem.strip().lower()
        return builtin_problem(name), name
    if args.config:
        return load_problem(args.config), None
    raise UsageError("a problem is required (--problem NAME or --config PATH)")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _history_csv(report: RunReport) -> str:
    lines = ["outer_iter,residual,ratio"]
    hist = report.residual_history
    for i, r in enumerate(hist):
        ratio = "" if i == 0 else _fmt_res(r / hist[i - 1])
        lines.append(f"{i + 1},{_fmt_res(r)},{ratio}")
    lines.append("")
    lines.append("N_t,rho_num,M_lo,status")
    lines.append(f"{report.N_t},{_fmt_rho(report.rho_num)},"
                 f"{report.M_lo},{report.status}")
    return "\n".join(lines) + "\n"


def _history_human(report: RunReport) -> str:
    lines = [f"problem={report.problem} method={report.method} "
             f"k_max={report.k_max} s_max={report.s_max}"]
    lines.append(f"{'iter':>5}  {'residual':>13}  {'ratio':>13}")
    hist = report.residual_history
    for i, r in enumerate(hist):
        ratio = "" if i == 0 else _fmt_res(r / hist[i - 1])
        lines.append(f"{i + 1:>5}  {_fmt_res(r):>13}  {ratio:>13}")
    lines.append(f"N_t={report.N_t}  rho_num={_fmt_rho(report.rho_num)}  "
                 f"M_lo={report.M_lo}  status={report.status}")
    return "\n".join(lines) + "\n"


def _cmd_run(args) -> int:
    spec, _ = _resolve_problem(args)
    cfg = IterationConfig(method=args.method, k_max=args.kmax,
                          s_max=args.smax, epsilon=args.epsilon,
                          max_outer=args.max_outer)
    report = run_problem(spec, cfg)
    text = (_history_csv(report) if args.format == "csv"
            else _history_human(report))
    _emit(text, args.out)
    return EXIT_OK if report.status == STATUS_CONVERGED else EXIT_NOT_CONVERGED


def _parse_int_list(text: str, flag: str) -> list[int]:
    items = [t for t in text.split(",") if t.strip()]
    if not items:
        raise UsageError(f"{flag} needs a nonempty comma-separated list")
    try:
        values = [int(t) for t in items]
    except ValueError as err:
        raise UsageError(f"bad {flag} value: {err}") from err
    if any(v < 1 for v in values):
        raise UsageError(f"{flag} entries must be >= 1")
    return values


def _cmd_sweep_table(args) -> int:
    spec, _ = _resolve_problem(args)
    kmaxes = _parse_int_list(args.kmax, "--kmax")
    smaxes = _parse_int_list(args.smax, "--smax")
    lines = ["k_max,s_max,N_t,rho_num,M_lo"]
    worst = EXIT_OK
    for k in kmaxes:
        for s in smaxes:
            cfg = IterationConfig(method=args.method, k_max=k, s_max=s,
                                  epsilon=args.epsilon,
                                  max_outer=args.max_outer)
            report = run_problem(spec, cfg)
            lines.append(f"{k},{s},{report.N_t},{_fmt_rho(report.rho_num)},"
                         f"{report.M_lo}")
            if report.status != STATUS_CONVERGED:
                worst = EXIT_NOT_CONVERGED
    _emit("\n".join(lines) + "\n", args.out)
    return worst


def _cmd_strength(args) -> int:
    spec, _ = _resolve_problem(args)
    S = connection_strength(spec)
    G = spec.G
    if args.format == "csv":
        lines = ["g," + ",".join(str(g + 1) for g in range(G))]
        for g in range(G):
            lines.append(f"{g + 1}," + ",".join(f"{v:.6g}" for v in S[g]))
    else:
        lines = ["connection strength S[g][g']"]
        header = "g\\g' " + " ".join(f"{g + 1:>5}" for g in range(G))
        lines.append(header)
        for g in range(G):
            lines.append(f"{g + 1:>4} " + " ".join(f"{v:5.2f}" for v in S[g]))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_validate(args) -> int:
    spec, name = _resolve_problem(args)
    if name is not None:
        reference = builtin_reference_c(name)
    else:
        raise UsageError("validate requires a built-in --problem with a "
                         "published scattering-ratio row")
    rep = validate_scattering(spec, reference)
    lines = ["g,c_computed,c_reference,abs_dev"]
    for g in range(spec.G):
        dev = abs(rep.c_computed[g] - rep.c_reference[g])
        lines.append(f"{g + 1},{rep.c_computed[g]:.6f},"
                     f"{rep.c_reference[g]:.6f},{dev:.2e}")
    lines.append("")
    lines.append(f"max_abs_dev,{rep.max_abs_dev:.2e}")
    lines.append(f"result,{'PASS' if rep.passed else 'FAIL'}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    spec, _ = _resolve_problem(args)
    rho = si_infinite_medium_rho(spec)
    if args.format == "csv":
        text = f"problem,rho_th_si\n{spec.name or 'config'},{rho:.2f}\n"
    else:
        text = (f"flat-mode source-iteration spectral radius for "
                f"{spec.name or 'config'}: {rho:.2f} (raw {rho:.6f})\n")
    _emit(text, args.out)
    return EXIT_OK


def _add_problem_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", help=f"built-in problem {BUILTIN_NAMES}")
    p.add_argument("--config", help="path to a JSON problem config")
    p.add_argument("--out", help="write output to this path (default stdout)")


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=METHODS, default="mlsm")
    p.add_argument("--kmax", type=int, default=1)
    p.add_argument("--smax", type=int, default=1)
    p.add_argument("--epsilon", type=float, default=1e-9)
    p.add_argument("--max-outer", type=int, default=1000)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slabsm",
        description="Multigroup slab transport with multilevel "
                    "second-moment acceleration")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one solver configuration")
    _add_problem_args(p_run)
    _add_run_args(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_tab = sub.add_parser("sweep-table",
                           help="table of N_t / rho / M_lo over parameters")
    _add_problem_args(p_tab)
    p_tab.add_argument("--method", choices=METHODS, default="mlsm")
    p_tab.add_argument("--kmax", default="1",
                       help="comma-separated k_max list")
    p_tab.add_argument("--smax", default="1",
                       help="comma-separated s_max list")
    p_tab.add_argument("--epsilon", type=float, default=1e-9)
    p_tab.add_argument("--max-outer", type=int, default=1000)
    p_tab.set_defaults(func=_cmd_sweep_table)

    p_str = sub.add_parser("strength", help="group connection-strength matrix")
    _add_problem_args(p_str)
    p_str.set_defaults(func=_cmd_strength)

    p_val = sub.add_parser("validate",
                           help="scattering-ratio consistency check")
    _add_problem_args(p_val)
    p_val.set_defaults(func=_cmd_validate)

    p_ana = sub.add_parser("analyze",
                           help="flat-mode SI spectral radius")
    _add_problem_args(p_ana)
    p_ana.set_defaults(func=_cmd_analyze)

    # validate and sweep-table print CSV only
    for p in (p_run, p_str, p_ana):
        p.add_argument("--format", choices=("csv", "human"), default="csv")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (UsageError, ProblemError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
