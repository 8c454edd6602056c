"""Command-line front end: run solvers, reproduce the summary tables, and
emit residual-history CSV.  Commands return their text; `main` writes it."""

from __future__ import annotations

import argparse
import os
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


def _resolve_problem(args) -> ProblemSpec:
    """The problem of --problem or --config; exactly one source allowed."""
    if args.problem and args.config:
        raise UsageError("give either --problem or --config, not both")
    if args.problem:
        return builtin_problem(args.problem)
    if args.config:
        return load_problem(args.config)
    raise UsageError("a problem is required (--problem NAME or --config PATH)")


def _history_rows(report: RunReport):
    """(outer, residual, ratio to the previous residual) as text."""
    hist = report.residual_history
    for i, r in enumerate(hist):
        yield i + 1, _fmt_res(r), "" if i == 0 else _fmt_res(r / hist[i - 1])


def _history_csv(report: RunReport) -> str:
    lines = ["outer_iter,residual,ratio"]
    lines += [f"{i},{r},{ratio}" for i, r, ratio in _history_rows(report)]
    lines += ["", "N_t,rho_num,M_lo,status",
              f"{report.N_t},{_fmt_rho(report.rho_num)},{report.M_lo},"
              f"{report.status}"]
    return "\n".join(lines) + "\n"


def _history_human(report: RunReport) -> str:
    lines = [f"problem={report.problem} method={report.config.method} "
             f"k_max={report.config.k_max} s_max={report.config.s_max}",
             f"{'iter':>5}  {'residual':>13}  {'ratio':>13}"]
    lines += [f"{i:>5}  {r:>13}  {ratio:>13}"
              for i, r, ratio in _history_rows(report)]
    lines.append(f"N_t={report.N_t}  rho_num={_fmt_rho(report.rho_num)}  "
                 f"M_lo={report.M_lo}  status={report.status}")
    return "\n".join(lines) + "\n"


def _exit_code(report: RunReport) -> int:
    return EXIT_OK if report.status == STATUS_CONVERGED else EXIT_NOT_CONVERGED


def _cmd_run(args) -> tuple[str, int]:
    spec = _resolve_problem(args)
    report = run_problem(spec, IterationConfig(
        method=args.method, k_max=args.kmax, s_max=args.smax,
        epsilon=args.epsilon, max_outer=args.max_outer))
    text = (_history_csv(report) if args.format == "csv"
            else _history_human(report))
    return text, _exit_code(report)


def _parse_int_list(text: str, flag: str) -> list[int]:
    items = [t for t in text.split(",") if t.strip()]
    if not items:
        raise UsageError(f"{flag} needs a nonempty comma-separated list")
    try:
        return [int(t) for t in items]
    except ValueError as err:
        raise UsageError(f"bad {flag} value: {err}") from err


def _cmd_sweep_table(args) -> tuple[str, int]:
    spec = _resolve_problem(args)
    kmaxes = _parse_int_list(args.kmax, "--kmax")
    smaxes = _parse_int_list(args.smax, "--smax")
    # every setting is checked before the first solve
    cfgs = [IterationConfig(method=args.method, k_max=k, s_max=s,
                            epsilon=args.epsilon, max_outer=args.max_outer)
            for k in kmaxes for s in smaxes]
    lines = ["k_max,s_max,N_t,rho_num,M_lo"]
    worst = EXIT_OK
    for cfg in cfgs:
        report = run_problem(spec, cfg)
        lines.append(f"{cfg.k_max},{cfg.s_max},{report.N_t},"
                     f"{_fmt_rho(report.rho_num)},{report.M_lo}")
        worst = max(worst, _exit_code(report))
    return "\n".join(lines) + "\n", worst


def _cmd_strength(args) -> tuple[str, int]:
    spec = _resolve_problem(args)
    S = connection_strength(spec)
    G = spec.G
    if args.format == "csv":
        lines = ["g," + ",".join(str(g + 1) for g in range(G))]
        for g in range(G):
            lines.append(f"{g + 1}," + ",".join(f"{v:.6g}" for v in S[g]))
    else:
        lines = ["connection strength S[g][g']",
                 "g\\g' " + " ".join(f"{g + 1:>5}" for g in range(G))]
        for g in range(G):
            lines.append(f"{g + 1:>4} " + " ".join(f"{v:5.2f}" for v in S[g]))
    return "\n".join(lines) + "\n", EXIT_OK


def _cmd_validate(args) -> tuple[str, int]:
    spec = _resolve_problem(args)
    if not args.problem:
        raise UsageError("validate requires a built-in --problem with a "
                         "published scattering-ratio row")
    rep = validate_scattering(spec, builtin_reference_c(args.problem))
    lines = ["g,c_computed,c_reference,abs_dev"]
    for g in range(spec.G):
        dev = abs(rep.c_computed[g] - rep.c_reference[g])
        lines.append(f"{g + 1},{rep.c_computed[g]:.6f},"
                     f"{rep.c_reference[g]:.6f},{dev:.2e}")
    lines += ["", f"max_abs_dev,{rep.max_abs_dev:.2e}",
              f"result,{'PASS' if rep.passed else 'FAIL'}"]
    return "\n".join(lines) + "\n", EXIT_OK


def _cmd_analyze(args) -> tuple[str, int]:
    spec = _resolve_problem(args)
    rho = si_infinite_medium_rho(spec)
    if args.format == "csv":
        text = f"problem,rho_th_si\n{spec.name or 'config'},{rho:.2f}\n"
    else:
        text = (f"flat-mode source-iteration spectral radius for "
                f"{spec.name or 'config'}: {rho:.2f} (raw {rho:.6f})\n")
    return text, EXIT_OK


def _add_solver_args(p: argparse.ArgumentParser, lists: bool) -> None:
    """--method, --kmax, --smax, --epsilon and --max-outer; with lists,
    --kmax and --smax take comma-separated lists.  The defaults are
    IterationConfig's."""
    default = IterationConfig()
    p.add_argument("--method", choices=METHODS, default=default.method)
    for flag, name in (("--kmax", "k_max"), ("--smax", "s_max")):
        if lists:
            p.add_argument(flag, default=str(getattr(default, name)),
                           help=f"comma-separated {name} list")
        else:
            p.add_argument(flag, type=int, default=getattr(default, name))
    p.add_argument("--epsilon", type=float, default=default.epsilon)
    p.add_argument("--max-outer", type=int, default=default.max_outer)


# name, handler, help; validate and sweep-table print CSV only
_COMMANDS = (
    ("run", _cmd_run, "run one solver configuration"),
    ("sweep-table", _cmd_sweep_table,
     "table of N_t / rho / M_lo over parameters"),
    ("strength", _cmd_strength, "group connection-strength matrix"),
    ("validate", _cmd_validate, "scattering-ratio consistency check"),
    ("analyze", _cmd_analyze, "flat-mode SI spectral radius"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slabsm",
        description="Multigroup slab transport with multilevel "
                    "second-moment acceleration")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, text in _COMMANDS:
        p = sub.add_parser(name, help=text)
        p.add_argument("--problem", help=f"built-in problem {BUILTIN_NAMES}")
        p.add_argument("--config", help="path to a JSON problem config")
        p.add_argument("--out",
                       help="write output to this path (default stdout)")
        if name in ("run", "sweep-table"):
            _add_solver_args(p, lists=name == "sweep-table")
        if name not in ("validate", "sweep-table"):
            p.add_argument("--format", choices=("csv", "human"),
                           default="csv")
        p.set_defaults(func=func)
    return parser


def _check_out(path: str | None) -> None:
    """Fail before any work if --out is a directory or cannot be written."""
    if not path:
        return
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not (os.path.isdir(parent) and os.access(
            path if os.path.exists(path) else parent, os.W_OK)):
        raise UsageError(f"cannot write --out {path}: it must name a "
                         "writable file in an existing directory")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    try:
        _check_out(args.out)
        text, code = args.func(args)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (UsageError, ProblemError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
