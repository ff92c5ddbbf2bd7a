"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``solve``
    Solve one random §6 instance with HIPO and print the placement
    (optionally writing an SVG map).
``compare``
    Run all nine algorithms on one instance (Fig. 10 style).
``figure``
    Regenerate one paper figure's series (``fig11a`` … ``fig15``).
``field``
    Reproduce the §7 field experiment comparison.
``serve``
    Run the HTTP solve service (``repro.serve``): job queue, worker pool,
    content-addressed result cache.
``lint``
    Run the project static analyzer (``repro.analysis``): determinism,
    lock-discipline, numeric-hygiene and strict-typing rules.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]

def _package_version() -> str:
    """The installed package version, falling back to the source tree's."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except (ImportError, PackageNotFoundError):
        from . import __version__

        return __version__


def _positive_int(value: str) -> int:
    """argparse type for counts that must be >= 1 (workers, pool size)."""
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from None
    if n <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {n}")
    return n


FIGURES = (
    "fig11a",
    "fig11b",
    "fig11c",
    "fig11d",
    "fig11e",
    "fig11f",
    "fig12",
    "fig13",
    "fig14",
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HIPO: heterogeneous wireless charger placement with obstacles",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_package_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one random instance with HIPO")
    solve.add_argument("--seed", type=int, default=42)
    solve.add_argument("--devices", type=int, default=4, help="device multiple (of 4,3,2,1)")
    solve.add_argument("--chargers", type=int, default=3, help="charger multiple (of 1,2,3)")
    solve.add_argument("--eps", type=float, default=0.15)
    solve.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="process-pool workers for candidate extraction (1 = in-process)",
    )
    solve.add_argument(
        "--timings", action="store_true", help="print each phase's wall time (from the trace)"
    )
    solve.add_argument(
        "--json",
        action="store_true",
        help="with --timings: emit the breakdown as JSON instead of one line",
    )
    solve.add_argument(
        "--trace",
        type=str,
        default=None,
        metavar="PATH",
        help="write the span trace as JSONL (schema repro.trace/v1; "
        "validate with `python -m repro.obs.validate PATH`)",
    )
    solve.add_argument(
        "--metrics",
        action="store_true",
        help="print the run report: per-phase span tree plus metric tables",
    )
    solve.add_argument(
        "--candidate-cache",
        type=str,
        default=None,
        metavar="DIR",
        help="persistent candidate-set cache directory: repeated solves of the "
        "same geometry skip extraction (docs/serving.md, 'cache tiers')",
    )
    solve.add_argument(
        "--budget-sweep",
        type=str,
        default=None,
        metavar="K1,K2,...",
        help="solve once per comma-separated budget multiplier (budgets scaled "
        "per type), reusing one extraction across all points",
    )
    solve.add_argument("--svg", type=str, default=None, help="write an SVG placement map here")
    solve.add_argument("--map", action="store_true", help="print an ASCII map")
    solve.add_argument("--save", type=str, default=None, help="save scenario + placement as JSON")
    solve.add_argument("--load", type=str, default=None, help="solve a saved scenario JSON instead")

    compare = sub.add_parser("compare", help="all nine algorithms on one instance")
    compare.add_argument("--seed", type=int, default=7)
    compare.add_argument("--devices", type=int, default=4)
    compare.add_argument("--chargers", type=int, default=4)

    figure = sub.add_parser("figure", help="regenerate one paper figure's series")
    figure.add_argument("name", choices=FIGURES)
    figure.add_argument("--repeats", type=int, default=2)
    figure.add_argument("--csv", type=str, default=None, help="also write the series as CSV")

    field = sub.add_parser("field", help="reproduce the §7 field experiment")
    field.add_argument("--svg", type=str, default=None)

    rep = sub.add_parser("report", help="generate a reproduction report directory")
    rep.add_argument("--out", type=str, default="report")
    rep.add_argument("--repeats", type=int, default=2)
    rep.add_argument(
        "--sections",
        type=str,
        default="fig10,fig11a,fig12,fig15,field",
        help="comma-separated subset of fig10,fig11a,fig12,fig15,field",
    )

    validate = sub.add_parser("validate", help="diagnose a saved scenario JSON")
    validate.add_argument("path", type=str)
    validate.add_argument("--no-reachability", action="store_true", help="skip the reachability scan")

    serve = sub.add_parser("serve", help="run the HTTP solve service (docs/serving.md)")
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080, help="0 picks an ephemeral port")
    serve.add_argument(
        "--pool-size",
        type=_positive_int,
        default=2,
        help="solver slots: one pool thread and one forked solver process each",
    )
    serve.add_argument(
        "--queue-size",
        type=_positive_int,
        default=64,
        help="queued-job capacity; submissions beyond it get HTTP 429",
    )
    serve.add_argument(
        "--cache-size",
        type=_positive_int,
        default=256,
        help="max entries in the content-addressed result cache",
    )
    serve.add_argument(
        "--cache-bytes",
        type=_positive_int,
        default=64 * 1024 * 1024,
        help="max total bytes of cached results (LRU-evicted)",
    )
    serve.add_argument(
        "--candidate-cache-size",
        type=_positive_int,
        default=64,
        help="max entries in the candidate-set (extraction) cache tier",
    )
    serve.add_argument(
        "--candidate-cache-bytes",
        type=_positive_int,
        default=128 * 1024 * 1024,
        help="max total bytes of cached candidate sets (LRU-evicted)",
    )
    serve.add_argument(
        "--candidate-cache",
        type=str,
        default=None,
        metavar="DIR",
        help="persist the candidate tier to this directory (survives restarts)",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-job timeout (measured from submission)",
    )
    serve.add_argument("--quiet", action="store_true", help="suppress per-request log lines")

    lint = sub.add_parser(
        "lint", help="run the project static analyzer (docs/static-analysis.md)"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to analyze (default: the repro package)",
    )
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument(
        "--select",
        type=str,
        default=None,
        metavar="IDS",
        help="comma-separated rule-id prefixes to run (e.g. DET,CNC201)",
    )
    lint.add_argument(
        "--ignore",
        type=str,
        default=None,
        metavar="IDS",
        help="comma-separated rule-id prefixes to skip",
    )
    lint.add_argument(
        "--strict", action="store_true", help="treat warnings as errors (exit 1 on any violation)"
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="print the registered rules and exit"
    )

    vary = sub.add_parser(
        "vary", help="scenario-diversity differential testing (docs/variation.md)"
    )
    vary.add_argument(
        "--families",
        type=str,
        default="all",
        metavar="NAMES",
        help="comma-separated scenario family names, or 'all' (default)",
    )
    vary.add_argument("--budget", type=int, default=100, help="scenarios to generate")
    vary.add_argument("--seed", type=int, default=0, help="corpus seed")
    vary.add_argument("--eps", type=float, default=0.3, help="solver eps for all checks")
    vary.add_argument(
        "--strategy",
        choices=("mixed", "grid", "random", "adversarial"),
        default="mixed",
        help="exploration strategy",
    )
    vary.add_argument(
        "--invariants",
        type=str,
        default="all",
        metavar="NAMES",
        help="comma-separated invariant names, or 'all' (default)",
    )
    vary.add_argument(
        "--no-rotate",
        action="store_true",
        help="run every invariant on every scenario (default: round-robin)",
    )
    vary.add_argument(
        "--out",
        type=str,
        default="vary-repros",
        metavar="DIR",
        help="directory for violation repro files",
    )
    vary.add_argument(
        "--shrink-evals", type=int, default=40, help="solver probes allowed per shrink"
    )
    vary.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help="process-pool fan-out for invariant checks (report is identical for any N)",
    )
    vary.add_argument("--json", action="store_true", help="print the machine-readable report")
    vary.add_argument("--quiet", action="store_true", help="suppress progress output")
    vary.add_argument(
        "--replay",
        type=str,
        default=None,
        metavar="FILE",
        help="re-run the failing check of a repro file and exit",
    )
    vary.add_argument(
        "--list-families", action="store_true", help="print the family catalog and exit"
    )
    vary.add_argument(
        "--list-invariants", action="store_true", help="print the invariant catalog and exit"
    )
    return parser


def _phase_timings(trace) -> dict:
    """``repro solve --timings``: wall seconds of the last span of each
    phase (0.0 when it did not run, e.g. positions/sweeps on a cache hit),
    plus the extraction span's candidate and worker counts."""
    out: dict = {}
    for name in ("extraction", "positions", "sweeps", "selection"):
        spans = trace.find_all(name)
        out[f"{name}_seconds"] = round(spans[-1].wall_s, 6) if spans else 0.0
    extraction = trace.find_all("extraction")[-1].attrs
    out["candidates"] = int(extraction.get("candidates", 0))
    out["workers"] = int(extraction.get("workers", 1))
    return out


def _cmd_solve(args) -> int:
    from .core import solve_hipo
    from .experiments import random_scenario, render_scene

    if args.load:
        from .io import load_scenario

        scenario, _prior = load_scenario(args.load)
    else:
        scenario = random_scenario(
            np.random.default_rng(args.seed),
            charger_multiple=args.chargers,
            device_multiple=args.devices,
        )
    cache = None
    if args.candidate_cache or args.budget_sweep:
        from .core import CandidateSetCache

        cache = CandidateSetCache(directory=args.candidate_cache)
    if args.budget_sweep:
        return _solve_budget_sweep(args, scenario, cache)
    sol = solve_hipo(
        scenario,
        eps=args.eps,
        workers=args.workers,
        candidate_cache=cache,
    )
    print(
        f"devices={scenario.num_devices} chargers={scenario.num_chargers} "
        f"eps={args.eps} backend={sol.trace.find_all('solve')[-1].attrs['backend']}"
    )
    print(f"charging utility = {sol.utility:.4f} (approx objective {sol.approx_utility:.4f})")
    if args.timings:
        timings = _phase_timings(sol.trace)
        if args.json:
            import json

            print(json.dumps(timings, indent=2))
        else:
            print("timings: " + " ".join(f"{k}={v}" for k, v in timings.items()))
    if args.metrics:
        print(sol.report())
    if args.trace and sol.trace is not None:
        sol.trace.write_jsonl(args.trace)
        print(f"wrote {args.trace}")
    for s in sol.strategies:
        print(
            f"  {s.ctype.name:<10} ({s.position[0]:6.2f}, {s.position[1]:6.2f}) "
            f"{np.degrees(s.orientation):6.1f} deg"
        )
    if args.map:
        print(render_scene(scenario, sol.strategies))
    if args.svg:
        from .experiments.svg_map import save_svg

        save_svg(args.svg, scenario, sol.strategies)
        print(f"wrote {args.svg}")
    if args.save:
        from .io import save_scenario

        save_scenario(args.save, scenario, sol.strategies)
        print(f"wrote {args.save}")
    return 0


def _solve_budget_sweep(args, scenario, cache) -> int:
    """``repro solve --budget-sweep K1,K2,...``: one extraction, many budgets."""
    import time

    from .experiments.sweeps import budget_sweep

    try:
        factors = [int(x) for x in args.budget_sweep.split(",") if x.strip()]
    except ValueError:
        print(f"--budget-sweep: expected comma-separated integers, got {args.budget_sweep!r}")
        return 2
    if not factors or any(k <= 0 for k in factors):
        print(f"--budget-sweep: expected positive multipliers, got {args.budget_sweep!r}")
        return 2
    points = [{name: n * k for name, n in scenario.budgets.items()} for k in factors]
    t0 = time.perf_counter()
    solutions = budget_sweep(
        scenario, points, eps=args.eps, candidate_cache=cache, workers=args.workers
    )
    elapsed = time.perf_counter() - t0
    print(
        f"devices={scenario.num_devices} eps={args.eps} "
        f"budget sweep over multipliers {factors}"
    )
    for budgets, k, sol in zip(points, factors, solutions):
        print(
            f"  x{k}: chargers={sum(budgets.values())} "
            f"selected={len(sol.strategies)} utility={sol.utility:.4f}"
        )
    stats = cache.stats()
    print(
        f"{len(factors)} solves in {elapsed:.3f}s — extractions paid: "
        f"{stats['misses']}, warm starts: {stats['hits']}"
    )
    return 0


def _cmd_report(args) -> int:
    from .experiments.report import generate_report

    path = generate_report(
        args.out,
        include=[x for x in args.sections.split(",") if x],
        repeats=args.repeats,
    )
    print(f"wrote {path}")
    return 0


def _cmd_validate(args) -> int:
    from .io import load_scenario
    from .model import validate_scenario

    scenario, _strategies = load_scenario(args.path)
    report = validate_scenario(scenario, check_reachability=not args.no_reachability)
    print(report.format())
    return 0 if report.ok else 1


def _cmd_compare(args) -> int:
    from .experiments import fig10_instance

    result = fig10_instance(
        seed=args.seed, charger_multiple=args.chargers, device_multiple=args.devices
    )
    print(result.format())
    return 0


def _cmd_figure(args) -> int:
    from .experiments import figures

    fn = {
        "fig11a": figures.fig11a_num_chargers,
        "fig11b": figures.fig11b_num_devices,
        "fig11c": figures.fig11c_charging_angle,
        "fig11d": figures.fig11d_receiving_angle,
        "fig11e": figures.fig11e_power_threshold,
        "fig11f": figures.fig11f_dmin,
        "fig12": figures.fig12_distributed_time,
        "fig13": figures.fig13_threshold_deltas,
        "fig14": figures.fig14_dmin_dmax_surface,
    }[args.name]
    table = fn(repeats=args.repeats)
    print(table.format())
    if args.csv:
        table.to_csv(args.csv)
        print(f"wrote {args.csv}")
    return 0


def _cmd_field(args) -> int:
    from .experiments import field_comparison, field_scenario

    result = field_comparison()
    print(result.format())
    if args.svg:
        from .experiments.svg_map import save_svg

        save_svg(args.svg, field_scenario(), result.placements["HIPO"])
        print(f"wrote {args.svg}")
    return 0


def _cmd_serve(args) -> int:
    from .serve import run_server

    return run_server(
        host=args.host,
        port=args.port,
        pool_size=args.pool_size,
        queue_size=args.queue_size,
        cache_entries=args.cache_size,
        cache_bytes=args.cache_bytes,
        candidate_cache_entries=args.candidate_cache_size,
        candidate_cache_bytes=args.candidate_cache_bytes,
        candidate_cache_dir=args.candidate_cache,
        default_timeout_s=args.timeout,
        verbose=not args.quiet,
    )


def _cmd_lint(args) -> int:
    from .analysis import main as lint_main

    argv = list(args.paths or [])
    argv += ["--format", args.format]
    if args.select:
        argv += ["--select", args.select]
    if args.ignore:
        argv += ["--ignore", args.ignore]
    if args.strict:
        argv.append("--strict")
    if args.list_rules:
        argv.append("--list-rules")
    return lint_main(argv, prog="repro lint")


def _cmd_vary(args) -> int:
    from .variation.cli import main as vary_main

    argv = [
        "--families", args.families,
        "--budget", str(args.budget),
        "--seed", str(args.seed),
        "--eps", str(args.eps),
        "--strategy", args.strategy,
        "--invariants", args.invariants,
        "--out", args.out,
        "--shrink-evals", str(args.shrink_evals),
        "--workers", str(args.workers),
    ]
    for flag in ("no_rotate", "json", "quiet", "list_families", "list_invariants"):
        if getattr(args, flag):
            argv.append("--" + flag.replace("_", "-"))
    if args.replay:
        argv += ["--replay", args.replay]
    return vary_main(argv, prog="repro vary")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "compare": _cmd_compare,
        "figure": _cmd_figure,
        "field": _cmd_field,
        "report": _cmd_report,
        "validate": _cmd_validate,
        "serve": _cmd_serve,
        "lint": _cmd_lint,
        "vary": _cmd_vary,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
