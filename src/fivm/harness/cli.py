"""Command-line front end over the scenario harness.

Four commands cover the workflow: ``compile`` shows what the planner
would maintain and which of it is stored dense, the path each update's
delta climbs with the Python function generated for it, and the steps a
walked listing takes with the payload covers each one reads and the
generator that walks them, ``run`` streams a scenario through one engine,
recording metrics, ``enumerate`` replays a scenario to completion and dumps the
listing, and ``verify`` races all three engines and fails loudly on any
disagreement. Every command compiles its scenarios first, so a bad
setting is refused with exit status 2 before any data moves.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from ..apps import (
    export_chow_liu_csv,
    export_covariance_csv,
    export_mi_csv,
    export_theta_csv,
    write_csv,
)
from ..enumeration import compiled_walk, listing_csv_rows
from ..ivm import RuntimeState
from ..queries import classify
from .engines import (
    ENGINE_NAMES,
    emit_metrics,
    run_scenario,
    verify_scenarios,
)
from .scenario import CompiledScenario, ScenarioError, compile_scenario, load_scenario

__all__ = ["main"]


def _at_least(least: int):
    """An argparse type: an integer no smaller than ``least``, the bound the
    scenario file's own setting has."""

    def count(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"{value} is below {least}")
        return value

    return count


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fivm",
        description="maintain join aggregates over update streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario(p, multiple=False):
        if multiple:
            p.add_argument(
                "--scenario", "-s", action="append", required=True,
                metavar="PATH", help="scenario JSON file (repeatable)",
            )
        else:
            p.add_argument(
                "--scenario", "-s", required=True, metavar="PATH",
                help="scenario JSON file",
            )

    p = sub.add_parser("compile", help="plan a scenario and print the view tree")
    add_scenario(p)

    p = sub.add_parser("run", help="stream a scenario through one engine")
    add_scenario(p)
    p.add_argument("--engine", choices=ENGINE_NAMES, default="fivm")
    p.add_argument("--batch-size", type=_at_least(1), default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--intvl", type=_at_least(0), default=None,
                   help="enumerate every INTVL batches")
    p.add_argument("--metrics", metavar="CSV", default=None,
                   help="write per-batch metrics here")
    p.add_argument("--export", metavar="CSV", default=None,
                   help="write app output (or the final listing) here")

    p = sub.add_parser("enumerate", help="replay fully, then dump the listing")
    add_scenario(p)
    p.add_argument("--limit", type=_at_least(0), default=None)
    p.add_argument("--export", metavar="CSV", default=None)

    p = sub.add_parser("verify", help="race all engines and compare snapshots")
    add_scenario(p, multiple=True)
    p.add_argument("--metrics", metavar="CSV", default=None)
    return parser


def _compiled(path: str) -> CompiledScenario:
    """Load and compile one scenario file; whatever the planner refuses in
    it is a bad setting too, reported like the scenario's own checks."""
    try:
        return compile_scenario(load_scenario(path))
    except ValueError as e:
        raise ScenarioError(str(e)) from None


def _cmd_compile(args) -> int:
    compiled = _compiled(args.scenario)
    scn = compiled.scenario
    tree = compiled.tree
    cls = classify(compiled.query)
    print(f"scenario: {scn.name}")
    print(
        "class: acyclic=%s free_connex=%s hierarchical=%s q_hierarchical=%s"
        % (cls.acyclic, cls.free_connex, cls.hierarchical, cls.q_hierarchical)
    )
    print(f"mode: {tree.mode}   result schema: {compiled.result_schema}")
    print(f"updatable: {', '.join(scn.updatable)}")
    print(tree.dump())
    indexed = [
        (n.id, spec) for n in tree.nodes for spec in n.required_indices
    ]
    for node_id, (probe, group) in indexed:
        grouped = f" grouped by {group}" if group else ""
        print(f"index on {node_id}: probe {','.join(probe) or '()'}{grouped}")
    state = RuntimeState(tree)
    state.load({})
    for entry_id, steps in tree.delta_paths.items():
        for step in steps:
            line = f"delta {entry_id}: {step.node.id} <- {step.via_id}"
            for sib_id, route in step.joins:
                if route == "primary":
                    line += f"; {sib_id} by key"
                elif route is None:
                    line += f"; {sib_id} by scan"
                else:
                    line += f"; {sib_id} by index on {','.join(route[0])}"
            print(line)
        for line in state.climb_source(entry_id).splitlines():
            print(f"    {line}")
    for (var, view_id, probe), group in zip(tree.listing_steps, tree.listing_covers):
        ids = ", ".join(n.id for n in group) or "()"
        print(f"list {var}: {view_id} probe {','.join(probe) or '()'}; covers {ids}")
    if tree.listing_steps:
        for line in compiled_walk(state).source.splitlines():
            print(f"    {line}")
    return 0


def _cmd_run(args) -> int:
    compiled = _compiled(args.scenario)
    scn = compiled.scenario
    if args.export and scn.app is None and args.engine != "fivm":
        raise ScenarioError(
            f"--export without an app writes the maintained listing, which only "
            f"the fivm engine keeps (got --engine {args.engine})"
        )
    report = run_scenario(
        compiled,
        engine_name=args.engine,
        batch_size=args.batch_size,
        seed=args.seed,
        intvl=args.intvl,
    )
    total = sum(r[3] for r in report.rows)
    print(f"{scn.name}: {len(report.rows)} batches, {total} tuples, engine {args.engine}")
    if args.metrics:
        emit_metrics(report.rows, args.metrics)
        print(f"metrics -> {args.metrics}")
    if args.export:
        _export_run(args.export, compiled, report)
        print(f"export -> {args.export}")
    return 0


def _export_run(path: str, compiled, report) -> None:
    results = report.app_results
    if "regression" in results:
        export_theta_csv(path, results["regression"])
    elif "chow_liu" in results:
        export_chow_liu_csv(path, results["chow_liu"], results["mi"])
    elif "mi" in results:
        export_mi_csv(path, results["mi"])
    elif "covariance" in results:
        export_covariance_csv(
            path, compiled.query.ring, compiled.slots, results["covariance"]
        )
    else:
        write_csv(path, *listing_csv_rows(report.engine.state))


def _cmd_enumerate(args) -> int:
    compiled = _compiled(args.scenario)
    scn = compiled.scenario
    if compiled.query.ring.flat is None:
        raise ScenarioError(f"{scn.name}: triples over grouped scalars have no flat CSV form")
    report = run_scenario(compiled, engine_name="fivm")
    header, rows = listing_csv_rows(report.engine.state, limit=args.limit)
    if args.export:
        count = write_csv(args.export, header, rows)
        print(f"{scn.name}: {count} rows -> {args.export}")
    else:
        write_csv(sys.stdout, header, rows, lineterminator="\n")
    return 0


def _cmd_verify(args) -> int:
    compiled = [_compiled(p) for p in args.scenario]
    verdicts = [verify_scenarios([c]) for c in compiled]
    if args.metrics:
        rows = [row for _, _, scn_rows in verdicts for row in scn_rows]
        emit_metrics(sorted(rows, key=lambda r: r[:3]), args.metrics)
    for c, (ok, _, _) in zip(compiled, verdicts):
        print(f"{c.scenario.name}: {'ok' if ok else 'FAIL'}")
    for _, problems, _ in verdicts:
        for msg in problems:
            print(f"  {msg}", file=sys.stderr)
    return 0 if all(ok for ok, _, _ in verdicts) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "compile":
            return _cmd_compile(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "enumerate":
            return _cmd_enumerate(args)
        if args.command == "verify":
            return _cmd_verify(args)
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
