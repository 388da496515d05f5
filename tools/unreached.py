"""List the functions of ``src/fivm`` that neither the CLI nor the benchmark enters.

    python3 tools/unreached.py

Run from the root of a checkout. Under ``sys.setprofile`` it replays the
CLI loop of CI over every bundled scenario (``compile``, ``verify``,
``run`` with ``--export`` and with ``--metrics``, ``run`` on both
baselines, ``enumerate`` with and without ``--export``), then the four
``perfbench`` workloads for one second each, and records every code object
it enters. Every function or method defined in ``src/fivm`` whose code
never ran is printed with its file, lines and the reason ``KEEP`` gives
for it. The exit status is 1 when a never-entered function is missing
from ``KEEP``, or when ``KEEP`` names a function that ran or no longer
exists: such a function is either deleted or given its reason here.
"""

from __future__ import annotations

import ast
import contextlib
import glob
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "fivm")
PERFBENCH = os.path.join(ROOT, "perfbench")
WORKLOADS = ("chain_int", "qhier_listing", "housing_cov", "mcm_p64")

_TRACED = "the benchmark's tracer wraps it (perfbench/tracing.py TARGETS)"
_FDS = "a scenario's `fds` key under a canonical order reaches it"
_REPR = "a debugging aid"
KEEP = {
    "rings.ring_add": _TRACED,
    "rings.ring_mul": _TRACED,
    "rings.is_zero": _TRACED,
    "relations.Relation.accumulate": _TRACED,
    "relations.Relation.index_lookup": _TRACED,
    "relations.rel_join": _TRACED,
    "ivm.RuntimeState.recompute_oracle":
        "qhier_listing's check calls it, in a forked child the profile does not follow",
    "queries.fd_closure": _FDS,
    "queries.sigma_reduct": _FDS,
    "queries.FDSet.__init__": _FDS,
    "queries.FDSet.__bool__": _FDS,
    "harness.scenario._fd": _FDS,
    "apps.export_mi_csv": "`fivm run --export` on a mutual-information app calls it",
    "apps.Binned.__post_init__": "a scenario's binned slot builds a Binned",
    "apps.Binned.bin_of": "a scenario's binned slot bins its values with it",
    "rings.lift_identity": "a scenario's `identity` lift builds it",
    "harness.cli._at_least.count": "argparse calls it on `--batch-size`, `--intvl` and `--limit`",
    "rings._rp_project": "the relational sum of mismatched schemas meets on shared columns",
    "rings._rp_neg": "the relational ring's negation, which a delete of a relational payload takes",
    "rings.RelationalPayload.__neg__":
        "a covariance triple over a relational base negates its entries with unary minus",
    "relations.DenseCells.__delitem__": "MutableMapping requires it",
    "relations._CellIndex.get": "a dense relation's index answers the probes a dict index does",
    "relations._CellIndex.values": "a dense relation's index answers the probes a dict index does",
    "queries.VariableOrder.to_nested": "VariableOrder.__repr__ calls it",
    "queries.VariableOrder.to_nested.render": "VariableOrder.to_nested recurses through it",
    "rings.relational_payload": "the one payload constructor that puts columns in canonical order",
    "rings.relational_ring": "the relational ring's constructor, beside the other three rings'",
    "harness.scenario.bundled_scenarios": "it names the scenarios the package ships",
    "ivm.RuntimeState._rebound": "a self join's second occurrence reaches it",
    "apps.DivergenceError.__init__": "gradient descent raises it when the gradient norm grows",
    "queries.Query.__repr__": _REPR,
    "queries.VariableOrder.__repr__": _REPR,
    "queries.FDSet.__repr__": _REPR,
    "relations.Relation.__repr__": _REPR,
    "rings.RelationalPayload.__repr__": _REPR,
    "rings.CovarianceTriple.__repr__": _REPR,
    "viewtree.ViewNode.__repr__": _REPR,
}


def defined_functions() -> dict:
    """Every function or method of the package, by qualified name:
    ``(path, first line, last line)``; the first line is the first
    decorator's, which is where the code object starts."""
    found = {}
    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"), recursive=True)):
        module = os.path.relpath(path, PACKAGE)[:-3].replace(os.sep, ".")
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = f"{prefix}.{child.name}"
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[name] = (path, first, child.end_lineno)
                    visit(child, name)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}.{child.name}")
                else:
                    visit(child, prefix)

        visit(tree, module.removesuffix(".__init__"))
    return found


def _cli_loop(tmp: str) -> None:
    from fivm.harness.cli import main

    for path in sorted(glob.glob(os.path.join(PACKAGE, "scenarios", "*.json"))):
        name = os.path.basename(path)[:-5]
        out = os.path.join(tmp, name)
        for argv in (
            ["compile"],
            ["verify"],
            ["run", "--export", f"{out}.csv"],
            ["run", "--metrics", f"{out}.metrics.csv"],
            ["run", "--engine", "first_order", "--metrics", f"{out}.first_order.csv"],
            ["run", "--engine", "reevaluate", "--metrics", f"{out}.reevaluate.csv"],
            ["enumerate"],
            ["enumerate", "--export", f"{out}.listing.csv"],
        ):
            main([argv[0], "-s", path, *argv[1:]])


def _workloads() -> None:
    import run

    for name in WORKLOADS:
        if run.main(["--workload", name, "--seed", "1", "--seconds", "1"]) != 0:
            raise SystemExit(f"perfbench workload {name} failed its check")


def entered() -> set:
    """``(path, first line)`` of every code object the CLI loop and the
    workloads enter."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.path[:0] = [SRC, PERFBENCH]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            _cli_loop(tmp)
            _workloads()
        finally:
            sys.setprofile(None)
    return {(code.co_filename, code.co_firstlineno) for code in seen}


def main() -> int:
    functions = defined_functions()
    ran = entered()
    unreached = {
        name: span for name, span in functions.items() if (span[0], span[1]) not in ran
    }
    missing = []
    lines = 0
    for name, (path, first, last) in unreached.items():
        reason = KEEP.get(name)
        if reason is None:
            missing.append(name)
        lines += last - first + 1
        where = f"{os.path.relpath(path, ROOT)}:{first}-{last}"
        print(f"{name}  {where}  {reason or 'NOT IN KEEP'}")
    total = sum(last - first + 1 for _, first, last in functions.values())
    print(f"{len(unreached)} of {len(functions)} functions never entered: {lines} of {total} lines")
    stale = sorted(set(KEEP) - set(unreached))
    for name in stale:
        why = "ran" if name in functions else "is not defined"
        print(f"KEEP names {name}, which {why}", file=sys.stderr)
    for name in missing:
        print(f"{name} never ran and has no reason in KEEP", file=sys.stderr)
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
