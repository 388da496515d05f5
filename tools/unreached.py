"""List what of ``src/fivm`` neither the CLI nor the benchmark uses: the
functions they never enter and the switches they never set.

    python3 tools/unreached.py

Run from the root of a checkout. Under ``sys.setprofile`` it replays the
CLI loop of CI over every bundled scenario (``compile``, ``verify``,
``run`` with ``--export`` and with ``--metrics``, ``run`` on both
baselines, ``enumerate`` with and without ``--export``, and on
``count_chain`` the overrides of ``run`` and ``enumerate``), then the four
``perfbench`` workloads for one second each, and records every code object
it enters.

A switch is a defaulted parameter of a module- or class-level function or
method, a dataclass's generated ``__init__`` included (keyed by the class,
``apps.Binned(bins)``). A call sets it when the value it gets is neither
the default itself nor ``==`` to it; a comparison that raises counts as set.

Two reports are printed: every function whose code never ran, with its
file, lines and reason, then every switch no call set, with its file, line
and reason. A function the benchmark's tracer wraps (``TARGETS`` in
``perfbench/tracing.py``) has that as its reason; every other reason is
in ``KEEP``, and a switch of a never-entered function without one of its
own has its function's. The exit status is 1 when a never-entered
function or never-set switch has no reason, or when ``KEEP`` names one that
ran, was set or no longer exists: such a function or switch is either
deleted or given its reason here.
"""

from __future__ import annotations

import ast
import contextlib
import glob
import importlib
import inspect
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
_COUNT = "a running total starts at zero"
_GET = "`Mapping.get` takes a default"
_TOLERANCE = "a float ring's constructor takes the zero tolerance RingSpec checks"
KEEP = {
    # functions never entered
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
    "apps.DivergenceError.__init__": "gradient descent raises it when the gradient norm grows",
    "queries.Query.__repr__": _REPR,
    "queries.VariableOrder.__repr__": _REPR,
    "queries.FDSet.__repr__": _REPR,
    "relations.Relation.__repr__": _REPR,
    "rings.RelationalPayload.__repr__": _REPR,
    "rings.CovarianceTriple.__repr__": _REPR,
    "viewtree.ViewNode.__repr__": _REPR,
    # switches never set; one of a function never entered has that function's reason
    "apps.Binned(bins)": "a scenario's binned kind with `bins` sets it; no bundled scenario has one",
    "harness.scenario._int(where)": "a binned kind's `bins` passes it to name the kind in errors",
    "rings.lift_categorical(valuer)": "a binned slot passes its Binned.bin_of",
    "queries.Query.checked(schema)": "a factorized delta's dict factor passes its own schema",
    "relations.Relation.accumulate_all(moves)": f"Relation.accumulate passes it; {_TRACED}",
    "relations.from_pairs(counters)": "it hands Relation's own `counters` through",
    "relations.from_pairs(name)": "it hands Relation's own `name` through",
    "relations.DenseCells.get(default)": _GET,
    "relations._CellIndex.get(default)": _GET,
    "relations.OpCounters(entry_reads)": _COUNT,
    "relations.OpCounters(entry_writes)": _COUNT,
    "relations.OpCounters(index_probes)": _COUNT,
    "harness.engines.RunReport(app_results)": "the apps fill it in after the run",
    "rings.RingSpec(zero_tolerance)": "a scenario's ring document sets it; no bundled scenario does",
    "rings.real_ring(zero_tolerance)": _TOLERANCE,
    "rings.covariance_ring(zero_tolerance)": _TOLERANCE,
}


def _modules():
    """``(module name, path, syntax tree)`` of every module of the package."""
    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"), recursive=True)):
        module = os.path.relpath(path, PACKAGE)[:-3].replace(os.sep, ".")
        with open(path) as fh:
            yield module.removesuffix(".__init__"), path, ast.parse(fh.read(), path)


def defined_functions() -> dict:
    """Every function or method of the package, by qualified name:
    ``(path, first line, last line)``; the first line is the first
    decorator's, which is where the code object starts."""
    found = {}
    for module, path, tree in _modules():

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

        visit(tree, module)
    return found


def _defaulted(args: ast.arguments) -> list:
    """The parameters of a signature that have defaults."""
    positional = args.posonlyargs + args.args
    named = positional[len(positional) - len(args.defaults):]
    return named + [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
        for d in node.decorator_list
    )


def defined_switches() -> dict:
    """Every switch of the package, by ``module.Qual(param)``:
    ``(code object, parameter, default, path, line)``."""
    found = {}
    for module, path, tree in _modules():
        mod = importlib.import_module(f"fivm.{module}" if module != "__init__" else "fivm")
        scopes = [(tree, mod, "")] + [
            (c, getattr(mod, c.name), f"{c.name}.")
            for c in tree.body if isinstance(c, ast.ClassDef)
        ]
        for node, owner, prefix in scopes:
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    params = [(a.arg, a.lineno) for a in _defaulted(child.args)]
                    if not params:
                        continue
                    fn = inspect.getattr_static(owner, child.name)
                    fn = getattr(fn, "__func__", fn)
                    qual = f"{prefix}{child.name}"
                elif isinstance(child, ast.ClassDef) and node is tree and _is_dataclass(child):
                    fn = getattr(mod, child.name).__init__
                    params = [
                        (s.target.id, s.lineno) for s in child.body
                        if isinstance(s, ast.AnnAssign) and s.value is not None
                    ]
                    qual = child.name
                else:
                    continue
                defaults = inspect.signature(fn).parameters
                for param, line in params:
                    found[f"{module}.{qual}({param})"] = (
                        fn.__code__, param, defaults[param].default, path, line
                    )
    return found


def traced() -> set:
    """The functions the benchmark's tracer wraps, by qualified name."""
    from tracing import TARGETS

    return {
        f"{owner.__module__.removeprefix('fivm.')}.{owner.__qualname__}.{attr}"
        if inspect.isclass(owner) else f"{owner.__name__.removeprefix('fivm.')}.{attr}"
        for _, owner, attr, _ in TARGETS
    }


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
    path = os.path.join(PACKAGE, "scenarios", "count_chain.json")
    main(["run", "-s", path, "--batch-size", "3", "--seed", "5", "--intvl", "1"])
    main(["enumerate", "-s", path, "--limit", "2"])


def _workloads() -> None:
    import run

    for name in WORKLOADS:
        if run.main(["--workload", name, "--seed", "1", "--seconds", "1"]) != 0:
            raise SystemExit(f"perfbench workload {name} failed its check")


def _same(value, default) -> bool:
    """Whether a call passing ``value`` leaves the switch unset; a
    comparison that raises, as an array's truth value does, sets it."""
    if value is default:
        return True
    try:
        return bool(value == default)
    except Exception:
        return False


def replay(switches: dict) -> tuple[set, set]:
    """Replay the CLI loop and the workloads: ``(path, first line)`` of
    every code object they enter, and the keys of the ``switches`` no call
    set."""
    seen = set()
    unset = {}
    for key, (code, param, default, _, _) in switches.items():
        unset.setdefault(code, {})[key] = (param, default)

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        seen.add(code)
        pending = unset.get(code)
        if pending is None:
            return
        values = frame.f_locals
        for key, (param, default) in list(pending.items()):
            if not _same(values[param], default):
                del pending[key]
        if not pending:
            del unset[code]

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            _cli_loop(tmp)
            _workloads()
        finally:
            sys.setprofile(None)
    ran = {(code.co_filename, code.co_firstlineno) for code in seen}
    return ran, {key for pending in unset.values() for key in pending}


def main() -> int:
    sys.path[:0] = [SRC, PERFBENCH]
    functions = defined_functions()
    switches = defined_switches()
    wrapped = traced()
    ran, unset = replay(switches)
    unreached = {
        name: span for name, span in functions.items() if (span[0], span[1]) not in ran
    }

    def reason(name: str):
        return _TRACED if name in wrapped else KEEP.get(name)

    missing = []
    lines = 0
    for name, (path, first, last) in unreached.items():
        why = reason(name)
        if why is None:
            missing.append(name)
        lines += last - first + 1
        where = f"{os.path.relpath(path, ROOT)}:{first}-{last}"
        print(f"{name}  {where}  {why or 'NOT IN KEEP'}")
    total = sum(last - first + 1 for _, first, last in functions.values())
    print(f"{len(unreached)} of {len(functions)} functions never entered: {lines} of {total} lines")
    print()
    for key in sorted(unset, key=lambda k: switches[k][3:]):
        _, _, _, path, line = switches[key]
        function = key.split("(")[0]
        why = KEEP.get(key) or (reason(function) if function in unreached else None)
        if why is None:
            missing.append(key)
        print(f"{key}  {os.path.relpath(path, ROOT)}:{line}  {why or 'NOT IN KEEP'}")
    print(f"{len(unset)} of {len(switches)} switches never set")

    stale = sorted(set(KEEP) - set(unreached) - unset)
    for name in stale:
        why = "ran" if name in functions else "was set" if name in switches else "is not defined"
        print(f"KEEP names {name}, which {why}", file=sys.stderr)
    for name in missing:
        print(f"{name} has no reason in KEEP", file=sys.stderr)
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
