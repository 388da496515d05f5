"""Replay harness: scenario files, synthesized streams, engine baselines.

Everything here exists to drive the maintenance engine the way a
deployment would: load a scenario description, stream batched updates
into it, and either record per-batch metrics or cross-check the
maintained results against two independent baselines.
"""

from .scenario import (
    CompiledScenario,
    Scenario,
    ScenarioError,
    bundled_scenarios,
    compile_scenario,
    load_scenario,
)
from .streams import StreamEvent, synthesize_stream
from .engines import (
    ENGINE_NAMES,
    METRIC_COLUMNS,
    emit_metrics,
    make_engine,
    run_scenario,
    verify_scenarios,
)

__all__ = [
    "Scenario",
    "ScenarioError",
    "CompiledScenario",
    "load_scenario",
    "compile_scenario",
    "bundled_scenarios",
    "StreamEvent",
    "synthesize_stream",
    "ENGINE_NAMES",
    "METRIC_COLUMNS",
    "make_engine",
    "run_scenario",
    "verify_scenarios",
    "emit_metrics",
]
