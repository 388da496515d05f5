"""The switch finder of ``tools/unreached.py``."""

from __future__ import annotations

import ast
import importlib.util
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("unreached", ROOT / "tools" / "unreached.py")
unreached = importlib.util.module_from_spec(spec)
spec.loader.exec_module(unreached)

SOURCE = '''\
from functools import lru_cache


@lru_cache(maxsize=8)
def cached(a, b=2):
    return a + b


class Holder:
    @staticmethod
    @lru_cache(maxsize=8)
    def held(a, c=3):
        return a + c
'''


def test_a_cached_function_with_a_default_is_a_switch_of_its_wrapped_code(
    monkeypatch, tmp_path
):
    """An ``lru_cache`` wrapper has no ``__code__``: the switch is keyed by
    the wrapped function's code, the one a call enters."""
    path = tmp_path / "probe.py"
    path.write_text(SOURCE)
    module = types.ModuleType("fivm.probe")
    exec(compile(SOURCE, str(path), "exec"), module.__dict__)
    monkeypatch.setitem(sys.modules, "fivm.probe", module)
    monkeypatch.setattr(
        unreached, "_modules", lambda: [("probe", str(path), ast.parse(SOURCE))]
    )
    found = unreached.defined_switches()
    assert found == {
        "probe.cached(b)": (module.cached.__wrapped__.__code__, "b", 2, str(path), 5),
        "probe.Holder.held(c)": (module.Holder.held.__wrapped__.__code__, "c", 3, str(path), 12),
    }
