"""The benchmark's tracer wraps ``cbiou`` attributes by name, and its
workloads call ``cbiou``'s API; a renamed layer or a changed call must fail
here, not only in a benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(name: str):
    """``module.attr`` in ``cbiou``; a method is named after its module, as
    ``tracker.step`` is ``CBiouTracker.step``."""
    module_name, attr = name.split(".")
    module = importlib.import_module(f"cbiou.{module_name}")
    if hasattr(module, attr):
        return getattr(module, attr)
    owners = [
        cls
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__ and hasattr(cls, attr)
    ]
    assert len(owners) == 1, f"{name} names no single function or method in cbiou.{module_name}"
    return getattr(owners[0], attr)


def test_timed_names_resolve_to_callables():
    tracing = load_tracing()
    assert tracing.TIMED
    for name in tracing.TIMED:
        assert callable(resolve(name)), name


def test_instrument_wraps_and_restores():
    tracing = load_tracing()
    originals = {name: resolve(name) for name in tracing.TIMED}
    with tracing.instrumented(tracing.Tracer()):
        assert all(resolve(name) is not originals[name] for name in tracing.TIMED)
    assert all(resolve(name) is originals[name] for name in tracing.TIMED)


WORKLOADS = TRACING.with_name("workloads.py")


class StubClock:
    def scale(self) -> float:
        return 1.0


def test_workloads_run_at_tiny_sizes(tmp_path, monkeypatch):
    # workloads.py imports its sibling module as ``tracing``, and its
    # dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, "tracing", load_tracing())
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for name, cls in workloads.WORKLOADS.items():
        workdir = tmp_path / name
        workdir.mkdir()
        workload = cls(cls.TINY, workdir)
        inputs = workload.setup(1)
        workload.prepare(inputs)
        units = workload.run_round(inputs, StubClock())
        assert units and all(unit.ok for unit in units), name
