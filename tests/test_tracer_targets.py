"""The benchmark's per-layer wrappers still find the functions they time."""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# targets whose function is gone; their per-layer metrics read 0 until the
# next change to the benchmark drops or replaces them
DEAD = {
    ("fourier", "hansen"),
    ("hansen", "hansen_k0_recursive"),
    ("cli", "hansen_k0_recursive"),
    ("atlas", "PolyEval.on_grid"),
}


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_but_the_dead_ones():
    # resolved as `Tracer.install` resolves them, which skips a missing target
    # without a word: a renamed function would silently zero its metrics
    tracer = _tracer_module()
    modules = {name: importlib.import_module(f"hansenatlas.{name}") for name in tracer.Tracer.MODULES}
    unresolved = set()
    for module_name, path, _ in tracer.TARGETS:
        owner = modules[module_name]
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if owner is None:
            fn = None
        else:
            fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is None:
            unresolved.add((module_name, path))
    assert unresolved == DEAD
    assert callable(getattr(modules["atlas"], "_bisect_edges", None))
