"""``scripts/bench.py``'s profile layers name functions that exist."""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"


def test_every_bench_layer_resolves_to_a_function():
    # ``profile_key`` raises on a stale name, which the profile pass would otherwise
    # meet only minutes into a run; each layer is a distinct function.
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    keys = [bench.profile_key(layer) for layer in bench.LAYERS]
    assert len(set(keys)) == len(bench.LAYERS)
