"""The benchmark's per-layer hooks must find their functions.

`bench/tracer.py` times each layer by replacing the functions named in
its LAYERS table, and leaves out the metrics of any name that no longer
resolves, so a refactor that renames or deletes a hooked function would
silently drop metrics from a traced benchmark run. This check loads the
tracer (without editing it) and resolves every entry with the tracer's
own lookup.
"""

import importlib.util
from pathlib import Path

import lrcfm
import lrcfm.cli  # noqa: F401  (imports every module the tracer hooks)

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tracer = load_tracer()
    missing = [name for name, sites, _ in tracer.LAYERS
               if all(tracer._resolve(lrcfm, site) == (None, None)
                      for site in sites)]
    assert missing == []
