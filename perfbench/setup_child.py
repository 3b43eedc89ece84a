"""Set-up probe, run in a fresh interpreter: import the CLI, then generate
and weight each (dataset, model) graph, exactly as ``repro select`` does.

Usage: ``python setup_child.py '[["nethept", "WC"], ...]'`` with ``src`` on
``PYTHONPATH``; prints one JSON line of phase timings.
"""

import json
import sys
import time

started = time.perf_counter()
import repro.cli  # noqa: E402,F401  (timed: the CLI's import cost)

imported = time.perf_counter()

import numpy as np  # noqa: E402
from repro import datasets, diffusion  # noqa: E402

load_s = weighted_s = 0.0
for name, model_name in json.loads(sys.argv[1]):
    t0 = time.perf_counter()
    topology = datasets.load(name)
    t1 = time.perf_counter()
    diffusion.model_by_name(model_name).weighted(topology, np.random.default_rng(0))
    t2 = time.perf_counter()
    load_s += t1 - t0
    weighted_s += t2 - t1

print(json.dumps({
    "import_s": imported - started,
    "load_s": load_s,
    "weighted_s": weighted_s,
    "total_s": time.perf_counter() - started,
}))
