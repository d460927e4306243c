"""Every layer the traced benchmark wraps still exists.

``perfbench/tracer.py::install`` runs as Ray's worker_process_setup_hook
and replaces each ``(module, attribute)`` of ``LAYERS``; if one is
missing the hook raises, Ray drains every worker, and every traced run
fails.  Renaming or deleting a layer function must fail here first.
"""

import importlib
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.tracer import LAYERS  # noqa: E402


def test_every_traced_layer_resolves():
    for layer, (module, attribute) in LAYERS.items():
        obj = importlib.import_module(module)
        for part in attribute.split("."):
            assert hasattr(obj, part), f"{layer}: {module}.{attribute} is gone"
            obj = getattr(obj, part)
        assert callable(obj), f"{layer}: {module}.{attribute} is not callable"
