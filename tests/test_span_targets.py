"""The traced benchmark server's span targets still resolve.

``perfbench/spans.py`` wraps each ``(module, attribute path)`` entry of
its ``TARGETS`` list by name, and rebinds the module-level ones in the
modules of ``ALIASES``; a rename or removal in ``src/`` would make a
traced run fail at start-up.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_and_alias_resolves():
    spans = load_spans()
    for module_name, path, _size in spans.TARGETS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, path)
    module_level = {
        path: module_name
        for module_name, path, _size in spans.TARGETS
        if "." not in path
    }
    for name, modules in spans.ALIASES.items():
        target = getattr(importlib.import_module(module_level[name]), name)
        for module_name in modules:
            assert getattr(importlib.import_module(module_name), name) is target
