"""The benchmark's hooks into ``src/`` still resolve.

perfbench times each layer by patching the entry points its
``spans.LAYERS`` table names.  Installing the full table imports every
module and looks up every function and method on it, so a deleted or
renamed entry point fails here instead of on the next traced benchmark
run.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


def test_every_layer_entry_point_installs_and_uninstalls():
    spans = _load_spans()
    recorder = spans.Recorder()
    recorder.install(spans.LAYERS)
    patches = list(recorder._patches)
    recorder.uninstall()
    targets = {target for targets in spans.LAYERS.values() for target in targets}
    assert len(patches) >= len(targets)
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original
