import importlib.util
import sys
from pathlib import Path

import hadhaar
from hadhaar import (coherence, indexing, recovery, sampling, signals,
                     transforms)

MODULES = (indexing, transforms, coherence, sampling, signals, recovery)


def test_public_names_are_the_module_lists():
    names = hadhaar.__all__
    assert len(names) == len(set(names)) == 69
    assert set(names) == {"__version__"}.union(*(m.__all__ for m in MODULES))
    for name in names:
        getattr(hadhaar, name)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(hadhaar, name) is getattr(module, name)


def test_layer_bench_imports(monkeypatch):
    # benchmarks/layers.py uses private names of the package; importing it,
    # without running its main(), catches a rename of any of them
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "layers.py"
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert callable(layers.main)
