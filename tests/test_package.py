import hadhaar
from hadhaar import (coherence, indexing, recovery, sampling, signals,
                     transforms)

MODULES = (indexing, transforms, coherence, sampling, signals, recovery)


def test_public_names_are_the_module_lists():
    names = hadhaar.__all__
    assert len(names) == len(set(names)) == 68
    assert set(names) == {"__version__"}.union(*(m.__all__ for m in MODULES))
    for name in names:
        getattr(hadhaar, name)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(hadhaar, name) is getattr(module, name)
