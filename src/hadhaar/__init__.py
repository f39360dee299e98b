"""Compressive sensing with Hadamard measurements and Haar sparsity.

Fast Paley-ordered Walsh-Hadamard and Haar wavelet transforms (1-D, 2-D
tensor-product and 2-D multiresolution), exact local and multilevel
coherence profiles with dense brute-force counterparts, uniform / variable
/ multilevel density samplers, l1 and minimal-energy reconstruction, test
signals and an experiment harness.
"""

__version__ = "0.1.0"

# the public names are each module's __all__
from .indexing import *
from .transforms import *
from .coherence import *
from .sampling import *
from .signals import *
from .recovery import *
from . import coherence, indexing, recovery, sampling, signals, transforms

__all__ = ["__version__"] + [
    name for module in (indexing, transforms, coherence, sampling, signals,
                        recovery)
    for name in module.__all__]
