"""Compressive sensing with Hadamard measurements and Haar sparsity.

Fast Paley-ordered Walsh-Hadamard and Haar wavelet transforms (1-D, 2-D
tensor-product and 2-D multiresolution), exact local and multilevel
coherence profiles with dense brute-force counterparts, uniform / variable
/ multilevel density samplers, l1 and minimal-energy reconstruction, test
signals and an experiment harness.
"""

__version__ = "0.1.0"

from .indexing import (PARTITION_KINDS, LevelPartition, build_levels,
                       flatten_cartesian, index_to_pair, pair_to_index)
from .transforms import (BASIS_TAGS, BasisKind, CoefficientLayout,
                         coefficient_layout, dense_basis,
                         dense_window_matrix, fwht, haar_transform, unvec,
                         vec)
from .coherence import (MODES, SYSTEM_TAGS, CoherenceProfile,
                        MultilevelProfile, StructureReport, SystemKind,
                        local_coherence, multilevel_coherence,
                        relative_sparsity, structure_check, system_matrix)
from .sampling import (RNG_ALGORITHM, STRATEGIES, InfeasibleError, SampleSet,
                       SamplingPlan, draw_sample, mds_allocate, measure,
                       measure_adjoint, rng_stream, uds_pmf, vds_pmf)
from .signals import (SIGNAL_KINDS, SRE_CAP_DB, EffectiveSparsity, NoiseDraw,
                      NoiseSpec, best_term_l1_error, blocks, bumps, doppler,
                      effective_sparsity, gaussian_bump, generate,
                      hard_threshold, heavisine, load_signal_csv, make_noise,
                      noise_sigma, save_image_csv, save_pgm, save_signal_csv,
                      shepp_logan, sre_db, sre_from_ratios)
from .recovery import (RecoveryProblem, RecoveryReport, me_reconstruct,
                       solve_bpdn, solve_bpdn_batch)

__all__ = [
    "__version__",
    "PARTITION_KINDS", "LevelPartition", "build_levels", "flatten_cartesian",
    "index_to_pair", "pair_to_index",
    "BASIS_TAGS", "BasisKind", "CoefficientLayout", "coefficient_layout",
    "dense_basis", "dense_window_matrix", "fwht", "haar_transform", "unvec",
    "vec",
    "MODES", "SYSTEM_TAGS", "CoherenceProfile", "MultilevelProfile",
    "StructureReport", "SystemKind", "local_coherence",
    "multilevel_coherence", "relative_sparsity", "structure_check",
    "system_matrix",
    "RNG_ALGORITHM", "STRATEGIES", "InfeasibleError", "SampleSet",
    "SamplingPlan", "draw_sample", "mds_allocate", "measure",
    "measure_adjoint", "rng_stream", "uds_pmf", "vds_pmf",
    "SIGNAL_KINDS", "SRE_CAP_DB", "EffectiveSparsity", "NoiseDraw",
    "NoiseSpec", "best_term_l1_error", "blocks", "bumps", "doppler",
    "effective_sparsity", "gaussian_bump", "generate", "hard_threshold",
    "heavisine", "load_signal_csv", "make_noise", "noise_sigma",
    "save_image_csv", "save_pgm", "save_signal_csv", "shepp_logan", "sre_db",
    "sre_from_ratios",
    "RecoveryProblem", "RecoveryReport", "me_reconstruct", "solve_bpdn",
    "solve_bpdn_batch",
]
