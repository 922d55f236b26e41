"""Equations, ED degrees and critical points of 1D linear convolutional networks."""

from .arch import (
    Architecture,
    compose_filters,
    conv_matrix,
    pi_s,
    reduce_arch,
    sample_neuromanifold,
)
from .critpoints import (
    WeightedDistanceProblem,
    psi_map,
    solve_critical_points,
    training_reduce,
)
from .decomp import DecompProfile, profile, s_decompose, s_recompose
from .eddegree import (
    arch_ed_degree,
    fully_connected_count,
    generic_ed_degree,
    merge_tree,
    two_layer_table,
)
from .idealgen import check_membership_sample, vanishing_generators
from .polyring import (
    MultiPoly,
    PolyMatrix,
    coefficient_symbols,
    determinant,
    minors,
    symbols,
)
from .resultant import (
    IdealGenerators,
    build_resultant,
    plan_two_layer,
    two_layer_ideal,
)
from .verify import exact_rank, smoke_nonmembership, verify_ideal

__all__ = [
    "Architecture",
    "DecompProfile",
    "IdealGenerators",
    "MultiPoly",
    "PolyMatrix",
    "WeightedDistanceProblem",
    "arch_ed_degree",
    "build_resultant",
    "check_membership_sample",
    "coefficient_symbols",
    "compose_filters",
    "conv_matrix",
    "determinant",
    "exact_rank",
    "fully_connected_count",
    "generic_ed_degree",
    "merge_tree",
    "minors",
    "pi_s",
    "plan_two_layer",
    "profile",
    "psi_map",
    "reduce_arch",
    "s_decompose",
    "s_recompose",
    "sample_neuromanifold",
    "smoke_nonmembership",
    "solve_critical_points",
    "symbols",
    "training_reduce",
    "two_layer_ideal",
    "two_layer_table",
    "vanishing_generators",
    "verify_ideal",
]

__version__ = "0.1.0"
