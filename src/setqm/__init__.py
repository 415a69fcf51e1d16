"""Exact toy quantum mechanics on GF(2).

States are subsets of a finite universe viewed as vectors over Z2,
probabilities are exact rationals, measurement is a partition join, and
circuits run on nonsingular 0/1 gates.
"""

from .errors import SetQMError
from .gf2 import BitVec, GF2Matrix, add, invert, is_nonsingular, kron, mat_apply, mat_mul, solve
from .space import (
    BasisFrame,
    KetTable,
    SubsetKet,
    Universe,
    born,
    bracket,
    from_basis,
    ket_table,
    norm_sq,
    resolve,
    to_basis,
)
from .partitions import (
    DitSet,
    Partition,
    block_entropy_relation,
    dit_set,
    iter_partitions,
    join,
    logical_entropy,
    refines,
    shannon_entropy,
)
from .attributes import (
    Attribute,
    MeasurementOutcome,
    eigenkets,
    inverse_image_partition,
    is_compatible,
    is_complete,
    measure,
    measure_given,
    measure_probs,
    project,
    spectral_apply,
)
from .density import (
    DensityMatrix,
    entropy_increase,
    expectation,
    logical_entropy_rho,
    measure_density,
    purity,
    rho_of_partition,
    rho_of_subset,
)
from .dynamics import (
    Dynamics,
    SlitConfig,
    double_slit,
    double_slit_sample,
    evolve,
    evolved_frame,
    interference_coefficients,
)
from .entangle import (
    BellReport,
    CounterfactualReport,
    JointDistribution,
    ProductState,
    ProductUniverse,
    bell_basis_frames,
    bell_violation,
    counterfactual_joint,
    is_independent,
    is_separated,
    joint,
    left_measure_prob,
    marginals,
    product_to_frame,
    right_measure_prob,
    sequential_pair_prob,
    supports,
)
from .qc import (
    MAX_LINES,
    BooleanFunction,
    Gate,
    ParitySatResult,
    Register,
    TeleportTrace,
    apply,
    apply_ef,
    deutsch,
    ef_gate,
    line_probs,
    measure_line,
    measure_line_given,
    parity_sat,
    standard_gate,
    teleport,
    unambiguous_sat,
)
from .dsl import CircuitAst, RunResult, parse, render, run

__all__ = [name for name in dir() if not name.startswith("_")]
