"""stabforge: exact construction and certification of quantum stabilizer
codes from classical codes over finite fields, with a dense Hilbert-space
oracle for desk-scale verification."""

from .bounds import BoundReport, aqc_singleton, aqmds_feasible, gv_exists, hamming, singleton
from .code import (
    DEFAULT_BUDGET,
    DistanceResult,
    LinearCode,
    SymplecticCode,
    additive_code,
    dual,
    hull,
    is_subcode,
    linear_code,
    load_code,
    min_weight,
    min_weight_diff,
    phi_code,
    phi_inv_code,
    save_code,
    symplectic_code,
)
from .gf import Field, field_make, field_of_order
from .pauli import (
    PauliOperator,
    commute_phase,
    error_set_size,
    pauli_format,
    pauli_parse,
    pauli_mul,
    weights,
)
from .stabilizer import (
    CodeParams,
    StabilizerCode,
    certify_additive,
    certify_stabilizer,
    construction_x,
    css,
    css_aqc,
    ea_ebits,
    format_params,
    propagate,
    steane_enlarge,
)
from .statevec import (
    GeneratorSet,
    apply_pauli,
    eigenspace_dims,
    generator_set,
    kl_verify,
    pauli_matrix,
    projector_apply,
    seed_codeword,
)

__version__ = "0.1.0"
