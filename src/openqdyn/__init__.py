"""openqdyn: dynamics of finite-dimensional open quantum systems.

Dense-matrix toolkit for Markovian (GKSL) master equations derived
microscopically in the weak-coupling limit, complete-positivity and
divisibility analysis of dynamical maps, Liouvillian spectral/steady-state
theory, and selected non-Markovian evolution schemes.

Global convention: column-stacking vectorization; the superoperator of
``rho -> A rho B`` is ``kron(B.T, A)``.

OQS_NUM_THREADS caps the linear-algebra thread pools.  It is applied here,
before numpy loads, and has no effect once numpy is imported.
"""
import os as _os

if _os.environ.get("OQS_NUM_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["OQS_NUM_THREADS"])

from . import errors, gksl, liouville, maps, nonmarkov, operators, spectra, weakcoupling
from .gksl import (
    GKSLGenerator,
    kossakowski_of_superop,
    time_dependent_superop,
    KossakowskiForm,
    NonGKSLDiagnosis,
    canonical_form,
    check_kossakowski_conditions,
    classical_generator_check,
    dissipator_superop,
    hamiltonian_superop,
    kossakowski_matrix,
    superop_of_generator,
)
from .liouville import (
    apply_superop,
    conjugation_superop,
    devectorize,
    expm,
    hs_basis,
    partial_trace,
    propagate_semigroup,
    propagate_time_dependent,
    trace_norm,
    trotter_product,
    vectorize,
)
from .maps import (
    choi_of,
    contraction_check,
    divisibility_witness,
    invert_map,
    is_cp,
    is_trace_preserving,
    kraus_from_choi,
    kraus_of,
    map_from_kraus,
    superop_from_choi,
)
from .nonmarkov import (
    MemoryKernel,
    TabulatedKernel,
    Trajectory,
    coarse_grain_evolve,
    coarse_grain_generator,
    memory_kernel_evolve,
    post_markovian_evolve,
    tcl2_evolve,
    tcl2_generator,
    tcl_from_family,
)
from .spectra import (
    SpectralReport,
    ergodic_average,
    is_relaxing,
    liouvillian_spectrum,
    spohn_check,
    steady_states,
)
from .weakcoupling import (
    BathModel,
    bath_correlation,
    BohrDecomposition,
    DaviesGenerator,
    SystemModel,
    bath_rates,
    bohr_decompose,
    bose_occupation,
    damped_oscillator,
    damped_qubit,
    davies_generator,
    finite_time_gamma,
    kms_check,
    lamb_shift,
    pure_dephasing,
    pv_integral,
    stationarity_check,
    thermal_state,
)

__version__ = "0.1.0"
