"""Inner-product-free Krylov solvers and their randomized sketched variants.

The package is organized bottom up:

* :mod:`hessketch.linops` -- matrix-free operators, dense least-squares
  kernels, and the operation counters every solver reports against.
* :mod:`hessketch.sketch` -- seeded Gaussian sketch operators and
  sketch-and-solve helpers.
* :mod:`hessketch.hessenberg` -- the pivoted Hessenberg processes (square
  and rectangular) that build Krylov bases without inner products.
* :mod:`hessketch.solvers` -- GMRES/LSQR references, the quasi-minimal
  residual solvers CMRH/LSLU and their sketched variants, all run by one
  Krylov driver and all taking a damping parameter.
* :mod:`hessketch.problems` -- reproducible deblurring and tomography
  test problems, noise injection, and image I/O.
* :mod:`hessketch.cli` -- the ``hessketch`` experiment harness.
"""

from .hessenberg import (
    KrylovFactorization,
    PivotStrategy,
    TrivialSolution,
    dump_factorization,
    init_generalized,
    init_square,
    pivot_select,
    step_generalized,
    step_square,
)
from .linops import (
    LinearOperator,
    OpCounters,
    RankDeficiencyError,
    dense_qr_ls,
    load_array,
    load_operator,
    save_array,
    spectral_condition_number,
    stacked_tikhonov_ls,
    tracked_dot,
    tracked_norm,
)
from .problems import (
    Image,
    ImageFormatError,
    Problem,
    add_noise,
    gaussian_psf,
    image_from_vector,
    make_deblur,
    make_tomography,
    motion_psf,
    read_image,
    write_image,
)
from .sketch import (
    SketchOperator,
    derive_seed,
    make_gaussian_sketch,
    measured_epsilon,
    sketch_and_solve_ls,
    sketch_apply,
)
from .solvers import (
    CSV_COLUMNS,
    SOLVERS,
    SolveResult,
    SolverConfig,
    SolverTrace,
    TraceRecord,
    cmrh,
    gmres,
    lslu,
    lsqr,
    projected_minres_oracle,
    scmrh,
    slslu,
    trace_to_csv,
)

__version__ = "0.1.0"
