"""Nuclear norm subspace identification of LTI state-space models."""

import os as _os

# Honor the thread cap before any BLAS/FFT library is first imported.
_threads = _os.environ.get("N2SID_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .errors import ConsistencyError, N2sidError, SimulationOverflowError, SolverError
from .model import (
    IoRecord,
    ObserverModel,
    StateSpaceModel,
    generate_innovation_data,
    markov_parameters,
    predict_observer,
    simulate,
    to_observer,
    vaf,
)
from .structured_ops import (
    OperatorSpec,
    apply_adjoint,
    apply_operator,
    block_hankel,
    block_toeplitz,
    build_M,
)

__version__ = "0.1.0"
