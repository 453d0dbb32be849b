"""Peer-effects estimation on randomly sampled networks.

Simulates networked populations, samples them by random node sampling,
fits the exogenous peer-effects model on the incomplete observed data,
applies the degree-ratio bias correction, and runs the Monte Carlo
bias/RMSE/coverage experiments. Non-identification of the peer effect
under this design is demonstrated by executable witness constructions.
"""

from .errors import (
    AllIsolatedSampleError,
    AllRepsFailedError,
    ComputationError,
    RankDeficiencyError,
    ValidationError,
)
from .graph import Graph, generate_er
from .model import ModelParams
from .montecarlo import CellReport, ExperimentCell
from .sampling import RecruitmentSample, rns_sample, scaling_factor

__all__ = [
    "AllIsolatedSampleError",
    "AllRepsFailedError",
    "CellReport",
    "ComputationError",
    "ExperimentCell",
    "Graph",
    "ModelParams",
    "RankDeficiencyError",
    "RecruitmentSample",
    "ValidationError",
    "generate_er",
    "rns_sample",
    "scaling_factor",
]

__version__ = "0.1.0"


def _keep_freed_heap() -> bool:
    """Keep freed heap in the process so no N=10^4 rep faults its temporaries in anew."""
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt (macOS, Windows): no-op
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # M_MMAP_THRESHOLD (-3) 32 MiB, M_TRIM_THRESHOLD (-1) 128 MiB: one alone is not enough
    return [mallopt(-3, 32 << 20), mallopt(-1, 128 << 20)] == [1, 1]


_HEAP_KEPT = _keep_freed_heap()
