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
    ConnectivityError,
    IsolatedVertexError,
    NoSlackError,
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
    "ConnectivityError",
    "ExperimentCell",
    "Graph",
    "IsolatedVertexError",
    "ModelParams",
    "NoSlackError",
    "RankDeficiencyError",
    "RecruitmentSample",
    "ValidationError",
    "generate_er",
    "rns_sample",
    "scaling_factor",
]

__version__ = "0.1.0"
