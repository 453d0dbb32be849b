"""Shared fixtures.

The heavy Monte Carlo runs are session-scoped so that the acceptance
tests and the module-level property tests reuse the same replication
records instead of re-simulating.
"""

import time

import numpy as np
import pytest

from netpeer import graph as graphmod, sampling
from netpeer.model import ModelParams
from netpeer.montecarlo import ExperimentCell, run_cell

MASTER_SEED = 20260826
PARAMS = ModelParams(beta0=0.0, beta1=1.0, beta2=1.5, sigma2_eps=1.0, x_mean=3.0, x_sd=1.5)

# wall-clock seconds for each heavy fixture, keyed by fixture name
RUNTIMES = {}


def _timed_run(name, cell):
    start = time.perf_counter()
    report, records = run_cell(cell)
    RUNTIMES[name] = time.perf_counter() - start
    return cell, report, records


def _cell(n_pop, fraction, reps):
    return ExperimentCell(
        n_pop=n_pop,
        density=0.01,
        fraction=fraction,
        params=PARAMS,
        reps=reps,
        master_seed=MASTER_SEED,
    )


@pytest.fixture(scope="session")
def cell_small_f20():
    """N=10^3, p=1%, f=20%, 2000 reps."""
    return _timed_run("cell_small_f20", _cell(1000, 0.2, 2000))


@pytest.fixture(scope="session")
def cell_small_f80():
    """N=10^3, p=1%, f=80%, 2000 reps."""
    return _timed_run("cell_small_f80", _cell(1000, 0.8, 2000))


@pytest.fixture(scope="session")
def cell_large_f20():
    """N=10^4, p=1%, f=20%, 500 reps."""
    return _timed_run("cell_large_f20", _cell(10000, 0.2, 500))


@pytest.fixture(scope="session")
def cell_large_f80():
    """N=10^4, p=1%, f=80%, 500 reps."""
    return _timed_run("cell_large_f80", _cell(10000, 0.8, 500))


@pytest.fixture(scope="session")
def w_hat_sweep():
    """Mean scaling factor over 200 seeds at N=10^4 for f in {0.2, 0.5, 0.8}.

    Each seed's graph is drawn once; every f samples it from the generator
    state right after the draw, so each f sees the draws it would see alone.
    """
    n_pop = 10_000
    zeros = np.zeros(n_pop)  # unit data the scaling factor does not read
    vals = {f: [] for f in (0.2, 0.5, 0.8)}
    for seed in range(200):
        rng = np.random.default_rng((MASTER_SEED, seed))
        g = graphmod.generate_er(n_pop, 0.01, rng)
        after_draw = rng.bit_generator.state
        for f in vals:
            rng.bit_generator.state = after_draw
            s = sampling.rns_sample(g, sampling.sample_size(n_pop, f), rng, zeros, zeros)
            vals[f].append(sampling.scaling_factor(s)[0])
    return {f: float(np.mean(v)) for f, v in vals.items()}
