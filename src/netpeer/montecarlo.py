"""Seeded simulate -> sample -> fit pipeline and the replication engine.

`build_instance` draws a connected random graph, simulates covariates
and outcomes and takes an RNS sample; `estimation.fit_corrected` then
fits the model on the incomplete data and applies the scaling-factor
correction. The CLI and the Monte Carlo engine share both. Every random
draw comes from its own stream SeedSequence([*prefix, purpose]): the
engine passes the prefix (master_seed, rep_index), the CLI (seed,), so
results are bit-identical across runs and across worker counts.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import estimation, graph as graphmod, model, sampling
from .errors import AllRepsFailedError, ComputationError, ValidationError
from .model import ModelParams

# stream purposes, fixed forever for reproducibility
STREAM_GRAPH, STREAM_COVARIATES, STREAM_NOISE, STREAM_SAMPLING = range(4)


def stream(prefix, purpose: int) -> np.random.Generator:
    """The random stream of one purpose: SeedSequence([*prefix, purpose])."""
    return np.random.default_rng(np.random.SeedSequence([*map(int, prefix), purpose]))


def draw_graph(prefix, n, p, allow_disconnected=False, max_attempts=1000):
    """G(n, p) from the graph stream: the first connected draw, or any draw."""
    rng = stream(prefix, STREAM_GRAPH)
    if allow_disconnected:
        return graphmod.generate_er(n, p, rng)
    return graphmod.generate_connected_er(n, p, rng, max_attempts=max_attempts)


def build_instance(
    prefix, n_pop, density, fraction, params: ModelParams, x_mean=3.0, x_sd=1.5,
    allow_disconnected=False, max_attempts=1000, graph=None,
):
    """One simulated instance: graph, covariates, outcomes and an RNS sample.

    Returns (g, x, y, sample). A given `graph` replaces the graph draw.
    """
    g = graph if graph is not None else draw_graph(
        prefix, n_pop, density, allow_disconnected, max_attempts
    )
    x = model.gen_covariates(n_pop, x_mean, x_sd, stream(prefix, STREAM_COVARIATES))
    y = model.simulate_outcomes(g, x, params, stream(prefix, STREAM_NOISE))
    n = sampling.sample_size(n_pop, fraction)
    s = sampling.rns_sample(g, n, stream(prefix, STREAM_SAMPLING), x, y)
    return g, x, y, s


@dataclass(frozen=True)
class ExperimentCell:
    """One (N, p, f) experiment cell with its model and replication settings."""

    n_pop: int
    density: float
    fraction: float
    params: ModelParams
    x_mean: float = 3.0
    x_sd: float = 1.5
    reps: int = 1000
    level: float = 0.95
    master_seed: int = 0
    fixed_graph: bool = False
    allow_disconnected: bool = False
    max_attempts: int = 1000

    def __post_init__(self):
        if self.reps < 1:
            raise ValidationError("reps must be >= 1")
        if self.n_pop < 2:
            raise ValidationError("population size must be >= 2")
        if not 0.0 < self.density < 1.0:
            raise ValidationError("edge density must be in (0, 1)")
        # sample_size also rejects a fraction outside (0, 1]
        if sampling.sample_size(self.n_pop, self.fraction) < 4:
            raise ValidationError("sample size below 4: the fit needs 4 units")
        if not 0.0 < self.level < 1.0:
            raise ValidationError("CI level must be in (0, 1)")
        if self.master_seed < 0:
            raise ValidationError("seed must be nonnegative")


@dataclass
class RepRecord:
    """Outcome of a single replication."""

    rep_index: int
    ok: bool
    error: str = ""
    beta2_naive: float = np.nan
    beta2_corrected: float = np.nan
    ci_naive: tuple = None
    ci_corrected: tuple = None  # naive limits divided by w_hat
    ci_corrected_wald: tuple = None  # HC1 + delta-method Wald interval
    w_hat: float = np.nan
    var_corrected: float = np.nan  # plug-in variance of the corrected estimator


@dataclass
class CellReport:
    """Table-style metrics for one cell: relative bias, RMSE and CI coverage."""

    rb_naive: float
    rb_corrected: float
    rmse_naive: float
    rmse_corrected: float
    cov_naive: float
    cov_corrected: float
    cov_corrected_wald: float
    mean_w_hat: float
    reps_completed: int
    reps_failed: int


def run_replication(cell: ExperimentCell, rep_index: int, graph=None) -> RepRecord:
    """One full pipeline pass; failures are recorded, not raised."""
    try:
        *_, s = build_instance(
            (cell.master_seed, rep_index), cell.n_pop, cell.density, cell.fraction,
            cell.params, cell.x_mean, cell.x_sd,
            allow_disconnected=cell.allow_disconnected,
            max_attempts=cell.max_attempts, graph=graph,
        )
        fit = estimation.fit_corrected(s, level=cell.level)
    except ComputationError as exc:
        return RepRecord(rep_index=rep_index, ok=False, error=str(exc))
    return RepRecord(
        rep_index=rep_index,
        ok=True,
        beta2_naive=float(fit.beta_hat[2]),
        beta2_corrected=float(fit.beta2_corrected),
        ci_naive=tuple(map(float, fit.ci_naive)),
        ci_corrected=tuple(map(float, fit.ci_corrected)),
        ci_corrected_wald=tuple(map(float, fit.ci_corrected_wald)),
        w_hat=float(fit.w_hat),
        var_corrected=float(fit.var_corrected),
    )


def _run_chunk(cell: ExperimentCell, indices, pickled_graph=None):
    return [run_replication(cell, i, graph=pickled_graph) for i in indices]


def run_reps(cell: ExperimentCell, workers: int = 1) -> list:
    """All replications of a cell, as records in rep order.

    A fixed-graph cell shares rep 0's graph draw.
    """
    shared = draw_graph(
        (cell.master_seed, 0), cell.n_pop, cell.density,
        cell.allow_disconnected, cell.max_attempts,
    ) if cell.fixed_graph else None
    indices = list(range(cell.reps))
    if workers <= 1:
        records = _run_chunk(cell, indices, shared)
    else:
        chunk = max(1, (cell.reps + workers * 4 - 1) // (workers * 4))
        chunks = [indices[i:i + chunk] for i in range(0, cell.reps, chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_chunk, cell, c, shared) for c in chunks]
            parts = [f.result() for f in futures]
        records = [rec for part in parts for rec in part]
    records.sort(key=lambda r: r.rep_index)
    return records


def run_cell(cell: ExperimentCell, workers: int = 1):
    """All replications of a cell; returns (CellReport, records in rep order)."""
    records = run_reps(cell, workers=workers)
    return summarize(cell, records), records


def summarize(cell: ExperimentCell, records) -> CellReport:
    """Reduce per-rep records to relative bias, RMSE and coverage metrics.

    Metrics use completed replications only, accumulated in rep-index
    order for bit-reproducibility.
    """
    done = [r for r in records if r.ok]
    failed = len(records) - len(done)
    if not done:
        raise AllRepsFailedError(len(records))
    beta2 = cell.params.beta2
    naive = np.array([r.beta2_naive for r in done])
    corr = np.array([r.beta2_corrected for r in done])
    cov_n = np.mean([r.ci_naive[0] <= beta2 <= r.ci_naive[1] for r in done])
    cov_c = np.mean([r.ci_corrected[0] <= beta2 <= r.ci_corrected[1] for r in done])
    cov_w = np.mean(
        [r.ci_corrected_wald[0] <= beta2 <= r.ci_corrected_wald[1] for r in done]
    )
    return CellReport(
        rb_naive=float((naive.mean() - beta2) / beta2),
        rb_corrected=float((corr.mean() - beta2) / beta2),
        rmse_naive=float(np.sqrt(np.mean((naive - beta2) ** 2))),
        rmse_corrected=float(np.sqrt(np.mean((corr - beta2) ** 2))),
        cov_naive=float(cov_n),
        cov_corrected=float(cov_c),
        cov_corrected_wald=float(cov_w),
        mean_w_hat=float(np.mean([r.w_hat for r in done])),
        reps_completed=len(done),
        reps_failed=failed,
    )


def write_grid_csv(results, path) -> None:
    """Emit two rows (naive, corrected) per cell in a fixed column layout."""
    with open(path, "w") as fh:
        fh.write("N,p,f,reps,estimator,RB,RMSE,coverage,mean_w_hat,failed\n")
        for cell, rep in results:
            common = f"{cell.n_pop},{cell.density:.10g},{cell.fraction:.10g},{cell.reps}"
            fh.write(
                f"{common},naive,{rep.rb_naive:.10g},{rep.rmse_naive:.10g},"
                f"{rep.cov_naive:.10g},{rep.mean_w_hat:.10g},{rep.reps_failed}\n"
            )
            fh.write(
                f"{common},corrected,{rep.rb_corrected:.10g},{rep.rmse_corrected:.10g},"
                f"{rep.cov_corrected:.10g},{rep.mean_w_hat:.10g},{rep.reps_failed}\n"
            )


def write_records_csv(cell: ExperimentCell, records, path) -> None:
    """Optional per-replication dump so metrics can be recomputed offline."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([
            "rep", "ok", "beta2_naive", "beta2_corrected", "ci_naive_lo", "ci_naive_hi",
            "ci_corrected_lo", "ci_corrected_hi", "w_hat",
            "ci_corrected_wald_lo", "ci_corrected_wald_hi", "error",
        ])
        for r in records:
            if r.ok:
                values = (r.beta2_naive, r.beta2_corrected, *r.ci_naive,
                          *r.ci_corrected, r.w_hat, *r.ci_corrected_wald)
                writer.writerow([r.rep_index, 1, *(f"{v:.10g}" for v in values), ""])
            else:
                writer.writerow([r.rep_index, 0, *[""] * 9, r.error])
