"""Seeded simulate -> sample -> fit pipeline and the replication engine.

`draw_graph` draws a G(N, p) graph, in which a unit may be isolated;
`populate` simulates covariates and outcomes on any graph it is given,
an isolated unit's peer term being 0; `draw_sample` takes an RNS
sample of it; `estimation.fit_corrected` then fits the model on the
incomplete data and applies the scaling-factor correction. The CLI and the Monte Carlo engine share all four. Every
random draw comes from its own stream SeedSequence([*prefix, purpose]),
and only this module names a purpose: the engine passes the prefix
(master_seed, rep_index), the CLI (seed,), so results are bit-identical
across runs and across worker counts.
"""

from __future__ import annotations

import csv
import functools
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields

import numpy as np

from . import estimation, graph as graphmod, model, sampling
from .errors import AllRepsFailedError, ComputationError, ValidationError
from .model import ModelParams

# stream purposes, fixed forever for reproducibility
STREAM_GRAPH, STREAM_COVARIATES, STREAM_NOISE, STREAM_SAMPLING = range(4)

# every record of a cell stays in memory until it is summarized
MAX_REPS = 10**6
# a fixed bound, not the host's CPU count, so a run's settings stay valid elsewhere
MAX_WORKERS = 256


def stream(prefix, purpose: int) -> np.random.Generator:
    """The random stream of one purpose: SeedSequence([*prefix, purpose])."""
    return np.random.default_rng(np.random.SeedSequence([*map(int, prefix), purpose]))


def draw_graph(prefix, n, p):
    """G(n, p) from the graph stream, as drawn: a unit may have no neighbor."""
    return graphmod.generate_er(n, p, stream(prefix, STREAM_GRAPH))


def populate(prefix, g, params: ModelParams):
    """The process `params` on graph `g`, from the covariate and noise streams: (x, y)."""
    x = model.gen_covariates(g.n_vertices, params.x_mean, params.x_sd,
                             stream(prefix, STREAM_COVARIATES))
    return x, model.simulate_outcomes(g, x, params, stream(prefix, STREAM_NOISE))


def draw_sample(prefix, g, fraction, x, y) -> sampling.RecruitmentSample:
    """An RNS sample of round(fraction * N) units of `g`, with their data, from its stream."""
    n = sampling.sample_size(g.n_vertices, fraction)
    return sampling.rns_sample(g, n, stream(prefix, STREAM_SAMPLING), x, y)


@dataclass(frozen=True)
class ExperimentCell:
    """One (N, p, f) experiment cell with its model and replication settings."""

    n_pop: int
    density: float
    fraction: float
    params: ModelParams
    reps: int = 1000
    level: float = 0.95
    master_seed: int = 0
    fixed_graph: bool = False

    def __post_init__(self):
        # a float would pass the range checks; stream() would truncate a seed
        for name in ("reps", "master_seed"):
            object.__setattr__(self, name, graphmod.check_integer(getattr(self, name), name))
        if not 1 <= self.reps <= MAX_REPS:
            raise ValidationError(f"reps must be in [1, {MAX_REPS}]")
        # a numpy integer count is kept as the equal Python int
        object.__setattr__(self, "n_pop", graphmod.check_er_size(self.n_pop, self.density))
        # sample_size also rejects a fraction outside (0, 1]
        rows = estimation.MIN_ROWS
        if sampling.sample_size(self.n_pop, self.fraction) < rows:
            raise ValidationError(f"sample size below {rows}: the fit needs {rows} units")
        if not 0.0 < self.level < 1.0:
            raise ValidationError("confidence level must be in (0, 1)")
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
    """One pipeline pass on `graph` or the rep's own draw; a failure is recorded, not raised."""
    try:
        prefix = (cell.master_seed, rep_index)
        g = graph if graph is not None else draw_graph(prefix, cell.n_pop, cell.density)
        s = draw_sample(prefix, g, cell.fraction, *populate(prefix, g, cell.params))
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


# The process's worker pool, ((pid, workers), executor) or None, reused by
# every run_reps call so that a grid forks once. Its workers end with the
# interpreter, through concurrent.futures' exit hook.
_pool = None
_pool_lock = threading.RLock()


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    """The cached pool of `workers` processes, made on first use.

    A pool of another size is shut down, and waited for, before the new
    one forks, so no fork happens while an old pool's threads run. A
    forked child that inherits the cache does not use its parent's pool.
    """
    global _pool
    key = (os.getpid(), workers)
    with _pool_lock:
        if _pool is None or _pool[0] != key:
            _drop_pool()
            _pool = (key, ProcessPoolExecutor(max_workers=workers))
        return _pool[1]


def _drop_pool() -> None:
    """Empty the cache, shutting the pool down if this process made it."""
    global _pool
    with _pool_lock:
        if _pool is not None and _pool[0][0] == os.getpid():
            _pool[1].shutdown(wait=True)
        _pool = None


def check_workers(workers: int) -> None:
    """A worker count is from 1 to MAX_WORKERS."""
    if not 1 <= workers <= MAX_WORKERS:
        raise ValidationError(f"workers must be in [1, {MAX_WORKERS}]")


def run_reps(cell: ExperimentCell, workers: int = 1) -> list:
    """All replications of a cell, as records in rep order.

    A fixed-graph cell shares rep 0's graph draw. `workers` must be in
    [1, MAX_WORKERS]; 1 runs the replications in this process, more run
    them in the process's worker pool. A worker that dies raises
    ComputationError and the next call forks a fresh pool.
    """
    check_workers(workers)
    shared = draw_graph(
        (cell.master_seed, 0), cell.n_pop, cell.density
    ) if cell.fixed_graph else None
    rep = functools.partial(run_replication, cell, graph=shared)
    if workers == 1:
        return list(map(rep, range(cell.reps)))
    # about four tasks per worker; each pickles the cell and the fixed graph once
    chunk = -(-cell.reps // (workers * 4))
    try:
        return list(_worker_pool(workers).map(rep, range(cell.reps), chunksize=chunk))
    except BrokenProcessPool:
        _drop_pool()
        raise ComputationError(
            "a worker process ended abruptly; its replications are lost"
        ) from None


def run_cell(cell: ExperimentCell, workers: int = 1):
    """All replications of a cell; returns (CellReport, records in rep order)."""
    records = run_reps(cell, workers=workers)
    return summarize(cell, records), records


def summarize(cell: ExperimentCell, records) -> CellReport:
    """Reduce per-rep records to relative bias, RMSE and coverage metrics.

    Metrics use completed replications only, accumulated in rep-index
    order for bit-reproducibility. A relative bias divides by beta2, so at
    beta2 = 0 both are nan; any other metric that is not finite in float64
    (a relative bias at beta2 = 1e-320, say) raises ComputationError.
    """
    done = [r for r in records if r.ok]
    failed = len(records) - len(done)
    if not done:
        raise AllRepsFailedError(len(records))
    beta2 = cell.params.beta2
    naive = np.array([r.beta2_naive for r in done])
    corr = np.array([r.beta2_corrected for r in done])

    def coverage(intervals):
        return float(np.mean([lo <= beta2 <= hi for lo, hi in intervals]))

    def relative_bias(estimates):
        return float((estimates.mean() - beta2) / beta2) if beta2 != 0 else np.nan

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        report = CellReport(
            rb_naive=relative_bias(naive),
            rb_corrected=relative_bias(corr),
            rmse_naive=float(np.sqrt(np.mean((naive - beta2) ** 2))),
            rmse_corrected=float(np.sqrt(np.mean((corr - beta2) ** 2))),
            cov_naive=coverage(r.ci_naive for r in done),
            cov_corrected=coverage(r.ci_corrected for r in done),
            cov_corrected_wald=coverage(r.ci_corrected_wald for r in done),
            mean_w_hat=float(np.mean([r.w_hat for r in done])),
            reps_completed=len(done),
            reps_failed=failed,
        )
    undefined = ("rb_naive", "rb_corrected") if beta2 == 0 else ()
    for field in fields(report):
        if field.name not in undefined and not np.isfinite(getattr(report, field.name)):
            raise ComputationError(f"cell metric {field.name} is not finite in float64")
    return report


def write_grid_csv(results, path) -> None:
    """Emit two rows (naive, corrected) per cell in a fixed column layout.

    A relative bias that is undefined (beta2 = 0) is an empty field.
    """
    with open(path, "w") as fh:
        fh.write("N,p,f,reps,estimator,RB,RMSE,coverage,mean_w_hat,failed\n")
        for cell, rep in results:
            common = f"{cell.n_pop},{cell.density:.10g},{cell.fraction:.10g},{cell.reps}"
            for est, rb, rmse, cov in (
                ("naive", rep.rb_naive, rep.rmse_naive, rep.cov_naive),
                ("corrected", rep.rb_corrected, rep.rmse_corrected, rep.cov_corrected),
            ):
                rb = "" if np.isnan(rb) else f"{rb:.10g}"
                fh.write(f"{common},{est},{rb},{rmse:.10g},{cov:.10g},"
                         f"{rep.mean_w_hat:.10g},{rep.reps_failed}\n")


def write_records_csv(records, path) -> None:
    """Optional per-replication dump so metrics can be recomputed offline.

    csv writes a float as str(), its repr, which reads back as the same
    float: `summarize` on the records read back gives the same report.
    """
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
                writer.writerow([r.rep_index, 1, *values, ""])
            else:
                writer.writerow([r.rep_index, 0, *[""] * 9, r.error])
