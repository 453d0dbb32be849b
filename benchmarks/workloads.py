"""The benchmark workloads: what one timed op is and how its output is checked.

Every workload uses p = 0.01 and the model defaults beta = (0, 1, 1.5),
sigma2 = 1. Inputs derive from the run's seed only.

A workload object has `workers`, the processes an op keeps busy, and offers
  prepare(seed, workspace)  build the inputs (counted in setup time)
  warmup()                  one untimed op on another seed (lazy imports, caches)
  canary()                  problems found on the pinned canary inputs
  op(i)                     the timed op number i
  settle(i, result)         untimed: (ops, failed ops, digest lines, problems)
  finish(results)           problems found over the whole run
"""

from __future__ import annotations

import json
import os
import shutil

from netpeer import cli, montecarlo
from netpeer.model import ModelParams

import checks

DENSITY = 0.01
PARAMS = ModelParams(beta0=0.0, beta1=1.0, beta2=1.5, sigma2_eps=1.0)
WARMUP_SEED = 999_999_937
# seeds of batch / chain k are seed * SEED_STRIDE + k, so runs never overlap
SEED_STRIDE = 100_000
W2_BATCH_REPS = 250
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def mc_cell(n_pop, fraction, master_seed, reps=1):
    return montecarlo.ExperimentCell(
        n_pop=n_pop, density=DENSITY, fraction=fraction, params=PARAMS,
        reps=reps, master_seed=master_seed,
    )


def _golden(n_pop: int, fraction: float):
    """The canary cell pinned in golden.json for this shape, and a check of its records."""
    key = f"N{n_pop}_f{fraction}"
    with open(GOLDEN) as fh:
        entry = json.load(fh)[key]
    cell = mc_cell(entry["n_pop"], entry["fraction"], entry["master_seed"], entry["reps"])

    def problems(records) -> list:
        got = checks.digest([checks.record_line(r) for r in records])
        if got != entry["sha256"]:
            return [f"canary {key}: records digest {got} != pinned {entry['sha256']}"]
        return []

    return cell, problems


class SerialMC:
    """run_replication over consecutive rep indices of one cell, one process."""

    workers = 1

    def __init__(self, n_pop: int, fraction: float):
        self.n_pop, self.fraction = n_pop, fraction

    def prepare(self, seed: int, workspace: str) -> None:
        self.cell = mc_cell(self.n_pop, self.fraction, seed)

    def warmup(self) -> None:
        montecarlo.run_replication(mc_cell(self.n_pop, self.fraction, WARMUP_SEED), 0)

    def canary(self) -> list:
        cell, problems = _golden(self.n_pop, self.fraction)
        return problems([montecarlo.run_replication(cell, i) for i in range(cell.reps)])

    def op(self, i: int):
        return montecarlo.run_replication(self.cell, i)

    def settle(self, i: int, rec):
        return 1, int(not rec.ok), [checks.record_line(rec)], checks.record_problems(rec, i)

    def finish(self, results) -> list:
        report = montecarlo.summarize(self.cell, results)
        return checks.report_problems(report, results, PARAMS.beta2)


class ParallelMC:
    """run_cell with two workers over W2_BATCH_REPS-rep cells of the mc_small shape.

    One op is one replication; a run_cell call completes W2_BATCH_REPS of
    them, so per-op latency is the call's wall time over its reps.

    The batch size weighs the pool's fixed cost against the latency samples
    a run gets. Starting a two-worker pool, running two empty tasks and
    shutting it down takes about 19 ms (2 vCPU Xeon VM, fork start method);
    a call takes about 0.33 s at 64 reps, 1.1 s at 256, 2.1 s at 500 and
    6.6 s at 2000, the cell size of the documented `mc` command, so the
    pool's share is 5.8%, 1.8%, 0.9% and 0.3%. Every call is split into 8
    chunks, whatever its size. At 250 reps a 15 s run gets about twelve
    latency samples, and pool start-up weighs about 1.5 points of op time
    more than in a 2000-rep cell.
    """

    n_pop, fraction, workers = 1000, 0.2, 2

    def prepare(self, seed: int, workspace: str) -> None:
        self.seed = seed

    def cell(self, batch: int):
        return mc_cell(self.n_pop, self.fraction, self.seed * SEED_STRIDE + batch,
                       reps=W2_BATCH_REPS)

    def warmup(self) -> None:
        montecarlo.run_cell(mc_cell(self.n_pop, self.fraction, WARMUP_SEED, reps=4),
                            workers=self.workers)

    def canary(self) -> list:
        cell, problems = _golden(self.n_pop, self.fraction)
        report, records = montecarlo.run_cell(cell, workers=self.workers)
        return problems(records) + checks.report_problems(report, records, PARAMS.beta2)

    def op(self, batch: int):
        return montecarlo.run_cell(self.cell(batch), workers=self.workers)

    def settle(self, batch: int, result):
        report, records = result
        problems = checks.report_problems(report, records, PARAMS.beta2)
        if len(records) != W2_BATCH_REPS:
            problems.append(f"batch {batch}: {len(records)} records, want {W2_BATCH_REPS}")
        for i, rec in enumerate(records):
            problems += checks.record_problems(rec, i)
        failed = sum(not r.ok for r in records)
        return len(records), failed, [checks.record_line(r) for r in records], problems

    def serial(self, batch: int) -> list:
        """The same batch through run_replication in this process (mc_small's path)."""
        cell = self.cell(batch)
        return [checks.record_line(montecarlo.run_replication(cell, i))
                for i in range(cell.reps)]

    def finish(self, results) -> list:
        # Worker-count determinism is checked once: the canary's records must
        # hash to the digest pinned from run_replication in one process, and a
        # traced run compares every batch with serial().
        return []


class CliChain:
    """In-process cli.main chain: simulate, sample, fit, diagnostics, identify-demo."""

    n_pop, fraction, workers = 1000, 0.8, 1

    def prepare(self, seed: int, workspace: str) -> None:
        self.seed, self.workspace = seed, workspace
        os.makedirs(workspace, exist_ok=True)

    def _argv(self, seed: int, out: str):
        common = ["--n", str(self.n_pop), "--p", str(DENSITY), "--f", str(self.fraction),
                  "--seed", str(seed)]
        rs = os.path.join(out, "resampled")
        return [
            ["simulate", *common, "--out", out],
            ["sample", "--graph", os.path.join(out, "graph.edges"),
             "--data", os.path.join(out, "population.csv"),
             "--f", str(self.fraction), "--seed", str(seed), "--out", rs],
            ["fit", "--sample", os.path.join(rs, "sample.csv"),
             "--edges", os.path.join(rs, "sample.edges"), "--out", out],
            ["diagnostics", "--sample", os.path.join(rs, "sample.csv"),
             "--edges", os.path.join(rs, "sample.edges"), "--out", out],
            ["identify-demo", *common, "--out", out],
        ]

    def _chain(self, seed: int, out: str) -> list:
        return [cli.main(argv) for argv in self._argv(seed, out)]

    def warmup(self) -> None:
        out = os.path.join(self.workspace, "warmup")
        self._chain(WARMUP_SEED, out)
        shutil.rmtree(out)

    def canary(self) -> list:
        return []

    def op(self, k: int):
        out = os.path.join(self.workspace, f"chain-{k}")
        return out, self._chain(self.seed * SEED_STRIDE + k, out)

    def settle(self, k: int, result):
        out, codes = result
        try:
            if any(codes):
                return 1, 1, [f"chain {k} exit codes {codes}"], []
            rs = os.path.join(out, "resampled")
            problems = [f"chain {k}: {p}"
                        for p in checks.chain_problems(out, rs, self.fraction, PARAMS.beta2)]
            return 1, 0, [checks.chain_digest(out, rs)], problems
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def finish(self, results) -> list:
        return []


WORKLOADS = {
    "mc_large": lambda: SerialMC(10_000, 0.8),
    "mc_small": lambda: SerialMC(1000, 0.2),
    "cli_files": CliChain,
    "mc_small_w2": ParallelMC,
}
