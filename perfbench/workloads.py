"""The benchmark's workloads: fixed, seeded lists of randsum commands.

A workload is a list of operations.  Each operation is one call of
``randsum.cli.main`` with a generated config file, exactly as a user
would type it.  The workload seed picks only inputs that do not change
how much work an operation does (Monte Carlo seeds, a law parameter,
the order of commands), so runs with different seeds measure the same
amount of work.  The program sees only the generated configs.

This module uses the standard library only, so the oracles and their
tests can read the workloads without importing randsum.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

# Confidence level of every DKW bound the benchmark reads.  A correct
# program fails a "within the DKW bound" check with probability at most
# alpha, so 1e-6 keeps spurious failures out of thousands of runs, while
# the plans' 0.01 would fail about one run in a hundred.
ALPHA = 1e-6

# Largest n, and so the longest row, that the small_rows commands use.
SMALL_N = (4, 8, 16, 32)


@dataclass(frozen=True)
class Op:
    """One command: ``randsum <command> --config <name>.json --out <dir>``."""

    name: str
    command: str
    config: Optional[dict]
    output: str  # file the command writes into its --out directory
    args: Tuple[str, ...] = ()

    def argv(self, config_path: Optional[str], out_dir: str) -> List[str]:
        argv = [self.command]
        if config_path is not None:
            argv += ["--config", config_path]
        return argv + ["--out", out_dir, *self.args]


def _mc_seed(rng: random.Random) -> int:
    return rng.randrange(2**32)


def _studies(plan: str, label: str, n_grid, seed: int) -> List[Op]:
    """One study per n, so the reference kernel runs between short operations.

    The plan's own trend checks compare values across n and some need
    n = 4096, so they are dropped; the oracles check every cell instead.
    """
    rng = random.Random(seed)
    ops = []
    for n in n_grid:
        config = {
            "tasks": ["study"],
            "study": {"plan": plan, "checks": []},
            "grids": {"n": [n]},
            "monte_carlo": {"seed": _mc_seed(rng), "alpha": ALPHA},
            "outputs": {"format": "json"},
        }
        ops.append(Op(f"study-n{n}", "study", config, f"study-{label}.json"))
    return ops


def study_lyapunov_exp(seed: int) -> List[Op]:
    return _studies("lyapunov_exponential_poisson", "lyapunov-exponential-poisson",
                    (16, 64, 256), seed)


def study_rare_jump(seed: int) -> List[Op]:
    return _studies("feller_necessity_rare_jump", "feller-necessity-rare-jump",
                    (4, 16, 64), seed)


def study_series_rows(seed: int) -> List[Op]:
    return _studies("rotar_shiryaev_series", "rotar-shiryaev-series", (16, 64, 256), seed)


_POISSON = {"family": "poisson", "mean": "n"}
_SERIES = {"array": "series", "base_seq": "shiryaev"}


def small_rows(seed: int) -> List[Op]:
    rng = random.Random(seed)
    # the threshold stays fixed: it sets how much quadrature the uniform
    # rows need, so a seeded threshold would make the work depend on the seed
    eps = [0.3, 0.5]
    p_low = rng.choice([0.5, 0.6, 0.7])
    two_point = {"family": "two-point", "low": -1.0, "high": 2.0, "p_low": p_low}
    # The series array built from the Shiryaev sequence has the same entry
    # laws as the Shiryaev array, so it gets no conditions command of its
    # own: it would repeat the known remainder-bound fault (see oracles.py).
    arrays = {
        "iid": {"array": "iid", "base": {"family": "uniform", "low": -1.0, "high": 1.0}},
        "shiryaev": {"array": "shiryaev"},
        "rare": {"array": "rare-jump"},
    }
    ops: List[Op] = []
    for kind, array in arrays.items():
        # uniform rows run the Rotar integral by quadrature for every
        # entry, so they get a shorter n grid to keep the command short
        n_grid = [8, 32] if kind == "iid" else list(SMALL_N)
        config = {
            "tasks": ["conditions"],
            "array": array,
            "index": _POISSON,
            "grids": {"n": n_grid, "epsilon": eps, "delta": [1.0]},
            "outputs": {"format": "json"},
        }
        ops.append(Op(f"conditions-{kind}", "conditions", config, "conditions.json"))

    exact_arrays = {
        "iid": {"array": "iid", "base": two_point},
        "shiryaev": {"array": "shiryaev"},
        "rare": {"array": "rare-jump"},
        "series": _SERIES,
    }
    for kind, array in exact_arrays.items():
        metrics = ["kolmogorov_row", "delta_mixture"]
        # every row-mode random sum of the series array is exactly N(0, 1),
        # so only there the empirical distance has a known target
        mode = "rows" if kind == "series" else "prefix"
        if kind == "series":
            metrics.append("empirical_delta")
        config = {
            "tasks": ["distances"],
            "array": array,
            "index": _POISSON,
            "grids": {"n": list(SMALL_N)},
            "monte_carlo": {"M": 20_000, "alpha": ALPHA, "seed": _mc_seed(rng)},
            "distances": {"metrics": metrics, "mode": mode},
            "outputs": {"format": "json"},
        }
        ops.append(Op(f"distances-{kind}", "distances", config, "distances.json"))

    # Both commands below run on fixed seeds, not on the workload seed:
    # their reports include Monte Carlo checks at fixed confidence
    # (selfcheck's DKW check at alpha 0.001, counterexample's 3-sigma
    # Lindeberg oracle) that a correct program fails on a small share of
    # seeds, and a failure that depends on the seed cannot be told apart
    # from a fault.
    ops.append(Op("selfcheck", "selfcheck", None, "selfcheck.json",
                  args=("--seed", "42")))
    ops.append(Op("counterexample", "counterexample",
                  {"tasks": ["counterexample"], "monte_carlo": {"M": 20_000, "seed": 0},
                   "outputs": {"format": "json"}},
                  "counterexample.json"))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "study_lyapunov_exp": study_lyapunov_exp,
    "study_rare_jump": study_rare_jump,
    "study_series_rows": study_series_rows,
    "small_rows": small_rows,
}
