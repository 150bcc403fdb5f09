"""Metaplastic quantized neural networks on simulated multi-level memristor crossbars.

The package trains multilayer perceptrons whose weights live on a small set of
discrete levels, with a consolidation rule that damps updates trying to pull a
hidden weight away from its settled level. The same training loop can run
against a behavioral crossbar simulator where each signed weight is the
conductance difference of a differential 1T1R cell pair, programmed single-shot
and reprogrammed only when its quantized level changes.

Module map:
    quantgrid   level sets, nearest-level projection, plasticity factor
    net         quantized-weight MLP, batch norm, loss, gradients
    optim       Adam directions and the consolidation-gated update
    device      multi-level memristor cell model (9 states, variability, endurance)
    xbar        differential-pair tiles, analog MVM, write policy, derived grids
    data        IDX ingestion, batching, task specs, dataset fetching
    harness     experiment configs, sequential runs, sweeps, cost profiles
    cli         fetch-data / train / sweep / hist-ops / eval subcommands
"""

from .quantgrid import QuantGrid, uniform_grid
from .device import CellArray, LevelSpec, default_levelspec
from .xbar import CrossbarTile, DeviceGrid, derive_grid
from .net import MLP, softmax_cross_entropy
from .optim import Adam, bn_update, metaplastic_update
from .data import DatasetSplit, TaskSpec, batches, fetch_dataset, load_dataset, load_idx
from .harness import (
    ExperimentConfig,
    MetricsRecord,
    RunResult,
    evaluate,
    ops_histogram,
    preset,
    run_repeated,
    run_sequential,
    run_sweep,
)
from .errors import ConfigError, EnduranceWarning, IdxFormatError

__version__ = "0.1.0"

__all__ = [
    "QuantGrid", "uniform_grid",
    "CellArray", "LevelSpec", "default_levelspec",
    "CrossbarTile", "DeviceGrid", "derive_grid",
    "MLP", "softmax_cross_entropy",
    "Adam", "bn_update", "metaplastic_update",
    "DatasetSplit", "TaskSpec", "batches",
    "fetch_dataset", "load_dataset", "load_idx",
    "ExperimentConfig", "MetricsRecord", "RunResult",
    "evaluate", "ops_histogram", "preset",
    "run_repeated", "run_sequential", "run_sweep",
    "ConfigError", "EnduranceWarning", "IdxFormatError",
    "__version__",
]
