"""Shared experiment context: cached database and trained predictors.

The heavyweight artifacts (the explorer-generated design database and
the trained predictor stack) are produced once and cached on disk under
``.repro_cache/`` so every table/figure experiment — and repeated
benchmark runs — reuse them.  Predictors are cached as artifact
directories (:mod:`repro.serve.registry`), so a reload is bit-identical
to the stack that was trained.

Environment knobs (all optional):

``REPRO_SCALE``
    Multiplier on the Table 1 database targets (default 0.3; use 1.0
    for the full-size database, 0.1 for smoke runs).
``REPRO_EPOCHS``
    Training epochs for the cached predictor (default 16; raise for
    tighter Table 2 numbers).
``REPRO_CACHE``
    Cache directory (default ``<repo>/.repro_cache``).
``REPRO_SEED``
    Global experiment seed (default 0).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Optional

from ..durable import atomic_write
from ..explorer.database import Database
from ..explorer.runner import generate_database
from ..hls.tool import MerlinHLSTool
from ..model.predictor import GNNDSEPredictor, train_predictor
from ..model.trainer import TrainConfig

__all__ = ["ExperimentContext", "default_context"]


def _env_float(name: str, default: float) -> float:
    try:
        return float(os.environ.get(name, default))
    except ValueError:
        return default


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


class ExperimentContext:
    """Lazily builds and caches the shared experiment artifacts."""

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        scale: Optional[float] = None,
        epochs: Optional[int] = None,
        seed: Optional[int] = None,
    ):
        root = Path(__file__).resolve().parents[3]
        self.cache_dir = Path(
            cache_dir or os.environ.get("REPRO_CACHE", root / ".repro_cache")
        )
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.scale = scale if scale is not None else _env_float("REPRO_SCALE", 0.3)
        self.epochs = epochs if epochs is not None else _env_int("REPRO_EPOCHS", 16)
        self.seed = seed if seed is not None else _env_int("REPRO_SEED", 0)
        self.tool = MerlinHLSTool()
        self._database: Optional[Database] = None
        self._predictors: Dict[str, GNNDSEPredictor] = {}

    # -- database -------------------------------------------------------------

    @property
    def database_path(self) -> Path:
        return self.cache_dir / f"database_s{self.scale:g}_r{self.seed}.json"

    def database(self, refresh: bool = False) -> Database:
        """The initial training database (Table 1's, scaled)."""
        if self._database is not None and not refresh:
            return self._database
        if self.database_path.exists() and not refresh:
            self._database = Database.load(self.database_path)
        else:
            self._database = generate_database(
                scale=self.scale, seed=self.seed, tool=self.tool
            )
            self._database.save(self.database_path)
        return self._database

    # -- predictor ------------------------------------------------------------

    def _predictor_path(self, config_name: str) -> Path:
        return self.cache_dir / (
            f"predictor_{config_name}_s{self.scale:g}_e{self.epochs}_r{self.seed}"
        )

    def predictor(self, config_name: str = "M7", refresh: bool = False) -> GNNDSEPredictor:
        """Train (or load) the full predictor stack for a model config."""
        if config_name in self._predictors and not refresh:
            return self._predictors[config_name]
        path = self._predictor_path(config_name)
        if path.exists() and not refresh:
            predictor = GNNDSEPredictor.load(path, database=self.database())
        else:
            predictor = train_predictor(
                self.database(),
                config_name=config_name,
                train_config=TrainConfig(epochs=self.epochs, seed=self.seed),
                seed=self.seed,
            )
            predictor.save(path)
        self._predictors[config_name] = predictor
        return predictor

    # -- results persistence ---------------------------------------------------------

    def result_path(self, name: str) -> Path:
        return self.cache_dir / f"{name}_s{self.scale:g}_e{self.epochs}_r{self.seed}.json"

    def load_result(self, name: str):
        path = self.result_path(name)
        if path.exists():
            return json.loads(path.read_text())
        return None

    def save_result(self, name: str, payload) -> None:
        atomic_write(self.result_path(name), json.dumps(payload, indent=1))


_default: Optional[ExperimentContext] = None


def default_context() -> ExperimentContext:
    """Process-wide shared context (honours the REPRO_* env knobs)."""
    global _default
    if _default is None:
        _default = ExperimentContext()
    return _default
