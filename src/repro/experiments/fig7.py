"""Fig. 7: DSE speedup over the best initial-database design, per round.

Runs the multi-round database-augmentation loop of Section 4.4 on the
nine training kernels as one :class:`~repro.loop.ActiveLoop` run.  Each
round scores a seeded sample of every kernel's design space with the
current model, synthesises ``top_m`` designs per kernel (the loop's
exploit share — two thirds of the budget, the predicted-best usable
points — stands in for the paper's top-M), adds the labels to a copy of
the database, and fine-tunes.  A round's speedup for a kernel is the
best initial-database latency over the best usable design the loop
labelled in that round.  The paper reports average speedups of
0.71 / 0.82 / 1.02 / 1.23× after rounds 1–4: the model starts off
over-optimistic (its top-10 are worse than the database's best), and
the added mispredicted points fix exactly that.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..explorer.database import Database
from ..kernels import TRAINING_KERNELS
from ..loop import ActiveLoop, LoopConfig
from ..serve.registry import ModelRegistry
from .context import ExperimentContext, default_context

__all__ = ["Fig7Round", "Fig7Result", "run_fig7", "format_fig7", "FIG7_PAPER_AVERAGES"]

#: The paper's per-round average speedups.
FIG7_PAPER_AVERAGES = (0.71, 0.82, 1.02, 1.23)

#: Design points the loop scores per kernel per round.
FIG7_SCAN = 2000


@dataclass
class Fig7Round:
    """One round's per-kernel speedups (0.0: no usable design labelled)."""

    round: int
    speedup: Dict[str, float] = field(default_factory=dict)

    def average_speedup(self) -> float:
        values = [s for s in self.speedup.values() if s > 0]
        return sum(values) / len(values) if values else 0.0


@dataclass
class Fig7Result:
    rounds: List[Fig7Round] = field(default_factory=list)

    def speedup_table(self) -> Dict[str, List[float]]:
        """kernel -> per-round speedups (Fig. 7's bars)."""
        kernels = sorted({k for r in self.rounds for k in r.speedup})
        return {k: [r.speedup.get(k, 0.0) for r in self.rounds] for k in kernels}


def run_fig7(
    ctx: Optional[ExperimentContext] = None,
    kernels: Sequence[str] = tuple(TRAINING_KERNELS),
    rounds: int = 4,
    top_m: int = 10,
    fine_tune_epochs: int = 6,
) -> Fig7Result:
    """Run the Fig. 7 experiment (expensive: retrains between rounds).

    The loop labels into a fresh copy of the context's database, so the
    context's own database — and every experiment that shares it — is
    left untouched.
    """
    ctx = ctx or default_context()
    predictor = ctx.predictor("M7")
    initial = ctx.database()
    config = LoopConfig(
        kernels=tuple(kernels),
        rounds=rounds,
        label_budget=top_m,
        scan=FIG7_SCAN,
        epochs=fine_tune_epochs,
        seed=ctx.seed,
        gate_on_holdout=False,
    )
    with tempfile.TemporaryDirectory(prefix="fig7-") as tmp:
        loop = ActiveLoop(
            predictor,
            Database.load(ctx.database_path),
            ModelRegistry(Path(tmp) / "registry"),
            config,
            Path(tmp) / "database.json",
            Path(tmp) / "state.json",
            tool=ctx.tool,
        )
        loop.run()

    result = Fig7Result()
    for round_index in range(1, rounds + 1):
        # The loop never relabels a point from an earlier round, so the
        # records stamped with this round are exactly its new labels.
        labelled = Database()
        for record in loop.database:
            if record.round == round_index:
                labelled.add(record)
        outcome = Fig7Round(round=round_index)
        for name in config.kernels:
            base, best = initial.best_valid(name), labelled.best_valid(name)
            outcome.speedup[name] = base.latency / best.latency if base and best else 0.0
        result.rounds.append(outcome)
    return result


def format_fig7(result: Fig7Result) -> str:
    table = result.speedup_table()
    rounds = len(result.rounds)
    header = f"{'Kernel':14s} " + " ".join(f"{'DSE' + str(r + 1):>8s}" for r in range(rounds))
    lines = [header, "-" * len(header)]
    for kernel, speedups in table.items():
        cells = " ".join(f"{s:8.2f}" for s in speedups)
        lines.append(f"{kernel:14s} {cells}")
    averages = [r.average_speedup() for r in result.rounds]
    lines.append(f"{'Average':14s} " + " ".join(f"{a:8.2f}" for a in averages))
    paper = FIG7_PAPER_AVERAGES[:rounds]
    lines.append(f"{'(paper avg)':14s} " + " ".join(f"{p:8.2f}" for p in paper))
    from ..analysis.plotting import ascii_bars

    lines.append("")
    lines.append(
        ascii_bars(
            dict(table),
            title="speedup vs best initial-database design (| marks 1.0x)",
        )
    )
    return "\n".join(lines)
