"""Policy-gradient pragma explorer (REINFORCE over pragma edits).

IronMan (PAPERS.md) shows a learned policy beats annealing and greedy
search for HLS DSE at fixed query budgets.  This module reproduces the
idea on the repo's own stack, with no new dependencies:

- **State**: the current design point, encoded per knob as three dense
  features — normalised candidate index plus at-minimum / at-maximum
  boundary flags (:func:`point_features`).
- **Actions**: single-pragma edits — step one knob one candidate up or
  down (``2 * len(knobs)`` actions), infeasible boundary moves masked
  out of the softmax (:class:`~repro.nn.distributions.MaskedCategorical`).
- **Policy**: a small MLP on the existing numpy autograd
  (:mod:`repro.nn`) mapping state features to action logits.
- **Reward**: the improvement of a scalarised latency/resource
  objective (log-latency potential with an unusable-point penalty)
  plus a *Pareto-novelty bonus* whenever the edit lands a point newly
  admitted to the shared front.
- **Training**: REINFORCE with returns-to-go, a per-step batch-mean
  baseline, and an entropy regulariser; episodes run in lockstep so
  every step scores one candidate per episode in a single surrogate
  batch (the ``run_many`` batching pattern from PR 1).

Seeded runs are bit-reproducible: the sampler consumes one
``random.Random`` stream in episode order and the policy/optimiser
maths is plain deterministic numpy, so the full edit trajectory —
exposed in :attr:`RLExplorer.trajectory` — replays identically.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from ..designspace.space import DesignPoint, DesignSpace, point_key
from ..nn.distributions import MaskedCategorical
from ..nn.module import MLP
from ..nn.optim import Adam
from ..nn.tensor import Tensor
from .search import DSECandidate
from .strategies import BudgetedEvaluator, SearchStrategy, register_strategy

__all__ = [
    "FEATURES_PER_KNOB",
    "RLExplorer",
    "action_count",
    "action_mask",
    "apply_action",
    "feature_dim",
    "point_features",
]

#: Dense features encoded per knob: normalised index, at-min, at-max.
FEATURES_PER_KNOB = 3


def feature_dim(space: DesignSpace) -> int:
    return FEATURES_PER_KNOB * len(space.knobs)


def action_count(space: DesignSpace) -> int:
    """Two actions per knob: step the candidate index up or down."""
    return 2 * len(space.knobs)


def point_features(space: DesignSpace, point: DesignPoint) -> np.ndarray:
    """Encode one design point as the policy's input vector."""
    out = np.empty(feature_dim(space), dtype=np.float64)
    for i, knob in enumerate(space.knobs):
        index = knob.index_of(point[knob.name])
        top = len(knob.candidates) - 1
        base = FEATURES_PER_KNOB * i
        out[base] = index / top if top else 0.0
        out[base + 1] = 1.0 if index == 0 else 0.0
        out[base + 2] = 1.0 if index == top else 0.0
    return out


def action_mask(space: DesignSpace, point: DesignPoint) -> np.ndarray:
    """Feasibility of each (knob, direction) edit from ``point``.

    Action ``2*k`` steps knob ``k`` up one candidate, ``2*k + 1`` steps
    it down; moves off the end of the candidate list are masked.
    """
    mask = np.zeros(action_count(space), dtype=bool)
    for i, knob in enumerate(space.knobs):
        index = knob.index_of(point[knob.name])
        mask[2 * i] = index < len(knob.candidates) - 1
        mask[2 * i + 1] = index > 0
    return mask


def apply_action(space: DesignSpace, point: DesignPoint, action: int) -> DesignPoint:
    """Apply one pragma edit; the result is canonical under the rules."""
    knob = space.knobs[action // 2]
    index = knob.index_of(point[knob.name]) + (1 if action % 2 == 0 else -1)
    index = min(max(index, 0), len(knob.candidates) - 1)
    edited = dict(point)
    edited[knob.name] = knob.candidates[index]
    if space.rules is not None:
        edited = space.rules.canonicalize(edited)
    return edited


class RLExplorer(SearchStrategy):
    """REINFORCE explorer over pragma-edit actions.

    Runs ``episodes`` rollouts in lockstep for ``horizon`` steps each;
    every step evaluates one edited point per episode in a single
    surrogate batch through the shared
    :class:`~repro.dse.strategies.BudgetedEvaluator`.  After each
    rollout batch the policy takes one Adam step on the REINFORCE loss.

    The explorer is a :class:`~repro.dse.strategies.SearchStrategy`, so
    it can run standalone (:meth:`step` with the full budget) or as one
    arm of the :class:`~repro.dse.race.StrategyRacer`.
    """

    name = "rl"

    def __init__(
        self,
        evaluator: BudgetedEvaluator,
        seed: int = 0,
        episodes: int = 8,
        horizon: int = 12,
        hidden: int = 32,
        lr: float = 0.02,
        gamma: float = 0.9,
        entropy_coef: float = 0.01,
        novelty_bonus: float = 0.5,
        invalid_penalty: float = 1.0,
    ):
        super().__init__(evaluator, seed)
        space = evaluator.space
        self.episodes = episodes
        self.horizon = horizon
        self.gamma = gamma
        self.entropy_coef = entropy_coef
        self.novelty_bonus = novelty_bonus
        self.invalid_penalty = invalid_penalty
        self.policy = MLP(
            [feature_dim(space), hidden, action_count(space)],
            activation="tanh",
            rng=np.random.default_rng(seed),
        )
        self.optimizer = Adam(self.policy.parameters(), lr=lr)
        self.updates = 0  #: completed REINFORCE updates
        self.trajectory: List[str] = []  #: "batch:step:episode:action:key" log
        self._batch_index = 0
        self._worst_latency = 1.0
        self._reset_rollout()

    # -- rollout state ----------------------------------------------------------

    def _reset_rollout(self) -> None:
        self._phase = "reset"
        self._step_index = 0
        self._states: List[DesignPoint] = []
        self._potentials: List[float] = []
        self._log_probs: List[Tensor] = []
        self._entropies: List[Tensor] = []
        self._rewards: List[np.ndarray] = []
        self._actions: Optional[np.ndarray] = None

    def _potential(self, candidate: Optional[DSECandidate]) -> float:
        """Scalarised state quality (maximised): −log latency, penalised.

        Unusable points sit ``invalid_penalty`` below the worst usable
        latency seen so far, so every chain can climb out of invalid
        regions yet never prefers them.
        """
        if candidate is not None and self.evaluator.usable(candidate):
            latency = max(candidate.predicted_latency, 1.0)
            self._worst_latency = max(self._worst_latency, latency)
            return -math.log(latency)
        return -math.log(self._worst_latency) - self.invalid_penalty

    # -- SearchStrategy hooks ---------------------------------------------------

    def propose(self) -> List[DesignPoint]:
        space = self.evaluator.space
        if self._phase == "reset":
            # Episode starts: the neutral point plus seeded random
            # spread (one stream, consumed in episode order).
            self._states = [space.default_point()] + space.sample(
                self.rng, self.episodes - 1
            )
            return [dict(p) for p in self._states]
        features = np.stack([point_features(space, p) for p in self._states])
        mask = np.stack([action_mask(space, p) for p in self._states])
        dist = MaskedCategorical(self.policy(Tensor(features)), mask)
        self._actions = dist.sample(self.rng)
        self._log_probs.append(dist.log_prob(self._actions))
        self._entropies.append(dist.entropy())
        edited = [
            apply_action(space, point, int(action))
            for point, action in zip(self._states, self._actions)
        ]
        for episode, (action, point) in enumerate(zip(self._actions, edited)):
            self.trajectory.append(
                f"{self._batch_index}:{self._step_index}:{episode}:"
                f"{int(action)}:{point_key(point)}"
            )
        return edited

    def observe(self, points, candidates, novel) -> None:
        if self._phase == "reset":
            self._potentials = [self._potential(c) for c in candidates]
            self._phase = "act"
            return
        rewards = np.zeros(len(points), dtype=np.float64)
        for i, (candidate, is_novel) in enumerate(zip(candidates, novel)):
            potential = self._potential(candidate)
            rewards[i] = potential - self._potentials[i]
            if is_novel:
                rewards[i] += self.novelty_bonus
            self._potentials[i] = potential
        self._rewards.append(rewards)
        self._states = [dict(p) for p in points]
        self._step_index += 1
        if self._step_index >= self.horizon:
            self._update_policy()
            self._batch_index += 1
            self._reset_rollout()

    # -- REINFORCE --------------------------------------------------------------

    def _update_policy(self) -> None:
        if not self._rewards:
            return
        rewards = np.stack(self._rewards)  # (T, E)
        steps = rewards.shape[0]
        returns = np.zeros_like(rewards)
        running = np.zeros(rewards.shape[1])
        for t in range(steps - 1, -1, -1):
            running = rewards[t] + self.gamma * running
            returns[t] = running
        # Per-step batch-mean baseline, then global scale normalisation.
        advantages = returns - returns.mean(axis=1, keepdims=True)
        scale = advantages.std()
        if scale > 1e-8:
            advantages = advantages / scale
        loss = None
        for t in range(steps):
            term = self._log_probs[t] * Tensor(advantages[t])
            term = term + self._entropies[t] * self.entropy_coef
            loss = term if loss is None else loss + term
        loss = loss.mean() * (-1.0 / steps)
        self.optimizer.zero_grad()
        loss.backward()
        self.optimizer.step()
        self.updates += 1


def _build_rl(evaluator: BudgetedEvaluator, seed: int = 0, **kwargs) -> RLExplorer:
    return RLExplorer(evaluator, seed=seed, **kwargs)


register_strategy("rl", _build_rl)
