"""One-chain cross-entropy optimizer for one-to-one mapping (Fig. 2 / §3).

:class:`CrossEntropyOptimizer` is the CE engine of
:mod:`repro.ce.multichain` at ``R = 1``, with a single-run API: a seed
instead of a seed list, and :meth:`~CrossEntropyOptimizer.finalize`
returning the one chain's :class:`CEResult`. It owns no sampling, scoring,
update or stop code of its own, so a single MaTCH run and each chain of a
fused repetition run the same iteration.

The objective is a batch function mapping an ``(N, n_rows)`` integer batch
to ``(N,)`` costs — lower is better. The engine minimizes.
"""

from __future__ import annotations

from repro.ce.multichain import CEConfig, CEResult, MultiChainCE
from repro.runtime.budget import EvaluationBudget
from repro.types import BatchObjectiveFn, SeedLike

__all__ = ["CEConfig", "CEResult", "CrossEntropyOptimizer"]


class CrossEntropyOptimizer(MultiChainCE):
    """The CE engine on one chain: sample, select elites, update, test stopping.

    Parameters
    ----------
    objective:
        Batch objective ``(N, n_rows) -> (N,)`` costs (minimized).
    n_rows, n_cols:
        Shape of the stochastic matrix (tasks × resources for MaTCH).
    config:
        Hyper-parameters.
    rng:
        Seed or generator for the whole run.
    budget:
        Evaluation budget every scored row is charged against (default
        unlimited).
    """

    def __init__(
        self,
        objective: BatchObjectiveFn,
        n_rows: int,
        n_cols: int,
        config: CEConfig,
        *,
        rng: SeedLike = None,
        budget: EvaluationBudget | None = None,
    ) -> None:
        super().__init__(objective, n_rows, n_cols, config, seeds=[rng])
        if budget is not None:
            self.bind_budget(budget)

    def finalize(self) -> CEResult:  # type: ignore[override]
        """Freeze and return the result of the current run."""
        return super().finalize().chains[0]
