"""Stop kinds of a CE run.

The paper's criterion (Eq. (12)) declares convergence when the maximal
element of *every* row of the stochastic matrix has been unchanged for
``c`` consecutive iterations (``c = 5``). The generic CE tutorial's
criterion (Fig. 2, step 4) instead watches the elite threshold ``γ``.
The engine (:mod:`repro.ce.multichain`) applies both, together with an
iteration budget and a full-degeneracy test, as per-chain counters;
:class:`StopKind` names the rule that ended a run.
"""

from __future__ import annotations

import enum

__all__ = ["StopKind"]


class StopKind(enum.Enum):
    """Structured identity of the rule that ended a CE run.

    ``CEResult.converged`` and friends branch on this enum instead of
    string-matching ``stop_reason`` (which is free-form human text).
    ``BUDGET`` is the only non-adaptive kind: a run that stops for any
    other reason counted as converged.
    """

    NOT_RUN = "not_run"
    BUDGET = "budget"
    ROW_MAXIMA_STABLE = "row_maxima_stable"
    GAMMA_STAGNATION = "gamma_stagnation"
    DEGENERATE = "degenerate"
    #: The run was ended from outside the CE engine — an
    #: :class:`repro.runtime.budget.EvaluationBudget` limit or an
    #: interrupt in the surrounding :class:`repro.runtime.loop.SearchLoop`.
    EXTERNAL = "external"
