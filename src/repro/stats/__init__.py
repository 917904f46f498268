"""Statistics substrate: descriptive stats, ANOVA, F/t distributions."""

from repro.stats.anova import AnovaResult, one_way_anova
from repro.stats.comparison import SeriesBySize, geometric_mean, improvement_factor
from repro.stats.descriptive import SampleSummary, summarize_sample
from repro.stats.distributions import (
    betainc_regularized,
    f_sf,
    log_beta,
    student_t_ppf,
    student_t_sf,
)

__all__ = [
    "AnovaResult",
    "one_way_anova",
    "SampleSummary",
    "summarize_sample",
    "SeriesBySize",
    "improvement_factor",
    "geometric_mean",
    "betainc_regularized",
    "f_sf",
    "log_beta",
    "student_t_ppf",
    "student_t_sf",
]
