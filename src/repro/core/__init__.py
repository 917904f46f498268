"""MaTCH core: the paper's primary contribution plus its distributed variant."""

from repro.core.config import MatchConfig, paper_sample_size
from repro.core.distributed import DistributedMatchConfig, DistributedMatchMapper
from repro.core.match import MatchMapper, match_map
from repro.core.result import MatchResult
from repro.core.trace import evolution_frames, render_matrix_ascii, trace_to_dict

__all__ = [
    "MatchConfig",
    "paper_sample_size",
    "MatchMapper",
    "match_map",
    "MatchResult",
    "DistributedMatchConfig",
    "DistributedMatchMapper",
    "evolution_frames",
    "render_matrix_ascii",
    "trace_to_dict",
]
