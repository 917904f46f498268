"""Mapping-as-a-service: the cache-fronted gateway over the warm fabric.

See DESIGN.md §14. :class:`MappingService` is the importable gateway
(cache → single-flight dedup → quota admission → one ``map_salvage``
dispatch per miss, up to one per worker at once); :mod:`repro.service.http` fronts it with a stdlib HTTP daemon
(``repro-match serve`` / ``repro-match submit``); :mod:`repro.service.wire`
is the JSON request/response vocabulary they share.
"""

from repro.service.http import start_http_server, submit_over_http
from repro.service.service import (
    MappingRequest,
    MappingResponse,
    MappingService,
    QuotaLedger,
    ServiceConfig,
)
from repro.service.wire import (
    problem_from_wire,
    problem_to_wire,
    request_from_wire,
    request_to_wire,
)

__all__ = [
    "MappingRequest",
    "MappingResponse",
    "MappingService",
    "QuotaLedger",
    "ServiceConfig",
    "start_http_server",
    "submit_over_http",
    "problem_from_wire",
    "problem_to_wire",
    "request_from_wire",
    "request_to_wire",
]
