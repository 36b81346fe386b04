"""Demand-private coded caching toolkit.

A coded caching system serves K users from a library of N equal-size files.
Each user fills a limited cache before demands are known; the server then
sends one broadcast message that lets every user recover its requested file.
A scheme here is demand-private when a user's own cache, key, and the
broadcast reveal exactly nothing about what the other users asked for.

The package builds such schemes, verifies privacy and decodability by
exhaustive distribution counting, searches for new linear schemes over GF(2),
and maps the optimal memory/rate trade-off for the two-file, two-user case.
"""

from __future__ import annotations

from .core import (
    CacheContent,
    DeliveryMessage,
    DemandSubset,
    DemandVector,
    FileStore,
    KeyAssignment,
    ParameterError,
    Privacy,
    SchemeError,
    SchemeInstance,
    UnservedDemand,
    cyclic_demand_set,
    full_demand_set,
    identity_vector,
)
from .lift import (
    basic_private_scheme,
    high_memory_private_scheme,
    lift_private,
    low_memory_private_scheme,
)
from .region import (
    corner_points_2x2,
    emit_region,
    optimal_private_rate_2x2,
)
from .schemes import (
    high_memory_2x4_scheme,
    low_memory_2x4_scheme,
    memory_share,
    uncoded_baseline,
)
from .search import (
    LinearSchemeMatrices,
    compile_linear_scheme,
    export_descriptor,
    parse_descriptor,
    search_linear_scheme,
    verify_linear,
)
from .session import (
    SessionTranscript,
    parse_transcript,
    run_session,
    simulate_session,
    transcript_to_bytes,
)
from .verifier import (
    BudgetExceeded,
    Verdict,
    check_conditional_invariance,
    check_decodability,
    check_privacy,
    measure_rates,
)

__all__ = [
    "BudgetExceeded",
    "CacheContent",
    "DeliveryMessage",
    "DemandSubset",
    "DemandVector",
    "FileStore",
    "KeyAssignment",
    "LinearSchemeMatrices",
    "ParameterError",
    "Privacy",
    "SchemeError",
    "SchemeInstance",
    "SessionTranscript",
    "UnservedDemand",
    "Verdict",
    "basic_private_scheme",
    "check_conditional_invariance",
    "check_decodability",
    "check_privacy",
    "compile_linear_scheme",
    "corner_points_2x2",
    "cyclic_demand_set",
    "emit_region",
    "export_descriptor",
    "full_demand_set",
    "high_memory_2x4_scheme",
    "high_memory_private_scheme",
    "identity_vector",
    "lift_private",
    "low_memory_2x4_scheme",
    "low_memory_private_scheme",
    "measure_rates",
    "memory_share",
    "optimal_private_rate_2x2",
    "parse_descriptor",
    "parse_transcript",
    "run_session",
    "search_linear_scheme",
    "simulate_session",
    "transcript_to_bytes",
    "uncoded_baseline",
    "verify_linear",
]

__version__ = "1.0.0"
