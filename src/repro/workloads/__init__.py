"""Workloads: Table 3 characteristics and trace generation.

Attack patterns are programs, not workloads: build them from
:mod:`repro.attacks` (``compile_attack("many_sided", ctx)``, or
``compile_program(resolve(many_sided_program(...)))``).
:func:`attack_alongside` mixes a compiled attack's rows into a trace.
"""

from repro.workloads.characteristics import (
    BY_NAME,
    SUITES,
    TABLE3,
    WorkloadCharacteristics,
    all_names,
    workload,
)
from repro.workloads.address_stream import (
    gups_address_stream,
    trace_from_addresses,
)
from repro.workloads.gups import generate_gups
from repro.workloads.mixes import attack_alongside, merge_traces
from repro.workloads.synthetic import (
    GeneratorConfig,
    SyntheticWorkloadGenerator,
    usable_rows,
)
from repro.workloads.streaming import (
    DEFAULT_STREAM_CHUNK,
    ChunkedTrace,
    ExternalTraceReader,
    TraceChunk,
    TraceSource,
    materialize,
    open_trace_source,
    read_external_trace,
    write_external_trace,
)
from repro.workloads.trace import (
    Trace,
    TraceStatistics,
    characterize,
    statistics_by_window,
)

__all__ = [
    "BY_NAME",
    "ChunkedTrace",
    "DEFAULT_STREAM_CHUNK",
    "ExternalTraceReader",
    "GeneratorConfig",
    "SUITES",
    "SyntheticWorkloadGenerator",
    "TABLE3",
    "Trace",
    "TraceChunk",
    "TraceSource",
    "TraceStatistics",
    "WorkloadCharacteristics",
    "all_names",
    "attack_alongside",
    "merge_traces",
    "characterize",
    "generate_gups",
    "gups_address_stream",
    "materialize",
    "open_trace_source",
    "read_external_trace",
    "statistics_by_window",
    "trace_from_addresses",
    "usable_rows",
    "workload",
    "write_external_trace",
]
