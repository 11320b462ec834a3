"""Workloads: Table 3 characteristics and trace generation.

Attack patterns are programs, not workloads: build them from
:mod:`repro.attacks` (``compile_attack("many_sided", ctx)``, or
``compile_program(resolve(many_sided_program(...)))``).
:func:`attack_alongside` mixes a compiled attack's rows into a trace.

Every name below loads its module on first access: the Table 3
characteristics cost nothing, and numpy loads only with the first
trace module a caller touches.
"""

from repro._lazy import lazy_exports

#: Requests per replay chunk of an in-RAM trace, and the default
#: segment size of chunked and text traces: ~64K requests keep the
#: per-chunk Python-list columns in the tens of megabytes while
#: amortizing per-chunk numpy/parse overhead. Defined here, outside
#: the numpy modules, so ``hydra-sim --help`` can show it.
DEFAULT_STREAM_CHUNK = 1 << 16

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.workloads.characteristics": (
        "BY_NAME",
        "SUITES",
        "TABLE3",
        "WorkloadCharacteristics",
        "all_names",
        "workload",
    ),
    "repro.workloads.address_stream": (
        "gups_address_stream",
        "trace_from_addresses",
    ),
    "repro.workloads.gups": ("generate_gups",),
    "repro.workloads.mixes": ("attack_alongside", "merge_traces"),
    "repro.workloads.synthetic": (
        "GeneratorConfig",
        "SyntheticWorkloadGenerator",
        "usable_rows",
    ),
    "repro.workloads.streaming": (
        "ChunkedTrace",
        "ExternalTraceReader",
        "TraceChunk",
        "TraceSource",
        "materialize",
        "open_trace_source",
        "read_external_trace",
        "write_external_trace",
    ),
    "repro.workloads.trace": (
        "Trace",
        "TraceStatistics",
        "characterize",
        "statistics_by_window",
    ),
})
__all__ += ["DEFAULT_STREAM_CHUNK"]
