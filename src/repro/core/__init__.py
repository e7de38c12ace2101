"""Interval-centric computing model (ICM): the paper's core contribution."""

from repro._lazy import lazy_exports

__all__ = [
    "FOREVER",
    "Interval",
    "IntervalSet",
    "coalesce",
    "total_span",
    "IntervalMessage",
    "message",
    "unit_message_fraction",
    "PartitionedState",
    "states_equal_pointwise",
    "time_join",
    "time_warp",
    "warp_boundaries",
    "MessageCombiner",
    "min_combiner",
    "max_combiner",
    "sum_combiner",
    "or_combiner",
    "tuple_min_combiner",
    "IntervalProgram",
    "VertexContext",
    "EdgeContext",
    "MasterContext",
    "IntervalCentricEngine",
    "IcmResult",
    "ExecutionTracer",
    "export_states_csv",
    "export_states_dense_csv",
    "export_states_json",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".combiner": (
        "MessageCombiner", "max_combiner", "min_combiner", "or_combiner",
        "sum_combiner", "tuple_min_combiner",
    ),
    ".context": ("EdgeContext", "MasterContext", "VertexContext"),
    ".engine": ("IcmResult", "IntervalCentricEngine"),
    ".interval": ("FOREVER", "Interval", "coalesce", "total_span"),
    ".intervalset": ("IntervalSet",),
    ".messages": ("IntervalMessage", "message", "unit_message_fraction"),
    ".program": ("IntervalProgram",),
    ".results_io": (
        "export_states_csv", "export_states_dense_csv", "export_states_json",
    ),
    ".state": ("PartitionedState", "states_equal_pointwise"),
    ".tracing": ("ExecutionTracer",),
    ".warp": ("time_join", "time_warp", "warp_boundaries"),
})
