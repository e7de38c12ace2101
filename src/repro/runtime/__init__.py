"""Simulated distributed runtime: partitioning, transport, metrics."""

from repro._lazy import lazy_exports

__all__ = [
    "SimulatedCluster",
    "NetworkModel",
    "ComputeModel",
    "RunMetrics",
    "RecoveryMetrics",
    "SuperstepMetrics",
    "CheckpointError",
    "ExecutorSnapshot",
    "LoadedCheckpoint",
    "write_checkpoint",
    "load_checkpoint",
    "latest_checkpoint",
    "FaultPlan",
    "FaultAction",
    "WorkerDiedError",
    "UnrecoverableRunError",
    "PARTITIONER_KINDS",
    "Partitioner",
    "HashPartitioner",
    "RangePartitioner",
    "GreedyEdgeCutPartitioner",
    "IntervalGreedyPartitioner",
    "build_partitioner",
    "partitioner_fingerprint",
    "encode_varint",
    "decode_varint",
    "varint_size",
    "encode_interval",
    "decode_interval",
    "interval_size",
    "encode_payload",
    "decode_payload",
    "payload_size",
    "encode_message",
    "decode_message",
    "encoded_message_size",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".checkpoint": (
        "CheckpointError", "ExecutorSnapshot", "LoadedCheckpoint",
        "latest_checkpoint", "load_checkpoint", "write_checkpoint",
    ),
    ".cluster": ("SimulatedCluster",),
    ".encoding": (
        "decode_interval", "decode_message", "decode_payload", "decode_varint",
        "encode_interval", "encode_message", "encode_payload", "encode_varint",
        "encoded_message_size", "interval_size", "payload_size", "varint_size",
    ),
    ".faults": ("FaultAction", "FaultPlan"),
    ".metrics": (
        "ComputeModel", "NetworkModel", "RecoveryMetrics", "RunMetrics",
        "SuperstepMetrics",
    ),
    ".partitioner": (
        "PARTITIONER_KINDS", "GreedyEdgeCutPartitioner", "HashPartitioner",
        "IntervalGreedyPartitioner", "Partitioner", "RangePartitioner",
        "build_partitioner", "partitioner_fingerprint",
    ),
    "repro.errors": ("UnrecoverableRunError", "WorkerDiedError"),
})
