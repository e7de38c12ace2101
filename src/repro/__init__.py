"""GRAPHITE: an interval-centric model for computing over temporal graphs.

A from-scratch Python reproduction of Gandhi & Simmhan, *An
Interval-centric Model for Distributed Computing over Temporal Graphs*
(ICDE 2020): the ICM programming abstraction with its time-warp operator,
a simulated distributed BSP runtime, the four baseline platforms of the
paper's evaluation, and the 12 temporal graph algorithms it studies.

Quickstart
----------
>>> from repro import api
>>> from repro.datasets import transit_graph
>>> from repro.algorithms.td.sssp import TemporalSSSP
>>> result = api.run(transit_graph(), TemporalSSSP("A"))
>>> result.value_at("E", 10)  # cheapest time-respecting cost, arriving by 10
5

Engines are configured through :class:`repro.api.EngineConfig` and
observed through `repro.obs` (structured run events, metric registry,
exporters); see ``api.run(..., observe="run.trace")`` and the
``repro report`` CLI command.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "FOREVER",
    "Interval",
    "IntervalMessage",
    "IntervalProgram",
    "IntervalCentricEngine",
    "IcmResult",
    "PartitionedState",
    "time_join",
    "time_warp",
    "TemporalGraph",
    "TemporalGraphBuilder",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".api": None,
    ".core.engine": ("IcmResult", "IntervalCentricEngine"),
    ".core.interval": ("FOREVER", "Interval"),
    ".core.messages": ("IntervalMessage",),
    ".core.program": ("IntervalProgram",),
    ".core.state": ("PartitionedState",),
    ".core.warp": ("time_join", "time_warp"),
    ".graph.builder": ("TemporalGraphBuilder",),
    ".graph.model": ("TemporalGraph",),
})
