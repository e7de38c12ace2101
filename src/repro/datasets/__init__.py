"""Datasets: the Fig-1a transit example, Table-1 surrogates, LDBC scaling."""

from repro._lazy import lazy_exports

__all__ = [
    "transit_graph",
    "EXPECTED_SSSP_FROM_A",
    "SURROGATES",
    "load_surrogate",
    "gplus",
    "reddit",
    "usrn",
    "mag",
    "twitter",
    "webuk",
    "locality",
    "ldbc_graph",
    "TRAVEL_COST",
    "TRAVEL_TIME",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".ldbc": ("ldbc_graph",),
    ".synthetic": (
        "SURROGATES", "TRAVEL_COST", "TRAVEL_TIME", "gplus", "load_surrogate",
        "locality", "mag", "reddit", "twitter", "usrn", "webuk",
    ),
    ".transit": ("EXPECTED_SSSP_FROM_A", "transit_graph"),
})
