"""Assembly-index search and free-energy-weighted pathways."""

from .pathway import (
    AssemblyPathway,
    load_pathway,
    pathway_free_phi,
    pathway_from_dict,
    pathway_to_dict,
    write_pathway,
)

__all__ = [
    "AssemblyPathway",
    "MAX_TARGET_LENGTH",
    "active_backend",
    "assembly_index",
    "doubling_lower_bound",
    "greedy_doubling_upper_bound",
    "load_pathway",
    "pathway_free_phi",
    "pathway_from_dict",
    "pathway_to_dict",
    "write_pathway",
]

_SEARCH = (
    "MAX_TARGET_LENGTH",
    "active_backend",
    "assembly_index",
    "doubling_lower_bound",
    "greedy_doubling_upper_bound",
)


def __getattr__(name: str):
    # the search kernel loads on first use, so a process that only reads a
    # pathway file never compiles it
    if name in _SEARCH:
        from . import search

        return getattr(search, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
