"""Assembly-index search and free-energy-weighted pathways."""

from .pathway import (
    AssemblyPathway,
    load_pathway,
    pathway_free_phi,
    pathway_from_dict,
    pathway_to_dict,
    write_pathway,
)
from .search import (
    MAX_TARGET_LENGTH,
    active_backend,
    assembly_index,
    doubling_lower_bound,
    greedy_doubling_upper_bound,
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
