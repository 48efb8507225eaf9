"""maxsub: exact maximal-subgroup invariants, crowns and generation
probabilities for finite permutation groups."""

__version__ = "0.1.0"

from .bsgs import LimitExceeded, StabilizerChain
from .group import (GroupHandle, Epimorphism, core, coset_action,
                    direct_product, group_from_generators, is_normal,
                    normal_closure)
from .perms import Permutation, format_cycles, parse_cycles

__all__ = [
    "LimitExceeded", "StabilizerChain", "GroupHandle", "Epimorphism",
    "core", "coset_action", "direct_product", "group_from_generators",
    "is_normal", "normal_closure", "Permutation", "format_cycles",
    "parse_cycles", "__version__",
]
