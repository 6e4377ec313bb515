"""IP lookup algorithms: the paper's contributions and all baselines."""

from .base import (
    UPDATE_IN_PLACE,
    UPDATE_REBUILD,
    UPDATE_UNSUPPORTED,
    LookupAlgorithm,
    UpdateUnsupported,
)
from .bsic import Bsic, bsic_layout_from_counts
from .dxr import Dxr
from .hibst import HiBst, hibst_layout_from_size
from .logical_tcam import LogicalTcam, logical_tcam_capacity, logical_tcam_layout
from .mashup import Mashup, default_strides
from .multibit import MultibitTrie
from .poptrie import Poptrie
from .resail import (
    Resail,
    bit_mark,
    resail_layout_from_counts,
    resail_layout_from_distribution,
    unmark,
)
from .sail import Sail, sail_layout_from_counts, sail_layout_from_distribution
from .vrf import VrfRouter, tag_prefix

__all__ = [
    "LookupAlgorithm",
    "UpdateUnsupported",
    "UPDATE_IN_PLACE",
    "UPDATE_REBUILD",
    "UPDATE_UNSUPPORTED",
    "Bsic",
    "bsic_layout_from_counts",
    "Dxr",
    "HiBst",
    "hibst_layout_from_size",
    "LogicalTcam",
    "logical_tcam_capacity",
    "logical_tcam_layout",
    "Mashup",
    "default_strides",
    "MultibitTrie",
    "Poptrie",
    "Resail",
    "bit_mark",
    "resail_layout_from_counts",
    "resail_layout_from_distribution",
    "unmark",
    "Sail",
    "sail_layout_from_counts",
    "sail_layout_from_distribution",
    "VrfRouter",
    "tag_prefix",
]
