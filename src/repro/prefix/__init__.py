"""IP prefix substrate: prefix values, tries, expansion, ranges, distributions."""

from .aggregate import AggregationResult, aggregate, aggregation_ratio
from .distribution import LengthDistribution, scale_distribution
from .expansion import expand_to_lengths, expansion_cost
from .parse import (
    as_prefix,
    format_address,
    parse_ipv4_address,
    parse_ipv4_prefix,
    parse_ipv6_address,
    parse_ipv6_prefix,
    parse_prefix,
)
from .prefix import (
    IPV4_WIDTH,
    IPV6_WIDTH,
    Prefix,
    PrefixError,
    bitstring,
    from_bitstring,
)
from .ranges import (BstNode, RangeEntry, SliceIndex, expand_to_ranges,
                     lookup_ranges, ranges_to_bst)
from .trie import BinaryTrie, Fib

__all__ = [
    "AggregationResult",
    "aggregate",
    "aggregation_ratio",
    "IPV4_WIDTH",
    "IPV6_WIDTH",
    "Prefix",
    "PrefixError",
    "bitstring",
    "from_bitstring",
    "BinaryTrie",
    "Fib",
    "LengthDistribution",
    "scale_distribution",
    "expand_to_lengths",
    "expansion_cost",
    "RangeEntry",
    "SliceIndex",
    "BstNode",
    "expand_to_ranges",
    "lookup_ranges",
    "ranges_to_bst",
    "as_prefix",
    "format_address",
    "parse_ipv4_address",
    "parse_ipv4_prefix",
    "parse_ipv6_address",
    "parse_ipv6_prefix",
    "parse_prefix",
]
