"""Binary Dewey position encoding and structural-relationship predicates.

Implements Section 4.2 of the paper: each node's Dewey vector (the 1-based
ordinals of its ancestors among their element siblings) is encoded as a
binary string of fixed 3-byte components whose high bit is zero.  Plain
bytewise lexicographic comparison of two encodings then decides every
XPath structural axis (Table 2, Lemmas 1 and 2).
"""

from repro.dewey.codec import (
    COMPONENT_BYTES,
    DESCENDANT_SUFFIX,
    MAX_ORDINAL,
    decode,
    descendant_upper_bound,
    encode,
    level_of,
    parent_of,
)
from repro.dewey.relations import (
    Relationship,
    bound_axes,
    is_ancestor,
    is_descendant,
    is_following,
    is_following_sibling,
    is_preceding,
    is_preceding_sibling,
    relationship,
    sql_bound,
    sql_bound_condition,
    sql_condition,
)

__all__ = [
    "COMPONENT_BYTES",
    "DESCENDANT_SUFFIX",
    "MAX_ORDINAL",
    "Relationship",
    "bound_axes",
    "decode",
    "descendant_upper_bound",
    "encode",
    "is_ancestor",
    "is_descendant",
    "is_following",
    "is_following_sibling",
    "is_preceding",
    "is_preceding_sibling",
    "level_of",
    "parent_of",
    "relationship",
    "sql_bound",
    "sql_bound_condition",
    "sql_condition",
]
