"""The XPath axes and their classification for PPF processing.

The paper distinguishes (Section 4.1):

* *path-expressible forward* axes — those a root-to-node path regular
  expression can encode directly (``child``, ``descendant``,
  ``descendant-or-self``, ``self``),
* *path-expressible backward* axes — encodable on the path of the
  *previous* fragment's nodes (``parent``, ``ancestor``,
  ``ancestor-or-self``),
* *order* axes, each of which forms a single-step PPF of its own
  (``following``, ``following-sibling``, ``preceding``,
  ``preceding-sibling``),
* the ``attribute`` axis, which maps to a column access rather than a
  relation.
"""

from __future__ import annotations

import enum


class Axis(enum.Enum):
    """All element axes of XPath 1.0 plus ``attribute``."""

    CHILD = "child"
    DESCENDANT = "descendant"
    DESCENDANT_OR_SELF = "descendant-or-self"
    SELF = "self"
    PARENT = "parent"
    ANCESTOR = "ancestor"
    ANCESTOR_OR_SELF = "ancestor-or-self"
    FOLLOWING = "following"
    FOLLOWING_SIBLING = "following-sibling"
    PRECEDING = "preceding"
    PRECEDING_SIBLING = "preceding-sibling"
    ATTRIBUTE = "attribute"

    def __str__(self) -> str:
        return str(self.value)

    @property
    def is_forward(self) -> bool:
        """True for axes selecting nodes at or after the context node."""
        return self in _FORWARD

    @property
    def is_path_forward(self) -> bool:
        """True if a forward simple path may contain this axis."""
        return self in _PATH_FORWARD

    @property
    def is_path_backward(self) -> bool:
        """True if a backward simple path may contain this axis."""
        return self in _PATH_BACKWARD

    @property
    def is_order_axis(self) -> bool:
        """True for the four document-order axes that always form a
        single-step PPF (Definition, case c)."""
        return self in _ORDER


_FORWARD = frozenset(
    {
        Axis.CHILD,
        Axis.DESCENDANT,
        Axis.DESCENDANT_OR_SELF,
        Axis.SELF,
        Axis.FOLLOWING,
        Axis.FOLLOWING_SIBLING,
        Axis.ATTRIBUTE,
    }
)

_PATH_FORWARD = frozenset(
    {Axis.CHILD, Axis.DESCENDANT, Axis.DESCENDANT_OR_SELF, Axis.SELF}
)

_PATH_BACKWARD = frozenset(
    {Axis.PARENT, Axis.ANCESTOR, Axis.ANCESTOR_OR_SELF}
)

_ORDER = frozenset(
    {
        Axis.FOLLOWING,
        Axis.FOLLOWING_SIBLING,
        Axis.PRECEDING,
        Axis.PRECEDING_SIBLING,
    }
)

#: Mapping from the axis keyword as written in an expression to the enum.
AXIS_BY_NAME = {axis.value: axis for axis in Axis}
