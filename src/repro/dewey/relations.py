"""Structural-relationship predicates over encoded Dewey positions.

Each predicate mirrors a row of the paper's Table 2: it is phrased purely
as bytewise lexicographic comparisons (plus, for the sibling axes, a
shared-parent check), so that the Python-side truth matches the SQL-side
condition the translator emits, byte for byte.

:func:`sql_condition` produces the SQL text of those same conditions for
two relation aliases; the translator and the tests both use it, which
keeps the Python predicates and the generated SQL provably in sync.
:func:`sql_bound` and :func:`sql_bound_condition` state the four
ordering axes against one grouped bound instead of every context row.
"""

from __future__ import annotations

import enum

from repro.dewey.codec import (
    COMPONENT_BYTES,
    descendant_upper_bound,
    level_of,
)
from repro.errors import DeweyError


class Relationship(enum.Enum):
    """Structural relationship of a node ``n2`` relative to a node ``n1``."""

    SELF = "self"
    CHILD = "child"
    PARENT = "parent"
    DESCENDANT = "descendant"
    ANCESTOR = "ancestor"
    FOLLOWING = "following"
    PRECEDING = "preceding"
    FOLLOWING_SIBLING = "following-sibling"
    PRECEDING_SIBLING = "preceding-sibling"


def is_descendant(d2: bytes, d1: bytes) -> bool:
    """Lemma 1: ``n2`` is a descendant of ``n1`` iff
    ``d(n2) > d(n1)`` and ``d(n2) < d(n1) || 0xFF``."""
    return d1 < d2 < descendant_upper_bound(d1)


def is_ancestor(d2: bytes, d1: bytes) -> bool:
    """``n2`` is an ancestor of ``n1``."""
    return is_descendant(d1, d2)


def is_following(d2: bytes, d1: bytes) -> bool:
    """Lemma 2: ``n2`` follows ``n1`` in document order (excluding
    descendants of ``n1``) iff ``d(n2) > d(n1) || 0xFF``."""
    return d2 > descendant_upper_bound(d1)


def is_preceding(d2: bytes, d1: bytes) -> bool:
    """``n2`` precedes ``n1`` (excluding ancestors of ``n1``)."""
    return is_following(d1, d2)


def _same_parent(d2: bytes, d1: bytes) -> bool:
    return (
        len(d1) == len(d2)
        and level_of(d1) >= 1
        and d1[:-COMPONENT_BYTES] == d2[:-COMPONENT_BYTES]
    )


def is_following_sibling(d2: bytes, d1: bytes) -> bool:
    """``n2`` is a later sibling of ``n1``."""
    return _same_parent(d2, d1) and d2 > d1


def is_preceding_sibling(d2: bytes, d1: bytes) -> bool:
    """``n2`` is an earlier sibling of ``n1``."""
    return _same_parent(d2, d1) and d2 < d1


def relationship(d2: bytes, d1: bytes) -> Relationship:
    """Classify node ``n2`` relative to node ``n1`` by their encodings."""
    if d2 == d1:
        return Relationship.SELF
    if is_descendant(d2, d1):
        if level_of(d2) == level_of(d1) + 1:
            return Relationship.CHILD
        return Relationship.DESCENDANT
    if is_ancestor(d2, d1):
        if level_of(d2) == level_of(d1) - 1:
            return Relationship.PARENT
        return Relationship.ANCESTOR
    if is_following_sibling(d2, d1):
        return Relationship.FOLLOWING_SIBLING
    if is_preceding_sibling(d2, d1):
        return Relationship.PRECEDING_SIBLING
    if is_following(d2, d1):
        return Relationship.FOLLOWING
    if is_preceding(d2, d1):
        return Relationship.PRECEDING
    raise DeweyError("encodings are not comparable")  # pragma: no cover


#: SQL fragment templates per axis, following Table 2 of the paper.  ``{c}``
#: is the alias holding the *context* nodes (the previous PPF's prominent
#: relation, R1 in the paper) and ``{t}`` the alias holding the *target*
#: nodes selected by the axis (R2).  ``X'FF'`` is the SQLite blob literal
#: for the descendant upper-bound suffix; the CAST keeps the
#: concatenation a BLOB (SQLite's ``||`` yields TEXT otherwise, which
#: never compares equal to a BLOB).
_UPPER = "CAST({x}.dewey_pos || X'FF' AS BLOB)"

_AXIS_CONDITIONS = {
    "descendant": (
        "{t}.dewey_pos > {c}.dewey_pos "
        "AND {t}.dewey_pos < " + _UPPER.format(x="{c}")
    ),
    "descendant-or-self": (
        "{t}.dewey_pos >= {c}.dewey_pos "
        "AND {t}.dewey_pos < " + _UPPER.format(x="{c}")
    ),
    "ancestor": (
        "{c}.dewey_pos > {t}.dewey_pos "
        "AND {c}.dewey_pos < " + _UPPER.format(x="{t}")
    ),
    "ancestor-or-self": (
        "{c}.dewey_pos >= {t}.dewey_pos "
        "AND {c}.dewey_pos < " + _UPPER.format(x="{t}")
    ),
    "following": "{t}.dewey_pos > " + _UPPER.format(x="{c}"),
    "preceding": "{c}.dewey_pos > " + _UPPER.format(x="{t}"),
    "following-sibling": (
        "{t}.dewey_pos > {c}.dewey_pos AND {t}.par_id = {c}.par_id"
    ),
    "preceding-sibling": (
        "{t}.dewey_pos < {c}.dewey_pos AND {t}.par_id = {c}.par_id"
    ),
    "self": "{t}.dewey_pos = {c}.dewey_pos",
    # child/parent expressed through Dewey rather than foreign keys: the
    # target is inside the context's range (or vice versa) at the adjacent
    # level.  The translator prefers FK equijoins (Section 4.2), but these
    # forms are needed for the ablation bench and the Edge mapping when FK
    # columns are disabled.
    "child": (
        "{t}.dewey_pos > {c}.dewey_pos "
        "AND {t}.dewey_pos < " + _UPPER.format(x="{c}") + " "
        "AND length({t}.dewey_pos) = length({c}.dewey_pos) + 3"
    ),
    "parent": (
        "{c}.dewey_pos > {t}.dewey_pos "
        "AND {c}.dewey_pos < " + _UPPER.format(x="{t}") + " "
        "AND length({c}.dewey_pos) = length({t}.dewey_pos) + 3"
    ),
}


def axis_names() -> frozenset[str]:
    """Axes with a Table 2 Dewey formulation (the valid
    :class:`~repro.plan.nodes.StructuralCond` axis values)."""
    return frozenset(_AXIS_CONDITIONS)


def sql_condition(axis: str, context_alias: str, target_alias: str) -> str:
    """SQL condition joining ``target_alias`` to ``context_alias`` so the
    target rows stand in the given structural ``axis`` to the context rows.

    :raises KeyError: for an axis with no Dewey formulation (``attribute``).
    """
    template = _AXIS_CONDITIONS[axis]
    return template.format(c=context_alias, t=target_alias)


#: The ordering axes against one bound per group of context rows: the
#: XPath Accelerator's staircase pruning — a target stands in the axis
#: to *some* context row of its document (of its parent, for the
#: sibling axes) exactly when it stands in it to the extreme one.
#: Per axis: the group key, the aggregate over the context rows ``{c}``,
#: and the condition a target ``{t}`` meets against the bound row
#: ``{b}``.  ``b`` precedes some ``a`` iff ``b || 0xFF < max(a)``; it
#: follows some ``a`` iff ``b > min(a || 0xFF)`` (the minimum of the
#: upper bounds, not the bound of the minimum: an ancestor is smaller
#: than its descendants but its upper bound is larger).  Siblings share
#: one ``par_id`` and are never each other's prefix, so a plain
#: comparison with the group's extreme position decides.
_BOUNDS = {
    "preceding": (
        "doc_id",
        "MAX({c}.dewey_pos)",
        "{b}.doc_id = {t}.doc_id AND {b}.bound > " + _UPPER.format(x="{t}"),
    ),
    "following": (
        "doc_id",
        "MIN(" + _UPPER.format(x="{c}") + ")",
        "{b}.doc_id = {t}.doc_id AND {t}.dewey_pos > {b}.bound",
    ),
    "preceding-sibling": (
        "par_id",
        "MAX({c}.dewey_pos)",
        "{t}.par_id = {b}.par_id AND {t}.dewey_pos < {b}.bound",
    ),
    "following-sibling": (
        "par_id",
        "MIN({c}.dewey_pos)",
        "{t}.par_id = {b}.par_id AND {t}.dewey_pos > {b}.bound",
    ),
}


def bound_axes() -> frozenset[str]:
    """The ordering axes :func:`sql_bound` states as a grouped bound."""
    return frozenset(_BOUNDS)


def sql_bound(axis: str, context_alias: str) -> tuple[str, str]:
    """``(key column, aggregate)`` of the grouped bound of ``axis`` over
    the context rows ``context_alias``: the select lists
    ``{context}.{key}`` and the aggregate, grouped by the former."""
    key, aggregate, _ = _BOUNDS[axis]
    return key, aggregate.format(c=context_alias)


def sql_bound_condition(axis: str, bound_alias: str, target_alias: str) -> str:
    """SQL joining ``target_alias`` to the bound row ``bound_alias`` of
    its group so the target stands in ``axis`` to some context row."""
    return _BOUNDS[axis][2].format(b=bound_alias, t=target_alias)
