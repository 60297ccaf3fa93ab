"""Path patterns and their compilation to regular expressions (Table 1).

A *path pattern* is the label-path shape a PPF imposes on the
root-to-node path of its prominent step's elements.  It is a sequence of
:class:`PatternStep` items, each pairing a separator (how many tree edges
the step may span) with a name constraint:

* ``child``  — exactly one edge (``/name``),
* ``desc``   — one or more edges (``/(.+/)?name``; this is ``//``),
* ``dos``    — zero or more edges (``descendant-or-self``),
* name ``None`` — wildcard / ``node()``.

Compilation follows Table 1 of the paper; patterns whose steps are all
``child`` with concrete names compile to an exact path string, which the
translator turns into the equality filter of Table 3(2) instead of a
regex call.

Backward simple paths compile via :func:`backward_to_forward`: the steps
are reversed into a downward pattern ending at the context node's name
(Table 1, row 4; Table 3, example 3).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Literal, Optional, Sequence

from repro.errors import TranslationError, UnsupportedXPathError
from repro.schema.model import Schema
from repro.xpath.ast import NameTest, NodeKindTest, Step, TextTest
from repro.xpath.axes import Axis

Separator = Literal["child", "desc", "dos"]


@dataclass(frozen=True)
class PatternStep:
    """One component of a path pattern."""

    sep: Separator
    name: Optional[str]  #: element name, or ``None`` for any name


_AXIS_TO_SEP: dict[Axis, Separator] = {
    Axis.CHILD: "child",
    Axis.DESCENDANT: "desc",
    Axis.DESCENDANT_OR_SELF: "dos",
}

_BACKWARD_AXIS_TO_SEP: dict[Axis, Separator] = {
    Axis.PARENT: "child",
    Axis.ANCESTOR: "desc",
    Axis.ANCESTOR_OR_SELF: "dos",
}


def _test_name(step: Step) -> Optional[str]:
    test = step.node_test
    if isinstance(test, NameTest):
        return None if test.is_wildcard else test.name
    if isinstance(test, NodeKindTest):
        return None
    if isinstance(test, TextTest):
        raise UnsupportedXPathError(
            "text() cannot appear inside a path fragment"
        )
    raise UnsupportedXPathError(f"unsupported node test {test!r}")


def pattern_of_steps(steps: Sequence[Step]) -> list[PatternStep]:
    """Pattern of a *forward* simple path (child/descendant/dos/self axes).

    ``self`` steps with a ``node()`` test vanish; ``self`` with a concrete
    name cannot be expressed on a single path suffix and is rejected.
    """
    pattern: list[PatternStep] = []
    for step in steps:
        if step.axis is Axis.SELF:
            if _test_name(step) is not None:
                raise UnsupportedXPathError(
                    "self::name inside a path fragment is not supported"
                )
            continue
        try:
            sep = _AXIS_TO_SEP[step.axis]
        except KeyError:
            raise TranslationError(
                f"axis {step.axis} is not part of a forward simple path"
            ) from None
        pattern.append(PatternStep(sep, _test_name(step)))
    return pattern


def backward_to_forward(
    steps: Sequence[Step], tail_name: Optional[str]
) -> list[PatternStep]:
    """Downward pattern equivalent to a *backward* simple path.

    ``steps`` are the backward steps applied to a context node whose own
    name is ``tail_name`` (``None`` when unknown).  The result constrains
    the *context node's* root-to-node path: reversed steps become
    downward separators and the context's name closes the pattern.
    """
    pattern: list[PatternStep] = []
    downward: Separator = "child"
    for step in reversed(steps):
        if step.axis is Axis.SELF:
            if _test_name(step) is not None:
                raise UnsupportedXPathError(
                    "self::name inside a path fragment is not supported"
                )
            continue
        try:
            sep = _BACKWARD_AXIS_TO_SEP[step.axis]
        except KeyError:
            raise TranslationError(
                f"axis {step.axis} is not part of a backward simple path"
            ) from None
        # The first reversed step lands anywhere below the (relative)
        # start — the unanchored ``^.*`` prefix covers that; deeper steps
        # connect with the separator of the *step that relates them*,
        # hence the one-position shift via ``downward``.
        pattern.append(PatternStep("child" if not pattern else downward,
                                   _test_name(step)))
        downward = sep
    pattern.append(PatternStep(downward, tail_name))
    return pattern


# ---------------------------------------------------------------------------
# Regex compilation
# ---------------------------------------------------------------------------


def _name_regex(name: Optional[str]) -> str:
    return re.escape(name) if name is not None else "[^/]+"


def _expand_dos(
    pattern: Sequence[PatternStep], anchored: bool
) -> list[list[PatternStep]]:
    """Rewrite ``dos`` steps into ``desc``/merged-self alternatives.

    A ``descendant-or-self`` separator spans zero edges in its *self*
    case, which merges its name constraint with the previous component —
    something a linear regex cannot express.  Expansion yields a small
    set of dos-free patterns whose union is equivalent.
    """
    alternatives: list[list[PatternStep]] = [[]]
    for index, step in enumerate(pattern):
        expanded: list[list[PatternStep]] = []
        for alt in alternatives:
            if step.sep != "dos":
                expanded.append(alt + [step])
                continue
            # Descendant (one-or-more edges) variant.
            expanded.append(alt + [PatternStep("desc", step.name)])
            # Zero-edge (self) variant.
            if index == 0:
                if anchored:
                    # From the document node, descendant-or-self over
                    # elements equals descendant; no extra variant.
                    continue
                # The context node itself: its path simply ends with the
                # step's name.
                expanded.append(alt + [PatternStep("child", step.name)])
            elif alt:
                previous = alt[-1]
                if previous.name is None:
                    expanded.append(
                        alt[:-1] + [PatternStep(previous.sep, step.name)]
                    )
                elif step.name is None or previous.name == step.name:
                    expanded.append(list(alt))
        alternatives = _dedupe_patterns(expanded)
    return alternatives


def _dedupe_patterns(
    patterns: list[list[PatternStep]],
) -> list[list[PatternStep]]:
    seen: dict[tuple, list[PatternStep]] = {}
    for pattern in patterns:
        seen.setdefault(tuple(pattern), pattern)
    return list(seen.values())


def _body(alternative: Sequence[PatternStep]) -> str:
    pieces: list[str] = []
    for step in alternative:
        name = _name_regex(step.name)
        if step.sep == "child":
            pieces.append("/" + name)
        else:  # desc (dos is expanded away)
            pieces.append("/(.+/)?" + name)
    return "".join(pieces)


def compile_pattern(
    pattern: Sequence[PatternStep], anchored: bool
) -> str:
    """The ``^...$`` regular expression of a pattern (Table 1).

    :param anchored: True when the pattern starts at the document root;
        otherwise an arbitrary prefix (``^.*``) is allowed, as for
        patterns of non-initial PPFs.
    """
    if not pattern:
        raise TranslationError("cannot compile an empty path pattern")
    prefix = "^" if anchored else "^.*"
    bodies = _dedupe_bodies(
        [_body(alt) for alt in _expand_dos(pattern, anchored)]
    )
    if len(bodies) == 1:
        return prefix + bodies[0] + "$"
    return prefix + "(?:" + "|".join(bodies) + ")$"


def _dedupe_bodies(bodies: list[str]) -> list[str]:
    seen: dict[str, None] = {}
    for body in bodies:
        seen.setdefault(body, None)
    return list(seen)


def exact_path(pattern: Sequence[PatternStep], anchored: bool) -> Optional[str]:
    """The literal path a pattern denotes, when it denotes exactly one.

    Only anchored, all-``child``, all-named patterns qualify; the
    translator then emits ``paths.path = '/A/B'`` (Table 3, example 2)
    instead of a regex call.
    """
    if not anchored:
        return None
    parts: list[str] = []
    for step in pattern:
        if step.sep != "child" or step.name is None:
            return None
        parts.append("/" + step.name)
    return "".join(parts)


# ---------------------------------------------------------------------------
# Schema-graph candidate resolution
# ---------------------------------------------------------------------------


def resolve_forward(
    schema: Schema,
    pattern: Sequence[PatternStep],
    start: Optional[Iterable[str]],
) -> set[str]:
    """Element names the last pattern step can select under ``schema``.

    :param start: context element names, or ``None`` to start from the
        document roots (anchored pattern).
    """
    if start is None:
        state: set[str] = set(schema.roots)
        first_from_root = True
    else:
        state = {n for n in start if n in schema}
        first_from_root = False
    for index, step in enumerate(pattern):
        if step.sep == "child":
            if index == 0 and first_from_root:
                nxt = set(state)  # roots are the "children" of the doc node
            else:
                nxt = set().union(*(schema.children_of(n) for n in state)) if state else set()
        elif step.sep == "desc":
            if index == 0 and first_from_root:
                nxt = set(state) | schema.descendants_of(state)
            else:
                nxt = schema.descendants_of(state)
        else:  # dos
            nxt = set(state) | schema.descendants_of(state)
        if step.name is not None:
            nxt = {n for n in nxt if n == step.name}
        state = nxt
        if not state:
            break
    return state


def resolve_backward(
    schema: Schema,
    steps: Sequence[Step],
    context_names: Iterable[str],
) -> set[str]:
    """Element names a backward simple path can select from a context."""
    state = {n for n in context_names if n in schema}
    for step in steps:
        if step.axis is Axis.SELF:
            nxt = set(state)
        elif step.axis is Axis.PARENT:
            nxt = set().union(*(schema.parents_of(n) for n in state)) if state else set()
        elif step.axis is Axis.ANCESTOR:
            nxt = schema.ancestors_of(state)
        elif step.axis is Axis.ANCESTOR_OR_SELF:
            nxt = set(state) | schema.ancestors_of(state)
        else:
            raise TranslationError(
                f"axis {step.axis} is not part of a backward simple path"
            )
        name = _test_name(step)
        if name is not None:
            nxt = {n for n in nxt if n == name}
        state = nxt
        if not state:
            break
    return state


def resolve_order_step(
    schema: Schema, step: Step, context_names: Iterable[str]
) -> set[str]:
    """Element names an order-axis single-step PPF can select."""
    name = _test_name(step)
    if step.axis in (Axis.FOLLOWING, Axis.PRECEDING):
        universe = schema.reachable_from_roots()
    elif step.axis in (Axis.FOLLOWING_SIBLING, Axis.PRECEDING_SIBLING):
        parents = set().union(
            *(schema.parents_of(n) for n in context_names if n in schema)
        ) if context_names else set()
        universe = set().union(
            *(schema.children_of(p) for p in parents)
        ) if parents else set()
    else:
        raise TranslationError(f"axis {step.axis} is not an order axis")
    if name is not None:
        universe = {n for n in universe if n == name}
    return universe
