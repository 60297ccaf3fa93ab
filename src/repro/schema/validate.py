"""Document validation with diagnostics: the one conformance walk.

:meth:`Schema.conforms` answers yes/no, the stores refuse what they
cannot hold, and production loading wants to know *where* and *why* a
document deviates; all three run :func:`iter_violations`, which walks
the tree and reports every violation with the offending node's path and
preorder id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterator, Mapping

from repro.schema.model import Schema
from repro.xmltree.nodes import Document


@dataclass(frozen=True)
class Violation:
    """One schema violation."""

    #: ``root`` | ``unknown-element`` | ``nesting`` | ``attribute`` | ``text``
    kind: str
    node_id: int
    path: str
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] node {self.node_id} at {self.path}: {self.message}"


def iter_violations(
    schema: Schema,
    document: Document,
    *,
    parent: str | None = None,
    holds: Mapping[str, tuple[Collection[str], bool]] | None = None,
) -> Iterator[Violation]:
    """Yield every violation of ``schema`` in ``document``.

    Checks: the root element is an allowed root (with ``parent``: may
    nest under that element, for a fragment appended there); every
    element is declared; every nesting edge exists; every attribute is
    declared for its element.  ``holds`` maps an element name to the
    attributes its relation has columns for and whether it has a text
    column (:attr:`~repro.storage.schema_aware.SchemaAwareMapping.holds`);
    with it attributes are checked against the relation, and text on an
    element whose relation has no text column is a violation too —
    what a store would otherwise drop.  (Value kinds are advisory
    column types, not validated; whitespace-only text is no data.)
    """
    root = document.root
    if parent is not None:
        if root.name not in schema.children_of(parent):
            yield Violation(
                "nesting",
                root.node_id,
                root.path,
                f"{root.name!r} may not nest under {parent!r} "
                f"(allowed children: {sorted(schema.children_of(parent))})",
            )
    elif root.name not in schema.roots:
        yield Violation(
            "root",
            root.node_id,
            root.path,
            f"element {root.name!r} is not an allowed document root "
            f"(roots: {sorted(schema.roots)})",
        )
    declarations = schema.declarations
    for element in document.iter_elements():
        name = element.name
        declaration = declarations.get(name)
        if declaration is None:
            yield Violation(
                "unknown-element",
                element.node_id,
                element.path,
                f"element {name!r} is not declared",
            )
            continue
        above = element.parent
        allowed = None if above is None else declarations.get(above.name)
        if allowed is not None and name not in allowed.children:
            yield Violation(
                "nesting",
                element.node_id,
                element.path,
                f"{name!r} may not nest under {above.name!r} "
                f"(allowed children: {sorted(allowed.children)})",
            )
        attributes: Collection[str] = declaration.attributes
        holds_text = True
        if holds is not None and name in holds:
            attributes, holds_text = holds[name]
        for attr_name in element.attributes:
            if attr_name not in attributes:
                yield Violation(
                    "attribute",
                    element.node_id,
                    element.path,
                    f"attribute {attr_name!r} is not declared for {name!r}",
                )
        if not holds_text and element.direct_text.strip():
            yield Violation(
                "text",
                element.node_id,
                element.path,
                f"{name!r} is declared without text, so "
                f"{element.direct_text.strip()[:40]!r} has no column",
            )


def validate_document(
    schema: Schema, document: Document, limit: int = 100
) -> list[Violation]:
    """Collect up to ``limit`` violations (empty list = conforming)."""
    violations = []
    for violation in iter_violations(schema, document):
        violations.append(violation)
        if len(violations) >= limit:
            break
    return violations
