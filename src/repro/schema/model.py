"""The XML Schema graph: element declarations and nesting edges.

Declarations are DTD-style — one global declaration per element name, as
in the paper's running example (Figure 1a) and both evaluation schemas
(XMark, DBLP).  A declaration records the attributes, whether the element
carries text, the inferred value kinds (``'string'`` or ``'number'``,
which decide relational column types), and the set of allowed child
element names.  The graph is navigable both downward (children) and
upward (parents), which PPF candidate-relation resolution needs for
backward fragments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from repro.errors import SchemaError

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.xmltree.nodes import Document

#: Value kinds a text node or attribute may map to.
VALUE_KINDS = ("string", "number")


@dataclass
class AttributeDecl:
    """One attribute of an element declaration."""

    name: str
    kind: str = "string"

    def __post_init__(self) -> None:
        if self.kind not in VALUE_KINDS:
            raise SchemaError(f"unknown value kind {self.kind!r}")


@dataclass
class ElementDecl:
    """One element declaration (a vertex of the schema graph)."""

    name: str
    #: Optional globally defined complex type; declarations sharing a type
    #: share one relation in the schema-aware mapping (Section 3).
    type_name: str | None = None
    attributes: dict[str, AttributeDecl] = field(default_factory=dict)
    #: ``None`` if the element never carries text, else the value kind.
    text_kind: str | None = None
    children: set[str] = field(default_factory=set)
    parents: set[str] = field(default_factory=set)

    def add_attribute(self, name: str, kind: str = "string") -> None:
        """Declare an attribute; conflicting kinds degrade to string."""
        existing = self.attributes.get(name)
        if existing is None:
            self.attributes[name] = AttributeDecl(name, kind)
        elif existing.kind != kind:
            # Conflicting observations degrade to string.
            existing.kind = "string"


class Schema:
    """A directed graph of element declarations.

    :param roots: element names allowed as document roots.
    """

    def __init__(self, roots: Iterable[str] = ()):
        self.roots: set[str] = set(roots)
        self.declarations: dict[str, ElementDecl] = {}
        for root in self.roots:
            self.declare(root)

    # -- construction --------------------------------------------------------

    def declare(self, name: str, type_name: str | None = None) -> ElementDecl:
        """Get or create the declaration for element ``name``."""
        decl = self.declarations.get(name)
        if decl is None:
            decl = ElementDecl(name, type_name=type_name)
            self.declarations[name] = decl
        elif type_name is not None:
            if decl.type_name not in (None, type_name):
                raise SchemaError(
                    f"element {name!r} redeclared with type {type_name!r}, "
                    f"was {decl.type_name!r}"
                )
            decl.type_name = type_name
        return decl

    def add_root(self, name: str) -> ElementDecl:
        """Declare ``name`` and allow it as a document root."""
        self.roots.add(name)
        return self.declare(name)

    def add_edge(self, parent: str, child: str) -> None:
        """Allow ``child`` elements to nest directly under ``parent``."""
        parent_decl = self.declare(parent)
        child_decl = self.declare(child)
        parent_decl.children.add(child)
        child_decl.parents.add(parent)

    # -- lookup ---------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self.declarations

    def __getitem__(self, name: str) -> ElementDecl:
        try:
            return self.declarations[name]
        except KeyError:
            raise SchemaError(f"unknown element {name!r}") from None

    def element_names(self) -> list[str]:
        """All declared element names, insertion-ordered."""
        return list(self.declarations)

    def children_of(self, name: str) -> set[str]:
        """Element names allowed directly under ``name``."""
        return self[name].children

    def parents_of(self, name: str) -> set[str]:
        """Element names ``name`` may nest directly under."""
        return self[name].parents

    # -- graph reachability ----------------------------------------------------

    def descendants_of(self, names: Iterable[str]) -> set[str]:
        """All element names reachable by one or more downward edges."""
        return self._closure(names, lambda n: self[n].children)

    def ancestors_of(self, names: Iterable[str]) -> set[str]:
        """All element names reachable by one or more upward edges."""
        return self._closure(names, lambda n: self[n].parents)

    def _closure(
        self, names: Iterable[str], succ: Callable[[str], Iterable[str]]
    ) -> set[str]:
        seen: set[str] = set()
        frontier = list(names)
        while frontier:
            current = frontier.pop()
            for nxt in succ(current):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    def reachable_from_roots(self) -> set[str]:
        """Roots plus everything nested below them."""
        return set(self.roots) | self.descendants_of(self.roots)

    # -- validation --------------------------------------------------------------

    def validate(self) -> None:
        """Check internal consistency.

        :raises SchemaError: for dangling edges or unreachable declarations.
        """
        if not self.roots:
            raise SchemaError("schema has no root elements")
        for name, decl in self.declarations.items():
            for child in decl.children:
                if child not in self.declarations:
                    raise SchemaError(f"edge {name!r}->{child!r} dangles")
                if name not in self.declarations[child].parents:
                    raise SchemaError(
                        f"edge {name!r}->{child!r} missing reverse link"
                    )
        unreachable = set(self.declarations) - self.reachable_from_roots()
        if unreachable:
            raise SchemaError(
                f"declarations unreachable from roots: {sorted(unreachable)}"
            )

    def conforms(self, document: Document) -> bool:
        """True if ``document`` fits this schema: root, element names,
        nesting and attributes (the checks of
        :func:`~repro.schema.validate.iter_violations`)."""
        # Imported here: the walker's module builds on this one.
        from repro.schema.validate import iter_violations

        return next(iter_violations(self, document), None) is None

    # -- iteration -----------------------------------------------------------------

    def edges(self) -> Iterator[tuple[str, str]]:
        """All nesting edges as (parent, child) pairs."""
        for name, decl in self.declarations.items():
            for child in sorted(decl.children):
                yield name, child

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Schema(roots={sorted(self.roots)}, "
            f"elements={len(self.declarations)})"
        )

    # -- (de)serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-serializable snapshot of the schema graph.

        The shredded store persists this next to the data so a database
        file can be reopened without the original documents.
        """
        return {
            "roots": sorted(self.roots),
            "elements": [
                {
                    "name": decl.name,
                    "type": decl.type_name,
                    "text": decl.text_kind,
                    "attributes": [
                        {"name": a.name, "kind": a.kind}
                        for a in decl.attributes.values()
                    ],
                    "children": sorted(decl.children),
                }
                for decl in self.declarations.values()
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Schema":
        """Rebuild a schema from :meth:`to_dict` output."""
        schema = cls()
        for entry in data["elements"]:
            decl = schema.declare(entry["name"], entry.get("type"))
            decl.text_kind = entry.get("text")
            for attribute in entry.get("attributes", []):
                decl.add_attribute(attribute["name"], attribute["kind"])
        for entry in data["elements"]:
            for child in entry.get("children", []):
                schema.add_edge(entry["name"], child)
        schema.roots = set(data["roots"])
        schema.validate()
        return schema


def figure1_schema() -> Schema:
    """The running-example schema of the paper's Figure 1a.

    ``A → B``, ``B → {C, G}``, ``C → {D, E}``, ``E → F``, ``G → G``
    (recursive), with attribute ``x`` on ``A`` and ``D``, and numeric text
    on ``F``.
    """
    schema = Schema(roots=["A"])
    for parent, child in [
        ("A", "B"),
        ("B", "C"),
        ("B", "G"),
        ("C", "D"),
        ("C", "E"),
        ("E", "F"),
        ("G", "G"),
    ]:
        schema.add_edge(parent, child)
    schema["A"].add_attribute("x", "number")
    schema["D"].add_attribute("x", "number")
    schema["F"].text_kind = "number"
    return schema
