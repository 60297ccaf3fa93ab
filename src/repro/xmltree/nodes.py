"""Node classes for the rooted, ordered, labeled XML tree of Section 2.1.

Element nodes carry a tag name, an ordered attribute map and an ordered
child list (elements and text).  The :class:`Document` owns the root
element and maintains the derived per-element descriptors the paper's
relational mapping needs (Figure 1c):

* ``node_id``   — preorder number over element nodes, 1-based,
* ``dewey``     — the Dewey vector (tuple of 1-based sibling ordinals),
* ``path``      — the root-to-node label path, e.g. ``/site/regions/item``.

Descriptors are (re)computed by :meth:`Document.reindex`, which the parser
and the builder call automatically once the tree is complete.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import DocumentDepthError

#: Deepest element a document may hold; the root element is at depth 1.
#: ``Document.reindex`` stores a Dewey vector and a path per element, so a
#: chain costs memory quadratic in its depth.
MAX_DEPTH = 512


class Node:
    """Common base for element and text nodes."""

    __slots__ = ("parent",)

    def __init__(self) -> None:
        self.parent: Optional["ElementNode"] = None

    @property
    def document(self) -> Optional["Document"]:
        """The owning document, found by walking to the root element."""
        node: Optional[Node] = self
        while node is not None and node.parent is not None:
            node = node.parent
        if isinstance(node, ElementNode):
            return node._document
        return None


class TextNode(Node):
    """A text value hanging below an element."""

    __slots__ = ("value",)

    def __init__(self, value: str):
        super().__init__()
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TextNode({self.value!r})"


class AttributeNode:
    """A lightweight view of one attribute, used by the attribute axis.

    Attributes are not part of the child list; they are reachable only via
    ``attribute::`` (abbreviated ``@``) and compare by owner + name.
    """

    __slots__ = ("owner", "name", "value")

    def __init__(self, owner: "ElementNode", name: str, value: str):
        self.owner = owner
        self.name = name
        self.value = value

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AttributeNode)
            and other.owner is self.owner
            and other.name == self.name
        )

    def __hash__(self) -> int:
        return hash((id(self.owner), self.name))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AttributeNode({self.name}={self.value!r})"


class ElementNode(Node):
    """An element of the document tree."""

    __slots__ = (
        "name",
        "attributes",
        "children",
        "node_id",
        "dewey",
        "path",
        "_document",
    )

    def __init__(self, name: str):
        super().__init__()
        self.name = name
        self.attributes: dict[str, str] = {}
        self.children: list[Node] = []
        # Descriptors, filled in by Document.reindex().
        self.node_id: int = 0
        self.dewey: tuple[int, ...] = ()
        self.path: str = ""
        self._document: Optional["Document"] = None

    # -- tree construction -------------------------------------------------

    def append(self, child: Node) -> Node:
        """Attach ``child`` as the last child and return it."""
        child.parent = self
        self.children.append(child)
        return child

    def append_element(self, name: str) -> "ElementNode":
        """Create, attach and return a new child element."""
        element = ElementNode(name)
        self.append(element)
        return element

    def append_text(self, value: str) -> TextNode:
        """Create, attach and return a new text child."""
        text = TextNode(value)
        self.append(text)
        return text

    def set(self, name: str, value: str) -> None:
        """Set attribute ``name`` to ``value``."""
        self.attributes[name] = value

    # -- navigation --------------------------------------------------------

    @property
    def element_children(self) -> list["ElementNode"]:
        """Child elements in document order (text children filtered out)."""
        return [c for c in self.children if isinstance(c, ElementNode)]

    @property
    def level(self) -> int:
        """Depth of the node; the document root element is at level 1."""
        return len(self.dewey)

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Return the value of attribute ``name`` or ``default``."""
        return self.attributes.get(name, default)

    def attribute_nodes(self) -> list[AttributeNode]:
        """All attributes wrapped as :class:`AttributeNode` views."""
        return [AttributeNode(self, k, v) for k, v in self.attributes.items()]

    def iter(self) -> Iterator["ElementNode"]:
        """Preorder iterator over this element and its element
        descendants (iterative, so arbitrarily deep trees are fine)."""
        stack: list["ElementNode"] = [self]
        while stack:
            element = stack.pop()
            yield element
            stack.extend(
                child
                for child in reversed(element.children)
                if isinstance(child, ElementNode)
            )

    def find_all(self, name: str) -> list["ElementNode"]:
        """All element descendants (or self) with the given tag name."""
        return [e for e in self.iter() if e.name == name]

    # -- value access ------------------------------------------------------

    @property
    def direct_text(self) -> str:
        """Concatenation of the element's *direct* text children."""
        return "".join(
            c.value for c in self.children if isinstance(c, TextNode)
        )

    @property
    def string_value(self) -> str:
        """The XPath string-value: all descendant text, concatenated in
        document order."""
        parts: list[str] = []
        self._collect_text(parts)
        return "".join(parts)

    def _collect_text(self, parts: list[str]) -> None:
        for child in self.children:
            if isinstance(child, TextNode):
                parts.append(child.value)
            else:
                child._collect_text(parts)  # type: ignore[union-attr]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ElementNode({self.name!r}, id={self.node_id})"


class Document:
    """A parsed XML document: the root element plus derived descriptors."""

    def __init__(self, root: ElementNode, name: str = "document"):
        self.root = root
        self.name = name
        self.reindex()

    def reindex(self) -> None:
        """Recompute node ids, Dewey vectors and root-to-node paths.

        Must be called after any structural mutation of the tree.  Node ids
        follow a preorder traversal of element nodes (Figure 1b); Dewey
        ordinals are 1-based positions among *element* siblings (Figure 1c);
        the root element has Dewey vector ``(1,)``.

        :raises DocumentDepthError: when an element nests deeper than
            :data:`MAX_DEPTH`, as soon as the walk reaches it (the
            descriptors are then as stale as before the call).
        """
        counter = 0
        stack: list[tuple[ElementNode, tuple[int, ...], str]] = [
            (self.root, (1,), "/" + self.root.name)
        ]
        while stack:
            element, dewey, path = stack.pop()
            if len(dewey) > MAX_DEPTH:
                raise DocumentDepthError(
                    f"<{element.name}> nests deeper than {MAX_DEPTH} elements"
                )
            counter += 1
            element.node_id = counter
            element.dewey = dewey
            element.path = path
            element._document = self
            ordinal = 0
            pending: list[tuple[ElementNode, tuple[int, ...], str]] = []
            for child in element.children:
                if isinstance(child, ElementNode):
                    ordinal += 1
                    pending.append(
                        (child, dewey + (ordinal,), f"{path}/{child.name}")
                    )
            # Push in reverse so the preorder counter visits children
            # left-to-right.
            stack.extend(reversed(pending))

    # -- whole-document access ----------------------------------------------

    def iter_elements(self) -> Iterator[ElementNode]:
        """All element nodes in document (preorder) order."""
        return self.root.iter()

    def element_count(self) -> int:
        """Number of element nodes in the document."""
        return sum(1 for _ in self.iter_elements())

    def find_by_id(self, node_id: int) -> Optional[ElementNode]:
        """Element with the given preorder id, or ``None``."""
        for element in self.iter_elements():
            if element.node_id == node_id:
                return element
        return None

    def distinct_paths(self) -> list[str]:
        """All distinct root-to-node paths, in first-seen order."""
        seen: dict[str, None] = {}
        for element in self.iter_elements():
            seen.setdefault(element.path, None)
        return list(seen)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Document({self.name!r}, root={self.root.name!r})"
