"""XML parsing with the standard library's expat, into this package's tree.

The parse is non-validating: a DOCTYPE is read but adds no default
attributes, and namespaces are left as plain colonized names.  Adjacent
character data (split by a comment, a processing instruction, a CDATA
section or expat's buffer) becomes one text node, and whitespace-only text
is dropped, matching the data-oriented documents of the paper's workloads.
Expat applies XML 1.0 normalization: CRLF becomes LF, and a tab or newline
in an attribute value becomes a space.

Hostile input ends in :class:`XMLParseError` as soon as it is seen: an
entity declaration (which covers entity-expansion bombs), an entity
reference expat has to skip, or nesting deeper than :data:`MAX_DEPTH`.
"""

from __future__ import annotations

from xml.parsers import expat

from repro.errors import XMLParseError
from repro.xmltree.nodes import MAX_DEPTH, Document, ElementNode, TextNode


def parse_fragment(text: str) -> ElementNode:
    """Parse a single element (with content) and return it, unindexed."""
    # Expat gets UTF-8 bytes whatever the XML declaration says.  Encoding
    # here with surrogates passed through turns a lone surrogate into a
    # located "invalid token" error instead of a UnicodeEncodeError.
    parser = expat.ParserCreate("utf-8")
    parser.buffer_text = True
    parser.specified_attributes = True
    stack: list[ElementNode] = []
    roots: list[ElementNode] = []
    pending: list[str] = []

    def refuse(message: str) -> XMLParseError:
        return XMLParseError(
            message, parser.CurrentLineNumber, parser.CurrentColumnNumber + 1
        )

    def flush() -> None:
        value = "".join(pending)
        pending.clear()
        if value.strip():
            stack[-1].append(TextNode(value))

    def start(name: str, attributes: dict[str, str]) -> None:
        if pending:
            flush()
        if len(stack) == MAX_DEPTH:
            raise refuse(f"<{name}> nests deeper than {MAX_DEPTH} elements")
        element = ElementNode(name)
        element.attributes = attributes
        if stack:
            stack[-1].append(element)
        else:
            roots.append(element)
        stack.append(element)

    def end(name: str) -> None:
        if pending:
            flush()
        stack.pop()

    def entity_declaration(name: str, *_: object) -> None:
        raise refuse(f"entity declaration {name!r} refused")

    def skipped_entity(name: str, is_parameter_entity: bool) -> None:
        raise refuse(f"entity reference {name!r} cannot be expanded")

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = pending.append
    parser.EntityDeclHandler = entity_declaration
    parser.SkippedEntityHandler = skipped_entity
    try:
        parser.Parse(text.encode("utf-8", "surrogatepass"), True)
    except expat.ExpatError as exc:
        raise XMLParseError(
            expat.ErrorString(exc.code), exc.lineno, exc.offset + 1
        ) from None
    return roots[0]


def parse_document(text: str, name: str = "document") -> Document:
    """Parse a complete XML document into an indexed :class:`Document`.

    :param text: the document markup.
    :param name: a label stored on the document (used as the relational
        ``doc`` name when shredding).
    :raises XMLParseError: for markup that is not well formed, declares an
        entity, uses one it cannot expand or nests deeper than
        :data:`MAX_DEPTH`.
    """
    return Document(parse_fragment(text), name=name)
