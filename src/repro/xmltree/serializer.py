"""Serialization of the in-memory tree back to XML markup."""

from __future__ import annotations

from typing import Union

from repro.xmltree.nodes import Document, ElementNode, TextNode


# A parser normalizes a raw CR to LF, and a tab, CR or LF in an attribute
# value to a space; written as character references they survive.
def _escape_text(value: str) -> str:
    return (
        value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace("\r", "&#13;")
    )


def _escape_attribute(value: str) -> str:
    return (
        _escape_text(value).replace('"', "&quot;").replace("\t", "&#9;")
        .replace("\n", "&#10;")
    )


def _write_element(element: ElementNode, out: list[str], indent: int,
                   pretty: bool) -> None:
    pad = "  " * indent if pretty else ""
    attrs = "".join(
        f' {name}="{_escape_attribute(value)}"'
        for name, value in element.attributes.items()
    )
    if not element.children:
        out.append(f"{pad}<{element.name}{attrs}/>")
        return
    only_text = all(isinstance(c, TextNode) for c in element.children)
    if only_text:
        text = "".join(
            _escape_text(c.value)  # type: ignore[union-attr]
            for c in element.children
        )
        out.append(f"{pad}<{element.name}{attrs}>{text}</{element.name}>")
        return
    out.append(f"{pad}<{element.name}{attrs}>")
    for child in element.children:
        if isinstance(child, TextNode):
            out.append(("  " * (indent + 1) if pretty else "")
                       + _escape_text(child.value))
        else:
            _write_element(child, out, indent + 1, pretty)
    out.append(f"{pad}</{element.name}>")


def serialize(node: Union[Document, ElementNode], pretty: bool = True,
              declaration: bool = False) -> str:
    """Serialize a document or element subtree to XML markup.

    :param pretty: indent nested elements (mixed-content text is kept
        verbatim inside elements whose children are all text).
    :param declaration: prepend an ``<?xml ...?>`` declaration.
    """
    element = node.root if isinstance(node, Document) else node
    out: list[str] = []
    if declaration:
        out.append('<?xml version="1.0" encoding="UTF-8"?>')
    _write_element(element, out, 0, pretty)
    return ("\n" if pretty else "").join(out)
