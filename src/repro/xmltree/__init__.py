"""In-memory XML document model, parser and serializer.

The paper models an XML document as a rooted, ordered, labeled tree whose
nodes are elements and text values (Section 2.1).  This package provides
that tree (:mod:`repro.xmltree.nodes`), a non-validating XML parser on
the standard library's expat (:mod:`repro.xmltree.parser`), a serializer
back to markup (:mod:`repro.xmltree.serializer`) and a small fluent
builder used heavily by tests and the synthetic workload generators
(:mod:`repro.xmltree.builder`).
"""

from repro.xmltree.nodes import (
    AttributeNode,
    Document,
    ElementNode,
    Node,
    TextNode,
)
from repro.xmltree.parser import parse_document, parse_fragment
from repro.xmltree.serializer import serialize
from repro.xmltree.builder import DocumentBuilder

__all__ = [
    "AttributeNode",
    "Document",
    "DocumentBuilder",
    "ElementNode",
    "Node",
    "TextNode",
    "parse_document",
    "parse_fragment",
    "serialize",
]
