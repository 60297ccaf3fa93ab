"""The parser rebuilds every generated document node for node.

The generator's tree is the oracle: serializing it and parsing the markup
back must give the same elements in the same order, each with the same
name, attributes, direct text, ``node_id``, ``dewey`` and ``path``.  Those
are what the shredders write, so a store built from the parsed markup holds
the rows of the generated document.
"""

from __future__ import annotations

import pytest

from repro import parse_document, serialize
from repro.workloads import DBLPConfig, XMarkConfig, generate_dblp, generate_xmark
from repro.xmltree.nodes import Document, ElementNode, TextNode

SEEDS = (1, 2, 3)

CASES = [
    pytest.param("xmark", scale, seed, id=f"xmark-{scale}-seed{seed}")
    for scale in (0.25, 2, 6, 24)
    for seed in SEEDS
] + [
    pytest.param("dblp", 1.0, seed, id=f"dblp-seed{seed}") for seed in SEEDS
]


def _generate(kind: str, scale: float, seed: int) -> Document:
    if kind == "xmark":
        return generate_xmark(XMarkConfig(scale=scale, seed=seed))
    return generate_dblp(DBLPConfig(scale=scale, seed=seed))


def _text(element: ElementNode, pretty: bool) -> object:
    values = [c.value for c in element.children if isinstance(c, TextNode)]
    if pretty and element.element_children:
        # Pretty printing puts each text child of a mixed-content element
        # on an indented line of its own: only the words are kept.
        return " ".join(values).split()
    return "".join(values)


def _descriptors(document: Document, pretty: bool) -> list[tuple]:
    return [
        (
            element.name,
            element.attributes,
            _text(element, pretty),
            element.node_id,
            element.dewey,
            element.path,
        )
        for element in document.iter_elements()
    ]


@pytest.mark.parametrize("kind, scale, seed", CASES)
def test_parse_of_serialized_document_is_the_generated_tree(kind, scale, seed):
    generated = _generate(kind, scale, seed)
    for pretty in (False, True):
        expected = _descriptors(generated, pretty)
        parsed = parse_document(serialize(generated, pretty=pretty))
        actual = _descriptors(parsed, pretty)
        assert len(actual) == len(expected)
        for want, got in zip(expected, actual, strict=True):
            assert got == want, pretty
