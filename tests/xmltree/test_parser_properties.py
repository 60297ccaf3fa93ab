"""Property-based tests: serialize∘parse is the identity on our trees."""

from hypothesis import given, settings, strategies as st

from repro import parse_document, serialize
from repro.xmltree.nodes import Document, ElementNode

_NAMES = st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_.-]{0,8}", fullmatch=True)
# Printable text without leading/trailing whitespace loss concerns.  Tabs,
# newlines and carriage returns inside it must survive the parser's
# line-end and attribute-value normalization.
_TEXT = st.text(
    alphabet=st.characters(
        whitelist_categories=("Lu", "Ll", "Nd", "Po", "Zs"),
        whitelist_characters="&<>\"'\t\n\r",
    ),
    min_size=1,
    max_size=20,
).filter(lambda s: s.strip() == s and s.strip())

_ATTRS = st.dictionaries(_NAMES, _TEXT, max_size=3)


@st.composite
def elements(draw, depth=0):
    element = ElementNode(draw(_NAMES))
    for name, value in draw(_ATTRS).items():
        element.set(name, value)
    if depth < 3:
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(["text", "element"]))
            if kind == "text":
                element.append_text(draw(_TEXT))
            else:
                element.append(draw(elements(depth=depth + 1)))
    return element


def _shape(element: ElementNode):
    return (
        element.name,
        tuple(sorted(element.attributes.items())),
        element.direct_text,
        tuple(_shape(c) for c in element.element_children),
    )


@given(elements())
@settings(max_examples=120, deadline=None)
def test_parse_serialize_round_trip(root):
    doc = Document(root)
    for pretty in (False,):
        reparsed = parse_document(serialize(doc, pretty=pretty))
        assert _shape(reparsed.root) == _shape(doc.root)


@given(elements())
@settings(max_examples=60, deadline=None)
def test_reindex_is_idempotent(root):
    doc = Document(root)
    first = [(e.node_id, e.dewey, e.path) for e in doc.iter_elements()]
    doc.reindex()
    second = [(e.node_id, e.dewey, e.path) for e in doc.iter_elements()]
    assert first == second


@given(elements())
@settings(max_examples=60, deadline=None)
def test_dewey_matches_parent_child_structure(root):
    doc = Document(root)
    for element in doc.iter_elements():
        parent = element.parent
        if parent is None:
            assert element.dewey == (1,)
        else:
            assert element.dewey[:-1] == parent.dewey
            siblings = parent.element_children
            assert element.dewey[-1] == siblings.index(element) + 1
