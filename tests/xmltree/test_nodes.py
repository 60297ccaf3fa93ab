"""Unit tests for the XML node model and document descriptors."""

import time

import pytest

from repro.xmltree.nodes import (
    MAX_DEPTH,
    AttributeNode,
    Document,
    ElementNode,
    TextNode,
)
from repro import (
    Database,
    DocumentDepthError,
    PPFEngine,
    ShreddedStore,
    infer_schema,
    parse_document,
    serialize,
)


def small_doc() -> Document:
    root = ElementNode("A")
    b1 = root.append_element("B")
    b1.append_text("hello")
    c = b1.append_element("C")
    c.set("k", "v")
    root.append_element("B")
    return Document(root, name="small")


class TestDescriptors:
    def test_node_ids_are_preorder(self):
        doc = small_doc()
        names = [(e.node_id, e.name) for e in doc.iter_elements()]
        assert names == [(1, "A"), (2, "B"), (3, "C"), (4, "B")]

    def test_dewey_vectors(self):
        doc = small_doc()
        deweys = {e.name + str(e.node_id): e.dewey for e in doc.iter_elements()}
        assert deweys == {
            "A1": (1,),
            "B2": (1, 1),
            "C3": (1, 1, 1),
            "B4": (1, 2),
        }

    def test_paths(self):
        doc = small_doc()
        assert [e.path for e in doc.iter_elements()] == [
            "/A",
            "/A/B",
            "/A/B/C",
            "/A/B",
        ]

    def test_levels(self):
        doc = small_doc()
        assert [e.level for e in doc.iter_elements()] == [1, 2, 3, 2]

    def test_text_children_do_not_get_ordinals(self):
        doc = parse_document("<r>x<a/>y<b/></r>")
        a, b = doc.root.element_children
        assert a.dewey == (1, 1)
        assert b.dewey == (1, 2)

    def test_reindex_after_mutation(self):
        doc = small_doc()
        doc.root.append_element("Z")
        doc.reindex()
        last = list(doc.iter_elements())[-1]
        assert last.name == "Z"
        assert last.node_id == 5
        assert last.dewey == (1, 3)

    def test_figure1_descriptors(self, figure1_document):
        """Figure 1(c) ground truth: id, parent, dewey, path."""
        rows = [
            (e.node_id,
             e.parent.node_id if e.parent else None,
             ".".join(map(str, e.dewey)),
             e.name)
            for e in figure1_document.iter_elements()
        ]
        assert rows == [
            (1, None, "1", "A"),
            (2, 1, "1.1", "B"),
            (3, 2, "1.1.1", "C"),
            (4, 3, "1.1.1.1", "D"),
            (5, 2, "1.1.2", "C"),
            (6, 5, "1.1.2.1", "E"),
            (7, 6, "1.1.2.1.1", "F"),
            (8, 6, "1.1.2.1.2", "F"),
            (9, 2, "1.1.3", "G"),
            (10, 1, "1.2", "B"),
            (11, 10, "1.2.1", "G"),
            (12, 11, "1.2.1.1", "G"),
        ]


class TestValueAccess:
    def test_direct_text_concatenates_only_direct_children(self):
        doc = parse_document("<a>x<b>inner</b>y</a>")
        assert doc.root.direct_text == "xy"

    def test_string_value_includes_descendants(self):
        doc = parse_document("<a>x<b>inner</b>y</a>")
        assert doc.root.string_value == "xinnery"

    def test_get_attribute_with_default(self):
        doc = small_doc()
        c = doc.find_by_id(3)
        assert c.get("k") == "v"
        assert c.get("missing") is None
        assert c.get("missing", "d") == "d"

    def test_attribute_nodes(self):
        doc = small_doc()
        c = doc.find_by_id(3)
        nodes = c.attribute_nodes()
        assert len(nodes) == 1
        assert nodes[0].name == "k"
        assert nodes[0].value == "v"
        assert nodes[0].owner is c

    def test_attribute_node_equality_by_owner_and_name(self):
        doc = small_doc()
        c = doc.find_by_id(3)
        assert AttributeNode(c, "k", "v") == AttributeNode(c, "k", "other")
        assert hash(AttributeNode(c, "k", "v")) == hash(
            AttributeNode(c, "k", "other")
        )


class TestNavigation:
    def test_element_children_excludes_text(self):
        doc = parse_document("<a>t<b/>t2<c/></a>")
        assert [e.name for e in doc.root.element_children] == ["b", "c"]

    def test_find_all(self, figure1_document):
        assert len(figure1_document.root.find_all("G")) == 3
        assert len(figure1_document.root.find_all("F")) == 2

    def test_find_by_id_missing(self, figure1_document):
        assert figure1_document.find_by_id(999) is None

    def test_distinct_paths(self, figure1_document):
        assert figure1_document.distinct_paths() == [
            "/A",
            "/A/B",
            "/A/B/C",
            "/A/B/C/D",
            "/A/B/C/E",
            "/A/B/C/E/F",
            "/A/B/G",
            "/A/B/G/G",
        ]

    def test_element_count(self, figure1_document):
        assert figure1_document.element_count() == 12

    def test_document_property_walks_to_root(self, figure1_document):
        leaf = figure1_document.find_by_id(12)
        assert leaf.document is figure1_document

    def test_text_node_parent(self):
        doc = parse_document("<a>hi</a>")
        text = doc.root.children[0]
        assert isinstance(text, TextNode)
        assert text.parent is doc.root


class TestIterOrder:
    def test_iter_is_preorder(self, figure1_document):
        ids = [e.node_id for e in figure1_document.iter_elements()]
        assert ids == sorted(ids)

    def test_deep_tree_does_not_recurse(self):
        """Iteration walks a 5000-deep built tree without recursing; as a
        document it is refused (``MAX_DEPTH``), see TestDepthBound."""
        root = ElementNode("n0")
        current = root
        for i in range(1, 5000):
            current = current.append_element(f"n")
        elements = list(root.iter())
        assert len(elements) == 5000
        assert elements[-1] is current
        with pytest.raises(DocumentDepthError):
            Document(root)


def built_chain(depth: int) -> ElementNode:
    """``depth`` nested ``a`` elements built with ``append``, the deepest
    holding the text ``x``."""
    root = node = ElementNode("a")
    for _ in range(depth - 1):
        node = node.append_element("a")
    node.append_text("x")
    return root


class TestDepthBound:
    """A built tree is held to the parser's ``MAX_DEPTH``: past it,
    indexing ends in a typed error before the Dewey vectors and paths it
    would store grow quadratic."""

    @pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 100_000])
    def test_too_deep_ends_in_the_typed_error_fast(self, depth):
        root = built_chain(depth)
        start = time.perf_counter()
        with pytest.raises(DocumentDepthError, match=f"deeper than {MAX_DEPTH}"):
            Document(root)
        assert time.perf_counter() - start < 1.0
        shallow = Document(ElementNode("r"))
        shallow.root.append(root)
        start = time.perf_counter()
        with pytest.raises(DocumentDepthError):
            shallow.reindex()
        assert time.perf_counter() - start < 1.0

    def test_at_the_limit_loads_and_serializes(self):
        document = Document(built_chain(MAX_DEPTH))
        (leaf,) = [e for e in document.iter_elements() if e.direct_text]
        assert leaf.level == MAX_DEPTH
        assert document.root.string_value == "x"
        text = serialize(document, pretty=False)
        assert text == "<a>" * MAX_DEPTH + "x" + "</a>" * MAX_DEPTH
        store = ShreddedStore.create(
            Database.memory(), infer_schema([document])
        )
        store.load(document)
        assert PPFEngine(store).execute("//a[not(a)]").ids == [MAX_DEPTH]
