"""Unit tests for the expat-driven XML parser."""

import time

import pytest

from repro import (
    Database,
    NativeEngine,
    PPFEngine,
    ShreddedStore,
    XMLParseError,
    infer_schema,
    parse_document,
    parse_fragment,
    serialize,
)
from repro.xmltree.nodes import ElementNode, TextNode
from repro.xmltree.parser import MAX_DEPTH

#: Ten levels of tenfold entity expansion: 10**9 "lol"s if expanded.
BILLION_LAUGHS = (
    "<!DOCTYPE lolz [<!ENTITY lol0 'lol'>"
    + "".join(
        f"<!ENTITY lol{n} '{f'&lol{n - 1};' * 10}'>" for n in range(1, 10)
    )
    + "]><lolz>&lol9;</lolz>"
)
ENTITY_DECLARED = "<!DOCTYPE a [<!ENTITY e 'x'>]><a>&e;</a>"
#: With an external DTD expat skips a reference it cannot expand; the text
#: must not vanish silently.
ENTITY_SKIPPED = "<!DOCTYPE a SYSTEM 'x.dtd'><a>&e;</a>"


def chain(depth: int) -> str:
    """``depth`` nested ``a`` elements, the deepest holding ``<b>x</b>``."""
    return "<a>" * (depth - 1) + "<b>x</b>" + "</a>" * (depth - 1)


class TestBasicParsing:
    def test_single_element(self):
        doc = parse_document("<root/>")
        assert doc.root.name == "root"
        assert doc.root.children == []

    def test_nested_elements(self):
        doc = parse_document("<a><b><c/></b><d/></a>")
        assert [e.name for e in doc.iter_elements()] == ["a", "b", "c", "d"]

    def test_text_content(self):
        doc = parse_document("<a>hello world</a>")
        assert doc.root.direct_text == "hello world"

    def test_mixed_content_order(self):
        doc = parse_document("<a>one<b/>two<c/>three</a>")
        kinds = [
            child.value if isinstance(child, TextNode) else child.name
            for child in doc.root.children
        ]
        assert kinds == ["one", "b", "two", "c", "three"]

    def test_attributes_double_and_single_quotes(self):
        doc = parse_document("""<a x="1" y='two'/>""")
        assert doc.root.attributes == {"x": "1", "y": "two"}

    def test_attribute_with_spaces_around_equals(self):
        doc = parse_document("<a x = '1'/>")
        assert doc.root.get("x") == "1"

    def test_self_closing_with_attributes(self):
        doc = parse_document("<a><b k='v'/></a>")
        assert doc.root.element_children[0].get("k") == "v"

    def test_names_with_dots_dashes_colons(self):
        doc = parse_document("<ns:a-b.c><x_1/></ns:a-b.c>")
        assert doc.root.name == "ns:a-b.c"
        assert doc.root.element_children[0].name == "x_1"

    def test_document_name_label(self):
        doc = parse_document("<a/>", name="mydoc")
        assert doc.name == "mydoc"


class TestProlog:
    def test_xml_declaration(self):
        doc = parse_document("<?xml version='1.0' encoding='UTF-8'?><a/>")
        assert doc.root.name == "a"

    def test_doctype_skipped(self):
        doc = parse_document("<!DOCTYPE a SYSTEM 'x.dtd'><a/>")
        assert doc.root.name == "a"

    def test_doctype_with_internal_subset(self):
        doc = parse_document("<!DOCTYPE a [<!ELEMENT a EMPTY>]><a/>")
        assert doc.root.name == "a"

    def test_leading_comment(self):
        doc = parse_document("<!-- hi --><a/>")
        assert doc.root.name == "a"

    def test_trailing_comment(self):
        doc = parse_document("<a/><!-- bye -->")
        assert doc.root.name == "a"


class TestEntitiesAndCData:
    def test_predefined_entities(self):
        doc = parse_document("<a>&lt;&amp;&gt;&quot;&apos;</a>")
        assert doc.root.direct_text == "<&>\"'"

    def test_decimal_character_reference(self):
        doc = parse_document("<a>&#65;</a>")
        assert doc.root.direct_text == "A"

    def test_hex_character_reference(self):
        doc = parse_document("<a>&#x41;&#x3B1;</a>")
        assert doc.root.direct_text == "Aα"

    def test_entities_in_attributes(self):
        doc = parse_document("<a t='&amp;&#33;'/>")
        assert doc.root.get("t") == "&!"

    def test_cdata_section(self):
        doc = parse_document("<a><![CDATA[<not> & parsed]]></a>")
        assert doc.root.direct_text == "<not> & parsed"

    def test_comment_inside_content(self):
        doc = parse_document("<a>x<!-- note -->y</a>")
        assert doc.root.direct_text == "xy"

    def test_processing_instruction_inside_content(self):
        doc = parse_document("<a>x<?pi data?>y</a>")
        assert doc.root.direct_text == "xy"


class TestWhitespace:
    def test_whitespace_only_text_dropped_by_default(self):
        doc = parse_document("<a>\n  <b/>\n</a>")
        assert all(isinstance(c, ElementNode) for c in doc.root.children)

    def test_significant_whitespace_preserved(self):
        doc = parse_document("<a> x </a>")
        assert doc.root.direct_text == " x "


class TestErrors:
    @pytest.mark.parametrize(
        "markup",
        [
            "<a>",  # unclosed
            "<a></b>",  # mismatched
            "<a",  # truncated tag
            "<a x></a>",  # attribute without value
            "<a x=1></a>",  # unquoted value
            "<a x='1' x='2'/>",  # duplicate attribute
            "<a>&unknown;</a>",  # unknown entity
            "<a>&#xZZ;</a>",  # bad char ref
            "<a>& bare</a>",  # unterminated reference
            "<a/><b/>",  # two roots
            "",  # empty input
            "just text",  # no element
            "<a><!-- unterminated</a>",
            "<a><![CDATA[open</a>",
            pytest.param(BILLION_LAUGHS, id="billion-laughs"),
            pytest.param(ENTITY_DECLARED, id="entity-declared"),
            pytest.param(ENTITY_SKIPPED, id="entity-skipped"),
            pytest.param("<a>\ud800</a>", id="lone-surrogate"),
        ],
    )
    def test_malformed_raises(self, markup):
        with pytest.raises(XMLParseError) as caught:
            parse_document(markup)
        assert caught.value.line >= 1
        assert caught.value.column >= 1

    def test_error_carries_location(self):
        try:
            parse_document("<a>\n<b></c></a>")
        except XMLParseError as exc:
            assert exc.line == 2
            assert exc.column > 0
        else:  # pragma: no cover
            pytest.fail("expected a parse error")


class TestFragment:
    def test_parse_fragment_returns_unindexed_element(self):
        element = parse_fragment("<a><b/></a>")
        assert isinstance(element, ElementNode)
        assert element.node_id == 0  # not indexed yet

    def test_fragment_rejects_trailing_garbage(self):
        with pytest.raises(XMLParseError):
            parse_fragment("<a/>garbage")


class TestNormalization:
    def test_line_ends_become_line_feeds(self):
        doc = parse_document("<a>x\r\ny\rz</a>")
        assert doc.root.direct_text == "x\ny\nz"

    def test_attribute_whitespace_becomes_spaces(self):
        doc = parse_document("<a t='x\ty\nz'/>")
        assert doc.root.get("t") == "x y z"

    def test_character_references_survive_normalization(self):
        doc = parse_document("<a t='&#9;&#10;&#13;'>x&#13;y</a>")
        assert doc.root.get("t") == "\t\n\r"
        assert doc.root.direct_text == "x\ry"

    def test_dtd_adds_no_default_attributes(self):
        doc = parse_document("<!DOCTYPE a [<!ATTLIST a x CDATA 'd'>]><a/>")
        assert doc.root.attributes == {}


class TestDepthLimit:
    def test_document_at_the_limit_parses_loads_queries_and_serializes(self):
        doc = parse_document(chain(MAX_DEPTH))
        (leaf,) = doc.root.find_all("b")
        assert leaf.level == MAX_DEPTH
        assert doc.root.string_value == "x"
        store = ShreddedStore.create(Database.memory(), infer_schema([doc]))
        store.load(doc)
        native = NativeEngine(doc)
        engine = PPFEngine(store)
        for xpath in ("//b", "//a[b]", "//b/ancestor::a"):
            result = engine.execute(xpath)
            assert result.served_by != "native", xpath
            expected = [node.node_id for node in native.execute(xpath)]
            assert result.ids == expected, xpath
        assert serialize(doc, pretty=False) == chain(MAX_DEPTH)

    @pytest.mark.parametrize(
        "markup",
        [
            pytest.param(chain(MAX_DEPTH + 1), id="limit+1"),
            pytest.param(chain(100_000), id="100000-deep"),
            pytest.param(BILLION_LAUGHS, id="billion-laughs"),
            pytest.param(ENTITY_DECLARED, id="entity-declared"),
            pytest.param(ENTITY_SKIPPED, id="entity-skipped"),
        ],
    )
    def test_hostile_input_fails_fast(self, markup):
        start = time.perf_counter()
        with pytest.raises(XMLParseError):
            parse_document(markup)
        assert time.perf_counter() - start < 1.0
