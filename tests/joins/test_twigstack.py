"""TwigStack tests: unit cases, XPath equivalences, brute-force property.

TwigStack lives in ``examples/twig_patterns.py``, the script that
measures it against the PPF SQL; these tests load it from there."""

import importlib.util
import pathlib
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.native import NativeEngine
from repro.errors import TranslationError
from repro.xmltree.nodes import Document, ElementNode

_EXAMPLE = (
    pathlib.Path(__file__).resolve().parents[2] / "examples" / "twig_patterns.py"
)
_spec = importlib.util.spec_from_file_location("twig_patterns", _EXAMPLE)
twig_patterns = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = twig_patterns  # dataclasses look their module up
_spec.loader.exec_module(twig_patterns)
TwigPattern = twig_patterns.TwigPattern
twig_join = twig_patterns.twig_join


def brute_force_twig(document, pattern):
    """All full matches by exhaustive recursion over the real tree."""
    elements = list(document.iter_elements())

    def descendants(element):
        result = []
        stack = list(element.element_children)
        while stack:
            node = stack.pop()
            result.append(node)
            stack.extend(node.element_children)
        return result

    def candidates(q, context):
        if context is None:
            pool = elements
        elif q.edge == "child":
            pool = context.element_children
        else:
            pool = descendants(context)
        return [e for e in pool if e.name == q.name]

    matches = []

    def assign(queue, binding):
        if not queue:
            matches.append(dict(binding))
            return
        q, context = queue[0]
        for element in candidates(q, context):
            binding[q] = element
            assign(
                queue[1:] + [(child, element) for child in q.children],
                binding,
            )
            del binding[q]

    root_pattern, = [pattern]
    assign([(root_pattern, None)], {})
    return {
        tuple(sorted((id(q), e.node_id) for q, e in m.items()))
        for m in matches
    }


def twig_result_set(document, pattern):
    return {
        tuple(sorted((id(q), n.node_id) for q, n in m.items()))
        for m in twig_join(document, pattern)
    }


class TestTwigStack:
    def test_simple_path_twig(self, figure1_document):
        pattern = TwigPattern("B")
        pattern.add("G")
        got = twig_result_set(figure1_document, pattern)
        assert got == brute_force_twig(figure1_document, pattern)
        assert len(got) == 3  # (B2,G9), (B10,G11), (B10,G12)

    def test_branching_twig(self, figure1_document):
        pattern = TwigPattern("B")
        pattern.add("C")
        pattern.add("G")
        assert twig_result_set(
            figure1_document, pattern
        ) == brute_force_twig(figure1_document, pattern)

    def test_child_edges(self, figure1_document):
        pattern = TwigPattern("C")
        pattern.add("F", edge="child")  # F is never a direct child of C
        assert twig_join(figure1_document, pattern) == []
        deeper = TwigPattern("E")
        deeper.add("F", edge="child")
        assert len(twig_join(figure1_document, deeper)) == 2

    def test_recursive_labels(self, figure1_document):
        pattern = TwigPattern("G")
        pattern.add("G")
        got = twig_result_set(figure1_document, pattern)
        assert got == brute_force_twig(figure1_document, pattern)
        # only (G11, G12) nests strictly; G9 has no G descendant
        assert len(got) == 1

    def test_matches_native_xpath_semijoin(self, figure1_document):
        native = NativeEngine(figure1_document)
        pattern = TwigPattern("B")
        c = pattern.add("C")
        c.add("F")
        matches = twig_join(figure1_document, pattern)
        got = sorted({m[pattern].node_id for m in matches})
        expected = sorted(n.node_id for n in native.execute("//B[.//C//F]"))
        assert got == expected

    def test_no_matches(self, figure1_document):
        pattern = TwigPattern("F")
        pattern.add("A")
        assert twig_join(figure1_document, pattern) == []

    def test_missing_stream_rejected(self, figure1_document):
        pattern = TwigPattern("B")
        child = pattern.add("C")
        with pytest.raises(TranslationError):
            twig_join({pattern: []}, pattern)

    def test_bad_edge_rejected(self):
        with pytest.raises(TranslationError):
            TwigPattern("a", edge="sideways")

    def test_walk_and_leaves(self):
        pattern = TwigPattern("a")
        b = pattern.add("b")
        b.add("c")
        pattern.add("d")
        assert [n.name for n in pattern.walk()] == ["a", "b", "c", "d"]
        assert [n.name for n in pattern.leaves()] == ["c", "d"]


def _random_document(rng: random.Random) -> Document:
    labels = ["a", "b", "c"]

    def build(depth):
        element = ElementNode(rng.choice(labels))
        if depth < 4:
            for _ in range(rng.randint(0, 3)):
                element.append(build(depth + 1))
        return element

    return Document(build(0))


def _random_pattern(rng: random.Random) -> TwigPattern:
    labels = ["a", "b", "c"]
    root = TwigPattern(rng.choice(labels))
    nodes = [root]
    for _ in range(rng.randint(1, 3)):
        parent = rng.choice(nodes)
        edge = rng.choice(["desc", "desc", "child"])
        nodes.append(parent.add(rng.choice(labels), edge))
    return root


@given(st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_agrees_with_brute_force_on_random_inputs(seed):
    rng = random.Random(seed)
    document = _random_document(rng)
    pattern = _random_pattern(rng)
    assert twig_result_set(document, pattern) == brute_force_twig(
        document, pattern
    )
