"""Section 7's future work, measured: PPF SQL against a holistic twig join.

The paper's conclusions propose combining PPF-based processing with
native XML join techniques such as holistic twig joins [28].  The Dewey
positions the relational stores keep are exactly what those algorithms
consume, so the combination is a query away: pull per-label candidate
streams out of the mapping relations (optionally pre-filtered by the
path index) and run TwigStack over them in process.

This script answers the branching pattern ``//item[.//keyword][.//mail]``
three ways over one shredded XMark store — the PPF SQL translation,
TwigStack over per-relation Dewey streams, and TwigStack over a
path-index-pre-filtered keyword stream — and prints the best of five
timings of each.  It exits 1 unless the SQL, TwigStack and the native
oracle return the same items.  The SQL wins by two orders of magnitude
(EXPERIMENTS.md has the measurements at XMark scale 6 and 24).

TwigStack (Bruno, Koudas, Srivastava, SIGMOD 2002) matches a whole tree
pattern ("twig") against per-label document-ordered node streams in one
coordinated pass, buffering only root-to-leaf chains on per-pattern-node
stacks.  Pattern edges are ``desc`` (ancestor-descendant) or ``child``
(parent-child).  TwigStack's I/O optimality holds for descendant-only
twigs; ``child`` edges are enforced exactly during path-solution
filtering via the Dewey length (one level = one 3-byte component), the
standard post-filtering approach.  :func:`twig_join` returns full twig
matches as ``{pattern node: JoinNode}`` dicts, assembled by
merge-joining the emitted root-to-leaf path solutions.

Run with::

    python examples/twig_patterns.py
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

from repro import Database, NativeEngine, PPFEngine, ShreddedStore, infer_schema
from repro.dewey import encode
from repro.dewey.codec import COMPONENT_BYTES, descendant_upper_bound
from repro.errors import TranslationError
from repro.workloads import XMarkConfig, generate_xmark
from repro.xmltree.nodes import Document


@dataclass(frozen=True)
class JoinNode:
    """One stream element: a node id plus its binary Dewey position."""

    node_id: int
    dewey: bytes

    def is_ancestor_of(self, other: "JoinNode") -> bool:
        """Lemma 1 byte-range test against another stream node."""
        return (
            self.dewey < other.dewey
            and other.dewey < descendant_upper_bound(self.dewey)
        )


def document_stream(document: Document, name: str | None = None) -> list[JoinNode]:
    """The document-ordered stream of (optionally name-filtered)
    elements, in the form the join algorithms consume."""
    return [
        JoinNode(element.node_id, encode(element.dewey))
        for element in document.iter_elements()
        if name is None or element.name == name
    ]


@dataclass(eq=False)
class TwigPattern:
    """One node of a twig pattern.

    :param name: element name the node matches (no wildcards here; feed
        a pre-filtered stream for wildcard semantics).
    :param edge: relationship to the parent pattern node: ``desc``
        (default, ancestor-descendant) or ``child``.
    """

    name: str
    edge: str = "desc"
    children: list["TwigPattern"] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.edge not in ("desc", "child"):
            raise TranslationError(f"unknown twig edge {self.edge!r}")

    def add(self, name: str, edge: str = "desc") -> "TwigPattern":
        """Append and return a new child pattern node."""
        child = TwigPattern(name, edge)
        self.children.append(child)
        return child

    @property
    def is_leaf(self) -> bool:
        """True when the pattern node has no children."""
        return not self.children

    def walk(self) -> Iterator["TwigPattern"]:
        """Preorder iterator over the pattern tree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def leaves(self) -> list["TwigPattern"]:
        """The pattern's leaf nodes, in preorder."""
        return [node for node in self.walk() if node.is_leaf]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sep = "//" if self.edge == "desc" else "/"
        return f"TwigPattern({sep}{self.name}, {len(self.children)} children)"


class _Stream:
    """Cursor over one pattern node's document-ordered input."""

    def __init__(self, nodes: Sequence[JoinNode]):
        self.nodes = list(nodes)
        self.index = 0

    @property
    def exhausted(self) -> bool:
        return self.index >= len(self.nodes)

    @property
    def head(self) -> JoinNode:
        return self.nodes[self.index]

    def advance(self) -> None:
        self.index += 1


@dataclass
class _StackEntry:
    node: JoinNode
    #: index of the top of the parent's stack at push time; every parent
    #: entry at or below it is a compatible ancestor.
    parent_top: int


class _TwigState:
    def __init__(
        self,
        pattern: TwigPattern,
        streams: dict[TwigPattern, Sequence[JoinNode]],
    ):
        self.root = pattern
        self.parent: dict[TwigPattern, Optional[TwigPattern]] = {pattern: None}
        self.depth: dict[TwigPattern, int] = {pattern: 0}
        for node in pattern.walk():
            for child in node.children:
                self.parent[child] = node
                self.depth[child] = self.depth[node] + 1
        try:
            self.streams = {
                node: _Stream(streams[node]) for node in pattern.walk()
            }
        except KeyError as exc:
            raise TranslationError(
                f"no stream supplied for pattern node {exc}"
            ) from None
        self.stacks: dict[TwigPattern, list[_StackEntry]] = {
            node: [] for node in pattern.walk()
        }
        self.path_solutions: dict[TwigPattern, list[dict]] = {
            leaf: [] for leaf in pattern.leaves()
        }

    # -- TwigStack core -----------------------------------------------------

    def next_pattern_node(self) -> Optional[TwigPattern]:
        """The pattern node whose stream head comes first in document
        order.

        This is the plain merge driver: it visits every stream element
        once, in global document order, which makes the stack discipline
        below obviously complete.  (The original paper's ``getNext``
        additionally *skips* stream elements that provably lead nowhere —
        an I/O optimization for ancestor-descendant-only twigs that does
        not change the result; it is elided here for clarity and for
        uniform handling of parent-child edges.)
        """
        best: Optional[TwigPattern] = None
        for node, stream in self.streams.items():
            if stream.exhausted:
                continue
            if best is None:
                best = node
                continue
            best_head = self.streams[best].head.dewey
            if stream.head.dewey < best_head or (
                # Tie (one element feeding several pattern streams):
                # process the pattern node closer to the root first so
                # its stack entry exists when descendants look for it.
                stream.head.dewey == best_head
                and self.depth[node] < self.depth[best]
            ):
                best = node
        return best

    def clean_stack(self, q: TwigPattern, start: bytes) -> None:
        stack = self.stacks[q]
        while stack and descendant_upper_bound(stack[-1].node.dewey) < start:
            stack.pop()

    def move_to_stack(self, q: TwigPattern) -> None:
        stream = self.streams[q]
        parent = self.parent[q]
        parent_top = (
            len(self.stacks[parent]) - 1 if parent is not None else -1
        )
        self.stacks[q].append(_StackEntry(stream.head, parent_top))
        stream.advance()

    def emit_paths(self, leaf: TwigPattern) -> None:
        """Enumerate root-to-leaf solutions ending at the just-pushed
        leaf entry, then pop it (leaves never stay on their stack)."""
        entry = self.stacks[leaf][-1]

        def expand(q: TwigPattern, top_index: int, binding: dict) -> None:
            parent = self.parent[q]
            if parent is None:
                self.path_solutions[leaf].append(dict(binding))
                return
            for index in range(top_index + 1):
                parent_entry = self.stacks[parent][index]
                if q.edge == "child" and len(
                    parent_entry.node.dewey
                ) + COMPONENT_BYTES != len(binding[q].dewey):
                    continue
                binding[parent] = parent_entry.node
                expand(parent, parent_entry.parent_top, binding)
                del binding[parent]

        expand(leaf, entry.parent_top, {leaf: entry.node})
        self.stacks[leaf].pop()

    def run(self) -> None:
        while True:
            q = self.next_pattern_node()
            if q is None:
                return
            head = self.streams[q].head
            parent = self.parent[q]
            if parent is not None:
                self.clean_stack(parent, head.dewey)
            if parent is None or self.stacks[parent]:
                self.clean_stack(q, head.dewey)
                self.move_to_stack(q)
                if q.is_leaf:
                    self.emit_paths(q)
            else:
                # No open ancestor chain: this stream element can never
                # participate (later parents start after it).
                self.streams[q].advance()

    # -- path-solution merging --------------------------------------------------

    def merge(self) -> list[dict]:
        leaves = self.root.leaves()
        solutions: list[dict] = [{}]
        for leaf in leaves:
            paths = self.path_solutions[leaf]
            merged: list[dict] = []
            for solution in solutions:
                for path in paths:
                    if all(
                        solution.get(node, binding) == binding
                        for node, binding in path.items()
                    ):
                        combined = dict(solution)
                        combined.update(path)
                        merged.append(combined)
            solutions = merged
            if not solutions:
                return []
        return solutions


def twig_join(
    source: Union[Document, dict],
    pattern: TwigPattern,
) -> list[dict]:
    """Match ``pattern`` holistically.

    :param source: either a :class:`Document` (streams are built per
        pattern-node name) or a prebuilt ``{pattern node: [JoinNode]}``
        mapping (streams must be in document order).
    :returns: full matches as ``{pattern node: JoinNode}`` dicts, one per
        distinct binding combination.
    """
    if isinstance(source, Document):
        streams = {
            node: document_stream(source, node.name)
            for node in pattern.walk()
        }
    else:
        streams = source
    # The child-edge filter runs during path expansion, but a child edge
    # above a branching node also affects siblings; verify once more on
    # the merged output for safety.
    state = _TwigState(pattern, streams)
    state.run()
    matches = []
    for solution in state.merge():
        if _edges_hold(pattern, solution):
            matches.append(solution)
    return matches


def _edges_hold(pattern: TwigPattern, solution: dict) -> bool:
    for node in pattern.walk():
        for child in node.children:
            parent_node = solution[node]
            child_node = solution[child]
            if not parent_node.is_ancestor_of(child_node):
                return False
            if child.edge == "child" and len(parent_node.dewey) + (
                COMPONENT_BYTES
            ) != len(child_node.dewey):
                return False
    return True


# -- the experiment ------------------------------------------------------------

XPATH = "//item[.//keyword][.//mail]"

#: What the pre-filtered twig answers: its keyword stream holds only
#: keywords inside an item's description.
PREFILTERED_XPATH = "//item[description//keyword][.//mail]"


def stream_from_store(store, element_name, path_regex=None):
    """Document-ordered JoinNode stream for one element name, optionally
    pre-filtered through the paper's root-to-node path index."""
    info = store.mapping.relation_for(element_name)
    sql = f"SELECT {info.table}.id, {info.table}.dewey_pos FROM {info.table}"
    if path_regex is not None:
        sql += (
            f" CROSS JOIN paths p WHERE {info.table}.path_id = p.id "
            f"AND regexp_like(p.path, '{path_regex}')"
        )
    sql += f" ORDER BY {info.table}.dewey_pos"
    return [
        JoinNode(row[0], bytes(row[1])) for row in store.db.query(sql)
    ]


def best_ms(run, repeats=5):
    """``run()``'s result and its fastest wall-clock time in ms."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - start)
    return result, min(times) * 1000


def main(scale: float = 2.0) -> int:
    document = generate_xmark(XMarkConfig(scale=scale))
    store = ShreddedStore.create(
        Database.memory(), infer_schema([document])
    )
    store.bulk_load([document])
    # No result cache: every run executes the SQL.
    engine = PPFEngine(store, result_cache_size=None)

    # The twig  //item[.//keyword]//mail : items with a keyword somewhere
    # and a mail somewhere (a branching pattern one XPath backbone cannot
    # express without predicates).
    pattern = TwigPattern("item")
    keyword = pattern.add("keyword")
    pattern.add("mail")

    def twig_items(keyword_regex=None):
        streams = {
            node: stream_from_store(
                store, node.name, keyword_regex if node is keyword else None
            )
            for node in pattern.walk()
        }
        return sorted({m[pattern].node_id for m in twig_join(streams, pattern)})

    sql, sql_ms = best_ms(lambda: sorted(engine.execute(XPATH).ids))
    twig, twig_ms = best_ms(twig_items)
    # Path-index pre-filtering (Section 3.1 meets twig joins): restrict
    # the keyword stream to keywords inside item descriptions only.
    narrowed, narrowed_ms = best_ms(lambda: twig_items("/item/description/"))
    print(f"XMark scale {scale:g}: {document.element_count()} elements, "
          f"{len(sql)} items match {XPATH}")
    print(f"  PPF SQL                        {sql_ms:9.2f} ms")
    print(f"  TwigStack                      {twig_ms:9.2f} ms")
    print(f"  TwigStack, path-prefiltered    {narrowed_ms:9.2f} ms")

    # Cross-check against the equivalent XPath on the native oracle.
    oracle = NativeEngine(document)
    base = store.doc_base(1)

    def expected(xpath):
        return sorted(base + n.node_id for n in oracle.execute(xpath))

    agree = sql == twig == expected(XPATH)
    print(f"SQL, TwigStack and the oracle agree on {XPATH}: {agree}")
    narrowed_agrees = narrowed == expected(PREFILTERED_XPATH)
    print(f"path-prefiltered TwigStack agrees with {PREFILTERED_XPATH}: "
          f"{narrowed_agrees}")
    return 0 if agree and narrowed_agrees else 1


if __name__ == "__main__":
    sys.exit(main())
