"""Abstract syntax tree for the supported XPath subset.

Every node knows how to render itself back to XPath syntax (``__str__``),
which the tests use for round-trip checks and the engines use in error
messages and ``explain`` output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.xpath.axes import Axis


class XPathExpr:
    """Base class of all expression nodes."""


# ---------------------------------------------------------------------------
# Node tests
# ---------------------------------------------------------------------------


class NodeTest:
    """Base class for the test part of a step."""


@dataclass(frozen=True)
class NameTest(NodeTest):
    """A tag-name test; ``name`` is ``'*'`` for the wildcard."""

    name: str

    @property
    def is_wildcard(self) -> bool:
        """True for the ``*`` name test."""
        return self.name == "*"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class TextTest(NodeTest):
    """The ``text()`` kind test."""

    def __str__(self) -> str:
        return "text()"


@dataclass(frozen=True)
class NodeKindTest(NodeTest):
    """The ``node()`` kind test, matching any node."""

    def __str__(self) -> str:
        return "node()"


# ---------------------------------------------------------------------------
# Steps and paths
# ---------------------------------------------------------------------------


@dataclass
class Step:
    """One location step: ``axis::node-test[predicate]*``."""

    axis: Axis
    node_test: NodeTest
    predicates: list["XPathExpr"] = field(default_factory=list)

    def __str__(self) -> str:
        if self.axis is Axis.ATTRIBUTE:
            base = f"@{self.node_test}"
        elif self.axis is Axis.CHILD:
            base = str(self.node_test)
        else:
            base = f"{self.axis}::{self.node_test}"
        return base + "".join(f"[{p}]" for p in self.predicates)


@dataclass
class LocationPath(XPathExpr):
    """A sequence of steps; ``absolute`` paths start at the document root.

    The surface forms ``//x`` and ``a//b`` are normalized during parsing to
    a ``descendant-or-self::node()`` step followed by the named step — but
    to keep the AST (and PPF identification) simple the parser instead
    folds the abbreviation into the following step by rewriting its
    ``child`` axis to ``descendant``.  All consumers therefore see plain
    ``descendant`` steps.
    """

    absolute: bool
    steps: list[Step]

    def __str__(self) -> str:
        rendered = "/".join(str(step) for step in self.steps)
        return ("/" + rendered) if self.absolute else rendered


@dataclass
class UnionExpr(XPathExpr):
    """``path | path | ...`` at any expression position."""

    branches: list[XPathExpr]

    def __str__(self) -> str:
        return " | ".join(str(branch) for branch in self.branches)


@dataclass
class PathExpr(XPathExpr):
    """A location path used as an expression (e.g. inside a predicate)."""

    path: LocationPath

    def __str__(self) -> str:
        return str(self.path)


# ---------------------------------------------------------------------------
# Predicate / value expressions
# ---------------------------------------------------------------------------


@dataclass
class OrExpr(XPathExpr):
    left: XPathExpr
    right: XPathExpr

    def __str__(self) -> str:
        return f"({self.left} or {self.right})"


@dataclass
class AndExpr(XPathExpr):
    left: XPathExpr
    right: XPathExpr

    def __str__(self) -> str:
        return f"({self.left} and {self.right})"


@dataclass
class NotExpr(XPathExpr):
    operand: XPathExpr

    def __str__(self) -> str:
        return f"not({self.operand})"


@dataclass
class Comparison(XPathExpr):
    """A comparison; ``op`` is one of ``= != < <= > >=``."""

    left: XPathExpr
    op: str
    right: XPathExpr

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass
class ArithmeticExpr(XPathExpr):
    """Binary arithmetic; ``op`` is one of ``+ - * div mod``."""

    left: XPathExpr
    op: str
    right: XPathExpr

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass
class NumberLiteral(XPathExpr):
    value: float

    def __str__(self) -> str:
        if self.value == int(self.value):
            return str(int(self.value))
        return repr(self.value)


@dataclass
class StringLiteral(XPathExpr):
    value: str

    def __str__(self) -> str:
        return f"'{self.value}'"


@dataclass(frozen=True)
class Parameter(XPathExpr):
    """The place of a literal in a plan template: slot ``index`` of the
    expression's :class:`~repro.xpath.lexer.Shape`, holding a
    ``'string'`` or a ``'number'``.  The value itself is not in the AST;
    it is bound when the translated statement runs."""

    index: int
    kind: str

    def __str__(self) -> str:
        return f"$v{self.index}"


@dataclass
class FunctionCall(XPathExpr):
    """A function call such as ``position()``, ``last()``, ``count(p)``,
    ``contains(a, b)`` or ``starts-with(a, b)``."""

    name: str
    args: list[XPathExpr] = field(default_factory=list)

    def __str__(self) -> str:
        rendered = ", ".join(str(a) for a in self.args)
        return f"{self.name}({rendered})"

