"""XPath lexer, parser and abstract syntax tree.

Covers the XPath subset the paper targets (Section 1): all element axes,
abbreviated syntax (``//``, ``@``, ``.``, ``..``), wildcards, path union,
nested predicate expressions with ``and``/``or``/``not()``, comparisons
between paths and atomic values and between two paths, arithmetic, and the
``position()``/``last()``/``count()`` functions.
"""

from repro.xpath.axes import Axis
from repro.xpath.ast import (
    AndExpr,
    ArithmeticExpr,
    Comparison,
    FunctionCall,
    LocationPath,
    NameTest,
    NodeTest,
    NotExpr,
    NumberLiteral,
    OrExpr,
    Parameter,
    PathExpr,
    Step,
    StringLiteral,
    TextTest,
    NodeKindTest,
    UnionExpr,
    XPathExpr,
)
from repro.xpath.parser import parse_template, parse_xpath

__all__ = [
    "AndExpr",
    "ArithmeticExpr",
    "Axis",
    "Comparison",
    "FunctionCall",
    "LocationPath",
    "NameTest",
    "NodeKindTest",
    "NodeTest",
    "NotExpr",
    "NumberLiteral",
    "OrExpr",
    "Parameter",
    "PathExpr",
    "Step",
    "StringLiteral",
    "TextTest",
    "UnionExpr",
    "XPathExpr",
    "parse_template",
    "parse_xpath",
]
