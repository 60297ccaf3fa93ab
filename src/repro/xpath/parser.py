"""Recursive-descent parser for the supported XPath subset.

Abbreviations are normalized at parse time:

* ``@name``   → ``attribute::name``
* ``.`` / ``..`` → ``self::node()`` / ``parent::node()``
* ``//step``  → the step with its ``child`` axis rewritten to
  ``descendant`` (or, for non-``child`` axes, a preceding
  ``descendant-or-self::node()`` step).

The ``//`` folding makes PPF identification uniform.  It is equivalent to
the W3C expansion except when a *positional* predicate is attached to the
abbreviated step; none of the paper's workloads combine the two, and every
engine in this library consumes the same normalized AST, so all engines
stay mutually consistent.
"""

from __future__ import annotations

from repro.errors import XPathSyntaxError
from repro.xpath.ast import (
    AndExpr,
    ArithmeticExpr,
    Comparison,
    FunctionCall,
    LocationPath,
    NameTest,
    NodeKindTest,
    NodeTest,
    NotExpr,
    NumberLiteral,
    OrExpr,
    Parameter,
    PathExpr,
    Step,
    StringLiteral,
    TextTest,
    UnionExpr,
    XPathExpr,
)
from repro.xpath.axes import AXIS_BY_NAME, Axis
from repro.xpath.lexer import Token, tokenize

#: Function names the library understands; arity is checked at parse time
#: (-1 means variadic is not allowed but the listed arity is).
_KNOWN_FUNCTIONS = {
    "position": 0,
    "last": 0,
    "count": 1,
    "contains": 2,
    "starts-with": 2,
    "string-length": 1,
    "not": 1,
}

_NODE_KIND_TESTS = {"text", "node"}


def parse_xpath(expression: str) -> XPathExpr:
    """Parse ``expression`` and return its AST.

    :raises XPathSyntaxError: on malformed input.
    """
    return _Parser(expression).parse()


def parse_template(expression: str) -> XPathExpr:
    """Parse the *shape* of ``expression``: the AST of
    :func:`parse_xpath` with a :class:`~repro.xpath.ast.Parameter` where
    each literal stood, numbered like the slots of
    :func:`repro.xpath.lexer.shape_of`.  The AST holds none of the
    expression's constants, so nothing compiled from it can depend on
    them.

    :raises XPathSyntaxError: on malformed input.
    """
    return _Parser(expression, lift=True).parse()


class _Parser:
    def __init__(self, expression: str, lift: bool = False) -> None:
        self.expression = expression
        self.tokens = tokenize(expression)
        self.index = 0
        #: Replace literals by numbered parameters (parse_template).
        self.lift = lift
        self.slots = 0

    def parse(self) -> XPathExpr:
        result = self.parse_or()
        self.expect_end()
        return result

    def _parameter(self, kind: str) -> Parameter:
        self.slots += 1
        return Parameter(self.slots - 1, kind)

    # -- token plumbing ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        index = min(self.index + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.tokens[self.index]
        if token.kind != "end":
            self.index += 1
        return token

    def error(self, message: str) -> XPathSyntaxError:
        return XPathSyntaxError(message, self.peek().position, self.expression)

    def expect_symbol(self, symbol: str) -> None:
        if not self.peek().is_symbol(symbol):
            raise self.error(f"expected {symbol!r}")
        self.advance()

    def expect_end(self) -> None:
        if self.peek().kind != "end":
            raise self.error("unexpected trailing input")

    def accept_symbol(self, *symbols: str) -> Token | None:
        if self.peek().is_symbol(*symbols):
            return self.advance()
        return None

    # -- expression grammar (lowest to highest precedence) ------------------

    def parse_or(self) -> XPathExpr:
        left = self.parse_and()
        while self.peek().is_name("or"):
            self.advance()
            left = OrExpr(left, self.parse_and())
        return left

    def parse_and(self) -> XPathExpr:
        left = self.parse_equality()
        while self.peek().is_name("and"):
            self.advance()
            left = AndExpr(left, self.parse_equality())
        return left

    def parse_equality(self) -> XPathExpr:
        left = self.parse_relational()
        while self.peek().is_symbol("=", "!="):
            op = self.advance().value
            left = Comparison(left, op, self.parse_relational())
        return left

    def parse_relational(self) -> XPathExpr:
        left = self.parse_additive()
        while self.peek().is_symbol("<", "<=", ">", ">="):
            op = self.advance().value
            left = Comparison(left, op, self.parse_additive())
        return left

    def parse_additive(self) -> XPathExpr:
        left = self.parse_multiplicative()
        while self.peek().is_symbol("+", "-"):
            op = self.advance().value
            left = ArithmeticExpr(left, op, self.parse_multiplicative())
        return left

    def parse_multiplicative(self) -> XPathExpr:
        left = self.parse_unary()
        while self.peek().is_symbol("*") or self.peek().is_name("div", "mod"):
            op = self.advance().value
            left = ArithmeticExpr(left, op, self.parse_unary())
        return left

    def parse_unary(self) -> XPathExpr:
        if self.accept_symbol("-"):
            operand = self.parse_unary()
            return ArithmeticExpr(NumberLiteral(0.0), "-", operand)
        return self.parse_union()

    def parse_union(self) -> XPathExpr:
        first = self.parse_path_or_primary()
        if not self.peek().is_symbol("|"):
            return first
        branches = [first]
        while self.accept_symbol("|"):
            branches.append(self.parse_path_or_primary())
        return UnionExpr(branches)

    # -- paths and primaries -------------------------------------------------

    def parse_path_or_primary(self) -> XPathExpr:
        token = self.peek()
        if token.is_symbol("("):
            self.advance()
            inner = self.parse_or()
            self.expect_symbol(")")
            return inner
        if token.kind == "literal":
            self.advance()
            if self.lift:
                return self._parameter("string")
            return StringLiteral(token.value)
        if token.kind == "number":
            self.advance()
            if self.lift:
                return self._parameter("number")
            return NumberLiteral(float(token.value))
        if self._at_function_call():
            return self.parse_function_call()
        if self._at_path_start():
            return PathExpr(self.parse_location_path())
        raise self.error("expected an expression")

    def _at_function_call(self) -> bool:
        token = self.peek()
        return (
            token.kind == "name"
            and token.value not in _NODE_KIND_TESTS
            and self.peek(1).is_symbol("(")
        )

    def _at_path_start(self) -> bool:
        token = self.peek()
        if token.is_symbol("/", "//", ".", "..", "@", "*"):
            return True
        return token.kind == "name"

    def parse_function_call(self) -> XPathExpr:
        name = self.advance().value
        if name not in _KNOWN_FUNCTIONS:
            raise self.error(f"unknown function {name}()")
        self.expect_symbol("(")
        args: list[XPathExpr] = []
        if not self.peek().is_symbol(")"):
            args.append(self.parse_or())
            while self.accept_symbol(","):
                args.append(self.parse_or())
        self.expect_symbol(")")
        arity = _KNOWN_FUNCTIONS[name]
        if len(args) != arity:
            raise self.error(
                f"{name}() expects {arity} argument(s), got {len(args)}"
            )
        if name == "not":
            return NotExpr(args[0])
        return FunctionCall(name, args)

    # -- location paths -------------------------------------------------------

    def parse_location_path(self) -> LocationPath:
        steps: list[Step] = []
        absolute = False
        if self.accept_symbol("//"):
            absolute = True
            steps.append(self._parse_step_after_double_slash(steps))
        elif self.accept_symbol("/"):
            absolute = True
            if not self._at_step_start():
                # A bare '/' selecting the document root.
                return LocationPath(absolute=True, steps=[])
            steps.append(self.parse_step())
        else:
            steps.append(self.parse_step())
        while True:
            if self.accept_symbol("//"):
                steps.append(self._parse_step_after_double_slash(steps))
            elif self.accept_symbol("/"):
                steps.append(self.parse_step())
            else:
                break
        return LocationPath(absolute=absolute, steps=steps)

    def _parse_step_after_double_slash(self, steps: list[Step]) -> Step:
        """Fold ``//`` into the next step (see module docstring)."""
        step = self.parse_step()
        if step.axis is Axis.CHILD:
            step.axis = Axis.DESCENDANT
            return step
        steps.append(Step(Axis.DESCENDANT_OR_SELF, NodeKindTest()))
        return step

    def _at_step_start(self) -> bool:
        token = self.peek()
        if token.is_symbol(".", "..", "@", "*"):
            return True
        return token.kind == "name"

    def parse_step(self) -> Step:
        if self.accept_symbol("."):
            return Step(Axis.SELF, NodeKindTest(), self._parse_predicates())
        if self.accept_symbol(".."):
            return Step(Axis.PARENT, NodeKindTest(), self._parse_predicates())
        if self.accept_symbol("@"):
            node_test = self._parse_name_test()
            return Step(Axis.ATTRIBUTE, node_test, self._parse_predicates())
        axis = Axis.CHILD
        token = self.peek()
        if token.kind == "name" and self.peek(1).is_symbol("::"):
            axis_name = self.advance().value
            self.advance()  # '::'
            if axis_name == "attribute":
                axis = Axis.ATTRIBUTE
            elif axis_name in AXIS_BY_NAME:
                axis = AXIS_BY_NAME[axis_name]
            else:
                raise self.error(f"unknown axis {axis_name!r}")
        node_test = self._parse_node_test()
        return Step(axis, node_test, self._parse_predicates())

    def _parse_name_test(self) -> NameTest:
        token = self.peek()
        if token.is_symbol("*"):
            self.advance()
            return NameTest("*")
        if token.kind == "name":
            self.advance()
            return NameTest(token.value)
        raise self.error("expected a name or '*'")

    def _parse_node_test(self) -> NodeTest:
        token = self.peek()
        if token.kind == "name" and token.value in _NODE_KIND_TESTS:
            if self.peek(1).is_symbol("("):
                kind = self.advance().value
                self.advance()  # '('
                self.expect_symbol(")")
                return TextTest() if kind == "text" else NodeKindTest()
        return self._parse_name_test()

    def _parse_predicates(self) -> list[XPathExpr]:
        predicates: list[XPathExpr] = []
        while self.accept_symbol("["):
            predicates.append(self.parse_or())
            self.expect_symbol("]")
        return predicates
