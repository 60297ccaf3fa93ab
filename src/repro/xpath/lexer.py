"""Tokenizer for XPath expressions.

Produces a flat token stream; context-sensitive decisions (``*`` as
wildcard vs. multiplication, ``and``/``or``/``div``/``mod`` as names vs.
operators) are left to the recursive-descent parser, which always knows
whether it expects an operand or an operator.

Two scans over one grammar.  :func:`tokenize` is the token stream the
parser consumes.  :func:`shape_of` answers the cheaper question the
translation caches ask first — *which expression is this, up to its
constants?* — and never builds a token: it splits the text into the
literals and everything between them.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from repro.errors import XPathSyntaxError

# The lexical grammar, one alternative per token kind.  Where they
# overlap: ``.5`` is a number, not the ``.`` symbol, and multi-character
# symbols come before their prefixes (``//``).
_WHITESPACE = r"[ \t\r\n]+"
_STRING = r"'[^']*'|\"[^\"]*\""
_NUMBER = r"\d+(?:\.\d*)?|\.\d+"
# Names may embed '.' and '-' (QName-ish); a '-' followed by a name
# character continues the name (XPath NCName rule), which is why
# 'preceding-sibling' lexes as one token.
_NAME = r"[^\W\d][\w.\-]*"
_SYMBOL = r"//|\.\.|::|!=|<=|>=|[/\[\]()@.,|=<>+\-*$]"

_TOKEN = re.compile(
    f"({_NAME})|(?!\\.\\d)({_SYMBOL})|({_WHITESPACE})|({_STRING})|({_NUMBER})|(.)",
    re.DOTALL,
)

# The same grammar with everything that is not a literal fused into one
# run: between two literals the token boundaries do not matter, only
# that the text is made of tokens.  Inside a run a ``.`` that is not
# half of a ``..`` must not be followed by a digit (that is a number,
# which ends the run), and ``!`` / ``:`` exist only as ``!=`` / ``::``.
_SHAPE = re.compile(
    "'([^']*)'|\"([^\"]*)\""
    f"|({_NUMBER})"
    f"|((?:{_NAME}|[/\\[\\]()@,|=<>+\\-*$ \\t\\r\\n]+|!=|::|\\.\\.|\\.(?!\\d))+)"
    "|(.)",
    re.DOTALL,
)

#: What a lifted literal leaves behind in a shape key.  Neither
#: character can occur in the text between literals.
STRING_SLOT = "'"
NUMBER_SLOT = '"'


class Token(NamedTuple):
    """One lexical token.

    ``kind`` is ``'name'``, ``'number'``, ``'literal'``, ``'symbol'`` or
    ``'end'``; ``value`` holds the text (or the literal's content), and
    ``position`` the character offset in the source expression.
    """

    kind: str
    value: str
    position: int

    def is_symbol(self, *symbols: str) -> bool:
        """True when this is one of the given symbol tokens."""
        return self.kind == "symbol" and self.value in symbols

    def is_name(self, *names: str) -> bool:
        """True for a name token (optionally among ``names``)."""
        if self.kind != "name":
            return False
        return not names or self.value in names


def tokenize(expression: str) -> list[Token]:
    """Tokenize ``expression``; the result always ends with an ``end``
    token.

    :raises XPathSyntaxError: on characters outside the language.
    """
    tokens: list[Token] = []
    position = 0
    # Matches are contiguous (the last alternative takes any character
    # no token starts with), so offsets are running lengths.
    for name, symbol, space, literal, number, stray in _TOKEN.findall(
        expression
    ):
        if name:
            tokens.append(Token("name", name, position))
            position += len(name)
        elif symbol:
            tokens.append(Token("symbol", symbol, position))
            position += len(symbol)
        elif space:
            position += len(space)
        elif literal:
            tokens.append(Token("literal", literal[1:-1], position))
            position += len(literal)
        elif number:
            tokens.append(Token("number", number, position))
            position += len(number)
        elif stray in "'\"":
            raise XPathSyntaxError(
                "unterminated string literal", position, expression
            )
        else:
            raise XPathSyntaxError(
                f"unexpected character {stray!r}", position, expression
            )
    tokens.append(Token("end", "", position))
    return tokens


class Shape(NamedTuple):
    """An expression split into what its translation depends on and
    what it does not (Section 4.3: the PPF translation is a function of
    steps, axes, name tests and predicate structure, never of the
    constants in value predicates).

    ``key`` is the expression text with every string literal replaced
    by :data:`STRING_SLOT` and every number by :data:`NUMBER_SLOT`; the
    *i*-th slot is the *i*-th ``literal``/``number`` token of
    :func:`tokenize`.  ``values`` holds what was lifted out, in slot
    order: a string literal's content, a number's source text.
    """

    key: str
    values: tuple[str, ...]


def shape_of(expression: str) -> Optional[Shape]:
    """The :class:`Shape` of ``expression``, or ``None`` when it does
    not tokenize (:func:`tokenize` then says where and why)."""
    pieces: list[str] = []
    values: list[str] = []
    for single, double, number, run, stray in _SHAPE.findall(expression):
        if run:
            pieces.append(run)
        elif number:
            pieces.append(NUMBER_SLOT)
            values.append(number)
        elif stray:
            return None
        else:
            pieces.append(STRING_SLOT)
            values.append(single or double)
    return Shape("".join(pieces), tuple(values))
