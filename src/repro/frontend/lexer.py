"""Lexer for the C subset accepted by the GNN-DSE front-end.

The front-end substitutes for Clang in the original paper: it only has to
accept the MachSuite / Polybench style kernels used in the evaluation, so
the language is a C subset (functions, ``for`` loops, arrays, arithmetic,
``if``/``else``, ``#define`` constants and ``#pragma ACCEL`` directives).

The lexer performs a light preprocessing pass:

* ``//`` and ``/* */`` comments are stripped;
* ``#define NAME <integer-expression>`` macros are recorded and expanded
  (object-like macros only, which is all the kernels need);
* ``#pragma ...`` lines are turned into :data:`TokenType.PRAGMA` tokens
  carrying the raw directive text so the parser can attach them to the
  following loop.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, auto
from typing import Dict, List, Optional

from ..errors import LexerError

__all__ = ["TokenType", "Token", "Lexer", "tokenize"]


class TokenType(Enum):
    """Classification of lexical tokens."""

    IDENT = auto()
    KEYWORD = auto()
    INT_LIT = auto()
    FLOAT_LIT = auto()
    STRING_LIT = auto()
    CHAR_LIT = auto()
    PUNCT = auto()
    PRAGMA = auto()
    EOF = auto()


#: Reserved words recognised as :data:`TokenType.KEYWORD`.
KEYWORDS = frozenset(
    {
        "void",
        "int",
        "float",
        "double",
        "char",
        "long",
        "short",
        "unsigned",
        "signed",
        "const",
        "static",
        "for",
        "while",
        "if",
        "else",
        "return",
        "break",
        "continue",
    }
)

# Multi-character punctuators, longest first so maximal munch works.
_PUNCTUATORS = [
    "<<=",
    ">>=",
    "...",
    "<<",
    ">>",
    "<=",
    ">=",
    "==",
    "!=",
    "&&",
    "||",
    "++",
    "--",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "->",
    "+",
    "-",
    "*",
    "/",
    "%",
    "<",
    ">",
    "=",
    "!",
    "&",
    "|",
    "^",
    "~",
    "?",
    ":",
    ";",
    ",",
    ".",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_FLOAT_RE = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?[fF]?")
_INT_RE = re.compile(r"(?:0[xX][0-9a-fA-F]+|\d+)[uUlL]*")
_DEFINE_RE = re.compile(r"^\s*#\s*define\s+([A-Za-z_][A-Za-z0-9_]*)\s+(.*?)\s*$")
_PRAGMA_RE = re.compile(r"^\s*#\s*pragma\s+(.*?)\s*$")
_INCLUDE_RE = re.compile(r"^\s*#\s*include\b")


@dataclass(frozen=True)
class Token:
    """A single lexical token.

    Attributes
    ----------
    type:
        The :class:`TokenType` classification.
    text:
        The raw token text (for PRAGMA tokens, the directive body after
        ``#pragma``).
    line, column:
        1-based source coordinates of the first character.
    """

    type: TokenType
    text: str
    line: int
    column: int

    def is_punct(self, text: str) -> bool:
        """Return True when this token is the punctuator ``text``."""
        return self.type is TokenType.PUNCT and self.text == text

    def is_keyword(self, text: str) -> bool:
        """Return True when this token is the keyword ``text``."""
        return self.type is TokenType.KEYWORD and self.text == text

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.type.name}({self.text!r}@{self.line}:{self.column})"


class Lexer:
    """Tokenizer with macro expansion and pragma extraction.

    Parameters
    ----------
    source:
        C source text of the kernel.
    predefined:
        Optional mapping of macro name to replacement text, applied as if
        the macros had been ``#define``-d before line one.  Useful for
        parameterising kernel problem sizes from Python.
    """

    def __init__(self, source: str, predefined: Optional[Dict[str, str]] = None):
        self._source = source
        self._macros: Dict[str, str] = dict(predefined or {})
        #: Predefined macros win over in-source #defines, so callers can
        #: re-parameterise kernels (e.g. shrink problem sizes in tests).
        self._predefined = frozenset(self._macros)
        self._tokens: List[Token] = []

    @property
    def macros(self) -> Dict[str, str]:
        """Macros collected from ``#define`` lines (plus predefined ones)."""
        return dict(self._macros)

    def tokenize(self) -> List[Token]:
        """Tokenize the whole source and return the token list.

        The returned list always ends with a single EOF token.
        """
        self._tokens = []
        for line_no, line in enumerate(_strip_comments(self._source).split("\n"), start=1):
            self._lex_line(line, line_no)
        last_line = self._source.count("\n") + 1
        self._tokens.append(Token(TokenType.EOF, "", last_line, 1))
        return self._tokens

    # -- internals ---------------------------------------------------------

    def _lex_line(self, line: str, line_no: int) -> None:
        define = _DEFINE_RE.match(line)
        if define:
            name, body = define.group(1), define.group(2)
            if name not in self._predefined:
                self._macros[name] = self._expand_macros(body)
            return
        pragma = _PRAGMA_RE.match(line)
        if pragma:
            self._tokens.append(Token(TokenType.PRAGMA, pragma.group(1), line_no, 1))
            return
        if _INCLUDE_RE.match(line):
            return  # headers carry no semantics for the kernels we accept
        self._lex_code(self._expand_macros(line), line_no)

    def _expand_macros(self, text: str) -> str:
        # Iterate to a fixed point so macros may reference earlier macros.
        for _ in range(16):
            expanded = _IDENT_RE.sub(
                lambda m: self._macros.get(m.group(0), m.group(0)), text
            )
            if expanded == text:
                return expanded
            text = expanded
        return text

    def _lex_code(self, line: str, line_no: int) -> None:
        pos = 0
        length = len(line)
        while pos < length:
            ch = line[pos]
            if ch in " \t\r":
                pos += 1
                continue
            col = pos + 1
            ident = _IDENT_RE.match(line, pos)
            if ident:
                text = ident.group(0)
                kind = TokenType.KEYWORD if text in KEYWORDS else TokenType.IDENT
                self._tokens.append(Token(kind, text, line_no, col))
                pos = ident.end()
                continue
            if ch.isdigit() or (ch == "." and pos + 1 < length and line[pos + 1].isdigit()):
                pos = self._lex_number(line, pos, line_no, col)
                continue
            if ch == '"':
                pos = self._lex_quoted(line, pos, line_no, col, '"', TokenType.STRING_LIT)
                continue
            if ch == "'":
                pos = self._lex_quoted(line, pos, line_no, col, "'", TokenType.CHAR_LIT)
                continue
            punct = self._match_punct(line, pos)
            if punct:
                self._tokens.append(Token(TokenType.PUNCT, punct, line_no, col))
                pos += len(punct)
                continue
            raise LexerError(f"unexpected character {ch!r}", line_no, col)

    def _lex_number(self, line: str, pos: int, line_no: int, col: int) -> int:
        text = line[pos:]
        m_float = _FLOAT_RE.match(text)
        m_int = _INT_RE.match(text)
        # Prefer the longer match; a plain integer matches both regexes.
        if m_float and (not m_int or m_float.end() > m_int.end()):
            lexeme = m_float.group(0)
            is_float = any(c in lexeme for c in ".eE") and not lexeme.lower().startswith("0x")
            kind = TokenType.FLOAT_LIT if is_float else TokenType.INT_LIT
            self._tokens.append(Token(kind, lexeme, line_no, col))
            return pos + m_float.end()
        if m_int:
            self._tokens.append(Token(TokenType.INT_LIT, m_int.group(0), line_no, col))
            return pos + m_int.end()
        raise LexerError("malformed numeric literal", line_no, col)

    def _lex_quoted(
        self, line: str, pos: int, line_no: int, col: int, quote: str, kind: TokenType
    ) -> int:
        end = pos + 1
        while end < len(line):
            if line[end] == "\\":
                end += 2
                continue
            if line[end] == quote:
                self._tokens.append(Token(kind, line[pos : end + 1], line_no, col))
                return end + 1
            end += 1
        raise LexerError(f"unterminated {quote} literal", line_no, col)

    @staticmethod
    def _match_punct(line: str, pos: int) -> Optional[str]:
        for punct in _PUNCTUATORS:
            if line.startswith(punct, pos):
                return punct
        return None


def _strip_comments(source: str) -> str:
    """Remove ``/* */`` and ``//`` comments, preserving line structure."""
    out: List[str] = []
    i = 0
    n = len(source)
    in_block = False
    while i < n:
        if in_block:
            if source.startswith("*/", i):
                in_block = False
                i += 2
            else:
                if source[i] == "\n":
                    out.append("\n")
                i += 1
            continue
        if source.startswith("/*", i):
            in_block = True
            i += 2
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        out.append(source[i])
        i += 1
    return "".join(out)


def tokenize(source: str, predefined: Optional[Dict[str, str]] = None) -> List[Token]:
    """Convenience wrapper: tokenize ``source`` and return the token list."""
    return Lexer(source, predefined).tokenize()
