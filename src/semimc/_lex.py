"""Tokenizer shared by the model, formula and fragment parsers.

A token is its text, and the list ends with the empty text ''.  The text
fixes the kind: an identifier passes `str.isidentifier`, a number starts
with a digit, anything else is a symbol.  `tokenize` strips the comments
and collects the texts in one `findall`.  The parsers hold token indices;
line and column are worked out only when a `ParseError` is raised, by
scanning the text again up to that token.  Columns count characters, so a
tab and a carriage return are one column each.  Identifiers and digits are
ASCII only.
"""

from __future__ import annotations

import re
from itertools import islice

from .errors import ParseError, quote

# most levels a parser keeps open at once: each formula (the whole one,
# parenthesised ones, modal arguments and binder bodies) or list of fragment
# children is one level.  Parsing a level, or solving a binder (the one
# recursion past the parsers, see `evaluator._eval`), takes up to five Python
# frames, so both nest inside the default recursion limit of 1000.
MAX_DEPTH = 160

# one token: a digit run with at most one decimal point ("0.25"), an
# identifier, or a symbol.  Explicit ASCII classes: \d and \w would accept
# non-ASCII digits and letters.  '*' is a symbol; parsers take it as a name
# where a nullary label is expected.
_SYMBOLS = r"{};=/\[\](),.|+*"
_ONE = re.compile(r"[0-9]+(?:\.[0-9]+)?|[A-Za-z_][A-Za-z0-9_]*|->|[" + _SYMBOLS + "]")
_COMMENT = re.compile(r"\#[^\n]*")
_GAP = r"[ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*"  # whitespace and comments
_LEAD = re.compile(_GAP)
# for the offsets of `TokenStream.error`: a token and the gap after it; from
# the end of `_LEAD` or of the last match, on a text `_CLEAN` accepts, each
# search succeeds where it starts
_TOKEN = re.compile(f"({_ONE.pattern}){_GAP}")
# runs of token characters, '->' and gaps: nothing after the loop can fail,
# so the match never backtracks and ends at the first character no token
# can start.  (A gap loop before a part that fails backtracks exponentially.)
_CLEAN = re.compile(r"(?:[ \t\r\n0-9A-Za-z_" + _SYMBOLS + r"]+|->|\#[^\n]*)*")


def tokenize(source: str) -> list[str]:
    """Whitespace-insensitive tokenization; '#' starts a line comment.
    The list ends with ''; the first character no token can start raises
    `ParseError`.  Past it, what is left once comments are stripped is
    tokens and whitespace, which `findall` skips."""
    end = _CLEAN.match(source).end()
    if end < len(source):
        raise error(source, end, f"unexpected character {source[end]!r}")
    tokens = _ONE.findall(_COMMENT.sub("", source) if "#" in source else source)
    tokens.append("")
    return tokens


def error(source: str, offset: int, message: str) -> ParseError:
    """A `ParseError` at `offset`, with its 1-based line and column."""
    line_start = source.rfind("\n", 0, offset) + 1
    return ParseError(message, source.count("\n", 0, offset) + 1, offset - line_start + 1)


class TokenStream:
    """Cursor over the tokens of `source` with the usual peek/expect
    helpers, and the nesting guard of the recursive parsers.  Identifiers,
    numbers and symbols share no text, so most checks compare the text
    alone; errors name the index of their token."""

    def __init__(self, source: str):
        self.source = source
        self.tokens = tokenize(source)
        self.pos = 0
        self.depth = 0

    def error(self, message: str, k: int) -> ParseError:
        """A `ParseError` at token `k`, found by tokenizing again; the final
        '' is at the end of the text, or at a comment on its last line."""
        source = self.source
        m = next(islice(_TOKEN.finditer(source, _LEAD.match(source).end()), k, None), None)
        if m is None:
            comment = source.find("#", source.rfind("\n") + 1)
            return error(source, len(source) if comment < 0 else comment, message)
        return error(source, m.start(), message)

    def peek(self) -> str:
        return self.tokens[self.pos]

    def next(self) -> str:
        tok = self.tokens[self.pos]
        if tok:
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.tokens[self.pos] == text

    def expect(self, kind: str) -> str:
        """The next token, which must be an 'ident' or a 'number'."""
        tok = self.tokens[self.pos]
        if not (tok.isidentifier() if kind == "ident" else tok[:1].isdigit()):
            what = "identifier" if kind == "ident" else "number"
            raise self.error(f"expected {what}, got {quote(tok)}", self.pos)
        self.pos += 1
        return tok

    def expect_symbol(self, text: str) -> str:
        tok = self.tokens[self.pos]
        if tok != text:
            raise self.error(f"expected {text!r}, got {quote(tok)}", self.pos)
        self.pos += 1
        return tok

    def expect_label_name(self) -> str:
        """Identifier or bare '*', the conventional nullary label."""
        tok = self.tokens[self.pos]
        if tok != "*" and not tok.isidentifier():
            raise self.error(f"expected label name, got {quote(tok)}", self.pos)
        self.pos += 1
        return tok

    def expect_weight(self, semiring):
        """WEIGHT := NUMBER ["/" NUMBER] | "inf", parsed by `semiring`;
        errors carry the position of the weight's first token."""
        k = self.pos
        if self.tokens[k] == "inf":
            self.pos += 1
            text = "inf"
        else:
            text = self.expect("number")
            if self.at("/"):
                self.pos += 1
                text = f"{text}/{self.expect('number')}"
        try:
            return semiring.parse(text)
        except ParseError as e:
            raise self.error(str(e), k) from None

    def expect_eof(self):
        tok = self.tokens[self.pos]
        if tok:
            raise self.error(f"trailing input starting at {quote(tok)}", self.pos)

    def enter(self):
        """Open one nesting level at the next token; past MAX_DEPTH levels
        this raises `ParseError` instead of exhausting the Python stack.
        The parser closes the level with ``depth -= 1``."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise self.error(f"input nested deeper than {MAX_DEPTH} levels", self.pos)
