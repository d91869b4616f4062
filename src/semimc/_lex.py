"""Tokenizer shared by the model, formula and fragment parsers.

A token is a plain ``(kind, text, offset)`` tuple: kind is 'ident',
'number', 'symbol' or 'eof', and offset indexes the source text.  Line and
column are worked out from the offset only when a `ParseError` is raised;
columns count characters, so a tab and a carriage return are one column
each.  Identifiers and digits are ASCII only.
"""

from __future__ import annotations

import re

from .errors import ParseError

# most levels a parser keeps open at once: each formula (the whole one,
# parenthesised ones, modal arguments and binder bodies) or list of fragment
# children is one level.  The formula parser takes up to five Python frames
# per level, so this stays inside the default recursion limit of 1000.
MAX_DEPTH = 160

# one match per token, skipping the whitespace and comments before it (the
# last match may hold no token).  Explicit ASCII classes: \d and \w would
# accept non-ASCII digits and letters.  Numbers are digit runs with at most
# one decimal point ("0.25"); '->' must be tried before the other symbols.
# '*' is a symbol; parsers take it as a name where a nullary label is expected.
_TOKEN = re.compile(r"""(?:[ \t\r\n]+|\#[^\n]*)*(?:
    (?P<number>[0-9]+(?:\.[0-9]+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<symbol>->|[{};=/\[\](),.|+*])
  | (?P<bad>.)
  | \Z)
""", re.VERBOSE)


def tokenize(source: str) -> list[tuple[str, str, int]]:
    """Whitespace-insensitive tokenization; '#' starts a line comment.
    The list ends with an 'eof' token; the first character no token can
    start raises `ParseError`."""
    tokens = [(kind, m[kind], m.start(kind))
              for m in _TOKEN.finditer(source) for kind in (m.lastgroup,) if kind]
    for kind, text, offset in tokens:
        if kind == "bad":
            raise error(source, offset, f"unexpected character {text!r}")
    # a trailing comment does not advance the end-of-input column
    comment = source.find("#", source.rfind("\n") + 1)
    tokens.append(("eof", "", len(source) if comment < 0 else comment))
    return tokens


def error(source: str, offset: int, message: str) -> ParseError:
    """A `ParseError` at `offset`, with its 1-based line and column."""
    line_start = source.rfind("\n", 0, offset) + 1
    return ParseError(message, source.count("\n", 0, offset) + 1, offset - line_start + 1)


class TokenStream:
    """Cursor over the tokens of `source` with the usual peek/expect
    helpers, and the nesting guard of the recursive parsers.  A token's
    text fixes its kind (identifiers, numbers and symbols share no text),
    so most checks compare the text alone."""

    def __init__(self, source: str):
        self.source = source
        self.tokens = tokenize(source)
        self.pos = 0
        self.depth = 0

    def error(self, message: str, tok) -> ParseError:
        return error(self.source, tok[2], message)

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.tokens[self.pos][1] == text

    def expect(self, kind: str):
        """The next token, which must be an 'ident' or a 'number'."""
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            what = "identifier" if kind == "ident" else "number"
            raise self.error(f"expected {what}, got {tok[1]!r}", tok)
        self.pos += 1
        return tok

    def expect_symbol(self, text: str):
        tok = self.tokens[self.pos]
        if tok[1] != text:
            raise self.error(f"expected {text!r}, got {tok[1]!r}", tok)
        self.pos += 1
        return tok

    def expect_label_name(self):
        """Identifier or bare '*', the conventional nullary label."""
        tok = self.tokens[self.pos]
        if tok[0] != "ident" and tok[1] != "*":
            raise self.error(f"expected label name, got {tok[1]!r}", tok)
        self.pos += 1
        return tok

    def expect_weight(self, semiring):
        """WEIGHT := NUMBER ["/" NUMBER] | "inf", parsed by `semiring`;
        errors carry the position of the weight's first token."""
        tok = self.peek()
        if tok[1] == "inf":
            self.pos += 1
            text = "inf"
        else:
            text = self.expect("number")[1]
            if self.at("/"):
                self.pos += 1
                text = f"{text}/{self.expect('number')[1]}"
        try:
            return semiring.parse(text)
        except ParseError as e:
            raise self.error(str(e), tok) from None

    def expect_eof(self):
        tok = self.peek()
        if tok[0] != "eof":
            raise self.error(f"trailing input starting at {tok[1]!r}", tok)

    def enter(self):
        """Open one nesting level at the next token; past MAX_DEPTH levels
        this raises `ParseError` instead of exhausting the Python stack.
        The parser closes the level with ``depth -= 1``."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise self.error(f"input nested deeper than {MAX_DEPTH} levels", self.peek())
