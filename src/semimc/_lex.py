"""Tokenizer shared by the model, formula and fragment parsers."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError

# single- and two-character symbols; '->' must be matched before '-'
_SYMBOLS = ("->", "{", "}", ";", "=", "/", "[", "]", "(", ")", ",", ".", "|", "+", "*")

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789")
_DIGITS = set("0123456789")


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident' | 'number' | 'symbol' | 'eof'
    text: str
    line: int
    col: int


def tokenize(source: str) -> list[Token]:
    """Whitespace-insensitive tokenization; '#' starts a line comment.

    Numbers are digit runs, optionally with one decimal point ("0.25").
    '*' is emitted as a symbol token; parsers treat it as an identifier
    where a nullary label name is expected.
    """
    tokens = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch in _DIGITS:
            start = i
            while i < n and source[i] in _DIGITS:
                i += 1
            if i < n and source[i] == "." and i + 1 < n and source[i + 1] in _DIGITS:
                i += 1
                while i < n and source[i] in _DIGITS:
                    i += 1
            text = source[start:i]
            tokens.append(Token("number", text, line, col))
            col += len(text)
            continue
        if ch in _IDENT_START:
            start = i
            while i < n and source[i] in _IDENT_CONT:
                i += 1
            text = source[start:i]
            tokens.append(Token("ident", text, line, col))
            col += len(text)
            continue
        matched = None
        for sym in _SYMBOLS:
            if source.startswith(sym, i):
                matched = sym
                break
        if matched is None:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        tokens.append(Token("symbol", matched, line, col))
        i += len(matched)
        col += len(matched)
    tokens.append(Token("eof", "", line, col))
    return tokens


class TokenStream:
    """Cursor over a token list with the usual peek/expect helpers."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at_symbol(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "symbol" and tok.text == text

    def at_ident(self, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and (text is None or tok.text == text)

    def expect_symbol(self, text: str) -> Token:
        tok = self.next()
        if tok.kind != "symbol" or tok.text != text:
            raise ParseError(f"expected {text!r}, got {tok.text!r}", tok.line, tok.col)
        return tok

    def expect_ident(self) -> Token:
        tok = self.next()
        if tok.kind != "ident":
            raise ParseError(f"expected identifier, got {tok.text!r}", tok.line, tok.col)
        return tok

    def expect_label_name(self) -> Token:
        """Identifier or bare '*', the conventional nullary label."""
        tok = self.next()
        if tok.kind == "ident" or (tok.kind == "symbol" and tok.text == "*"):
            return tok
        raise ParseError(f"expected label name, got {tok.text!r}", tok.line, tok.col)

    def expect_number(self) -> Token:
        tok = self.next()
        if tok.kind != "number":
            raise ParseError(f"expected number, got {tok.text!r}", tok.line, tok.col)
        return tok

    def expect_weight(self, semiring):
        """WEIGHT := NUMBER ["/" NUMBER] | "inf", parsed by `semiring`;
        errors carry the position of the weight's first token."""
        tok = self.peek()
        if self.at_ident("inf"):
            self.next()
            text = "inf"
        else:
            text = self.expect_number().text
            if self.at_symbol("/"):
                self.next()
                text = f"{text}/{self.expect_number().text}"
        try:
            return semiring.parse(text)
        except ParseError as e:
            raise ParseError(str(e), tok.line, tok.col) from None

    def expect_eof(self):
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"trailing input starting at {tok.text!r}", tok.line, tok.col)
