"""The tokenizer against a reference that records every token's offset.

The reference is the earlier tokenizer: one pattern with a named group per
token kind and a group for a bad character, which builds a ``(kind, text,
offset)`` tuple per token.  `tokenize` keeps only the texts and works an
offset out when an error is raised; both must give the same tokens, the
same line:col for every token and for the end of input, and the same
first unexpected character.
"""

from __future__ import annotations

import re
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semimc import ParseError
from semimc._lex import _LEAD, _TOKEN, TokenStream, tokenize

_REF_TOKEN = re.compile(r"""(?:[ \t\r\n]+|\#[^\n]*)*(?:
    (?P<number>[0-9]+(?:\.[0-9]+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<symbol>->|[{};=/\[\](),.|+*])
  | (?P<bad>.)
  | \Z)
""", re.VERBOSE)


def _ref_position(source: str, offset: int) -> tuple[int, int]:
    line_start = source.rfind("\n", 0, offset) + 1
    return source.count("\n", 0, offset) + 1, offset - line_start + 1


def _ref_tokenize(source: str):
    """``(kind, text, offset)`` tuples ending in an 'eof' one, or the
    ``(message, line, col)`` of the first unexpected character."""
    tokens = [(kind, m[kind], m.start(kind))
              for m in _REF_TOKEN.finditer(source) for kind in (m.lastgroup,) if kind]
    for kind, text, offset in tokens:
        if kind == "bad":
            return (f"unexpected character {text!r}", *_ref_position(source, offset))
    # a trailing comment does not advance the end-of-input column
    comment = source.find("#", source.rfind("\n") + 1)
    tokens.append(("eof", "", len(source) if comment < 0 else comment))
    return tokens


# joined with no separator, so neighbours also form new tokens ("1" ".5")
_PIECES = ["semiring", "a", "x1", "_", "T", "0", "12", "0.25", ".5", "1.", "->", "-", ">",
           "{", "}", ";", "=", "/", "[", "]", "(", ")", ",", ".", "|", "+", "*",
           " ", "\t", "\r", "\n", "\n\n", "#", "# c", "#é ->",
           "\x0c", "é", "١"]


@given(st.lists(st.sampled_from(_PIECES), max_size=30).map("".join))
@settings(max_examples=500, deadline=None)
@example("semiring bool label a/1\nstate x { 1 a -> x   # open block")
@example("# only a comment\n   # and another")
@example("")
def test_tokenize_matches_reference(text):
    ref = _ref_tokenize(text)
    try:
        tokens = tokenize(text)
    except ParseError as e:
        assert (str(e).split(": ", 1)[1], e.line, e.col) == ref
        return
    assert isinstance(ref, list), ref
    assert tokens == [t for _, t, _ in ref]
    for kind, tok, _ in ref:
        assert kind == ("eof" if not tok else "ident" if tok.isidentifier()
                        else "number" if tok[0].isdigit() else "symbol")
    ts = TokenStream(text)
    for k, (_, _, offset) in enumerate(ref):
        e = ts.error("here", k)
        assert (e.line, e.col) == _ref_position(text, offset), k


# the tokenizer as it was before `tokenize` stripped comments first, frozen
# here as the reference for the tokens and for every error position: one
# search for a token and the gap after it, from the end of the leading gap
_OLD_GAP = r"[ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*"
_OLD_LEAD = re.compile(_OLD_GAP)
_OLD_TOKEN = re.compile(r"([0-9]+(?:\.[0-9]+)?|[A-Za-z_][A-Za-z0-9_]*|->|[{};=/\[\](),.|+*])"
                        + _OLD_GAP)
_OLD_CLEAN = re.compile(r"(?:[ \t\r\n0-9A-Za-z_{};=/\[\](),.|+*]+|->|\#[^\n]*)*")


def _old_tokenize(source: str):
    """The token texts ending in '', or the offset of the first
    unexpected character."""
    end = _OLD_CLEAN.match(source).end()
    if end < len(source):
        return end
    return _OLD_TOKEN.findall(source, _OLD_LEAD.match(source).end()) + [""]


def _old_error_position(source: str, k: int) -> tuple[int, int]:
    m = next(islice(_OLD_TOKEN.finditer(source, _OLD_LEAD.match(source).end()), k, None), None)
    if m is None:
        comment = source.find("#", source.rfind("\n") + 1)
        return _ref_position(source, len(source) if comment < 0 else comment)
    return _ref_position(source, m.start())


# tabs, carriage returns, comments with a '#' inside them, and symbols that
# join their neighbours when nothing separates them
_LAYOUT = ["\t", "\r", "\r\n", "\n", " ", "# c\n", "# a # b\n", "#\n", "## ->\n", "#"]
_ADJACENT = ["->", "-", ">", "{", "}", ";", "/", "[", "]", "(", ")", ",", ".", "|", "+", "*",
             "=", "x", "y_1", "0", "12", "0.25", "3."]


@given(st.lists(st.sampled_from(_LAYOUT + _ADJACENT), max_size=40).map("".join),
       st.sampled_from(["", "\n", "# last line", "# a # b", "\t#"]))
@settings(max_examples=500, deadline=None)
@example("a/1 # one\r\n\tb->c # two # three", "# no newline")
@example("{};=/[](),.|+*->", "")
def test_tokenize_matches_the_token_search_and_its_positions(body, end):
    text = body + end
    old = _old_tokenize(text)
    if isinstance(old, int):  # a lone '-' or '>': the same error at the same place
        with pytest.raises(ParseError) as e:
            tokenize(text)
        assert (e.value.line, e.value.col) == _ref_position(text, old)
        return
    tokens = tokenize(text)
    assert tokens == _TOKEN.findall(text, _LEAD.match(text).end()) + [""] == old
    ts = TokenStream(text)
    for k in range(len(tokens) + 1):
        e = ts.error("here", k)
        assert (e.line, e.col) == _old_error_position(text, k), k
