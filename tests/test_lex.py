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

from hypothesis import example, given, settings
from hypothesis import strategies as st

from semimc import ParseError
from semimc._lex import TokenStream, tokenize

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
