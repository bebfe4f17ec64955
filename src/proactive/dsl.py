r"""Textual policy format: parse, validate, and serialize enforcement models.

Grammar (line-oriented; '#' outside a string starts a comment that runs
to the end of the line; strings are double-quoted, with the escapes \",
\\, \n and \uXXXX for the other line breaks that str.splitlines knows):

    policy <name>
    version <n>
    experimental                 (optional; excluded from default deployment)
    statement "<text>"
    target <interface>
    states <id> ...
    initial <id>
    on <guard> from <s> to <s'> emit <item>[, <item> ...]

    guard ::= call <iface>.<method> | callback <method> | new <iface>
            | any | any-of {<symbol> ...} | any-except {<symbol> ...}
    item  ::= input                        (at most once; a second is an error)
            | insert call <iface>.<method> [args cached|none|(<literals>)]
            | insert new <iface> args cached
            | (a transition may instead emit the single keyword `none`,
               which suppresses the matched input)

Each line of a policy, a `.scn` scenario or the pack manifest is lexed
into token strings (`line_parsers`): cut at its first '#', spaced around
each of {}(), and split if it holds no '"', else by one regex findall,
which a lone '"' (a string with no closing quote) ends with a lexical
diagnostic.  A diagnostic finds its column by scanning its line again
with that regex, so valid text never computes one.

Canonical form uses LF line endings, single-space token separation,
states sorted by id and transitions sorted by (from, guard text).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, NoReturn, Optional

from .automata import (
    ActionSymbol,
    ArgSource,
    EditAutomaton,
    Guard,
    OutputItem,
    Transition,
    quote,
    state_sort_key,
    unquote,
    validate,
)
from .automata import _ANY_EXCEPT, _ANY_OF, _API_CALL, _EXACTLY, _FORWARD_ONLY

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*\Z")
# Integers are ASCII digits with an optional minus: `args (...)` literals
# here and `.scn` call args; a version takes no sign.
INTEGER = re.compile(r"-?[0-9]+")
_VERSION = re.compile(r"[0-9]+")
_SINGLE_USE = {"policy", "version", "experimental", "statement", "target",
               "states", "initial"}
# One lexeme per match: a token, an unterminated string's lone opening
# quote, or a comment running to the end of the line.  findall skips what
# no alternative matches, which is exactly the whitespace between lexemes.
_LEXEME = re.compile(r'"(?:[^"\\]|\\.)*"|[{}(),]|[^\s{}(),"#]+|"|#.*')


@dataclass(frozen=True)
class DslDiagnostic:
    kind: str  # lexical | syntax | semantic | replay (a .scn step's)
    line: int
    column: int
    message: str
    expected: Optional[str] = None

    def __str__(self) -> str:
        hint = f" (expected {self.expected})" if self.expected else ""
        return f"{self.line}:{self.column}: {self.kind} error: {self.message}{hint}"


class PolicyParseError(Exception):
    def __init__(self, diagnostics: list[DslDiagnostic]) -> None:
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


@dataclass(frozen=True, init=False)
class PolicyDoc:
    """A named, parsed policy: enforcement model plus metadata."""

    name: str
    statement: str
    target_interface: str
    automaton: EditAutomaton
    version: int = 0
    experimental: bool = False

    def __init__(self, name, statement, target_interface, automaton, version=0,
                 experimental=False):  # fills __dict__ as automata.Guard's does
        self.__dict__.update(name=name, statement=statement,
                             target_interface=target_interface, automaton=automaton,
                             version=version, experimental=experimental)


def _column(raw: str, index: int) -> int:
    """1-based column of raw's lexeme `index`, found again for a diagnostic."""
    return [m.start() for m in _LEXEME.finditer(raw)][index] + 1


class _LineParser:
    """Cursor over one line's token texts; errors carry position + hint."""

    __slots__ = ("tokens", "raw", "lineno", "pos")

    def __init__(self, tokens: list[str], raw: str, lineno: int) -> None:
        self.tokens, self.raw, self.lineno, self.pos = tokens, raw, lineno, 0

    def fail(self, kind: str, at: Optional[int], message: str,
             expected: Optional[str] = None) -> NoReturn:
        """Raise a diagnostic at token `at`: just past the last token when
        `at` is the token count, and at column 1 when it is None."""
        if at is None:
            column = 1
        elif at < len(self.tokens):
            column = _column(self.raw, at)
        else:
            column = _column(self.raw, at - 1) + len(self.tokens[at - 1])
        raise LineError(DslDiagnostic(kind, self.lineno, column, message, expected))

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expected: str) -> str:
        pos = self.pos
        if pos == len(self.tokens):
            self.fail("syntax", pos, "unexpected end of line", expected)
        self.pos = pos + 1
        return self.tokens[pos]

    def expect(self, literal: str) -> int:
        """Consume literal; return its token index."""
        pos = self.pos
        if pos < len(self.tokens) and self.tokens[pos] == literal:
            self.pos = pos + 1
            return pos
        tok = self.next(repr(literal))
        self.fail("syntax", pos, f"unexpected token {tok!r}", repr(literal))

    def bare(self) -> None:
        """Reject a string or any of {}(), (.scn and manifest lines hold words)."""
        for at, token in enumerate(self.tokens):
            if token[0] in '"{}(),':
                self.fail("syntax", at, f"unexpected token {token!r}")

    def done(self) -> None:
        pos = self.pos
        if pos < len(self.tokens):
            self.fail("syntax", pos, f"trailing token {self.tokens[pos]!r}",
                      "end of line")


class LineError(Exception):
    """One positioned diagnostic; a line's cursor raises it."""

    def __init__(self, diagnostic: DslDiagnostic) -> None:
        self.diagnostic = diagnostic
        super().__init__(str(diagnostic))


def line_parsers(lines: list[str],
                 diags: list[DslDiagnostic]) -> Iterator[_LineParser]:
    """A cursor over the token texts of each of lines that has any, up to
    an unterminated string, whose lexical diagnostic is appended to diags
    before its line's cursor is handed on.  Lines are numbered from 1."""
    for lineno, raw in enumerate(lines, start=1):
        if '"' not in raw:  # _LEXEME's tokens, by str methods at a third the cost
            tokens = (raw.partition("#")[0].replace("{", " { ").replace("}", " } ")
                      .replace("(", " ( ").replace(")", " ) ").replace(",", " , ")
                      .split())
        else:
            tokens = _LEXEME.findall(raw)
            if tokens and tokens[-1][0] == "#":
                tokens.pop()
            if '"' in tokens:
                bad = tokens.index('"')
                diags.append(DslDiagnostic(
                    "lexical", lineno, _column(raw, bad),
                    "unterminated string or bad character '\"'"))
                del tokens[bad:]
        if tokens:
            yield _LineParser(tokens, raw, lineno)


def _name(lp: _LineParser, expected: str) -> str:
    """The next token, a name or state id: a word, as bare() checks."""
    pos = lp.pos
    if pos == len(lp.tokens):  # as next() does, with no second call per name
        lp.fail("syntax", pos, "unexpected end of line", expected)
    tok = lp.tokens[pos]
    if tok[0] in '"{}(),':
        lp.fail("syntax", pos, f"unexpected token {tok!r}", expected)
    lp.pos = pos + 1
    return tok


def call_target(lp: _LineParser) -> ActionSymbol:
    """The `<interface>.<method>` after a `call`: one dot, both names non-empty."""
    ref = _name(lp, "<interface>.<method>")
    iface, dot, method = ref.partition(".")
    if not (iface and dot and method) or "." in method:
        lp.fail("syntax", lp.pos - 1, f"malformed call target {ref!r}",
                "<interface>.<method>")
    return ActionSymbol(_API_CALL, iface, method)


def _parse_symbol_atom(lp: _LineParser) -> ActionSymbol:
    head = lp.next("'call', 'callback' or 'new'")
    if head == "call":
        return call_target(lp)
    if head == "callback":
        return ActionSymbol.callback(_name(lp, "callback method name"))
    if head == "new":
        return ActionSymbol.constructor(_name(lp, "interface name"))
    lp.fail("syntax", lp.pos - 1, f"unexpected token {head!r}",
            "'call', 'callback' or 'new'")


def _parse_guard(lp: _LineParser) -> Guard:
    kind = lp.peek()
    if kind is None:
        lp.fail("syntax", None, "missing guard", "guard")
    if kind == "any":
        lp.pos += 1
        return Guard.any()
    if kind not in ("any-of", "any-except"):
        return Guard(_EXACTLY, frozenset((_parse_symbol_atom(lp),)))
    lp.pos += 1
    opener = lp.expect("{")
    symbols: set[ActionSymbol] = set()
    while (tok := lp.peek()) != "}":
        if tok is None:
            lp.fail("syntax", opener, "unclosed symbol set", "'}'")
        symbols.add(_parse_symbol_atom(lp))
    lp.pos += 1
    if not symbols:
        lp.fail("semantic", opener, f"{kind} guard has an empty symbol set")
    return Guard(_ANY_OF if kind == "any-of" else _ANY_EXCEPT, frozenset(symbols))


def _parse_item(lp: _LineParser) -> OutputItem:
    head = lp.next("'input' or 'insert'")
    if head == "input":
        return OutputItem.forward()
    if head != "insert":
        lp.fail("syntax", lp.pos - 1, f"unexpected token {head!r}",
                "'input' or 'insert'")
    symbol = _parse_symbol_atom(lp)
    if lp.peek() != "args":
        return OutputItem(symbol)
    lp.pos += 1
    source = lp.next("'cached', 'none' or '('")
    if source == "cached":
        return OutputItem(symbol, ArgSource.CACHED)
    if source == "none":
        return OutputItem(symbol)
    if source != "(":
        lp.fail("syntax", lp.pos - 1, f"unexpected token {source!r}",
                "'cached', 'none' or '('")
    values: list = []  # the literals, through the closing ')'
    while (tok := lp.next("literal or ')'")) != ")":
        if tok.startswith('"'):
            values.append(unquote(tok))
        elif INTEGER.fullmatch(tok):
            values.append(int(tok))
        else:
            lp.fail("syntax", lp.pos - 1, f"bad literal {tok!r}",
                    "integer or quoted string")
    return OutputItem(symbol, ArgSource.LITERALS, tuple(values))


def _parse_transition(lp: _LineParser) -> Transition:
    guard = _parse_guard(lp)
    lp.expect("from")
    source = _name(lp, "state id")
    lp.expect("to")
    target = _name(lp, "state id")
    lp.expect("emit")
    if lp.tokens[lp.pos:] == ["input"]:  # most transitions: one shared output
        lp.pos += 1
        return Transition(source, guard, _FORWARD_ONLY, target, lp.lineno)
    if lp.peek() == "none":  # parse checks that the line ends here
        lp.pos += 1
        return Transition(source, guard, (), target, lp.lineno)
    items = [_parse_item(lp)]
    while lp.pos < len(lp.tokens):
        if lp.tokens[lp.pos] != ",":
            lp.fail("syntax", lp.pos, f"unexpected token {lp.tokens[lp.pos]!r}",
                    "',' or end of line")
        lp.pos += 1
        items.append(_parse_item(lp))
        if items[-1].symbol is None and items.count(items[-1]) > 1:
            lp.fail("semantic", lp.pos - 1, "the output forwards the input twice")
    return Transition(source, guard, tuple(items), target, lp.lineno)


def parse(text: str) -> PolicyDoc:
    """Parse a policy document; raises PolicyParseError with positioned
    diagnostics on any lexical, syntax, or semantic problem."""
    diags: list[DslDiagnostic] = []
    name: Optional[str] = None
    statement: Optional[str] = None
    target: Optional[str] = None
    version = 0
    experimental = False
    states: list[str] = []
    initial: Optional[str] = None
    transitions: list[Transition] = []
    seen: dict[str, int] = {}  # single-use directive -> its line

    lines = text.splitlines()
    for lp in line_parsers(lines, diags):
        head, lp.pos = lp.tokens[0], 1  # a cursor has at least one token
        try:
            if head in seen:
                lp.fail("semantic", 0, f"duplicate {head!r} directive "
                        f"(first on line {seen[head]})")
            if head in _SINGLE_USE:
                seen[head] = lp.lineno
            if head == "on":  # most of a policy's lines
                transitions.append(_parse_transition(lp))
            elif head == "policy":
                tok = lp.next("policy name")
                if not _IDENT.match(tok):
                    lp.fail("semantic", 1, f"invalid policy name {tok!r}")
                name = tok
            elif head == "version":
                tok = lp.next("non-negative integer")
                if not _VERSION.fullmatch(tok):
                    lp.fail("semantic", 1, f"invalid version {tok!r}")
                version = int(tok)
            elif head == "experimental":
                experimental = True
            elif head == "statement":
                tok = lp.next("quoted statement text")
                if not tok.startswith('"'):
                    lp.fail("syntax", 1, "statement text must be quoted",
                            '"<text>"')
                statement = unquote(tok)
            elif head == "target":
                target = _name(lp, "interface name")
            elif head == "states":  # at least one id (states is empty until now)
                while not states or lp.peek() is not None:
                    tok = _name(lp, "state id")
                    if tok in states:
                        lp.fail("semantic", lp.pos - 1, f"duplicate state {tok!r}")
                    states.append(tok)
            elif head == "initial":
                initial = _name(lp, "state id")
            else:
                lp.fail("syntax", 0, f"unknown directive {head!r}",
                        "'policy', 'version', 'experimental', 'statement', "
                        "'target', 'states', 'initial' or 'on'")
            lp.done()
        except LineError as error:
            diags.append(error.diagnostic)

    last = len(lines) or 1
    for directive in ("policy", "statement", "target", "initial", "states"):
        if directive not in seen:  # a malformed one is reported on its line
            diags.append(DslDiagnostic("syntax", last, 1,
                                       f"missing {directive!r} directive",
                                       f"{directive} ..."))
    if diags:
        raise PolicyParseError(diags)

    automaton = EditAutomaton(frozenset(states), initial, tuple(transitions))
    for d in validate(automaton):
        if d.transition is not None:
            line = d.transition.line
        else:
            line = seen["initial" if d.code == "bad-initial" else "states"]
        diags.append(DslDiagnostic("semantic", line, 1, str(d)))
    if diags:
        raise PolicyParseError(diags)

    return PolicyDoc(name, statement, target, automaton, version, experimental)


def serialize(doc: PolicyDoc) -> str:
    """Canonical rendering: deterministic, byte-identical across runs.

    States are sorted by id and transitions by (from, guard text);
    parse(serialize(doc)) == doc.
    """
    lines = [f"policy {doc.name}", f"version {doc.version}"]
    if doc.experimental:
        lines.append("experimental")
    lines.append(f"statement {quote(doc.statement)}")
    lines.append(f"target {doc.target_interface}")
    ordered_states = sorted(doc.automaton.states, key=state_sort_key)
    lines.append("states " + " ".join(ordered_states))
    lines.append(f"initial {doc.automaton.initial}")
    for t in sorted(doc.automaton.transitions, key=Transition.sort_key):
        emitted = ", ".join(i.text() for i in t.output) or "none"
        lines.append(f"on {t.guard.text()} from {t.source} to {t.target} "
                     f"emit {emitted}")
    return "\n".join(lines) + "\n"
