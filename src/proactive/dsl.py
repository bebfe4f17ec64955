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
    item  ::= input
            | insert call <iface>.<method> [args cached|none|(<literals>)]
            | insert new <iface> args cached
            | (a transition may instead emit the single keyword `none`,
               which suppresses the matched input)

Each line is lexed by one regex findall into plain token strings.  A
comment can only be the last lexeme, and a lone '"' is a string with no
closing quote: it ends the line's tokens with a lexical diagnostic.  A
diagnostic finds its column by scanning its line again, so valid text
never computes one.

Canonical form uses LF line endings, single-space token separation,
states sorted by id and transitions sorted by (from, guard text).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NoReturn, Optional

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

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*\Z")
# Integers are ASCII digits with an optional minus: `args (...)` literals
# here and `.scn` call args; a version takes no sign.
INTEGER = re.compile(r"-?[0-9]+")
_VERSION = re.compile(r"[0-9]+")
_SINGLE_USE = ("policy", "version", "experimental", "statement", "target",
               "states", "initial")
# One lexeme per match: a token, an unterminated string's lone opening
# quote, or a comment running to the end of the line.  findall skips what
# no alternative matches, which is exactly the whitespace between lexemes.
_LEXEME = re.compile(r'"(?:[^"\\]|\\.)*"|[{}(),]|[^\s{}(),"#]+|"|#.*')


@dataclass(frozen=True)
class DslDiagnostic:
    kind: str  # lexical | syntax | semantic
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


@dataclass(frozen=True)
class PolicyDoc:
    """A named, parsed policy: enforcement model plus metadata."""

    name: str
    statement: str
    target_interface: str
    automaton: EditAutomaton
    version: int = 0
    experimental: bool = False


def _tokenize_line(raw: str, lineno: int, diags: list[DslDiagnostic]) -> list[str]:
    """The texts of raw's tokens, up to an unterminated string."""
    tokens = _LEXEME.findall(raw)
    if tokens and tokens[-1][0] == "#":
        tokens.pop()
    if '"' in tokens:
        bad = tokens.index('"')
        diags.append(DslDiagnostic(
            "lexical", lineno, _column(raw, bad),
            "unterminated string or bad character '\"'"))
        del tokens[bad:]
    return tokens


def _column(raw: str, index: int) -> int:
    """1-based column of raw's lexeme `index`, found again for a diagnostic."""
    return [m.start() for m in _LEXEME.finditer(raw)][index] + 1


class _LineParser:
    """Cursor over one line's token texts; errors carry position + hint."""

    __slots__ = ("tokens", "raw", "lineno", "pos")

    def __init__(self, tokens: list[str], raw: str, lineno: int) -> None:
        self.tokens = tokens
        self.raw = raw
        self.lineno = lineno
        self.pos = 0

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
        raise _Fail(DslDiagnostic(kind, self.lineno, column, message, expected))

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

    def done(self) -> None:
        pos = self.pos
        if pos < len(self.tokens):
            self.fail("syntax", pos, f"trailing token {self.tokens[pos]!r}",
                      "end of line")


class _Fail(Exception):
    def __init__(self, diagnostic: DslDiagnostic) -> None:
        self.diagnostic = diagnostic
        super().__init__(str(diagnostic))


def _parse_symbol_atom(lp: _LineParser) -> ActionSymbol:
    head = lp.next("'call', 'callback' or 'new'")
    if head == "callback":
        return ActionSymbol.callback(lp.next("callback method name"))
    if head == "new":
        return ActionSymbol.constructor(lp.next("interface name"))
    if head == "call":
        ref = lp.next("<interface>.<method>")
        if "." not in ref:
            lp.fail("syntax", lp.pos - 1, f"malformed call target {ref!r}",
                    "<interface>.<method>")
        iface, method = ref.split(".", 1)
        return ActionSymbol.call(iface, method)
    lp.fail("syntax", lp.pos - 1, f"unexpected token {head!r}",
            "'call', 'callback' or 'new'")


def _parse_symbol_set(lp: _LineParser) -> tuple[frozenset[ActionSymbol], int]:
    opener = lp.expect("{")
    symbols: set[ActionSymbol] = set()
    while True:
        tok = lp.peek()
        if tok is None:
            lp.fail("syntax", opener, "unclosed symbol set", "'}'")
        if tok == "}":
            lp.pos += 1
            return frozenset(symbols), opener
        symbols.add(_parse_symbol_atom(lp))


def _parse_guard(lp: _LineParser) -> Guard:
    tok = lp.peek()
    if tok is None:
        lp.fail("syntax", None, "missing guard", "guard")
    if tok == "any":
        lp.pos += 1
        return Guard.any()
    if tok in ("any-of", "any-except"):
        lp.pos += 1
        symbols, opener = _parse_symbol_set(lp)
        if not symbols:
            lp.fail("semantic", opener, f"{tok} guard has an empty symbol set")
        if tok == "any-of":
            return Guard.any_of(symbols)
        return Guard.any_except(symbols)
    return Guard.exactly(_parse_symbol_atom(lp))


def _parse_literals(lp: _LineParser) -> tuple:
    """The literals after an `args (`, through the closing `)`."""
    values: list = []
    while True:
        tok = lp.next("literal or ')'")
        if tok == ")":
            return tuple(values)
        if tok.startswith('"'):
            values.append(unquote(tok))
        elif INTEGER.fullmatch(tok):
            values.append(int(tok))
        else:
            lp.fail("syntax", lp.pos - 1, f"bad literal {tok!r}",
                    "integer or quoted string")


def _parse_item(lp: _LineParser) -> OutputItem:
    head = lp.next("'input' or 'insert'")
    if head == "input":
        return OutputItem.forward()
    if head != "insert":
        lp.fail("syntax", lp.pos - 1, f"unexpected token {head!r}",
                "'input' or 'insert'")
    symbol = _parse_symbol_atom(lp)
    if lp.peek() != "args":
        return OutputItem.synthesize(symbol)
    lp.pos += 1
    source = lp.next("'cached', 'none' or '('")
    if source == "cached":
        return OutputItem.synthesize(symbol, ArgSource.CACHED)
    if source == "none":
        return OutputItem.synthesize(symbol)
    if source == "(":
        return OutputItem.synthesize(symbol, ArgSource.LITERALS, _parse_literals(lp))
    lp.fail("syntax", lp.pos - 1, f"unexpected token {source!r}",
            "'cached', 'none' or '('")


def _parse_transition(lp: _LineParser) -> Transition:
    guard = _parse_guard(lp)
    lp.expect("from")
    source = lp.next("state id")
    lp.expect("to")
    target = lp.next("state id")
    lp.expect("emit")
    if lp.peek() == "none":
        lp.pos += 1
        lp.done()
        return Transition(source, guard, (), target, lp.lineno)
    items = [_parse_item(lp)]
    while lp.pos < len(lp.tokens):
        if lp.tokens[lp.pos] != ",":
            lp.fail("syntax", lp.pos, f"unexpected token {lp.tokens[lp.pos]!r}",
                    "',' or end of line")
        lp.pos += 1
        items.append(_parse_item(lp))
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
    for lineno, raw in enumerate(lines, start=1):
        tokens = _tokenize_line(raw, lineno, diags)
        if not tokens:
            continue
        lp = _LineParser(tokens, raw, lineno)
        head = lp.next("directive")
        try:
            if head == "on":  # most of a policy's lines
                transitions.append(_parse_transition(lp))
                continue
            if head in seen:
                lp.fail("semantic", 0, f"duplicate {head!r} directive "
                        f"(first on line {seen[head]})")
            if head in _SINGLE_USE:
                seen[head] = lineno
            if head == "policy":
                tok = lp.next("policy name")
                if not _IDENT.match(tok):
                    lp.fail("semantic", 1, f"invalid policy name {tok!r}")
                name = tok
                lp.done()
            elif head == "version":
                tok = lp.next("non-negative integer")
                if not _VERSION.fullmatch(tok):
                    lp.fail("semantic", 1, f"invalid version {tok!r}")
                version = int(tok)
                lp.done()
            elif head == "experimental":
                experimental = True
                lp.done()
            elif head == "statement":
                tok = lp.next("quoted statement text")
                if not tok.startswith('"'):
                    lp.fail("syntax", 1, "statement text must be quoted",
                            '"<text>"')
                statement = unquote(tok)
                lp.done()
            elif head == "target":
                target = lp.next("interface name")
                lp.done()
            elif head == "states":
                for at in range(1, len(tokens)):
                    if tokens[at] in states:
                        lp.fail("semantic", at, f"duplicate state {tokens[at]!r}")
                    states.append(tokens[at])
            elif head == "initial":
                initial = lp.next("state id")
                lp.done()
            else:
                lp.fail("syntax", 0, f"unknown directive {head!r}",
                        "'policy', 'version', 'experimental', 'statement', "
                        "'target', 'states', 'initial' or 'on'")
        except _Fail as fail:
            diags.append(fail.diagnostic)

    last = len(lines) or 1
    for field_name, value in (("policy", name), ("statement", statement),
                              ("target", target), ("initial", initial),
                              ("states", states or None)):
        if value is None:
            diags.append(DslDiagnostic("syntax", last, 1,
                                       f"missing {field_name!r} directive",
                                       f"{field_name} ..."))
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

    return PolicyDoc(name=name, statement=statement, target_interface=target,
                     automaton=automaton, version=version,
                     experimental=experimental)


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
        if t.output:
            emitted = ", ".join(i.text() for i in t.output)
        else:
            emitted = "none"
        lines.append(f"on {t.guard.text()} from {t.source} to {t.target} "
                     f"emit {emitted}")
    return "\n".join(lines) + "\n"
