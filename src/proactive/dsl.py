r"""Textual policy format: parse, validate, and serialize enforcement models.

Grammar (line-oriented; '#' outside a string starts a comment that runs
to the end of the line; strings are double-quoted, with the escapes \",
\\ and \n):

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

Canonical form uses LF line endings, single-space token separation,
states sorted by id and transitions sorted by (from, guard text).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .automata import (
    ActionSymbol,
    ArgSource,
    EditAutomaton,
    Guard,
    GuardKind,
    OutputItem,
    Transition,
    quote,
    state_sort_key,
    unquote,
    validate,
)

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*\Z")
_SINGLE_USE = ("policy", "version", "experimental", "statement", "target",
               "states", "initial")
# One lexeme per match: a token, an unterminated string's opening quote,
# or a comment running to the end of the line.  finditer skips what no
# alternative matches, which is exactly the whitespace between lexemes.
_LEXEME = re.compile(r'(?P<token>"(?:[^"\\]|\\.)*"|[{}(),]|[^\s{}(),"#]+)'
                     r'|(?P<bad>")|#.*')


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


@dataclass
class _Token:
    text: str
    line: int
    column: int


def _tokenize_line(raw: str, lineno: int, diags: list[DslDiagnostic]) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _LEXEME.finditer(raw):
        if m.lastgroup == "token":
            tokens.append(_Token(m.group(), lineno, m.start() + 1))
        elif m.lastgroup == "bad":
            diags.append(DslDiagnostic(
                "lexical", lineno, m.start() + 1,
                f"unterminated string or bad character {m.group()!r}"))
            break
    return tokens


class _LineParser:
    """Cursor over one line's tokens; errors carry position + hint."""

    def __init__(self, tokens: list[_Token], lineno: int) -> None:
        self.tokens = tokens
        self.lineno = lineno
        self.pos = 0

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expected: str) -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            col = (last.column + len(last.text)) if last else 1
            raise _Fail(DslDiagnostic("syntax", self.lineno, col,
                                      "unexpected end of line", expected))
        self.pos += 1
        return tok

    def expect(self, literal: str) -> _Token:
        tok = self.next(repr(literal))
        if tok.text != literal:
            raise _Fail(DslDiagnostic("syntax", tok.line, tok.column,
                                      f"unexpected token {tok.text!r}",
                                      repr(literal)))
        return tok

    def done(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise _Fail(DslDiagnostic("syntax", tok.line, tok.column,
                                      f"trailing token {tok.text!r}",
                                      "end of line"))


class _Fail(Exception):
    def __init__(self, diagnostic: DslDiagnostic) -> None:
        self.diagnostic = diagnostic
        super().__init__(str(diagnostic))


def _parse_symbol_atom(lp: _LineParser) -> ActionSymbol:
    head = lp.next("'call', 'callback' or 'new'")
    if head.text == "callback":
        method = lp.next("callback method name")
        return ActionSymbol.callback(method.text)
    if head.text == "new":
        iface = lp.next("interface name")
        return ActionSymbol.constructor(iface.text)
    if head.text == "call":
        ref = lp.next("<interface>.<method>")
        if "." not in ref.text:
            raise _Fail(DslDiagnostic("syntax", ref.line, ref.column,
                                      f"malformed call target {ref.text!r}",
                                      "<interface>.<method>"))
        iface, method = ref.text.split(".", 1)
        return ActionSymbol.call(iface, method)
    raise _Fail(DslDiagnostic("syntax", head.line, head.column,
                              f"unexpected token {head.text!r}",
                              "'call', 'callback' or 'new'"))


def _parse_symbol_set(lp: _LineParser) -> tuple[frozenset[ActionSymbol], _Token]:
    opener = lp.expect("{")
    symbols: set[ActionSymbol] = set()
    while True:
        tok = lp.peek()
        if tok is None:
            raise _Fail(DslDiagnostic("syntax", opener.line, opener.column,
                                      "unclosed symbol set", "'}'"))
        if tok.text == "}":
            lp.next("'}'")
            return frozenset(symbols), opener
        symbols.add(_parse_symbol_atom(lp))


def _parse_guard(lp: _LineParser) -> Guard:
    tok = lp.peek()
    if tok is None:
        raise _Fail(DslDiagnostic("syntax", lp.lineno, 1,
                                  "missing guard", "guard"))
    if tok.text == "any":
        lp.next("guard")
        return Guard.any()
    if tok.text in ("any-of", "any-except"):
        lp.next("guard")
        symbols, opener = _parse_symbol_set(lp)
        if not symbols:
            raise _Fail(DslDiagnostic("semantic", opener.line, opener.column,
                                      f"{tok.text} guard has an empty symbol set"))
        if tok.text == "any-of":
            return Guard.any_of(symbols)
        return Guard.any_except(symbols)
    return Guard.exactly(_parse_symbol_atom(lp))


def _parse_literals(lp: _LineParser) -> tuple:
    lp.expect("(")
    values: list = []
    while True:
        tok = lp.next("literal or ')'")
        if tok.text == ")":
            return tuple(values)
        if tok.text.startswith('"'):
            values.append(unquote(tok.text))
        else:
            try:
                values.append(int(tok.text))
            except ValueError:
                raise _Fail(DslDiagnostic("syntax", tok.line, tok.column,
                                          f"bad literal {tok.text!r}",
                                          "integer or quoted string"))


def _parse_item(lp: _LineParser) -> OutputItem:
    tok = lp.peek()
    if tok is not None and tok.text == "input":
        lp.next("item")
        return OutputItem.forward()
    head = lp.next("'input' or 'insert'")
    if head.text != "insert":
        raise _Fail(DslDiagnostic("syntax", head.line, head.column,
                                  f"unexpected token {head.text!r}",
                                  "'input' or 'insert'"))
    symbol = _parse_symbol_atom(lp)
    nxt = lp.peek()
    if nxt is None or nxt.text != "args":
        return OutputItem.synthesize(symbol)
    lp.next("'args'")
    source = lp.next("'cached', 'none' or '('")
    if source.text == "cached":
        return OutputItem.synthesize(symbol, ArgSource.CACHED)
    if source.text == "none":
        return OutputItem.synthesize(symbol)
    if source.text == "(":
        lp.pos -= 1
        return OutputItem.synthesize(symbol, ArgSource.LITERALS, _parse_literals(lp))
    raise _Fail(DslDiagnostic("syntax", source.line, source.column,
                              f"unexpected token {source.text!r}",
                              "'cached', 'none' or '('"))


def _parse_transition(lp: _LineParser) -> Transition:
    guard = _parse_guard(lp)
    lp.expect("from")
    source = lp.next("state id").text
    lp.expect("to")
    target = lp.next("state id").text
    lp.expect("emit")
    tok = lp.peek()
    if tok is not None and tok.text == "none":
        lp.next("item")
        lp.done()
        return Transition(source, guard, (), target)
    items = [_parse_item(lp)]
    while True:
        tok = lp.peek()
        if tok is None:
            break
        if tok.text != ",":
            raise _Fail(DslDiagnostic("syntax", tok.line, tok.column,
                                      f"unexpected token {tok.text!r}",
                                      "',' or end of line"))
        lp.next("','")
        items.append(_parse_item(lp))
    lp.done()
    return Transition(source, guard, tuple(items), target)


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
    line_of: dict[int, int] = {}  # id(transition) -> its line
    seen: dict[str, int] = {}  # single-use directive -> its line

    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        tokens = _tokenize_line(raw, lineno, diags)
        if not tokens:
            continue
        lp = _LineParser(tokens, lineno)
        first = lp.next("directive")
        head = first.text
        try:
            if head in seen:
                raise _Fail(DslDiagnostic(
                    "semantic", lineno, first.column,
                    f"duplicate {head!r} directive (first on line {seen[head]})"))
            if head in _SINGLE_USE:
                seen[head] = lineno
            if head == "policy":
                tok = lp.next("policy name")
                if not _IDENT.match(tok.text):
                    raise _Fail(DslDiagnostic("semantic", tok.line, tok.column,
                                              f"invalid policy name {tok.text!r}"))
                name = tok.text
                lp.done()
            elif head == "version":
                tok = lp.next("non-negative integer")
                try:
                    version = int(tok.text)
                    if version < 0:
                        raise ValueError
                except ValueError:
                    raise _Fail(DslDiagnostic("semantic", tok.line, tok.column,
                                              f"invalid version {tok.text!r}"))
                lp.done()
            elif head == "experimental":
                experimental = True
                lp.done()
            elif head == "statement":
                tok = lp.next("quoted statement text")
                if not tok.text.startswith('"'):
                    raise _Fail(DslDiagnostic("syntax", tok.line, tok.column,
                                              "statement text must be quoted",
                                              '"<text>"'))
                statement = unquote(tok.text)
                lp.done()
            elif head == "target":
                target = lp.next("interface name").text
                lp.done()
            elif head == "states":
                while lp.peek() is not None:
                    tok = lp.next("state id")
                    if tok.text in states:
                        raise _Fail(DslDiagnostic("semantic", tok.line, tok.column,
                                                  f"duplicate state {tok.text!r}"))
                    states.append(tok.text)
            elif head == "initial":
                initial = lp.next("state id").text
                lp.done()
            elif head == "on":
                transitions.append(_parse_transition(lp))
                line_of[id(transitions[-1])] = lineno
            else:
                raise _Fail(DslDiagnostic(
                    "syntax", lineno, first.column,
                    f"unknown directive {head!r}",
                    "'policy', 'version', 'experimental', 'statement', "
                    "'target', 'states', 'initial' or 'on'"))
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
            line = line_of[id(d.transition)]
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
