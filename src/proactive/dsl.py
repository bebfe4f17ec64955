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

Each line of a policy, a `.scn` scenario or the pack manifest is lexed by
`tokenize`: cut at its first '#', spaced around each of {}(), and split if
it holds no '"', else by one regex findall, which a lone '"' ends with a
lexical diagnostic.  `parse` tests each token in place, by its index; `.scn`
and manifest lines go through a cursor (`line_parsers`).  A diagnostic finds
its column by scanning its line again, so valid text never computes one.

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


def _fail(tokens: list[str], raw: str, lineno: int, at: Optional[int], kind: str,
          message: str, expected: Optional[str] = None) -> NoReturn:
    """Raise a diagnostic at token `at` of the line: just past the last
    token when `at` is the token count, and at column 1 when it is None."""
    if at is None:
        column = 1
    elif at < len(tokens):
        column = _column(raw, at)
    else:
        column = _column(raw, at - 1) + len(tokens[at - 1])
    raise LineError(DslDiagnostic(kind, lineno, column, message, expected))


def _unexpected(tokens: list[str], raw: str, lineno: int, at: int, expected: str) -> NoReturn:
    """Fail at token `at`, which is missing or is not what was expected."""
    _fail(tokens, raw, lineno, at, "syntax", f"unexpected token {tokens[at]!r}"
          if at < len(tokens) else "unexpected end of line", expected)


class _LineParser:
    """Cursor over one line's token texts, for `.scn` and manifest lines;
    errors carry position + hint."""

    __slots__ = ("tokens", "raw", "lineno", "pos")

    def __init__(self, tokens: list[str], raw: str, lineno: int) -> None:
        self.tokens, self.raw, self.lineno, self.pos = tokens, raw, lineno, 0

    def fail(self, kind: str, at: Optional[int], message: str,
             expected: Optional[str] = None) -> NoReturn:
        _fail(self.tokens, self.raw, self.lineno, at, kind, message, expected)

    def next(self, expected: str) -> str:
        pos = self.pos
        if pos == len(self.tokens):
            self.fail("syntax", pos, "unexpected end of line", expected)
        self.pos = pos + 1
        return self.tokens[pos]

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
    """One positioned diagnostic; a line's reader raises it."""

    def __init__(self, diagnostic: DslDiagnostic) -> None:
        self.diagnostic = diagnostic
        super().__init__(str(diagnostic))


def tokenize(raw: str, lineno: int, diags: list[DslDiagnostic]) -> list[str]:
    """The token texts of line `lineno`, up to an unterminated string, whose
    lexical diagnostic is appended to diags."""
    if '"' not in raw:  # _LEXEME's tokens, by str methods at a third the cost
        return (raw.partition("#")[0].replace("{", " { ").replace("}", " } ")
                .replace("(", " ( ").replace(")", " ) ").replace(",", " , ")
                .split())
    tokens = _LEXEME.findall(raw)
    if tokens and tokens[-1][0] == "#":
        tokens.pop()
    if '"' in tokens:
        bad = tokens.index('"')
        diags.append(DslDiagnostic("lexical", lineno, _column(raw, bad),
                                   "unterminated string or bad character '\"'"))
        del tokens[bad:]
    return tokens


def line_parsers(lines: list[str], diags: list[DslDiagnostic]) -> Iterator[_LineParser]:
    """A cursor over the tokens of each of lines that has any (`.scn` and
    manifest lines).  Lines are numbered from 1."""
    for lineno, raw in enumerate(lines, start=1):
        if tokens := tokenize(raw, lineno, diags):
            yield _LineParser(tokens, raw, lineno)


# What a symbol atom's second token names, by its first.
_ATOM_NAME = {"call": "<interface>.<method>", "callback": "callback method name",
              "new": "interface name"}


def read_atom(t: list[str], i: int, raw: str, lineno: int) -> ActionSymbol:
    """The symbol at t[i:i + 2] in a guard, an inserted item or a `.scn` step:
    `call <iface>.<method>` (one dot, two names), `callback <m>` or `new <iface>`."""
    if i + 1 < len(t) and t[i + 1][0] not in '"{}(),':
        head, name = t[i], t[i + 1]
        if head == "call":
            iface, dot, method = name.partition(".")
            if iface and dot and method and "." not in method:
                return ActionSymbol(_API_CALL, iface, method)
            _fail(t, raw, lineno, i + 1, "syntax", f"malformed call target {name!r}",
                  "<interface>.<method>")
        if head == "callback":
            return ActionSymbol.callback(name)
        if head == "new":
            return ActionSymbol.constructor(name)
    if i == len(t) or t[i] not in _ATOM_NAME:
        _unexpected(t, raw, lineno, i, "'call', 'callback' or 'new'")
    _unexpected(t, raw, lineno, i + 1, _ATOM_NAME[t[i]])


def _parse_guard(t: list[str], raw: str, lineno: int) -> tuple[Guard, int]:
    """The guard after an `on`, and the index past it."""
    n = len(t)
    if n == 1:
        _fail(t, raw, lineno, None, "syntax", "missing guard", "guard")
    kind = t[1]
    if kind == "any":
        return Guard.any(), 2
    if kind != "any-of" and kind != "any-except":
        return Guard(_EXACTLY, frozenset((read_atom(t, 1, raw, lineno),))), 3
    if n == 2 or t[2] != "{":
        _unexpected(t, raw, lineno, 2, "'{'")
    symbols, i = set(), 3
    while i < n and t[i] != "}":
        symbols.add(read_atom(t, i, raw, lineno))
        i += 2
    if i == n:
        _fail(t, raw, lineno, 2, "syntax", "unclosed symbol set", "'}'")
    if not symbols:
        _fail(t, raw, lineno, 2, "semantic", f"{kind} guard has an empty symbol set")
    return Guard(_ANY_OF if kind == "any-of" else _ANY_EXCEPT, frozenset(symbols)), i + 1


def _parse_item(t: list[str], i: int, raw: str,
                lineno: int) -> tuple[OutputItem, int]:
    """The output item at t[i], and the index past it."""
    n = len(t)
    if i < n and t[i] == "input":
        return _FORWARD_ONLY[0], i + 1
    if i == n or t[i] != "insert":
        _unexpected(t, raw, lineno, i, "'input' or 'insert'")
    symbol = read_atom(t, i + 1, raw, lineno)
    i += 3
    if i == n or t[i] != "args":
        return OutputItem(symbol), i
    source = t[i + 1] if i + 1 < n else None
    if source == "cached":
        return OutputItem(symbol, ArgSource.CACHED), i + 2
    if source == "none":
        return OutputItem(symbol), i + 2
    if source != "(":
        _unexpected(t, raw, lineno, i + 1, "'cached', 'none' or '('")
    values, i = [], i + 2  # the literals, through the closing ')'
    while i < n and (tok := t[i]) != ")":
        if tok[0] == '"':
            values.append(unquote(tok))
        elif INTEGER.fullmatch(tok):
            values.append(int(tok))
        else:
            _fail(t, raw, lineno, i, "syntax", f"bad literal {tok!r}",
                  "integer or quoted string")
        i += 1
    if i == n:
        _unexpected(t, raw, lineno, i, "literal or ')'")
    return OutputItem(symbol, ArgSource.LITERALS, tuple(values)), i + 1


# The five tokens after an `on` line's guard (None: a state id), each with its
# hint: tested at once, and walked only to find the one that failed.
_STEP = (("from", "'from'"), (None, "state id"), ("to", "'to'"),
         (None, "state id"), ("emit", "'emit'"))


def _parse_transition(t: list[str], raw: str, lineno: int) -> Transition:
    guard, i = _parse_guard(t, raw, lineno)
    n = len(t)
    if not (i + 4 < n and t[i] == "from" and t[i + 2] == "to" and t[i + 4] == "emit"
            and t[i + 1][0] not in '"{}(),' and t[i + 3][0] not in '"{}(),'):
        for at, (word, expected) in enumerate(_STEP, start=i):
            if at == n or (t[at] != word if word else t[at][0] in '"{}(),'):
                _unexpected(t, raw, lineno, at, expected)
    source, target, i = t[i + 1], t[i + 3], i + 5
    if i == n - 1 and t[i] == "input":  # most transitions: one shared output
        return Transition(source, guard, _FORWARD_ONLY, target, lineno)
    if i < n and t[i] == "none":
        if i + 1 < n:
            _fail(t, raw, lineno, i + 1, "syntax", f"trailing token {t[i + 1]!r}",
                  "end of line")
        return Transition(source, guard, (), target, lineno)
    item, i = _parse_item(t, i, raw, lineno)
    items = [item]
    while i < n:
        if t[i] != ",":
            _unexpected(t, raw, lineno, i, "',' or end of line")
        item, i = _parse_item(t, i + 1, raw, lineno)
        if item.symbol is None and item in items:
            _fail(t, raw, lineno, i - 1, "semantic",
                  "the output forwards the input twice")
        items.append(item)
    return Transition(source, guard, tuple(items), target, lineno)


# What a directive's first argument is, for a diagnostic where it is missing.
_ARGUMENT = {"policy": "policy name", "version": "non-negative integer",
             "statement": "quoted statement text", "target": "interface name",
             "states": "state id", "initial": "state id"}


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
        if not (t := tokenize(raw, lineno, diags)):
            continue
        head, n, end = t[0], len(t), 2  # most directives take one word
        try:
            if head in seen:
                _fail(t, raw, lineno, 0, "semantic", f"duplicate {head!r} "
                      f"directive (first on line {seen[head]})")
            if head in _SINGLE_USE:
                seen[head] = lineno
            if head == "on":  # most of a policy's lines
                transitions.append(_parse_transition(t, raw, lineno))
                continue
            if n == 1 and head in _ARGUMENT:
                _unexpected(t, raw, lineno, 1, _ARGUMENT[head])
            if head == "policy":
                if not _IDENT.match(t[1]):
                    _fail(t, raw, lineno, 1, "semantic", f"invalid policy name {t[1]!r}")
                name = t[1]
            elif head == "version":
                if not _VERSION.fullmatch(t[1]):
                    _fail(t, raw, lineno, 1, "semantic", f"invalid version {t[1]!r}")
                version = int(t[1])
            elif head == "experimental":
                experimental, end = True, 1
            elif head == "statement":
                if t[1][0] != '"':
                    _fail(t, raw, lineno, 1, "syntax", "statement text must be quoted",
                          '"<text>"')
                statement = unquote(t[1])
            elif head == "target" or head == "initial":
                if t[1][0] in '"{}(),':
                    _unexpected(t, raw, lineno, 1, _ARGUMENT[head])
                if head == "target":
                    target = t[1]
                else:
                    initial = t[1]
            elif head == "states":  # states is empty until now
                for end in range(1, n):
                    if t[end][0] in '"{}(),':
                        _unexpected(t, raw, lineno, end, "state id")
                    if t[end] in states:
                        _fail(t, raw, lineno, end, "semantic",
                              f"duplicate state {t[end]!r}")
                    states.append(t[end])
                end = n
            else:
                _fail(t, raw, lineno, 0, "syntax", f"unknown directive {head!r}",
                      "'policy', 'version', 'experimental', 'statement', "
                      "'target', 'states', 'initial' or 'on'")
            if end < n:
                _fail(t, raw, lineno, end, "syntax", f"trailing token {t[end]!r}",
                      "end of line")
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
