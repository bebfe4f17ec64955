"""Edit-automaton core: the action alphabet, event traces, and the
transformation semantics used by every enforcement model.

An edit automaton is a finite-state transducer over action sequences.
Each transition recognizes an input action and emits an output template
that may forward the input, drop it, or surround it with synthesized
actions.  Events whose symbol is outside the automaton's vocabulary
bypass the automaton entirely.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

CALLBACK_INTERFACE = "Activity"


class Kind(enum.Enum):
    CALLBACK = "callback"
    API_CALL = "call"
    CONSTRUCTOR = "new"


# On 3.11 a `Kind.X` or `Origin.X` read runs EnumType.__getattr__ (~120 ns).
_CALLBACK, _API_CALL, _CONSTRUCTOR = Kind.CALLBACK, Kind.API_CALL, Kind.CONSTRUCTOR
_SYMBOLS: dict[tuple, "ActionSymbol"] = {}


@dataclass(frozen=True, eq=False, init=False)
class ActionSymbol:
    """A monitorable action: a callback, an API call, or a constructor.

    Interned: building, copying, pickling or `replace`-ing a symbol, on any
    thread, returns the one object per (kind, interface, method), so
    equality and hashing are object identity and run in C.  Argument values
    never participate in matching.  A constructor's method is its interface.
    """

    kind: Kind
    interface: str
    method: str

    def __new__(cls, kind: Kind, interface: str, method: str) -> "ActionSymbol":
        key = (kind, interface, method)
        symbol = _SYMBOLS.get(key)
        if symbol is None:
            symbol = object.__new__(cls)
            symbol.__dict__.update(kind=kind, interface=interface, method=method)
            symbol = _SYMBOLS.setdefault(key, symbol)
        return symbol

    def __reduce__(self) -> tuple:
        return ActionSymbol, (self.kind, self.interface, self.method)

    @staticmethod
    def callback(method: str) -> "ActionSymbol":
        return ActionSymbol(_CALLBACK, CALLBACK_INTERFACE, method)

    @staticmethod
    def call(interface: str, method: str) -> "ActionSymbol":
        return ActionSymbol(_API_CALL, interface, method)

    @staticmethod
    def constructor(interface: str) -> "ActionSymbol":
        return ActionSymbol(_CONSTRUCTOR, interface, interface)

    def __str__(self) -> str:
        if self.kind is _CALLBACK:
            return f"callback {self.method}"
        if self.kind is _CONSTRUCTOR:
            return f"new {self.interface}"
        return f"call {self.interface}.{self.method}"


class Origin(enum.Enum):
    APP = "app"
    SYNTHESIZED = "synthesized"


_APP, _SYNTHESIZED = Origin.APP, Origin.SYNTHESIZED


@dataclass(frozen=True, slots=True, init=False)
class Event:
    symbol: ActionSymbol
    seq: int = 0
    instance: Optional[str] = None
    args: tuple = ()
    origin: Origin = Origin.APP

    def __init__(self, symbol: ActionSymbol, seq: int = 0, instance: Optional[str] = None,
                 args: tuple = (), origin: Origin = Origin.APP) -> None:
        _set_symbol(self, symbol)
        _set_seq(self, seq)
        _set_instance(self, instance)
        _set_args(self, args)
        _set_origin(self, origin)

    def __str__(self) -> str:
        tag = "+" if self.origin is Origin.SYNTHESIZED else ""
        return f"{tag}{self.symbol}@{self.seq}"


def slot_setters(cls: type) -> tuple:
    """Each field's slot __set__, in order, for a frozen slotted dataclass's
    own __init__: the generated one's object.__setattr__ costs about twice."""
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


_set_symbol, _set_seq, _set_instance, _set_args, _set_origin = slot_setters(Event)


@dataclass(frozen=True)
class Trace:
    """An ordered event sequence with strictly increasing seq ordinals."""

    events: tuple[Event, ...] = ()

    def __post_init__(self) -> None:
        seqs = [e.seq for e in self.events]
        if any(b <= a for a, b in zip(seqs, seqs[1:])):
            raise ValueError("trace seq ordinals must be strictly increasing")

    @staticmethod
    def of(events: Iterable[Event]) -> "Trace":
        """Build a trace, renumbering seq ordinals 1..n."""
        return Trace(tuple(replace(e, seq=i) for i, e in enumerate(events, start=1)))

    @staticmethod
    def from_symbols(symbols: Iterable[ActionSymbol]) -> "Trace":
        return Trace.of(Event(symbol=s) for s in symbols)

    def symbols(self) -> tuple[ActionSymbol, ...]:
        return tuple(e.symbol for e in self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


class GuardKind(enum.Enum):
    ANY = "any"
    EXACTLY = "exactly"
    ANY_OF = "any-of"
    ANY_EXCEPT = "any-except"


# Read without EnumType.__getattr__ (see _APP above): each transition's
# guard is built and matched while its policy compiles.
_ANY, _EXACTLY, _ANY_OF, _ANY_EXCEPT = (GuardKind.ANY, GuardKind.EXACTLY,
                                        GuardKind.ANY_OF, GuardKind.ANY_EXCEPT)


@dataclass(frozen=True)
class Guard:
    """Input condition of a transition.

    ANY and ANY_EXCEPT quantify over the owning automaton's vocabulary
    only; out-of-vocabulary events never reach guard matching.
    """

    kind: GuardKind
    symbols: frozenset[ActionSymbol] = frozenset()

    def __post_init__(self) -> None:
        if self.kind in (_ANY_OF, _ANY_EXCEPT) and not self.symbols:
            raise ValueError(f"{self.kind.value} guard requires a non-empty symbol set")
        if self.kind is _EXACTLY and len(self.symbols) != 1:
            raise ValueError("exactly guard takes a single symbol")
        if self.kind is _ANY and self.symbols:
            raise ValueError("any guard takes no symbols")

    @staticmethod
    def any() -> "Guard":
        return Guard(_ANY)

    @staticmethod
    def exactly(symbol: ActionSymbol) -> "Guard":
        return Guard(_EXACTLY, frozenset([symbol]))

    @staticmethod
    def any_of(symbols: Iterable[ActionSymbol]) -> "Guard":
        return Guard(_ANY_OF, frozenset(symbols))

    @staticmethod
    def any_except(symbols: Iterable[ActionSymbol]) -> "Guard":
        return Guard(_ANY_EXCEPT, frozenset(symbols))

    def matches(self, symbol: ActionSymbol) -> bool:
        """Whether the guard accepts a vocabulary symbol: accepted, one
        symbol at a time."""
        if self.kind is _ANY:
            return True
        if self.kind is _ANY_EXCEPT:
            return symbol not in self.symbols
        return symbol in self.symbols

    def accepted(self, vocabulary: frozenset[ActionSymbol]) -> frozenset[ActionSymbol]:
        """The vocabulary symbols the guard matches, by set algebra: how
        validate, moves and effects read a guard."""
        if self.kind is _ANY:
            return vocabulary
        if self.kind is _ANY_EXCEPT:
            return vocabulary - self.symbols
        return self.symbols

    def text(self) -> str:
        """Canonical rendering; set elements sorted lexicographically."""
        if self.kind is _ANY:
            return "any"
        if self.kind is _EXACTLY:
            return str(next(iter(self.symbols)))
        inner = " ".join(sorted(str(s) for s in self.symbols))
        return f"{self.kind.value} {{{inner}}}"


class ArgSource(enum.Enum):
    NONE = "none"
    CACHED = "cached"
    LITERALS = "literals"


@dataclass(frozen=True)
class OutputItem:
    """One element of a transition's output template.

    symbol is None for the forward-input item; otherwise the item
    synthesizes a fresh event with the given symbol and arguments.
    """

    symbol: Optional[ActionSymbol] = None
    arg_source: ArgSource = ArgSource.NONE
    literals: tuple = ()

    @staticmethod
    def forward() -> "OutputItem":
        return _FORWARD_ONLY[0]

    @staticmethod
    def synthesize(
        symbol: ActionSymbol,
        arg_source: ArgSource = ArgSource.NONE,
        literals: tuple = (),
    ) -> "OutputItem":
        return OutputItem(symbol, arg_source, literals)

    @property
    def is_forward(self) -> bool:
        return self.symbol is None

    def text(self) -> str:
        if self.is_forward:
            return "input"
        base = f"insert {self.symbol}"
        if self.arg_source is ArgSource.CACHED:
            return f"{base} args cached"
        if self.arg_source is ArgSource.LITERALS:
            rendered = " ".join(str(v) if isinstance(v, int) else quote(v)
                                for v in self.literals)
            return f"{base} args ({rendered})"
        return base


# The string codec of .pol text: quote escapes exactly the characters
# that unquote restores, so every string survives a round trip.  The line
# breaks other than LF, at which str.splitlines would also cut a line,
# are written as \uXXXX.
_LINE_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_QUOTED = {"\\": "\\\\", '"': '\\"', "\n": "\\n",
           **{c: f"\\u{ord(c):04x}" for c in _LINE_BREAKS}}
_UNQUOTED = {escape[1:]: c for c, escape in _QUOTED.items()}
_TO_ESCAPE = re.compile("[" + re.escape("".join(_QUOTED)) + "]")
_ESCAPE = re.compile(r"\\(u[0-9a-f]{4}|.)", re.DOTALL)


def quote(text: str) -> str:
    return '"' + _TO_ESCAPE.sub(lambda m: _QUOTED[m.group()], text) + '"'


def unquote(quoted: str) -> str:
    """Inverse of quote: every escape quote writes is restored, and a
    backslash before anything else stands for the character after it."""
    return _ESCAPE.sub(lambda m: _UNQUOTED.get(m.group(1), m.group(1)),
                       quoted[1:-1])


@dataclass(frozen=True)
class Transition:
    source: str
    guard: Guard
    output: tuple[OutputItem, ...]
    target: str
    # The line of its `on` directive, set by dsl.parse; 0 if built in code.
    line: int = field(default=0, compare=False, repr=False)

    def sort_key(self):
        return (state_sort_key(self.source), self.guard.text(),
                tuple(i.text() for i in self.output), state_sort_key(self.target))


def state_sort_key(state: str):
    """Numeric ids first, by value; the id itself breaks ties ("3", "03")."""
    if state.isdecimal():
        return (0, int(state), state)
    return (1, 0, state)


class Template(NamedTuple):
    """A transition's template compiled once: the synthesized items in
    order as (symbol, args or None for cached, is a constructor), how many
    precede the input (all when it is dropped), and whether it forwards."""

    transition: Transition
    items: tuple[tuple[ActionSymbol, Optional[tuple], bool], ...]
    pre: int
    forwards: bool

    @staticmethod
    def of(transition: Transition) -> "Template":
        output = transition.output
        items = tuple((i.symbol, None if i.arg_source is ArgSource.CACHED
                       else i.literals if i.arg_source is ArgSource.LITERALS
                       else (), i.symbol.kind is _CONSTRUCTOR)
                      for i in output if not i.is_forward)
        # Only synthesized items precede the first input, so its position
        # counts them; the end of the output stands in when there is none.
        inputs = [n for n, i in enumerate(output) if i.is_forward] + [len(output)]
        return Template(transition, items, inputs[0], len(inputs) > 1)


# A compiled move: the target state, and the template that runs there,
# or None when the transition only forwards its input.
Move = tuple[str, Optional[Template]]
_FORWARD_ONLY = (OutputItem(),)


@dataclass(frozen=True)
class EffectSets:
    inserted: frozenset[ActionSymbol]
    suppressible: frozenset[ActionSymbol]

    @cached_property
    def touched(self) -> frozenset[ActionSymbol]:
        """Insertable or suppressible symbols: what deploy and check_pair read."""
        return self.inserted | self.suppressible


@dataclass(frozen=True, eq=False)
class EditAutomaton:
    """Deterministic, vocabulary-complete edit automaton.

    Equality ignores transition declaration order: determinism makes the
    order irrelevant, and the DSL serializer reorders transitions into
    canonical form.
    """

    states: frozenset[str]
    initial: str
    transitions: tuple[Transition, ...]

    def __eq__(self, other) -> bool:
        if not isinstance(other, EditAutomaton):
            return NotImplemented
        return (self.states == other.states
                and self.initial == other.initial
                and sorted(self.transitions, key=Transition.sort_key)
                == sorted(other.transitions, key=Transition.sort_key))

    def __hash__(self) -> int:
        return hash((self.states, self.initial, frozenset(self.transitions)))

    @cached_property
    def vocabulary(self) -> frozenset[ActionSymbol]:
        """All symbols named in guards plus all synthesized symbols."""
        symbols: set[ActionSymbol] = set()
        for t in self.transitions:
            symbols.update(t.guard.symbols)
            symbols.update(i.symbol for i in t.output if not i.is_forward)
        return frozenset(symbols)

    @cached_property
    def moves(self) -> dict[ActionSymbol, dict[str, Move]]:
        """vocabulary symbol -> source state -> (target, template) of the
        first matching transition, the template None when it is exactly
        (input,): a forward-only move.  The form deploy, on_event, step and
        violations read; built from the transitions in declaration order,
        with one Template.of per editing transition."""
        moves: dict[ActionSymbol, dict[str, Move]] = {s: {} for s in self.vocabulary}
        for t in self.transitions:
            move = (t.target, None if t.output == _FORWARD_ONLY else Template.of(t))
            for symbol in t.guard.accepted(self.vocabulary):
                moves[symbol].setdefault(t.source, move)
        return moves

    @cached_property
    def effects(self) -> EffectSets:
        """Symbols the automaton can insert, and symbols it can suppress.
        Forwarding the matched input counts as neither.  A vocabulary
        symbol is suppressible when some transition matching it omits
        the input."""
        inserted = {i.symbol for t in self.transitions
                    for i in t.output if not i.is_forward}
        suppressible = frozenset().union(
            *(t.guard.accepted(self.vocabulary) for t in self.transitions
              if not any(i.is_forward for i in t.output)))
        return EffectSets(frozenset(inserted), suppressible)


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    state: Optional[str] = None
    symbol: Optional[ActionSymbol] = None
    transition: Optional[Transition] = None  # the one the finding points at

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


def validate(automaton: EditAutomaton) -> list[Diagnostic]:
    """Check every automaton invariant; diagnostics are data, not failures.
    A state whose guards' accepted sets partition the vocabulary (sizes sum
    to its size, union covers it) has no finding; only the rest are walked
    symbol by symbol."""
    diags: list[Diagnostic] = []
    if automaton.initial not in automaton.states:
        diags.append(Diagnostic("bad-initial",
                                f"initial state {automaton.initial!r} is not declared",
                                state=automaton.initial))
    vocabulary = automaton.vocabulary
    accepted: dict[str, list[frozenset[ActionSymbol]]] = {}  # by source state
    for t in automaton.transitions:
        accepted.setdefault(t.source, []).append(t.guard.accepted(vocabulary))
        for endpoint in (t.source, t.target):
            if endpoint not in automaton.states:
                diags.append(Diagnostic(
                    "dangling-state",
                    f"transition {t.source!r} -> {t.target!r} references "
                    f"undeclared state {endpoint!r}",
                    state=endpoint, transition=t))
        forwards = len([i for i in t.output if i.is_forward])
        if forwards > 1:
            diags.append(Diagnostic(
                "multiple-forwards",
                f"transition from {t.source!r} on {t.guard.text()} forwards "
                f"the input {forwards} times",
                state=t.source, transition=t))
    flagged = [state for state in automaton.states
               if sum(map(len, sets := accepted.get(state, ()))) != len(vocabulary)
               or len(frozenset().union(*sets)) != len(vocabulary)]
    for state in sorted(flagged, key=state_sort_key):
        guards = [(t, t.guard.accepted(vocabulary))
                  for t in automaton.transitions if t.source == state]
        for symbol in sorted(vocabulary, key=str):
            matching = [t for t, symbols in guards if symbol in symbols]
            if len(matching) > 1:
                diags.append(Diagnostic(
                    "nondeterministic",
                    f"state {state!r} has {len(matching)} transitions matching "
                    f"{symbol} ({', '.join(t.guard.text() for t in matching)})",
                    state=state, symbol=symbol, transition=matching[1]))
            elif not matching:
                diags.append(Diagnostic(
                    "incomplete",
                    f"state {state!r} has no transition matching {symbol}; "
                    "add an any self-loop to forward unlisted symbols",
                    state=state, symbol=symbol))
    return diags


class PolicyAuthoringError(Exception):
    """A template referenced cached constructor args before any constructor."""

    line: Optional[int] = None  # its scenario step's, set by run_scenario
    policy: Optional[str] = None  # its module's, set by PolicyEnforcer.on_event


class MissingTransitionError(Exception):
    """A vocabulary symbol had no matching transition; validation was skipped."""

    def __init__(self, state: str, symbol: ActionSymbol) -> None:
        super().__init__(f"no transition from state {state!r} matches "
                         f"vocabulary symbol {symbol}")


class BindingContext:
    """Caller-owned state resolving synthesized instances and cached args.

    Tracks the most recent constructor seen per interface (instance
    binding) and the most recent constructor argument tuple.
    """

    def __init__(self, cached_ctor_args: Optional[tuple] = None,
                 instances: Optional[dict[str, Optional[str]]] = None) -> None:
        self.cached_ctor_args = cached_ctor_args
        self.instances: dict[str, Optional[str]] = dict(instances or {})

    def observe(self, event: Event) -> None:
        if event.symbol.kind is Kind.CONSTRUCTOR:
            self.cached_ctor_args = event.args
            self.instances[event.symbol.interface] = event.instance


def _match(automaton: EditAutomaton, state: str,
           symbol: ActionSymbol) -> Optional[Move]:
    """The move of the first-declared matching transition; None bypasses
    the automaton."""
    move = automaton.moves.get(symbol, {}).get(state)
    if move is None and symbol in automaton.vocabulary:
        raise MissingTransitionError(state, symbol)
    return move


def instantiate(template: Template, trigger: Event, cached_ctor_args: Optional[tuple],
                instances: Mapping[str, Optional[str]]
                ) -> tuple[tuple[Event, ...], Optional[tuple]]:
    """The events template synthesizes for trigger, in order, and the
    cached constructor args after them.  Every constructor, the trigger or
    a synthesized one, caches its args.  An item gets the trigger's
    instance on the trigger constructor's interface, else instances'."""
    own = trigger.symbol.interface if trigger.symbol.kind is _CONSTRUCTOR else None
    if own is not None:
        cached_ctor_args = trigger.args
    events = []
    for symbol, args, constructs in template.items:
        if args is None:
            if cached_ctor_args is None:
                raise PolicyAuthoringError(
                    f"template synthesizes {symbol} with cached constructor "
                    "args, but no constructor has been intercepted yet")
            args = cached_ctor_args
        interface = symbol.interface
        events.append(Event(symbol, trigger.seq, trigger.instance if interface == own
                            else instances.get(interface), args, _SYNTHESIZED))
        if constructs:
            cached_ctor_args = args
    return tuple(events), cached_ctor_args


def step(automaton: EditAutomaton, state: str, event: Event,
         context: Optional[BindingContext] = None) -> tuple[str, list[Event]]:
    """Single-step transformation: (next state, emitted events).

    Out-of-vocabulary events bypass the automaton unchanged.  The
    forwarded input, when present, appears in the output as the very
    event object that was passed in, at each input position.
    """
    move = _match(automaton, state, event.symbol)
    if move is None:
        return state, [event]
    target, template = move
    if context is None:
        context = BindingContext()
    context.observe(event)
    if template is None:
        return target, [event]
    synthesized, context.cached_ctor_args = instantiate(
        template, event, context.cached_ctor_args, context.instances)
    rest = iter(synthesized)
    return target, [event if item.is_forward else next(rest)
                    for item in template.transition.output]


def run_from(automaton: EditAutomaton, state: str, events: Iterable[Event],
             context: Optional[BindingContext] = None) -> tuple[str, list[Event]]:
    """Fold of step from an arbitrary state; returns raw (unrenumbered) output."""
    if context is None:
        context = BindingContext()
    emitted: list[Event] = []
    for event in events:
        state, out = step(automaton, state, event, context)
        emitted.extend(out)
    return state, emitted


def run(automaton: EditAutomaton, trace: Trace) -> Trace:
    """Whole-trace transformation from the initial state.

    Output events are renumbered with fresh seq ordinals; the input
    trace is left untouched.
    """
    _, emitted = run_from(automaton, automaton.initial, trace)
    return Trace.of(emitted)


def violations(automaton: EditAutomaton, trace: Trace) -> list[Event]:
    """Checker variant: walk the trace with outputs ignored and report
    every event that takes a transition whose template is not exactly
    a single forward-input (i.e. every point where enforcement would
    have modified the execution)."""
    state = automaton.initial
    found: list[Event] = []
    for event in trace:
        move = _match(automaton, state, event.symbol)
        if move is None:
            continue
        state, template = move
        if template is not None:
            found.append(event)
    return found
