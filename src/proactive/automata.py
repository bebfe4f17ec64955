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
from dataclasses import FrozenInstanceError, dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional

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


# Frozen by hand: with slots=True, frozen=True raises TypeError for a non-field.
@dataclass(slots=True, init=False, unsafe_hash=True)
class Event:
    symbol: ActionSymbol
    seq: int = 0
    instance: Optional[str] = None
    args: tuple = ()
    origin: Origin = Origin.APP

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    # Fills an object of Event's layout whose slots are settable, then retypes
    # it: two thirds of an __init__ of five slot __set__ calls (instantiate inlines it).
    def __new__(cls, symbol, seq=0, instance=None, args=(), origin=_APP) -> "Event":
        event = _SettableEvent()
        event.symbol = symbol
        event.seq = seq
        event.instance = instance
        event.args = args
        event.origin = origin
        event.__class__ = Event  # frozen from here on
        return event

    def __reduce__(self) -> tuple:
        return Event, (self.symbol, self.seq, self.instance, self.args, self.origin)

    def __str__(self) -> str:
        tag = "+" if self.origin is _SYNTHESIZED else ""
        return f"{tag}{self.symbol}@{self.seq}"


_SettableEvent = type("_SettableEvent", (), {"__slots__": Event.__slots__})


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
        return Trace(tuple(Event(e.symbol, i, e.instance, e.args, e.origin)
                           for i, e in enumerate(events, start=1)))

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


@dataclass(frozen=True, init=False)
class Guard:
    """Input condition of a transition.

    ANY and ANY_EXCEPT quantify over the owning automaton's vocabulary
    only; out-of-vocabulary events never reach guard matching.
    """

    kind: GuardKind
    symbols: frozenset[ActionSymbol] = frozenset()

    # Parse-tree nodes fill __dict__ at once, not by object.__setattr__ per field.
    def __init__(self, kind: GuardKind, symbols: frozenset[ActionSymbol] = frozenset()):
        if kind in (_ANY_OF, _ANY_EXCEPT) and not symbols:
            raise ValueError(f"{kind.value} guard requires a non-empty symbol set")
        if kind is _EXACTLY and len(symbols) != 1:
            raise ValueError("exactly guard takes a single symbol")
        if kind is _ANY and symbols:
            raise ValueError("any guard takes no symbols")
        self.__dict__.update(kind=kind, symbols=symbols)

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

    def accepted(self, vocabulary: frozenset[ActionSymbol]) -> frozenset[ActionSymbol]:
        """The vocabulary symbols the guard matches, by set algebra: read
        once per transition, when its automaton is built."""
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


@dataclass(frozen=True, init=False)
class OutputItem:
    """One element of a transition's output template.

    symbol is None for the forward-input item; otherwise the item
    synthesizes a fresh event with the given symbol and arguments.
    """

    symbol: Optional[ActionSymbol] = None
    arg_source: ArgSource = ArgSource.NONE
    literals: tuple = ()

    def __init__(self, symbol=None, arg_source=ArgSource.NONE, literals=()):
        self.__dict__.update(symbol=symbol, arg_source=arg_source, literals=literals)

    @staticmethod
    def forward() -> "OutputItem":
        return _FORWARD_ONLY[0]

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


@dataclass(frozen=True, init=False)
class Transition:
    """Its output template, forwarding the input at most once (else ValueError),
    is compiled in __init__ into what every semantic reader takes: `items` (each
    synthesized item as (symbol, args or None for cached, is a constructor)),
    `pre` (how many precede the input; all when it is dropped) and `forwards`.
    Not fields: ==, hash, repr and pickling read the fields alone, and the
    shared _FORWARD_ONLY output keeps the class defaults."""

    source: str
    guard: Guard
    output: tuple[OutputItem, ...]
    target: str
    # The line of its `on` directive, set by dsl.parse; 0 if built in code.
    line: int = field(default=0, compare=False, repr=False)
    items = ()
    pre = 0
    forwards = True

    def __init__(self, source, guard, output, target, line=0):
        self.__dict__.update(source=source, guard=guard, output=output,
                             target=target, line=line)
        if output is not _FORWARD_ONLY:
            # Only synthesized items precede the first input, so its position
            # counts them; the end of the output stands in when there is none.
            inputs = [n for n, i in enumerate(output) if i.symbol is None] + [len(output)]
            if len(inputs) > 2:
                raise ValueError("output forwards the input more than once")
            self.__dict__.update(
                items=tuple([(i.symbol, None if i.arg_source is ArgSource.CACHED
                              else i.literals if i.arg_source is ArgSource.LITERALS
                              else (), i.symbol.kind is _CONSTRUCTOR)
                             for i in output if i.symbol is not None]),
                pre=inputs[0], forwards=len(inputs) > 1)

    def sort_key(self):
        return (state_sort_key(self.source), self.guard.text(),
                tuple(i.text() for i in self.output), state_sort_key(self.target))


def state_sort_key(state: str):
    """Numeric ids first, by value; the id itself breaks ties ("3", "03")."""
    return (0, int(state), state) if state.isdecimal() else (1, 0, state)


# A compiled move: the target state, and the transition whose template runs
# there, or None when the transition only forwards its input.
Move = tuple[str, Optional[Transition]]
_FORWARD_ONLY = (OutputItem(),)  # the output most transitions share
# The move of a state no transition leaves on the symbol: reading it
# raises MissingTransitionError.
_MISSING: Move = (None, None)


@dataclass(frozen=True, eq=False, init=False)
class EditAutomaton:
    """Deterministic, vocabulary-complete edit automaton.

    Equality, like the hash, reads the transitions as a set: determinism
    makes their declaration order irrelevant, and the DSL serializer
    reorders them into canonical form.

    Building one compiles, in one pass that reads each guard once, its
    `vocabulary` (the symbols guards name or templates insert), `accepted`
    (each transition's vocabulary symbols, in order), `inserted` (what its
    `items` insert), `suppressible` (what a transition that does not forward
    suppresses) and their union `touched`, which deploy and check_pair read.
    """

    states: frozenset[str]
    initial: str
    transitions: tuple[Transition, ...]

    def __init__(self, states, initial, transitions):
        inserted = frozenset([item[0] for t in transitions for item in t.items])
        vocabulary = inserted.union(*[t.guard.symbols for t in transitions])
        accepted = tuple([t.guard.accepted(vocabulary) for t in transitions])
        suppressible = frozenset().union(*[a for t, a in zip(transitions, accepted)
                                           if not t.forwards])
        self.__dict__.update(states=states, initial=initial, transitions=transitions,
                             vocabulary=vocabulary, accepted=accepted, inserted=inserted,
                             suppressible=suppressible, touched=inserted | suppressible)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EditAutomaton):
            return NotImplemented
        return ((self.states, self.initial, frozenset(self.transitions))
                == (other.states, other.initial, frozenset(other.transitions)))

    def __hash__(self) -> int:
        return hash((self.states, self.initial, frozenset(self.transitions)))

    @cached_property
    def moves(self) -> dict[ActionSymbol, dict[str, Move]]:
        """vocabulary symbol -> state -> (target, transition) of the first
        matching transition, the transition None when it inserts nothing and
        forwards: a forward-only move.  Only moves that do something are
        kept: a forward-only self-loop on a non-constructor is left out, so an
        absent state stays put and forwards.  A state that is declared,
        initial, or a transition's source or target, and that no transition
        leaves on the symbol, maps to _MISSING.  No other state has an
        entry: nothing puts a module there, and each reader takes it as
        idle.  The form deploy, on_event, step and violations read; built
        from `accepted` at the first read.  An editing move holds the very
        Transition object parse built, whose template is compiled already."""
        first: dict[ActionSymbol, dict[str, Optional[Move]]] = {
            s: {} for s in self.vocabulary}
        for t, accepted in zip(self.transitions, self.accepted):
            move = (t.target, None if not t.items and t.forwards else t)
            idle = move[1] is None and t.target == t.source
            for symbol in accepted:
                # None marks an idle first match, so no later one takes its place.
                first[symbol].setdefault(t.source, None if idle and symbol.kind
                                         is not _CONSTRUCTOR else move)
        states = self.states.union([self.initial], *((t.source, t.target)
                                                     for t in self.transitions))
        return {symbol: {state: move for state in states
                         if (move := by_state.get(state, _MISSING)) is not None}
                for symbol, by_state in first.items()}

    @cached_property
    def editable(self) -> frozenset[ActionSymbol]:
        """The symbols with an editing or _MISSING move in some state: on any
        other, a move only changes state or caches a constructor's args."""
        return frozenset([symbol for symbol, by_state in self.moves.items() if any(
            edit is not None or target is None for target, edit in by_state.values())])


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
    """Check every automaton invariant; diagnostics are data, not failures
    (Transition itself refuses a doubled input).  A state whose guards'
    accepted sets partition the vocabulary (sizes sum to its size, union
    covers it) has no finding; only the rest are walked symbol by symbol."""
    diags: list[Diagnostic] = []
    if automaton.initial not in automaton.states:
        diags.append(Diagnostic("bad-initial",
                                f"initial state {automaton.initial!r} is not declared",
                                state=automaton.initial))
    vocabulary = automaton.vocabulary
    accepted: dict[str, list[frozenset[ActionSymbol]]] = {}  # by source state
    for t, symbols in zip(automaton.transitions, automaton.accepted):
        accepted.setdefault(t.source, []).append(symbols)
        for endpoint in (t.source, t.target):
            if endpoint not in automaton.states:
                diags.append(Diagnostic(
                    "dangling-state",
                    f"transition {t.source!r} -> {t.target!r} references "
                    f"undeclared state {endpoint!r}",
                    state=endpoint, transition=t))
    flagged = [state for state in automaton.states
               if sum(map(len, sets := accepted.get(state, ()))) != len(vocabulary)
               or len(frozenset().union(*sets)) != len(vocabulary)]
    for state in sorted(flagged, key=state_sort_key):
        guards = [(t, symbols) for t, symbols
                  in zip(automaton.transitions, automaton.accepted) if t.source == state]
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
        if event.symbol.kind is _CONSTRUCTOR:
            self.cached_ctor_args = event.args
            self.instances[event.symbol.interface] = event.instance


def _match(automaton: EditAutomaton, state: str,
           symbol: ActionSymbol) -> Optional[Move]:
    """The move of the first-declared matching transition; None bypasses
    the automaton, or stays in state and forwards the input, as on_event
    reads it."""
    move = automaton.moves.get(symbol, {}).get(state)
    if move is _MISSING:
        raise MissingTransitionError(state, symbol)
    return move


def instantiate(transition: Transition, trigger: Event, cached_ctor_args: Optional[tuple],
                instances: Mapping[str, Optional[str]]
                ) -> tuple[tuple[Event, ...], Optional[tuple]]:
    """The events transition's compiled template synthesizes for trigger, in
    order, and the cached constructor args after them.  Every constructor,
    the trigger or a synthesized one, caches its args.  An item gets the
    trigger's instance on the trigger constructor's interface, else
    instances'."""
    own = trigger.symbol.interface if trigger.symbol.kind is _CONSTRUCTOR else None
    if own is not None:
        cached_ctor_args = trigger.args
    events = []
    for symbol, args, constructs in transition.items:
        if args is None:
            if cached_ctor_args is None:
                raise PolicyAuthoringError(
                    f"template synthesizes {symbol} with cached constructor "
                    "args, but no constructor has been intercepted yet")
            args = cached_ctor_args
        interface = symbol.interface
        event = _SettableEvent()
        event.symbol = symbol
        event.seq = trigger.seq
        event.instance = trigger.instance if interface == own else instances.get(interface)
        event.args = args
        event.origin = _SYNTHESIZED
        event.__class__ = Event  # frozen from here on
        events.append(event)
        if constructs:
            cached_ctor_args = args
    return tuple(events), cached_ctor_args


def step(automaton: EditAutomaton, state: str, event: Event,
         context: Optional[BindingContext] = None) -> tuple[str, list[Event]]:
    """Single-step transformation: (next state, emitted events).

    Out-of-vocabulary events bypass the automaton unchanged.  The
    compiled template is spliced as on_event splices it: the forwarded
    input, when present, appears in the output as the very event object
    that was passed in, after the first `pre` synthesized events.
    """
    move = _match(automaton, state, event.symbol)
    if move is None:
        return state, [event]
    target, transition = move
    if context is None:
        context = BindingContext()
    context.observe(event)
    if transition is None:
        return target, [event]
    synthesized, context.cached_ctor_args = instantiate(
        transition, event, context.cached_ctor_args, context.instances)
    if not transition.forwards:
        return target, list(synthesized)
    return target, [*synthesized[:transition.pre], event, *synthesized[transition.pre:]]


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
        state, transition = move
        if transition is not None:
            found.append(event)
    return found
