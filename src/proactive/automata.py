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
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Iterator, Optional

CALLBACK_INTERFACE = "Activity"


class Kind(enum.Enum):
    CALLBACK = "callback"
    API_CALL = "call"
    CONSTRUCTOR = "new"


@dataclass(frozen=True)
class ActionSymbol:
    """A monitorable action: a callback, an API call, or a constructor.

    Equality is structural on (kind, interface, method); argument values
    never participate in matching.  Constructor symbols reuse the
    interface name as the method name.
    """

    kind: Kind
    interface: str
    method: str

    @staticmethod
    def callback(method: str) -> "ActionSymbol":
        return ActionSymbol(Kind.CALLBACK, CALLBACK_INTERFACE, method)

    @staticmethod
    def call(interface: str, method: str) -> "ActionSymbol":
        return ActionSymbol(Kind.API_CALL, interface, method)

    @staticmethod
    def constructor(interface: str) -> "ActionSymbol":
        return ActionSymbol(Kind.CONSTRUCTOR, interface, interface)

    def __str__(self) -> str:
        if self.kind is Kind.CALLBACK:
            return f"callback {self.method}"
        if self.kind is Kind.CONSTRUCTOR:
            return f"new {self.interface}"
        return f"call {self.interface}.{self.method}"


class Origin(enum.Enum):
    APP = "app"
    SYNTHESIZED = "synthesized"


@dataclass(frozen=True)
class Event:
    symbol: ActionSymbol
    seq: int = 0
    instance: Optional[str] = None
    args: tuple = ()
    origin: Origin = Origin.APP

    def __str__(self) -> str:
        tag = "+" if self.origin is Origin.SYNTHESIZED else ""
        return f"{tag}{self.symbol}@{self.seq}"


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


@dataclass(frozen=True)
class Guard:
    """Input condition of a transition.

    ANY and ANY_EXCEPT quantify over the owning automaton's vocabulary
    only; out-of-vocabulary events never reach guard matching.
    """

    kind: GuardKind
    symbols: frozenset[ActionSymbol] = frozenset()

    def __post_init__(self) -> None:
        if self.kind in (GuardKind.ANY_OF, GuardKind.ANY_EXCEPT) and not self.symbols:
            raise ValueError(f"{self.kind.value} guard requires a non-empty symbol set")
        if self.kind is GuardKind.EXACTLY and len(self.symbols) != 1:
            raise ValueError("exactly guard takes a single symbol")
        if self.kind is GuardKind.ANY and self.symbols:
            raise ValueError("any guard takes no symbols")

    @staticmethod
    def any() -> "Guard":
        return Guard(GuardKind.ANY)

    @staticmethod
    def exactly(symbol: ActionSymbol) -> "Guard":
        return Guard(GuardKind.EXACTLY, frozenset([symbol]))

    @staticmethod
    def any_of(symbols: Iterable[ActionSymbol]) -> "Guard":
        return Guard(GuardKind.ANY_OF, frozenset(symbols))

    @staticmethod
    def any_except(symbols: Iterable[ActionSymbol]) -> "Guard":
        return Guard(GuardKind.ANY_EXCEPT, frozenset(symbols))

    def matches(self, symbol: ActionSymbol) -> bool:
        """Whether the guard accepts a vocabulary symbol."""
        if self.kind is GuardKind.ANY:
            return True
        if self.kind is GuardKind.ANY_EXCEPT:
            return symbol not in self.symbols
        return symbol in self.symbols

    def text(self) -> str:
        """Canonical rendering; set elements sorted lexicographically."""
        if self.kind is GuardKind.ANY:
            return "any"
        if self.kind is GuardKind.EXACTLY:
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
        return OutputItem()

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
# that unquote restores, so every string survives a round trip.
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def quote(text: str) -> str:
    escaped = (text.replace("\\", "\\\\")
                   .replace('"', '\\"')
                   .replace("\n", "\\n"))
    return f'"{escaped}"'


def unquote(quoted: str) -> str:
    """Inverse of quote: backslash-n is a newline, a backslash before any
    other character stands for that character."""
    return _ESCAPE.sub(lambda m: "\n" if m.group(1) == "n" else m.group(1),
                       quoted[1:-1])


@dataclass(frozen=True)
class Transition:
    source: str
    guard: Guard
    output: tuple[OutputItem, ...]
    target: str

    def sort_key(self):
        return (state_sort_key(self.source), self.guard.text(),
                tuple(i.text() for i in self.output), state_sort_key(self.target))


def state_sort_key(state: str):
    """Numeric ids first, by value; the id itself breaks ties ("3", "03")."""
    if state.isdecimal():
        return (0, int(state), state)
    return (1, 0, state)


@dataclass(frozen=True)
class EffectSets:
    inserted: frozenset[ActionSymbol]
    suppressible: frozenset[ActionSymbol]


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
    def table(self) -> dict[tuple[str, ActionSymbol], tuple[Transition, ...]]:
        """(source state, vocabulary symbol) -> matching transitions in
        declaration order; the one place guards are matched."""
        table: dict[tuple[str, ActionSymbol], list[Transition]] = {}
        for t in self.transitions:
            for symbol in self.vocabulary:
                if t.guard.matches(symbol):
                    table.setdefault((t.source, symbol), []).append(t)
        return {key: tuple(ts) for key, ts in table.items()}

    @cached_property
    def effects(self) -> EffectSets:
        """Symbols the automaton can insert, and symbols it can suppress.
        Forwarding the matched input counts as neither.  A vocabulary
        symbol is suppressible when some transition matching it omits
        the input."""
        inserted = {i.symbol for t in self.transitions
                    for i in t.output if not i.is_forward}
        suppressible = {symbol for (_, symbol), ts in self.table.items()
                        if any(not any(i.is_forward for i in t.output)
                               for t in ts)}
        return EffectSets(frozenset(inserted), frozenset(suppressible))


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
    """Check every automaton invariant; diagnostics are data, not failures."""
    diags: list[Diagnostic] = []
    if automaton.initial not in automaton.states:
        diags.append(Diagnostic("bad-initial",
                                f"initial state {automaton.initial!r} is not declared",
                                state=automaton.initial))
    for t in automaton.transitions:
        for endpoint in (t.source, t.target):
            if endpoint not in automaton.states:
                diags.append(Diagnostic(
                    "dangling-state",
                    f"transition {t.source!r} -> {t.target!r} references "
                    f"undeclared state {endpoint!r}",
                    state=endpoint, transition=t))
        forwards = sum(1 for i in t.output if i.is_forward)
        if forwards > 1:
            diags.append(Diagnostic(
                "multiple-forwards",
                f"transition from {t.source!r} on {t.guard.text()} forwards "
                f"the input {forwards} times",
                state=t.source, transition=t))
    vocabulary = sorted(automaton.vocabulary, key=str)
    for state in sorted(automaton.states, key=state_sort_key):
        for symbol in vocabulary:
            matching = automaton.table.get((state, symbol), ())
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


def is_valid(automaton: EditAutomaton) -> bool:
    return not validate(automaton)


class PolicyAuthoringError(Exception):
    """A template referenced cached constructor args before any constructor."""


class MissingTransitionError(Exception):
    """A vocabulary symbol had no matching transition; validation was skipped."""


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

    def instance_for(self, symbol: ActionSymbol) -> Optional[str]:
        return self.instances.get(symbol.interface)


def _match(automaton: EditAutomaton, state: str,
           symbol: ActionSymbol) -> Optional[Transition]:
    """The first-declared matching transition; None bypasses the automaton."""
    matching = automaton.table.get((state, symbol))
    if matching is not None:
        return matching[0]
    if symbol in automaton.vocabulary:
        raise MissingTransitionError(
            f"no transition from state {state!r} matches vocabulary symbol {symbol}")
    return None


def _instantiate(item: OutputItem, trigger: Event, context: BindingContext) -> Event:
    if item.arg_source is ArgSource.CACHED:
        if context.cached_ctor_args is None:
            raise PolicyAuthoringError(
                f"template synthesizes {item.symbol} with cached constructor "
                "args, but no constructor has been intercepted yet")
        args = context.cached_ctor_args
    elif item.arg_source is ArgSource.LITERALS:
        args = item.literals
    else:
        args = ()
    return Event(symbol=item.symbol, seq=trigger.seq,
                 instance=context.instance_for(item.symbol),
                 args=args, origin=Origin.SYNTHESIZED)


def step(automaton: EditAutomaton, state: str, event: Event,
         context: Optional[BindingContext] = None) -> tuple[str, list[Event]]:
    """Single-step transformation: (next state, emitted events).

    Out-of-vocabulary events bypass the automaton unchanged.  The
    forwarded input, when present, appears in the output as the very
    event object that was passed in.
    """
    transition = _match(automaton, state, event.symbol)
    if transition is None:
        return state, [event]
    if context is None:
        context = BindingContext()
    context.observe(event)
    emitted: list[Event] = []
    for item in transition.output:
        if item.is_forward:
            emitted.append(event)
        else:
            synthesized = _instantiate(item, event, context)
            context.observe(synthesized)
            emitted.append(synthesized)
    return transition.target, emitted


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
    forward_only = (OutputItem.forward(),)
    for event in trace:
        transition = _match(automaton, state, event.symbol)
        if transition is None:
            continue
        if transition.output != forward_only:
            found.append(event)
        state = transition.target
    return found
