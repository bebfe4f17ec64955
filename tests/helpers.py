"""Shared builders for the test suite: small hand-made automata, random
trace generation, a seeded generator of valid policy documents, the
policy files, the one breadth-first explorer behind every exhaustive
check (`reachable`, whose failures name the shortest witness, and
`explore` over the joint states of deployed policies, which
`explore_orders` runs under every deploy order), guard-walking reference
forms of the compiled moves, the item-by-item reference form of step,
the all-pairs reference form of the deploy gate, the four-intersection
reference form of check_pair, the two-pass reference form of the
enforcer's on_event, the character-walking reference form of the `.pol`
lexer, the cursor-reading reference form of the `.pol` line readers with
seeded token-level mutations of the policy files, the whitespace-splitting
reference form of the `.scn` parser with a seeded generator of valid
scenario texts, the parse corpus whose
results tests/record_parse_digests.py records, and the `proactive run`
outputs that tests/record_run_reports.py records."""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import tempfile
import re
from collections import deque
from pathlib import Path
from typing import Optional

from proactive.automata import (
    ActionSymbol,
    ArgSource,
    Diagnostic,
    EditAutomaton,
    Event,
    Guard,
    GuardKind,
    Kind,
    MissingTransitionError,
    Move,
    Origin,
    OutputItem,
    PolicyAuthoringError,
    Trace,
    Transition,
    _ANY_EXCEPT,
    _ANY_OF,
    _API_CALL,
    _APP,
    _CONSTRUCTOR,
    _EXACTLY,
    _FORWARD_ONLY,
    instantiate,
    state_sort_key,
    unquote,
    validate,
)
from proactive.cli import main
from proactive.dsl import (
    _IDENT,
    _SINGLE_USE,
    _VERSION,
    INTEGER,
    DslDiagnostic,
    LineError,
    PolicyDoc,
    PolicyParseError,
    _LineParser,
    line_parsers,
    parse,
    serialize,
)
from proactive.interference import (
    Direction,
    InterferencePair,
    InterferenceReport,
    check_set,
)
from proactive.enforcer import (
    EnforcementOutcome,
    HealingFailureError,
    InterventionRecord,
    PolicyEnforcer,
    ProactiveModule,
    RecordingSink,
)
from proactive.pack import bundled_pack_dir, bundled_scenarios_dir
from proactive.sim import (
    _LIFECYCLE,
    _PROTOCOLS,
    INTERFACES,
    ActivityState,
    Expectation,
    IllegalLifecycleError,
    ScenarioScript,
    ScenarioStep,
)

FIXTURES = Path(__file__).parent / "fixtures"

DOA = ActionSymbol.call("Api", "doA")
DOB = ActionSymbol.call("Api", "doB")
DOC = ActionSymbol.call("Api", "doC")
DOX = ActionSymbol.call("Api", "doX")

NEW_AR = ActionSymbol.constructor("AudioRecord")
START_REC = ActionSymbol.call("AudioRecord", "startRecording")
STOP_REC = ActionSymbol.call("AudioRecord", "stop")
RELEASE_AR = ActionSymbol.call("AudioRecord", "release")
ON_STOP = ActionSymbol.callback("onStop")

fwd = OutputItem.forward


def make_doc(name: str, automaton: EditAutomaton,
             target: str = "Api", **kwargs) -> PolicyDoc:
    return PolicyDoc(name=name, statement=f"test policy {name}",
                     target_interface=target, automaton=automaton, **kwargs)


def substitution_automaton() -> EditAutomaton:
    """Two-state transducer: in state 0 every doA becomes doX; any other
    vocabulary event forwards and flips to state 1, where doA becomes
    doA followed by doX."""
    other = Guard.any_of([DOB, DOC, DOX])
    return EditAutomaton(
        states=frozenset({"0", "1"}),
        initial="0",
        transitions=(
            Transition("0", Guard.exactly(DOA), (OutputItem(DOX),), "0"),
            Transition("0", other, (fwd(),), "1"),
            Transition("1", Guard.exactly(DOA), (fwd(), OutputItem(DOX)), "1"),
            Transition("1", other, (fwd(),), "0"),
        ),
    )


def forced_release_automaton() -> EditAutomaton:
    """Three-state AudioRecord model: acquisition, recording, and the
    forced stop/release on onStop while recording."""
    return EditAutomaton(
        states=frozenset({"0", "1", "2"}),
        initial="0",
        transitions=(
            Transition("0", Guard.any_except([NEW_AR]), (fwd(),), "0"),
            Transition("0", Guard.exactly(NEW_AR), (fwd(),), "1"),
            Transition("1", Guard.any_except([START_REC, RELEASE_AR]),
                       (fwd(),), "1"),
            Transition("1", Guard.exactly(RELEASE_AR), (fwd(),), "0"),
            Transition("1", Guard.exactly(START_REC), (fwd(),), "2"),
            Transition("2", Guard.any_except([RELEASE_AR, STOP_REC, ON_STOP]),
                       (fwd(),), "2"),
            Transition("2", Guard.exactly(RELEASE_AR), (fwd(),), "0"),
            Transition("2", Guard.exactly(STOP_REC), (fwd(),), "1"),
            Transition("2", Guard.exactly(ON_STOP),
                       (OutputItem(STOP_REC), OutputItem(RELEASE_AR), fwd()),
                       "0"),
        ),
    )


def policy_texts() -> list[str]:
    """Every `.pol` file's text: the bundled policies, experimental
    included, then the test fixtures."""
    paths = (sorted(bundled_pack_dir().glob("*.pol"))
             + sorted(FIXTURES.glob("*.pol")))
    return [path.read_text(encoding="utf-8") for path in paths]


def policy_files() -> list[PolicyDoc]:
    """Every `.pol` file, parsed."""
    return [parse(text) for text in policy_texts()]


def event_shapes(events) -> list[tuple]:
    """Seq-insensitive comparison key for event sequences."""
    return [(e.symbol, e.origin, e.args, e.instance) for e in events]


def random_trace(rng: random.Random, vocabulary, max_len: int = 50,
                 extra=()) -> Trace:
    symbols = sorted(vocabulary, key=str) + list(extra)
    events = []
    for _ in range(rng.randint(0, max_len)):
        symbol = rng.choice(symbols)
        args = (tuple(rng.randint(0, 9) for _ in range(3))
                if symbol.kind is Kind.CONSTRUCTOR else ())
        events.append(Event(symbol=symbol, args=args))
    return Trace.of(events)


# -- random valid PolicyDoc generation ----------------------------------

_SYMBOL_POOL = (
    ActionSymbol.call("Api", "doA"),
    ActionSymbol.call("Api", "doB"),
    ActionSymbol.call("Other", "go"),
    ActionSymbol.callback("onThing"),
    ActionSymbol.constructor("Api"),
)

# Every line break str.splitlines knows is here, so the round trips
# cover the codec's escapes for them.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_STRING_CHARS = 'abc XY.,:#"()\\{}' + LINE_BREAKS


def _random_template(rng: random.Random) -> tuple[OutputItem, ...]:
    def one():
        source = rng.choice(list(ArgSource))
        literals = ()
        if source is ArgSource.LITERALS:
            literals = tuple(
                rng.choice([rng.randint(-99, 99),
                            "".join(rng.choices(_STRING_CHARS, k=4))])
                for _ in range(rng.randint(0, 3)))
        return OutputItem(rng.choice(_SYMBOL_POOL), source, literals)

    shape = rng.randrange(6)
    if shape == 0:
        return (fwd(),)
    if shape == 1:
        return ()
    if shape == 2:
        return (one(), fwd())
    if shape == 3:
        return (fwd(), one())
    if shape == 4:
        return (one(),)
    return (one(), one(), fwd())


def random_policy_doc(seed: int) -> PolicyDoc:
    """A valid-by-construction random PolicyDoc: per state, a few
    Exactly transitions over distinct symbols plus one catch-all, which
    guarantees determinism and completeness however the vocabulary grows
    from synthesized symbols."""
    rng = random.Random(seed)
    states = [str(i) for i in range(rng.randint(1, 4))]
    transitions = []
    for state in states:
        listed = rng.sample(_SYMBOL_POOL, rng.randint(0, 3))
        for symbol in listed:
            transitions.append(Transition(state, Guard.exactly(symbol),
                                          _random_template(rng),
                                          rng.choice(states)))
        catch_all = Guard.any() if not listed else Guard.any_except(listed)
        transitions.append(Transition(state, catch_all, (fwd(),),
                                      rng.choice(states)))
    automaton = EditAutomaton(frozenset(states), states[0], tuple(transitions))
    statement = "".join(rng.choices(_STRING_CHARS, k=rng.randint(0, 40)))
    return PolicyDoc(
        name=f"generated-{seed}",
        statement=statement,
        target_interface=rng.choice(["Api", "Other"]),
        automaton=automaton,
        version=rng.randint(0, 3),
        experimental=rng.random() < 0.3,
    )


# -- exhaustive exploration ----------------------------------------------

ALIEN = ActionSymbol.call("Alien", "ping")


def reachable(start, successors) -> dict:
    """Every state reachable from start, breadth first, mapped to its
    (parent, label), or start to None.  successors(state) yields (label,
    next) pairs; a next of None is a dead end.  An AssertionError raised
    while a state is expanded gets the state's witness added."""
    parents = {start: None}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        try:
            for label, nxt in successors(state):
                if nxt is not None and nxt not in parents:
                    parents[nxt] = state, label
                    queue.append(nxt)
        except AssertionError as exc:
            labels = ", ".join(map(str, witness(parents, state)))
            exc.args = (f"{exc}\nshortest witness: [{labels}]",)
            raise
    return parents


def witness(parents: dict, state) -> list:
    """The labels of the shortest path from the start to state."""
    labels = []
    while parents[state] is not None:
        state, label = parents[state]
        labels.append(label)
    return labels[::-1]


def app_event(symbol) -> Event:
    """An app event whose constructor args and instance name its interface."""
    if symbol.kind is Kind.CONSTRUCTOR:
        return Event(symbol, 1, f"{symbol.interface}#app",
                     (symbol.interface, len(symbol.interface)))
    return Event(symbol, 1)


def joint_state(enforcer):
    """Module (state, cached args) by policy name, and the bindings."""
    return (tuple(sorted((m.policy.name, m.state, m.cached_ctor_args)
                         for m in enforcer.modules)),
            tuple(sorted(enforcer.bindings.items())))


def restore(enforcer, state) -> None:
    modules, bindings = state
    by_name = {m.policy.name: m for m in enforcer.modules}
    for name, module_state, cached in modules:
        by_name[name].state = module_state
        by_name[name].cached_ctor_args = cached
    enforcer.bindings = dict(bindings)
    enforcer.sink.events.clear()
    enforcer.intervention_log.clear()


def offer(enforcer, state, event):
    """What one enforcer does with event from state, and the joint state
    it leaves (None after a PolicyAuthoringError)."""
    restore(enforcer, state)
    try:
        outcome = enforcer.on_event(event)
    except PolicyAuthoringError:
        return "authoring error", None
    records = tuple((r.policy, tuple(event_shapes(r.synthesized)), r.suppressed)
                    for r in outcome.records)
    assert [r[0] for r in records] == sorted(r[0] for r in records)
    seen = (tuple(event_shapes(outcome.delivered)), records,
            outcome.suppressed, tuple(event_shapes(enforcer.sink.events)),
            tuple(r.policy for r in enforcer.intervention_log))
    return seen, joint_state(enforcer)


def deployed(policies) -> PolicyEnforcer:
    """An enforcer on a RecordingSink with policies deployed in order."""
    enforcer = PolicyEnforcer(RecordingSink())
    for policy in policies:
        enforcer.deploy(policy)
    return enforcer


def explore(policies, offer, reference, extra=()):
    """Every (joint state, reference state) reachable from the initial
    ones with policies deployed.  Each of their vocabulary symbols, and
    each extra symbol, is offered by offer(enforcer, reference state,
    event) to an enforcer restored to the joint state; it returns the
    next reference state, or None to stop there."""
    enforcer = deployed(policies)
    symbols = sorted(set(extra).union(*(p.automaton.vocabulary for p in policies)),
                     key=str)
    events = [app_event(symbol) for symbol in symbols]

    def successors(node):
        for event in events:
            restore(enforcer, node[0])
            after = offer(enforcer, node[1], event)
            yield event.symbol, (None if after is None
                                 else (joint_state(enforcer), after))

    return reachable((joint_state(enforcer), reference), successors)


def explore_orders(subset):
    """Offer every vocabulary symbol of subset, and one alien event, from
    every reachable joint state under every deploy order, explore's own
    first; returns how many joint states, and how many offers logged
    records from more than one policy."""
    others = [deployed(order) for order in itertools.permutations(subset)][1:]
    joint_heals = 0

    def offer_to_all(enforcer, _, event):
        nonlocal joint_heals
        state = joint_state(enforcer)
        seen, after = offer(enforcer, state, event)
        for other in others:
            assert offer(other, state, event) == (seen, after), \
                ([p.name for p in subset], event)
        joint_heals += after is not None and len(seen[1]) > 1
        return None if after is None else ()

    return len(explore(subset, offer_to_all, (), [ALIEN])), joint_heals


# -- reference implementations ------------------------------------------
# Each walks the guards directly, as the automaton did before it was
# compiled into EditAutomaton.moves; the compiled forms must agree.

def reference_matches(guard: Guard, symbol: ActionSymbol) -> bool:
    """Whether the guard accepts a vocabulary symbol, one symbol at a time."""
    if guard.kind is GuardKind.ANY:
        return True
    if guard.kind is GuardKind.ANY_EXCEPT:
        return symbol not in guard.symbols
    return symbol in guard.symbols


def reference_matching(automaton: EditAutomaton, state: str,
                       symbol: ActionSymbol) -> list[Transition]:
    """Every transition from state whose guard accepts symbol, in
    declaration order."""
    return [t for t in automaton.transitions
            if t.source == state and reference_matches(t.guard, symbol)]


def reference_move(automaton: EditAutomaton, state: str,
                   symbol: ActionSymbol) -> Optional[Move]:
    """(target, transition or None when it only forwards) of the first
    matching transition, or None when none matches: every move, as
    EditAutomaton.moves held them before idle self-loops were left out."""
    matching = reference_matching(automaton, state, symbol)
    if not matching:
        return None
    first = matching[0]
    return first.target, None if first.output == (fwd(),) else first


def reference_effect_sets(automaton: EditAutomaton
                          ) -> tuple[frozenset[ActionSymbol], frozenset[ActionSymbol]]:
    """(inserted, suppressible): what the automaton can insert, and what a
    transition omitting the input suppresses."""
    vocabulary = automaton.vocabulary
    inserted: set[ActionSymbol] = set()
    suppressible: set[ActionSymbol] = set()
    for t in automaton.transitions:
        inserted.update(i.symbol for i in t.output if not i.is_forward)
        if not any(i.is_forward for i in t.output):
            suppressible.update(s for s in vocabulary if reference_matches(t.guard, s))
    return frozenset(inserted), frozenset(suppressible)


def reference_validate(automaton: EditAutomaton) -> list[Diagnostic]:
    """validate's findings from a state x vocabulary x transition walk,
    each with the transition it points at."""
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
    for state in sorted(automaton.states, key=state_sort_key):
        for symbol in sorted(automaton.vocabulary, key=str):
            matching = reference_matching(automaton, state, symbol)
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


class ReferenceBindingContext:
    """BindingContext as step used it before templates were compiled:
    it also resolves an item's instance through instance_for."""

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


def _reference_instantiate(item: OutputItem, trigger: Event,
                           context: ReferenceBindingContext) -> Event:
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


def reference_step(automaton: EditAutomaton, state: str, event: Event,
                   context: Optional[ReferenceBindingContext] = None,
                   ) -> tuple[str, list[Event]]:
    """step as it was before templates were compiled: match the guards,
    then walk the first match's output item by item, observing every
    event it synthesizes."""
    matching = reference_matching(automaton, state, event.symbol)
    if not matching:
        if event.symbol in automaton.vocabulary:
            raise MissingTransitionError(state, event.symbol)
        return state, [event]
    transition = matching[0]
    if context is None:
        context = ReferenceBindingContext()
    context.observe(event)
    emitted: list[Event] = []
    for item in transition.output:
        if item.is_forward:
            emitted.append(event)
        else:
            synthesized = _reference_instantiate(item, event, context)
            context.observe(synthesized)
            emitted.append(synthesized)
    return transition.target, emitted


def reference_gate(enforcer, policy: PolicyDoc) -> InterferenceReport:
    """The deploy gate as an all-pairs re-check: check_set over every
    deployed policy followed by the new one."""
    return check_set([m.policy for m in enforcer.modules] + [policy])


def reference_check_pair(a: PolicyDoc, b: PolicyDoc) -> InterferenceReport:
    """check_pair without its disjointness test: the four directed
    intersections of effect sets and vocabularies, always taken."""
    auto_a = a.automaton
    auto_b = b.automaton
    vocab_a = auto_a.vocabulary
    vocab_b = auto_b.vocabulary
    pairs: list[InterferencePair] = []
    for direction, symbols in (
        (Direction.A_INSERTS_INTO_B, auto_a.inserted & vocab_b),
        (Direction.A_SUPPRESSES_FROM_B, auto_a.suppressible & vocab_b),
        (Direction.B_INSERTS_INTO_A, auto_b.inserted & vocab_a),
        (Direction.B_SUPPRESSES_FROM_A, auto_b.suppressible & vocab_a),
    ):
        if symbols:
            pairs.append(InterferencePair(a.name, b.name, direction,
                                          frozenset(symbols)))
    return InterferenceReport(tuple(pairs))


class ReferenceEnforcer(PolicyEnforcer):
    """PolicyEnforcer with on_event as it was before one walk of the
    watchers did the whole heal: a first loop sorts the matched modules
    into forward-only and editing ones, a second instantiates and records
    each editing move, and each synthesized event executes through its
    own wrapper that attributes a failure to its policy.  An event of
    any kind may reach _execute_any, which sends only constructors on to
    _execute.  It finds each module's move with reference_move, not in
    watchers, and commits a forward-only move only when it changes
    something."""

    def on_event(self, event: Event) -> EnforcementOutcome:
        if event.origin is not _APP:
            raise ValueError("only app events may enter the enforcer")
        constructor = event.symbol.kind is _CONSTRUCTOR
        # (module, next state, next cached constructor args)
        moved: list[tuple[ProactiveModule, str, Optional[tuple]]] = []
        editing: list[tuple[ProactiveModule, Optional[Move]]] = []
        for module in sorted(self.modules, key=lambda m: m.policy.name):
            automaton = module.policy.automaton
            if event.symbol not in automaton.vocabulary:
                continue
            move = reference_move(automaton, module.state, event.symbol)
            if move is None or move[1] is not None:
                editing.append((module, move))
            elif constructor or move[0] != module.state:
                moved.append((module, move[0], event.args if constructor
                              else module.cached_ctor_args))

        if not editing:
            if constructor:
                event = self._execute(event)
            else:
                self.sink.execute(event)
            for module, next_state, cached_ctor_args in moved:
                module.state = next_state
                module.cached_ctor_args = cached_ctor_args
            return EnforcementOutcome((event,))

        suppressed = False
        records: list[InterventionRecord] = []
        # (module, synthesized, how many execute before the input)
        emitting: list[tuple[ProactiveModule, tuple[Event, ...], int]] = []
        bindings = self.bindings
        for module, move in editing:
            if move is None:
                raise MissingTransitionError(module.state, event.symbol)
            next_state, transition = move
            synthesized, cached_ctor_args = instantiate(
                transition, event, module.cached_ctor_args, bindings)
            forwards = transition.forwards
            if not forwards:
                suppressed = True
            if synthesized or not forwards:
                records.append(InterventionRecord(
                    event, module.policy.name, synthesized, not forwards))
            moved.append((module, next_state, cached_ctor_args))
            emitting.append((module, synthesized, transition.pre))

        delivered = [self._execute_synthesized(module, synth)
                     for module, out, pre in emitting for synth in out[:pre]]
        if not suppressed:
            delivered.append(self._execute_any(event))
        delivered.extend(self._execute_synthesized(module, synth)
                         for module, out, pre in emitting for synth in out[pre:])

        for module, next_state, cached_ctor_args in moved:
            module.state = next_state
            module.cached_ctor_args = cached_ctor_args
        self.intervention_log.extend(records)
        outcome = EnforcementOutcome(delivered)
        outcome.__dict__["records"] = tuple(records)
        return outcome

    def _execute_synthesized(self, module: ProactiveModule, event: Event) -> Event:
        try:
            return self._execute_any(event)
        except Exception as exc:
            raise HealingFailureError(module.policy.name, event, exc) from exc

    def _execute_any(self, event: Event) -> Event:
        """Execute an event of any kind; a constructor binds through _execute."""
        if event.symbol.kind is _CONSTRUCTOR:
            return self._execute(event)
        self.sink.execute(event)
        return event


# -- reference lexer -----------------------------------------------------
# The `.pol` lexer as it was before one regex pass replaced it: strip the
# comment, then tokenize, then unquote, each walking the characters.

_REFERENCE_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|[{}(),]|[^\s{}(),"]+')


_LAUNCH = ["onCreate", "onStart", "onResume"]


def reference_lifecycle_callbacks(state: Optional[ActivityState],
                                  command: str) -> list[str]:
    """sim.lifecycle_callbacks as an if-ladder over commands and states."""
    if command == "launch":
        if state is None:
            return list(_LAUNCH)
        raise IllegalLifecycleError("activity already launched")
    if state is None:
        raise IllegalLifecycleError(f"{command!r} before launch")
    if command == "background":
        if state is ActivityState.RESUMED:
            return ["onPause", "onStop"]
        if state is ActivityState.PAUSED:
            return ["onStop"]
        raise IllegalLifecycleError(f"cannot background a {state.value} activity")
    if command == "foreground":
        if state is ActivityState.STOPPED:
            return ["onRestart", "onStart", "onResume"]
        if state is ActivityState.PAUSED:
            return ["onResume"]
        raise IllegalLifecycleError(f"cannot foreground a {state.value} activity")
    if command == "destroy":
        if state is ActivityState.RESUMED:
            return ["onPause", "onStop", "onDestroy"]
        if state is ActivityState.PAUSED:
            return ["onStop", "onDestroy"]
        if state is ActivityState.STOPPED:
            return ["onDestroy"]
        raise IllegalLifecycleError(f"cannot destroy a {state.value} activity")
    if command == "rotate":
        return reference_lifecycle_callbacks(state, "destroy") + list(_LAUNCH)
    raise IllegalLifecycleError(f"unknown lifecycle command {command!r}")


def reference_strip_comment(line: str) -> str:
    out = []
    in_string = False
    i = 0
    while i < len(line):
        ch = line[i]
        if in_string:
            if ch == "\\" and i + 1 < len(line):
                out.append(line[i:i + 2])
                i += 2
                continue
            if ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch == "#":
            break
        out.append(ch)
        i += 1
    return "".join(out)


def reference_tokenize_line(raw: str, lineno: int) -> tuple[list, list]:
    """(tokens as (text, line, column), lexical diagnostics) of one line."""
    text = reference_strip_comment(raw)
    tokens: list[tuple[str, int, int]] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _REFERENCE_TOKEN.match(text, pos)
        if m is None:
            return tokens, [DslDiagnostic(
                "lexical", lineno, pos + 1,
                f"unterminated string or bad character {text[pos]!r}")]
        tokens.append((m.group(0), lineno, pos + 1))
        pos = m.end()
    return tokens, []


def reference_parse_scenario(text: str, name: str,
                             expected: Optional[Expectation] = None
                             ) -> ScenarioScript:
    """The `.scn` parser before it read through the `.pol` lexer: its own
    comment rule and whitespace split, and one message per arity rule."""
    app: Optional[str] = None
    app_line = 0
    steps: list[ScenarioStep] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "app":
            if len(tokens) != 2:
                raise ValueError(f"line {lineno}: app directive takes one name")
            if app is not None:
                raise ValueError(f"line {lineno}: duplicate 'app' directive "
                                 f"(first on line {app_line})")
            app, app_line = tokens[1], lineno
        elif head in _LIFECYCLE:
            if len(tokens) != 1:
                raise ValueError(f"line {lineno}: {head} takes no arguments")
            steps.append(ScenarioStep(head, line=lineno))
        elif head == "tap":
            if len(tokens) != 2:
                raise ValueError(f"line {lineno}: tap takes one button name")
            steps.append(ScenarioStep("tap", button=tokens[1], line=lineno))
        elif head == "call":
            if len(tokens) < 2:
                raise ValueError(f"line {lineno}: call takes a target")
            if tokens[1] == "new":
                if len(tokens) < 3:
                    raise ValueError(f"line {lineno}: call new takes an interface")
                symbol = ActionSymbol.constructor(tokens[2])
                raw_args = tokens[3:]
            else:
                iface, dot, method = tokens[1].partition(".")
                if not (iface and dot and method) or "." in method:
                    raise ValueError(f"line {lineno}: malformed call target "
                                     f"{tokens[1]!r}")
                symbol = ActionSymbol.call(iface, method)
                raw_args = tokens[2:]
            if symbol.interface not in INTERFACES:
                raise ValueError(f"line {lineno}: unknown interface "
                                 f"{symbol.interface!r}")
            if (symbol.kind is Kind.API_CALL
                    and (symbol.interface, symbol.method) not in _PROTOCOLS):
                raise ValueError(f"line {lineno}: {symbol.interface} has no "
                                 f"method {symbol.method!r}")
            args = tuple(int(a) if INTEGER.fullmatch(a) else a
                         for a in raw_args)
            steps.append(ScenarioStep("call", symbol=symbol, args=args,
                                      line=lineno))
        else:
            raise ValueError(f"line {lineno}: unknown command {head!r}")
    if app is None:
        raise ValueError("missing 'app' directive")
    if not steps or steps[0].command != "launch":
        raise ValueError("scenario must begin with launch")
    return ScenarioScript(name=name, app=app, steps=tuple(steps),
                          expected=expected)


_WORD_CHARS = "abcXYZ019-+._\\'\u00e9\u00b2"


def random_scenario_text(rng: random.Random) -> str:
    """A valid `.scn` text using every command, with spaces and tabs
    between tokens, blank lines and trailing `#` comments.  Its args are
    integers and bare words without `{}(),"#`."""
    def word() -> str:
        return "".join(rng.choice(_WORD_CHARS) for _ in range(rng.randint(1, 6)))

    def arg() -> str:
        return str(rng.randint(-999, 999)) if rng.random() < 0.5 else word()

    commands = ["launch"] + [rng.choice(("lifecycle", "tap", "call", "new"))
                             for _ in range(rng.randint(0, 12))]
    at = rng.randint(0, len(commands))
    commands.insert(at, "app")
    lines = []
    for command in commands:
        if command == "app":
            tokens = ["app", word()]
        elif command == "lifecycle":
            tokens = [rng.choice(list(_LIFECYCLE))]
        elif command == "tap":
            tokens = ["tap", word()]
        elif command == "call":
            interface, method = rng.choice(list(_PROTOCOLS))
            tokens = ["call", f"{interface}.{method}"]
            tokens += [arg() for _ in range(rng.randint(0, 4))]
        elif command == "new":
            tokens = ["call", "new", rng.choice(INTERFACES)]
            tokens += [arg() for _ in range(rng.randint(0, 4))]
        else:
            tokens = [command]
        gaps = [rng.choice((" ", "\t", "  ", " \t ")) for _ in tokens]
        line = rng.choice(("", " ", "\t")) + "".join(
            token + gap for token, gap in zip(tokens, gaps)).rstrip(" \t")
        if rng.random() < 0.3:
            line += rng.choice((" ", "\t", "")) + "# " + word() + " (x, \"y\")"
        lines.append(line)
        if rng.random() < 0.2:
            lines.append(rng.choice(("", "  ", "\t", "# only a comment")))
    return "\n".join(lines) + rng.choice(("\n", ""))


_LINE_BREAK_CODES = {f"{ord(c):04x}": c for c in LINE_BREAKS if c != "\n"}


def reference_unquote(token: str) -> str:
    """Also reads the \\uXXXX escapes (lowercase hex) that quote writes
    for the line breaks other than LF."""
    body = token[1:-1]
    out: list[str] = []
    i = 0
    while i < len(body):
        if body[i] == "\\" and i + 1 < len(body):
            nxt = body[i + 1]
            code = body[i + 2:i + 6]
            if nxt == "u" and code in _LINE_BREAK_CODES:
                out.append(_LINE_BREAK_CODES[code])
                i += 6
                continue
            out.append("\n" if nxt == "n" else nxt)
            i += 2
        else:
            out.append(body[i])
            i += 1
    return "".join(out)


_MUTATIONS = ("#", '"', "\\", '\\"', "\t", "\f", "\r", " ", "\x1f",
              '"a # b"', "{", ")", ",", "\\n", "\\u2028", "\\u000D", "\\u00")


def mutated_policy_text(rng: random.Random, text: str) -> str:
    """text with a few seeded edits: comment marks and quotes inside and
    outside strings, unterminated strings, tabs, form feeds, carriage
    returns, trailing whitespace and stray escapes."""
    for _ in range(rng.randint(1, 6)):
        i = rng.randrange(len(text) + 1)
        edit = rng.randrange(4)
        if edit == 0:
            text = text[:i] + rng.choice(_MUTATIONS) + text[i:]
        elif edit == 1:
            text = text[:i] + text[i + 1:]
        elif edit == 2:
            end = text.find("\n", i)
            end = len(text) if end < 0 else end
            text = text[:end] + " \t " + text[end:]
        else:
            text = text[:i] + rng.choice(_MUTATIONS) + text[i + 1:]
    return text


# -- reference parser ----------------------------------------------------
# The `.pol` line readers as they were before they indexed each line's
# tokens: one cursor per line, read token by token through peek, next,
# expect and _name.

class _ReferenceCursor(_LineParser):
    __slots__ = ()

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def expect(self, literal: str) -> int:
        """Consume literal; return its token index."""
        pos = self.pos
        if pos < len(self.tokens) and self.tokens[pos] == literal:
            self.pos = pos + 1
            return pos
        tok = self.next(repr(literal))
        self.fail("syntax", pos, f"unexpected token {tok!r}", repr(literal))


def _reference_name(lp: _ReferenceCursor, expected: str) -> str:
    """The next token, a name or state id: a word, as bare() checks."""
    pos = lp.pos
    if pos == len(lp.tokens):
        lp.fail("syntax", pos, "unexpected end of line", expected)
    tok = lp.tokens[pos]
    if tok[0] in '"{}(),':
        lp.fail("syntax", pos, f"unexpected token {tok!r}", expected)
    lp.pos = pos + 1
    return tok


def _reference_call_target(lp: _ReferenceCursor) -> ActionSymbol:
    ref = _reference_name(lp, "<interface>.<method>")
    iface, dot, method = ref.partition(".")
    if not (iface and dot and method) or "." in method:
        lp.fail("syntax", lp.pos - 1, f"malformed call target {ref!r}",
                "<interface>.<method>")
    return ActionSymbol(_API_CALL, iface, method)


def _reference_atom(lp: _ReferenceCursor) -> ActionSymbol:
    head = lp.next("'call', 'callback' or 'new'")
    if head == "call":
        return _reference_call_target(lp)
    if head == "callback":
        return ActionSymbol.callback(_reference_name(lp, "callback method name"))
    if head == "new":
        return ActionSymbol.constructor(_reference_name(lp, "interface name"))
    lp.fail("syntax", lp.pos - 1, f"unexpected token {head!r}",
            "'call', 'callback' or 'new'")


def _reference_guard(lp: _ReferenceCursor) -> Guard:
    kind = lp.peek()
    if kind is None:
        lp.fail("syntax", None, "missing guard", "guard")
    if kind == "any":
        lp.pos += 1
        return Guard.any()
    if kind not in ("any-of", "any-except"):
        return Guard(_EXACTLY, frozenset((_reference_atom(lp),)))
    lp.pos += 1
    opener = lp.expect("{")
    symbols: set[ActionSymbol] = set()
    while (tok := lp.peek()) != "}":
        if tok is None:
            lp.fail("syntax", opener, "unclosed symbol set", "'}'")
        symbols.add(_reference_atom(lp))
    lp.pos += 1
    if not symbols:
        lp.fail("semantic", opener, f"{kind} guard has an empty symbol set")
    return Guard(_ANY_OF if kind == "any-of" else _ANY_EXCEPT, frozenset(symbols))


def _reference_item(lp: _ReferenceCursor) -> OutputItem:
    head = lp.next("'input' or 'insert'")
    if head == "input":
        return OutputItem.forward()
    if head != "insert":
        lp.fail("syntax", lp.pos - 1, f"unexpected token {head!r}",
                "'input' or 'insert'")
    symbol = _reference_atom(lp)
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
    values: list = []
    while (tok := lp.next("literal or ')'")) != ")":
        if tok.startswith('"'):
            values.append(unquote(tok))
        elif INTEGER.fullmatch(tok):
            values.append(int(tok))
        else:
            lp.fail("syntax", lp.pos - 1, f"bad literal {tok!r}",
                    "integer or quoted string")
    return OutputItem(symbol, ArgSource.LITERALS, tuple(values))


def _reference_transition(lp: _ReferenceCursor) -> Transition:
    guard = _reference_guard(lp)
    lp.expect("from")
    source = _reference_name(lp, "state id")
    lp.expect("to")
    target = _reference_name(lp, "state id")
    lp.expect("emit")
    if lp.tokens[lp.pos:] == ["input"]:
        lp.pos += 1
        return Transition(source, guard, _FORWARD_ONLY, target, lp.lineno)
    if lp.peek() == "none":
        lp.pos += 1
        return Transition(source, guard, (), target, lp.lineno)
    items = [_reference_item(lp)]
    while lp.pos < len(lp.tokens):
        if lp.tokens[lp.pos] != ",":
            lp.fail("syntax", lp.pos, f"unexpected token {lp.tokens[lp.pos]!r}",
                    "',' or end of line")
        lp.pos += 1
        items.append(_reference_item(lp))
        if items[-1].symbol is None and items.count(items[-1]) > 1:
            lp.fail("semantic", lp.pos - 1, "the output forwards the input twice")
    return Transition(source, guard, tuple(items), target, lp.lineno)


def reference_parse(text: str) -> PolicyDoc:
    """dsl.parse as it read each line through a cursor."""
    diags: list[DslDiagnostic] = []
    name = statement = target = initial = None
    version = 0
    experimental = False
    states: list[str] = []
    transitions: list[Transition] = []
    seen: dict[str, int] = {}

    lines = text.splitlines()
    for line in line_parsers(lines, diags):
        lp = _ReferenceCursor(line.tokens, line.raw, line.lineno)
        head, lp.pos = lp.tokens[0], 1
        try:
            if head in seen:
                lp.fail("semantic", 0, f"duplicate {head!r} directive "
                        f"(first on line {seen[head]})")
            if head in _SINGLE_USE:
                seen[head] = lp.lineno
            if head == "on":
                transitions.append(_reference_transition(lp))
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
                target = _reference_name(lp, "interface name")
            elif head == "states":
                while not states or lp.peek() is not None:
                    tok = _reference_name(lp, "state id")
                    if tok in states:
                        lp.fail("semantic", lp.pos - 1, f"duplicate state {tok!r}")
                    states.append(tok)
            elif head == "initial":
                initial = _reference_name(lp, "state id")
            else:
                lp.fail("syntax", 0, f"unknown directive {head!r}",
                        "'policy', 'version', 'experimental', 'statement', "
                        "'target', 'states', 'initial' or 'on'")
            lp.done()
        except LineError as error:
            diags.append(error.diagnostic)

    last = len(lines) or 1
    for directive in ("policy", "statement", "target", "initial", "states"):
        if directive not in seen:
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


# Tokens a token-level mutation puts in place of another.
_TOKEN_REPLACEMENTS = ("from", "to", "emit", "input", "insert", "none", "args",
                       "cached", "{", "}", "(", ")", ",", "call", "callback",
                       "new", "any", "any-of", "any-except", "Camera..open",
                       '"x"', "1_0")


def token_mutations(text: str, count: int, seed: int) -> list[str]:
    """count seeded copies of text, each with one token of one `on` or
    directive line dropped, repeated, swapped with the next, replaced from
    _TOKEN_REPLACEMENTS, or made the line's last."""
    rng = random.Random(seed)
    lines = text.split("\n")
    targets = [n for n, raw in enumerate(lines)
               if reference_tokenize_line(raw, n + 1)[0]]
    texts = []
    for _ in range(count):
        n = rng.choice(targets)
        tokens = [t for t, _, _ in reference_tokenize_line(lines[n], n + 1)[0]]
        i = rng.randrange(len(tokens))
        edit = rng.randrange(5)
        if edit == 0:
            del tokens[i]
        elif edit == 1:
            tokens.insert(i, tokens[i])
        elif edit == 2:
            j = i + 1 if i + 1 < len(tokens) else i - 1
            tokens[i], tokens[j] = tokens[j], tokens[i]
        elif edit == 3:
            tokens[i] = rng.choice(_TOKEN_REPLACEMENTS)
        else:
            del tokens[i + 1:]
        texts.append("\n".join(lines[:n] + [" ".join(tokens)] + lines[n + 1:]))
    return texts


def parse_corpus() -> list[str]:
    """The `.pol` files, then 2000 seeded mutations of them."""
    texts = policy_texts()
    rng = random.Random(4)
    return texts + [mutated_policy_text(rng, rng.choice(texts))
                    for _ in range(2000)]


PARSE_DIGESTS = FIXTURES / "parse-digests.json"


def parse_result(text: str, parser=parse) -> str:
    """What parser (dsl.parse unless given) makes of text: the canonical
    form, or every diagnostic's (kind, line, column, message, expected)."""
    try:
        return serialize(parser(text))
    except PolicyParseError as exc:
        return "\n".join(repr((d.kind, d.line, d.column, d.message, d.expected))
                         for d in exc.diagnostics)


def parse_digest(text: str) -> str:
    return hashlib.blake2b(parse_result(text).encode("utf-8"),
                           digest_size=8).hexdigest()


RUN_REPORTS = FIXTURES / "run-reports.json"


def run_reports() -> list[dict]:
    """`proactive run --out` on each bundled scenario, enforced and with
    --no-enforce, then on all of them with --parallel: each run's
    arguments (scenario file names), exit code, stdout, stderr and JSON
    report, each timing_ms list replaced by its length."""
    scenarios = sorted(bundled_scenarios_dir().glob("*.scn"))
    runs = [([scenario], flags) for scenario in scenarios
            for flags in ([], ["--no-enforce"])]
    runs.append((scenarios, ["--parallel"]))
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.json"
        for paths, flags in runs:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = main(["run", *flags, "--out", str(out),
                             *(arg for path in paths
                               for arg in ("--scenario", str(path)))])
            report = json.loads(out.read_text(encoding="utf-8"))
            for entry in report["reports"]:
                entry["timing_ms"] = len(entry["timing_ms"])
            results.append({"args": [*flags, *(path.name for path in paths)],
                            "code": code, "stdout": stdout.getvalue(),
                            "stderr": stderr.getvalue(), "report": report})
    return results
