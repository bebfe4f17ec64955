"""Shared builders for the test suite: small hand-made automata, random
trace generation, a seeded generator of valid policy documents,
guard-walking reference forms of the compiled transition table, the
all-pairs reference form of the deploy gate, and the character-walking
reference form of the `.pol` lexer."""

from __future__ import annotations

import random
import re
from pathlib import Path

from proactive.automata import (
    ActionSymbol,
    ArgSource,
    Diagnostic,
    EditAutomaton,
    EffectSets,
    Event,
    Guard,
    Kind,
    OutputItem,
    Trace,
    Transition,
    state_sort_key,
)
from proactive.dsl import DslDiagnostic, PolicyDoc
from proactive.interference import InterferenceReport, check_set

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
synth = OutputItem.synthesize


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
            Transition("0", Guard.exactly(DOA), (synth(DOX),), "0"),
            Transition("0", other, (fwd(),), "1"),
            Transition("1", Guard.exactly(DOA), (fwd(), synth(DOX)), "1"),
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
                       (synth(STOP_REC), synth(RELEASE_AR), fwd()), "0"),
        ),
    )


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

_STRING_CHARS = 'abc XY.,:#"()\\{}\n'


def _random_template(rng: random.Random) -> tuple[OutputItem, ...]:
    def one():
        source = rng.choice(list(ArgSource))
        literals = ()
        if source is ArgSource.LITERALS:
            literals = tuple(
                rng.choice([rng.randint(-99, 99),
                            "".join(rng.choices(_STRING_CHARS, k=4))])
                for _ in range(rng.randint(0, 3)))
        return synth(rng.choice(_SYMBOL_POOL), source, literals)

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


# -- reference implementations ------------------------------------------
# Each walks the guards directly, as the automaton did before it was
# compiled into EditAutomaton.table; the table-driven forms must agree.

def reference_matching(automaton: EditAutomaton, state: str,
                       symbol: ActionSymbol) -> list[Transition]:
    """Every transition from state whose guard accepts symbol, in
    declaration order."""
    return [t for t in automaton.transitions
            if t.source == state and t.guard.matches(symbol)]


def reference_effect_sets(automaton: EditAutomaton) -> EffectSets:
    vocabulary = automaton.vocabulary
    inserted: set[ActionSymbol] = set()
    suppressible: set[ActionSymbol] = set()
    for t in automaton.transitions:
        inserted.update(i.symbol for i in t.output if not i.is_forward)
        if not any(i.is_forward for i in t.output):
            suppressible.update(s for s in vocabulary if t.guard.matches(s))
    return EffectSets(frozenset(inserted), frozenset(suppressible))


def reference_validate(automaton: EditAutomaton) -> list[Diagnostic]:
    """validate's findings from a state x vocabulary x transition walk,
    without the transition each finding points at."""
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
                    state=endpoint))
        forwards = sum(1 for i in t.output if i.is_forward)
        if forwards > 1:
            diags.append(Diagnostic(
                "multiple-forwards",
                f"transition from {t.source!r} on {t.guard.text()} forwards "
                f"the input {forwards} times",
                state=t.source))
    for state in sorted(automaton.states, key=state_sort_key):
        for symbol in sorted(automaton.vocabulary, key=str):
            matching = reference_matching(automaton, state, symbol)
            if len(matching) > 1:
                diags.append(Diagnostic(
                    "nondeterministic",
                    f"state {state!r} has {len(matching)} transitions matching "
                    f"{symbol} ({', '.join(t.guard.text() for t in matching)})",
                    state=state, symbol=symbol))
            elif not matching:
                diags.append(Diagnostic(
                    "incomplete",
                    f"state {state!r} has no transition matching {symbol}; "
                    "add an any self-loop to forward unlisted symbols",
                    state=state, symbol=symbol))
    return diags


def reference_gate(enforcer, policy: PolicyDoc) -> InterferenceReport:
    """The deploy gate as an all-pairs re-check: check_set over every
    deployed policy followed by the new one."""
    return check_set([m.policy for m in enforcer.modules] + [policy])


# -- reference lexer -----------------------------------------------------
# The `.pol` lexer as it was before one regex pass replaced it: strip the
# comment, then tokenize, then unquote, each walking the characters.

_REFERENCE_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|[{}(),]|[^\s{}(),"]+')


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


def reference_unquote(token: str) -> str:
    body = token[1:-1]
    out: list[str] = []
    i = 0
    while i < len(body):
        if body[i] == "\\" and i + 1 < len(body):
            nxt = body[i + 1]
            out.append("\n" if nxt == "n" else nxt)
            i += 2
        else:
            out.append(body[i])
            i += 1
    return "".join(out)


_MUTATIONS = ("#", '"', "\\", '\\"', "\t", "\f", "\r", " ", "\x1f",
              '"a # b"', "{", ")", ",", "\\n")


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
