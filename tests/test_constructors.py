"""The constructor contract of the two value types built on the hot path,
`Event` and `InterventionRecord`: their signature, fields, defaults and
match args agree, every public way of building a record refuses one that
modifies nothing, and every record dispatch builds in its watcher walk is
the one the constructor builds, as is every event instantiate synthesizes.
tests/test_templates.py::TestSlottedTypes checks that they stay frozen,
slotted, hashable, copyable and picklable."""

import collections
import copy
import dataclasses
import inspect
import pickle
import random

import pytest

from proactive.automata import (
    ActionSymbol,
    ArgSource,
    Event,
    Guard,
    Origin,
    OutputItem,
    PolicyAuthoringError,
    Trace,
    Transition,
    instantiate,
)
from proactive.enforcer import InterventionRecord
from proactive.interference import check_set
from proactive.sim import run_scenario

from helpers import DOX, deployed, random_policy_doc, random_trace

SYMBOL = ActionSymbol.call("Api", "doA")
TRIGGER = Event(SYMBOL, 3, "Api#1", (1, "x"))
INSERTED = Event(ActionSymbol.call("Api", "doB"), 3, None, (), Origin.SYNTHESIZED)

EVENT_FIELDS = [("symbol", inspect.Parameter.empty), ("seq", 0),
                ("instance", None), ("args", ()), ("origin", Origin.APP)]
RECORD_FIELDS = [(name, inspect.Parameter.empty) for name in
                 ("trigger", "policy", "synthesized", "suppressed")]


def field_defaults(cls):
    """(name, default) of each field: a dataclass's or a NamedTuple's."""
    if dataclasses.is_dataclass(cls):
        assert all(f.default_factory is dataclasses.MISSING
                   for f in dataclasses.fields(cls))
        return [(f.name, inspect.Parameter.empty if f.default is dataclasses.MISSING
                 else f.default) for f in dataclasses.fields(cls)]
    return [(name, cls._field_defaults.get(name, inspect.Parameter.empty))
            for name in cls._fields]


@pytest.mark.parametrize("cls, expected", [(Event, EVENT_FIELDS),
                                           (InterventionRecord, RECORD_FIELDS)])
def test_signature_fields_and_match_args_agree(cls, expected):
    parameters = list(inspect.signature(cls).parameters.values())
    assert [(p.name, p.default) for p in parameters] == expected
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
               for p in parameters)
    assert field_defaults(cls) == expected
    assert cls.__match_args__ == tuple(name for name, _ in expected)
    # A dataclass keeps its fields in slots, a NamedTuple in the tuple.
    assert cls.__slots__ == (() if issubclass(cls, tuple) else cls.__match_args__)


def test_event_positional_keyword_and_default_construction_agree():
    positional = Event(SYMBOL, 3, "Api#1", (1, "x"), Origin.APP)
    keyword = Event(origin=Origin.APP, args=(1, "x"), instance="Api#1",
                    seq=3, symbol=SYMBOL)
    assert positional == keyword == TRIGGER
    assert hash(positional) == hash(keyword)
    assert Event(SYMBOL) == Event(SYMBOL, 0, None, (), Origin.APP)
    assert Event(SYMBOL).origin is Origin.APP
    assert repr(positional) == ("Event(symbol=" + repr(SYMBOL) + ", seq=3, "
                                "instance='Api#1', args=(1, 'x'), "
                                "origin=<Origin.APP: 'app'>)")
    match positional:
        case Event(symbol, seq, instance, args, origin):
            assert (symbol, seq, instance, args, origin) \
                == (SYMBOL, 3, "Api#1", (1, "x"), Origin.APP)


EVENT_ROUND_TRIPS = {
    **{f"pickle-{protocol}": lambda e, protocol=protocol:
       pickle.loads(pickle.dumps(e, protocol)) for protocol in
       range(pickle.HIGHEST_PROTOCOL + 1)},
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "replace": dataclasses.replace,
    "replace-seq": lambda e: dataclasses.replace(
        dataclasses.replace(e, seq=e.seq + 1), seq=e.seq),
}


@pytest.mark.parametrize("round_trip", EVENT_ROUND_TRIPS.values(),
                         ids=EVENT_ROUND_TRIPS.keys())
@pytest.mark.parametrize("event", [TRIGGER, INSERTED, Event(symbol=SYMBOL)],
                         ids=["app", "synthesized", "defaults"])
def test_event_round_trips_build_the_same_event(round_trip, event):
    # Event is built by __new__, so each of these goes through __reduce__
    # or the keyword call that dataclasses.replace makes.
    clone = round_trip(event)
    assert type(clone) is Event
    assert clone == event and hash(clone) == hash(event)
    assert clone.symbol is event.symbol and clone.origin is event.origin
    assert [getattr(clone, n) for n in Event.__slots__] \
        == [getattr(event, n) for n in Event.__slots__]
    assert not hasattr(clone, "__dict__")


def test_an_event_is_a_frozen_event():
    events = [TRIGGER, INSERTED, *Trace.from_symbols([SYMBOL, SYMBOL])]
    assert all(type(e) is Event for e in events)
    # Keyword construction, as Trace.from_symbols builds its events.
    assert events[2:] == [Event(symbol=SYMBOL, seq=1), Event(symbol=SYMBOL, seq=2)]
    assert events[2] != events[3] and hash(events[2]) != hash(events[3])
    assert TRIGGER != dataclasses.replace(TRIGGER, origin=Origin.SYNTHESIZED)
    for name in (*Event.__slots__, "note"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(TRIGGER, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(TRIGGER, name)
    assert TRIGGER == Event(SYMBOL, 3, "Api#1", (1, "x"))


def test_record_positional_and_keyword_construction_agree():
    positional = InterventionRecord(TRIGGER, "p", (INSERTED,), False)
    keyword = InterventionRecord(suppressed=False, synthesized=(INSERTED,),
                                 policy="p", trigger=TRIGGER)
    assert positional == keyword
    assert hash(positional) == hash(keyword)
    assert (positional.trigger, positional.policy, positional.synthesized,
            positional.suppressed) == (TRIGGER, "p", (INSERTED,), False)
    assert InterventionRecord(TRIGGER, "p", (), True).suppressed


def test_record_that_modifies_nothing_is_rejected():
    with pytest.raises(ValueError, match="only for modifications"):
        InterventionRecord(TRIGGER, "p", (), False)
    with pytest.raises(ValueError, match="only for modifications"):
        InterventionRecord(trigger=TRIGGER, policy="p", synthesized=(),
                           suppressed=False)
    with pytest.raises(ValueError, match="only for modifications"):
        InterventionRecord._make((TRIGGER, "p", (), False))
    record = InterventionRecord(TRIGGER, "p", (INSERTED,), False)
    with pytest.raises(ValueError, match="only for modifications"):
        record._replace(synthesized=())
    assert record._replace(suppressed=True) \
        == InterventionRecord(TRIGGER, "p", (INSERTED,), True)


@pytest.mark.parametrize("synthesized, suppressed", [
    ((INSERTED,), False), ((), True), ((INSERTED, INSERTED), True)])
def test_record_builder_builds_what_the_constructor_builds(synthesized, suppressed):
    """on_event builds its records with tuple.__new__, past the constructor's
    check: the record so built is the constructor's in every respect."""
    built = tuple.__new__(InterventionRecord,
                          (TRIGGER, "p", synthesized, suppressed))
    public = InterventionRecord(TRIGGER, "p", synthesized, suppressed)
    assert type(built) is type(public)
    assert built == public and hash(built) == hash(public)
    assert repr(built) == repr(public)
    restored = pickle.loads(pickle.dumps(built))
    assert type(restored) is type(public) and restored == public
    assert not hasattr(built, "__dict__")


def assert_built_by_the_constructor(records, kinds) -> None:
    for record in records:
        assert type(record) is InterventionRecord
        assert record == InterventionRecord(*record)
        kinds[bool(record.synthesized), record.suppressed] += 1


def test_every_record_the_walk_logs_is_one_the_constructor_builds(pack, scenarios):
    kinds = collections.Counter()
    for script in scenarios.values():
        assert_built_by_the_constructor(
            run_scenario(script, deployed(pack.deployable())).interventions, kinds)
    assert kinds
    rng = random.Random(22)
    docs = [random_policy_doc(seed) for seed in range(60)]
    for _ in range(60):
        policies = rng.sample(docs, 2)
        if not check_set(policies).ok:
            continue
        enforcer = deployed(policies)
        vocabulary = frozenset().union(*(p.automaton.vocabulary
                                         for p in policies))
        for event in random_trace(rng, vocabulary, max_len=40, extra=[DOX]):
            try:
                enforcer.on_event(event)
            except PolicyAuthoringError:
                break
        assert_built_by_the_constructor(enforcer.intervention_log, kinds)
    # Insert-only, suppress-only, and both.
    assert min(kinds[True, False], kinds[False, True], kinds[True, True]) > 0, kinds


def test_every_event_instantiate_synthesizes_is_one_the_constructor_builds():
    new_api = ActionSymbol.constructor("Api")
    trigger = Event(new_api, 5, "Api#3", (7,))
    items = (OutputItem(), OutputItem(SYMBOL, ArgSource.LITERALS, (1, "x")),
             OutputItem(new_api, ArgSource.CACHED),
             OutputItem(ActionSymbol.call("Other", "go")))
    transition = Transition("0", Guard.exactly(new_api), items, "0")
    events, _ = instantiate(transition, trigger, None, {"Other": "Other#2"})
    assert [(e.symbol, e.seq, e.instance, e.args) for e in events] == [
        (SYMBOL, 5, "Api#3", (1, "x")), (new_api, 5, "Api#3", (7,)),
        (ActionSymbol.call("Other", "go"), 5, "Other#2", ())]
    for event in events:
        built = Event(event.symbol, event.seq, event.instance, event.args,
                      Origin.SYNTHESIZED)
        assert type(event) is Event
        assert event == built and hash(event) == hash(built)
        assert repr(event) == repr(built) and str(event) == str(built)
        assert not hasattr(event, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.seq = 9
        assert pickle.loads(pickle.dumps(event)) == built
