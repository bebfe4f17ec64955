"""The constructor contract of the two value types built on the hot path,
`Event` and `InterventionRecord`: their signature, fields, defaults and
match args agree, and every way of calling them, dispatch's private
record builder included, builds the same object.
tests/test_templates.py::TestSlottedTypes checks that they stay frozen,
slotted, hashable, copyable and picklable."""

import dataclasses
import inspect
import pickle

import pytest

from proactive.automata import ActionSymbol, Event, Origin
from proactive.enforcer import InterventionRecord, _new_record

SYMBOL = ActionSymbol.call("Api", "doA")
TRIGGER = Event(SYMBOL, 3, "Api#1", (1, "x"))
INSERTED = Event(ActionSymbol.call("Api", "doB"), 3, None, (), Origin.SYNTHESIZED)

EVENT_FIELDS = [("symbol", inspect.Parameter.empty), ("seq", 0),
                ("instance", None), ("args", ()), ("origin", Origin.APP)]
RECORD_FIELDS = [(name, inspect.Parameter.empty) for name in
                 ("trigger", "policy", "synthesized", "suppressed")]


def field_defaults(cls):
    return [(f.name, inspect.Parameter.empty if f.default is dataclasses.MISSING
             else f.default) for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("cls, expected", [(Event, EVENT_FIELDS),
                                           (InterventionRecord, RECORD_FIELDS)])
def test_signature_fields_and_match_args_agree(cls, expected):
    parameters = list(inspect.signature(cls).parameters.values())
    assert [(p.name, p.default) for p in parameters] == expected
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
               for p in parameters)
    assert field_defaults(cls) == expected
    assert all(f.default_factory is dataclasses.MISSING
               for f in dataclasses.fields(cls))
    assert cls.__match_args__ == tuple(name for name, _ in expected)
    assert cls.__slots__ == cls.__match_args__


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
    record = InterventionRecord(TRIGGER, "p", (INSERTED,), False)
    with pytest.raises(ValueError, match="only for modifications"):
        dataclasses.replace(record, synthesized=())


@pytest.mark.parametrize("synthesized, suppressed", [
    ((INSERTED,), False), ((), True), ((INSERTED, INSERTED), True)])
def test_record_builder_builds_what_the_constructor_builds(synthesized, suppressed):
    built = _new_record(TRIGGER, "p", synthesized, suppressed)
    public = InterventionRecord(TRIGGER, "p", synthesized, suppressed)
    assert type(built) is type(public)
    assert built == public and hash(built) == hash(public)
    assert repr(built) == repr(public)
    restored = pickle.loads(pickle.dumps(built))
    assert type(restored) is type(public) and restored == public
    assert not hasattr(built, "__dict__")
