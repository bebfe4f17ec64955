"""Each bundled policy checked exhaustively against its own `statement`.

A statement of the form "If X() is invoked, invoke Y() when Z()" is read
as a monitor over the events the enforcer delivers: X sets *pending*, Y
clears it, and Z while pending breaks the statement.  X is `new <I>` or
`call <target>.<X>`, Y is `call <target>.<Y>` and Z is `callback <Z>`.
From every reachable (module state, cached args, bindings, pending),
every vocabulary symbol and X, Y and Z are offered to the one deployed
module.  A policy conforms when no offer breaks its statement; otherwise
the shortest event sequence that does is its witness.  A statement in
any other form is reported as unchecked.
"""

import re

from proactive.automata import ActionSymbol
from proactive.pack import bundled_pack_dir, load_policies

from helpers import explore, witness

BUNDLED, _ = load_policies(bundled_pack_dir())
STATEMENT = re.compile(
    r"If (new )?(\w+)\(\) is invoked, invoke (\w+)\(\) when (\w+)\(\)")
BROKEN = "statement broken"


def statement_witness(doc):
    """The shortest witness, as strings, that doc's module breaks its
    statement; None when it conforms, "unchecked" for another form."""
    form = STATEMENT.fullmatch(doc.statement)
    if form is None:
        return "unchecked"
    new, x, y, z = form.groups()
    target = doc.target_interface
    x = ActionSymbol.constructor(x) if new else ActionSymbol.call(target, x)
    y, z = ActionSymbol.call(target, y), ActionSymbol.callback(z)

    def offer(enforcer, pending, event):
        if pending == BROKEN:
            return None
        for out in enforcer.on_event(event).delivered:
            if pending and out.symbol == z:
                return BROKEN
            pending = out.symbol == x or (pending and out.symbol != y)
        return pending

    parents = explore([doc], offer, False, [x, y, z])
    # reachable lists states in the order it reaches them, nearest first.
    broken = next((node for node in parents if node[1] == BROKEN), None)
    return broken and list(map(str, witness(parents, broken)))


def test_each_bundled_policy_against_its_statement():
    assert {name: statement_witness(doc) for name, doc in BUNDLED.items()} == {
        "audiorecord-single-acquire": "unchecked",
        "bluechat-bluetooth-disable": None,
        "foocam-camera-open-release": None,
        "foocam-camera-preview": None,
        "getbackgps-location-updates": None,
        "getbackgps-remotecallbacklist": [
            "call RemoteCallbackList.register", "call RemoteCallbackList.kill",
            "callback onDestroy"],
        "getbackgps-sensor-listener": None,
        "hearhere-audiorecord-release": ["new AudioRecord", "callback onStop"],
    }
