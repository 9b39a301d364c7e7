"""Each stanza is sized at most once, and no payload is encoded for nothing.

Counted, not timed: a small seeded ``mixed`` chaos run (drop, dup,
reorder, a server restart) with the envelope module's encoder wrapped.
A stanza is sized where it first meets the wire — the device's
transport, or its delivery when it came with no size — and its
``_from``-stamped copy on the switchboard is one stanza with it, not a
second one.  An envelope's payload is encoded once on its own, when the
envelope is first sized, and once inside each stanza that carries it,
when that stanza is sized; never again on the way through the switch.
Wrapping changes nothing the run does: the report is the same bytes as
an unwrapped run's.
"""

import json
from collections import Counter

import pytest

from repro.chaos import run_scenario
from repro.core import envelope as envelope_module
from repro.core.envelope import Envelope, FrozenDict, FrozenList
from repro.net.xmpp import XmppServer

RUN = dict(seed=5, devices=6, minutes=8.0)


def _envelopes_in(tree):
    if isinstance(tree, Envelope):
        yield tree
    elif isinstance(tree, dict):
        for value in tree.values():
            yield from _envelopes_in(value)
    elif isinstance(tree, list):
        for value in tree:
            yield from _envelopes_in(value)


def _unstamped(stanza, from_jid):
    """A stanza's key for the count: its sender and the identities of its
    values, ``_from`` left out, so the stamped copy keys as its original."""
    return from_jid, tuple(sorted(
        (key, id(value)) for key, value in stanza.items() if key != "_from"
    ))


@pytest.fixture(scope="module")
def counted():
    keep = []  # every object counted stays alive, so no id is reused
    alone = Counter()  # id(payload) -> encodes of the payload on its own
    inside = Counter()  # id(payload) -> encodes inside a stanza
    stanza_sizings = []  # every stanza handed to the encoder
    submitted = []  # (stanza, from_jid) for every stanza the switch took

    def counting(value):
        keep.append(value)
        if type(value) in (FrozenDict, FrozenList):
            alone[id(value)] += 1
        else:
            for env in _envelopes_in(value):
                keep.append(env.payload)
                inside[id(env.payload)] += 1
            if isinstance(value, dict) and "kind" in value:
                stanza_sizings.append(value)
        return encode(value)

    encode = envelope_module._canonical_encode
    original_submit = XmppServer.submit

    def recording_submit(self, from_jid, to_jid, stanza, *args, **kwargs):
        keep.append(stanza)
        submitted.append((stanza, from_jid))
        return original_submit(self, from_jid, to_jid, stanza, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(envelope_module, "_canonical_encode", counting)
        patch.setattr(XmppServer, "submit", recording_submit)
        report = run_scenario("mixed", **RUN)
    return report, alone, inside, stanza_sizings, submitted


def test_the_run_is_the_one_an_unwrapped_run_makes(counted):
    report = counted[0]
    assert json.dumps(report, sort_keys=True) == json.dumps(
        run_scenario("mixed", **RUN), sort_keys=True
    )
    # The faults the count is about did happen.
    faults = report["chaos"]
    assert faults["chaos.duplicated"] > 0 and faults["chaos.reordered"] > 0
    assert faults["chaos.server_restarts"] > 0


def test_each_stanza_is_sized_at_most_once(counted):
    stanza_sizings, submitted = counted[3], counted[4]
    # Stanzas that share a key (two identical acks of one sender) may be
    # sized once each.
    allowed = Counter(_unstamped(stanza, from_jid) for stanza, from_jid in submitted)
    sent_by = {id(stanza): from_jid for stanza, from_jid in submitted}
    per_stanza = Counter()
    for stanza in stanza_sizings:
        if id(stanza) in sent_by:
            per_stanza[_unstamped(stanza, sent_by[id(stanza)])] += 1
        elif "_from" in stanza:  # a stamped copy, counted with its original
            per_stanza[_unstamped(stanza, stanza["_from"])] += 1
        else:  # presence: the switch's own, never submitted
            per_stanza[("server", id(stanza))] += 1
    assert len(submitted) > 100 and per_stanza
    over = {key: n for key, n in per_stanza.items() if n > allowed.get(key, 1)}
    assert not over, f"{len(over)} of {len(per_stanza)} stanzas sized more than once"


def test_each_payload_is_encoded_once_alone_and_once_per_stanza_carrying_it(counted):
    _, alone, inside, _, submitted = counted
    carriers = Counter(
        id(env.payload) for stanza, _ in submitted for env in _envelopes_in(stanza)
    )
    assert len(alone) > 50 and len(carriers) > 50
    assert max(alone.values()) == 1
    over = {key: n for key, n in inside.items() if n > carriers[key]}
    assert not over, f"{len(over)} of {len(inside)} payloads encoded past their stanzas"
