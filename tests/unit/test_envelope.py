"""Unit tests for the envelope pipeline: freeze, cache, encode."""

import copy
import json

import pytest

from repro.core.envelope import (
    Envelope,
    FrozenDict,
    FrozenList,
    MessageError,
    canonical_json,
    freeze_message,
    thaw_message,
)


# ---------------------------------------------------------------------------
# Validation and freezing
# ---------------------------------------------------------------------------


def test_freeze_validates_with_path():
    with pytest.raises(MessageError) as exc:
        freeze_message({"outer": {"inner": object()}})
    assert "$.outer.inner" in str(exc.value)
    with pytest.raises(MessageError):
        freeze_message({1: "non-string key"})


def test_frozen_view_reads_like_plain_containers():
    payload = freeze_message({"a": [1, {"b": None}], "c": "x"})
    assert isinstance(payload, dict)
    assert isinstance(payload["a"], list)
    assert payload == {"a": [1, {"b": None}], "c": "x"}
    assert sorted(payload) == ["a", "c"]
    assert json.loads(json.dumps(payload)) == {"a": [1, {"b": None}], "c": "x"}


def test_frozen_containers_reject_mutation():
    payload = freeze_message({"list": [1], "map": {"k": "v"}})
    with pytest.raises(MessageError):
        payload["new"] = 1
    with pytest.raises(MessageError):
        del payload["map"]
    with pytest.raises(MessageError):
        payload["list"].append(2)
    with pytest.raises(MessageError):
        payload["list"].sort()
    with pytest.raises(MessageError):
        payload["map"].update(x=1)
    with pytest.raises(MessageError):
        payload["map"].pop("k")


def test_copy_escape_hatches_give_plain_mutable_objects():
    payload = freeze_message({"list": [1], "map": {"k": "v"}})
    shallow = payload.copy()
    assert type(shallow) is dict
    shallow["new"] = 1  # top-level mutation is fine on the shallow copy

    deep = thaw_message(payload)
    assert type(deep) is dict and type(deep["list"]) is list
    deep["list"].append(2)
    assert payload["list"] == [1]

    via_deepcopy = copy.deepcopy(payload)
    assert type(via_deepcopy) is dict
    via_deepcopy["list"].append(2)
    assert payload["list"] == [1]


def test_freeze_short_circuits_frozen_subtrees():
    inner = freeze_message({"deep": [1, 2, 3]})
    outer = freeze_message({"wrap": inner})
    assert outer["wrap"] is inner


# ---------------------------------------------------------------------------
# Envelope caching
# ---------------------------------------------------------------------------


def test_wrap_is_idempotent():
    env = Envelope.wrap({"a": 1})
    assert Envelope.wrap(env) is env


def test_json_and_size_are_computed_once_and_cached():
    env = Envelope.wrap({"b": 1, "a": "é"})
    first = env.json
    assert first == '{"a":"é","b":1}'
    assert env.json is first  # cached string, not a re-serialization
    assert env.wire_size == len(first.encode("utf-8"))


def test_envelope_equality_with_raw_trees():
    env = Envelope.wrap({"a": (1, 2)})
    assert env == {"a": [1, 2]}
    assert env == Envelope.wrap({"a": [1, 2]})
    assert not (env == {"a": [1, 2, 3]})


def test_envelope_copy_is_deep_and_mutable():
    env = Envelope.wrap({"list": [1]})
    clone = thaw_message(env)
    clone["list"].append(2)
    assert env.payload == {"list": [1]}


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------


def test_canonical_json_splices_cached_envelope_text():
    env = Envelope.wrap({"b": 2, "a": 1})
    _ = env.json  # warm the cache
    stanza = {"kind": "env", "seq": 7, "payload": env}
    text = canonical_json(stanza)
    assert text == '{"kind":"env","payload":{"a":1,"b":2},"seq":7}'
    assert json.loads(text) == {"kind": "env", "seq": 7, "payload": {"a": 1, "b": 2}}


def test_canonical_json_matches_plain_dumps_for_plain_trees():
    tree = {"z": [1, {"y": None}], "a": "é"}
    assert canonical_json(tree) == json.dumps(
        tree, separators=(",", ":"), sort_keys=True, ensure_ascii=False
    )


def test_canonical_json_envelope_in_list_stanza():
    envs = [Envelope.wrap({"n": i}) for i in range(3)]
    text = canonical_json({"batch": envs})
    assert json.loads(text) == {"batch": [{"n": 0}, {"n": 1}, {"n": 2}]}


def test_canonical_json_rejects_bad_stanza_with_path():
    with pytest.raises(MessageError) as exc:
        canonical_json({"payload": Envelope.wrap({"a": 1}), "bad": object()})
    assert "$.bad" in str(exc.value)
