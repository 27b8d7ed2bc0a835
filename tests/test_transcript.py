"""Transcript digest: deterministic, and sensitive to every event field."""

import hashlib
import json
import struct

import pytest

from pma.transcript import ANSWER, QUERY, Transcript

BASE = dict(round=1, sender="user", receiver="d1", link="user:d1",
            category=QUERY, values=(3, 0, 2 ** 64 - 1), symbols=None)


def digest(*events):
    t = Transcript()
    for ev in events:
        t.emit(**ev)
    return t.digest()


def test_digest_deterministic():
    other = dict(BASE, sender="d1", receiver="user", category=ANSWER, values=(5,))
    assert digest(BASE, other) == digest(dict(BASE), dict(other))
    assert len(digest(BASE)) == 64
    assert digest() == digest()


@pytest.mark.parametrize("field,value", [
    ("round", 2), ("sender", "user2"), ("receiver", "d2"), ("link", "user:d2"),
    ("category", ANSWER), ("symbols", 4), ("values", (4, 0, 2 ** 64 - 1)),
    ("values", (3, 1, 2 ** 64 - 1)), ("values", (3, 0, 2 ** 64 - 2)),
    ("values", (3, 0)), ("values", ()),
])
def test_digest_changes_with_each_event_field(field, value):
    assert digest(dict(BASE, **{field: value})) != digest(BASE)


def reference_digest(events):
    """The documented encoding, built one value at a time."""
    out = b""
    for ev in events:
        values = ev["values"]
        symbols = len(values) if ev["symbols"] is None else ev["symbols"]
        header = json.dumps([ev["round"], ev["sender"], ev["receiver"], ev["link"],
                             ev["category"], symbols, len(values)]).encode()
        out += len(header).to_bytes(8, "little") + header
        out += b"\x00" + b"".join(v.to_bytes(8, "little") for v in values)
    return hashlib.sha256(out).hexdigest()


# names json.dumps escapes: a quote, a backslash, non-ASCII, control characters
ESCAPED = ('say "hi"', "back\\slash", "p\u00e9\u2603", '\\"\n\x7f')


def test_digest_matches_documented_encoding():
    events = [BASE, dict(BASE, values=(), symbols=7),
              dict(BASE, sender="p\u00e9", values=(1, 2 ** 63, 131))]
    assert digest(*events) == reference_digest(events)
    for name in ESCAPED:
        escaped = [dict(BASE, sender=name), dict(BASE, receiver=name, link=f"{name}:{name}"),
                   dict(BASE, category=name, values=(), symbols=2)]
        assert digest(*escaped) == reference_digest(escaped), name
    assert digest() == hashlib.sha256(b"").hexdigest()
    # only 64-bit words are encoded; field elements always are
    for values in ((2 ** 64,), (1, -1), (0.5,)):
        with pytest.raises(struct.error):
            digest(BASE, dict(BASE, values=values))


def test_digest_frames_values_per_event():
    # a fixed symbol count, so only the framing tells the events apart
    first, second = dict(BASE, values=(1, 2), symbols=3), dict(BASE, values=(3,), symbols=3)
    split = digest(first, second)
    assert split != digest(dict(first, values=(1,)), dict(second, values=(2, 3)))
    assert split != digest(dict(first, values=(1, 2, 3)), dict(second, values=()))
    assert split != digest(second, first)
    # header text cannot run into the next field
    assert digest(dict(BASE, sender="ab", receiver="c")) != \
        digest(dict(BASE, sender="a", receiver="bc"))
