"""Transcript digest: deterministic, and sensitive to every event field."""

import hashlib
import json
import struct
from itertools import zip_longest

import pytest

from pma import spma1, transcript
from pma.errors import ParameterError
from pma.model import PartyDataset, RandomSource, make_params
from pma.transcript import ANSWER, QUERY, Transcript, _frames

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
        if all(0 <= v <= 255 for v in values):
            out += b"\x01" + b"".join(v.to_bytes(1, "little") for v in values)
        else:
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
    # the width tag: an empty payload, one value on each side of 255, and
    # long payloads of values below 256 (bytes) or with one 256 (words)
    long_bytes = tuple(range(256)) * 4
    for values in ((), (255,), (256,), long_bytes, long_bytes[:500] + (256,) + long_bytes[500:]):
        one = [dict(BASE, values=values)]
        assert digest(*one) == reference_digest(one), values[:3]
    assert digest(dict(BASE, values=(255,))) != digest(dict(BASE, values=(256,)))
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


def test_digest_memo_overflow_interleaved():
    """More run shapes than the frame memo holds, digested in turn, each
    evicting the next one's frames. Each shape from the second on is a
    prefix of the next, and the first shares its leading header with all."""
    size = _frames.cache_parameters()["maxsize"]
    shapes = [[dict(BASE, receiver=f"d{k}", values=(k,)) for k in range(count)]
              for count in range(1, size + 3)]
    shapes[0] += [dict(BASE, sender="d1", receiver="user", category=ANSWER, values=(k,))
                  for k in range(5)]
    transcripts = [Transcript() for _ in shapes]
    for events in zip_longest(*shapes):
        for tr, ev in zip(transcripts, events):
            if ev:
                tr.emit(**ev)
    for _ in range(2):
        for tr, events in zip(transcripts, shapes):
            assert tr.digest() == reference_digest(events)


def test_runs_of_one_shape_build_their_frames_once(monkeypatch):
    """spma1 at M = 4, T = 63: 256 databases, more than 512 distinct headers
    per run, in the same order in every run. A second digest of a run, and
    the digest of a second run of its shape, build no frame."""
    params = make_params("spma1", 4, 2, t=63)
    datasets = [PartyDataset(frozenset({1}))] * 4
    first, second = (spma1.run(params, datasets, theta, RandomSource(5)).transcript
                     for theta in (1, 2))
    assert len({ev[:5] + (ev.symbols, len(ev.values)) for ev in first.events}) > 512
    _frames.cache_clear()
    digest = first.digest()
    built, frame = [], transcript._frame
    monkeypatch.setattr(transcript, "_frame", lambda *header: built.append(header) or
                        frame(*header))
    assert first.digest() == digest != second.digest()
    events = [dict(zip(("round", "sender", "receiver", "link", "category", "values",
                        "symbols"), ev)) for ev in second.events]
    assert second.digest() == reference_digest(events)
    assert built == []


@pytest.mark.parametrize("field,value", [
    ("round", True), ("round", 1.0), ("round", "1"), ("symbols", False), ("symbols", 3.0),
])
def test_emit_refuses_non_int_round_and_symbols(field, value):
    # the header is documented as json.dumps writes it, which spells a bool
    # round "true" where an f-string writes "True"; only ints are admitted
    with pytest.raises(ParameterError, match="must be ints"):
        Transcript().emit(**dict(BASE, **{field: value}))
    _frames.cache_clear()
    as_int = dict(BASE, round=1, symbols=3)
    assert digest(as_int) == reference_digest([as_int])


@pytest.mark.parametrize("values", [(), (0,), (255,), (0, 1, 254, 255), tuple(range(256)) * 40])
def test_bytes_and_tuple_payloads_give_one_digest(values):
    # a bytes payload is kept as it is and hashed as a tuple of its values is
    kept = Transcript().emit(**dict(BASE, values=bytes(values))).values
    assert type(kept) is bytes and kept == bytes(values)
    assert type(Transcript().emit(**dict(BASE, values=list(values))).values) is tuple
    as_bytes, as_tuple = dict(BASE, values=bytes(values)), dict(BASE, values=values)
    assert digest(as_bytes) == digest(as_tuple) == reference_digest([as_tuple])
    assert digest(as_bytes, BASE, as_bytes) == digest(as_tuple, BASE, as_tuple)
