"""Transcript digest: deterministic, and sensitive to every event field;
link groups record exactly the events of their payloads."""

import hashlib
import json
import struct
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pma import spma1, transcript
from pma.errors import ParameterError
from pma.model import PartyDataset, RandomSource, make_params
from pma.transcript import ANSWER, MASK_SHARE, QUERY, Transcript, _frames

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


def group_events(round, senders, receivers, links, category, payloads):
    """The event dicts a link group stands for, one per payload."""
    def each(names):
        return [names] * len(payloads) if type(names) is str else list(names)
    return [dict(round=round, sender=s, receiver=d, link=link, category=category,
                 values=values, symbols=None)
            for s, d, link, values in zip(each(senders), each(receivers), each(links), payloads)]


def test_digest_memo_overflow_interleaved():
    """More group shapes than the frame memo holds, digested in turn, each
    evicting the next one's frames. The receivers of each group are a prefix
    of the next one's, cyclically, and every transcript opens with the same
    event and closes with the same group."""
    size = _frames.cache_parameters()["maxsize"]
    shared = (2, ("d1", "d2"), "user", "user:d", ANSWER, [(5,), (300,)])
    transcripts, expected = [], []
    for k in range(size + 2):
        receivers = tuple(f"d{j}" for j in range(k % 5 + 1))
        group = (1, f"p{k}", receivers, tuple(f"p{k}:{d}" for d in receivers), QUERY,
                 [(k % 300, j) for j in range(len(receivers))])
        tr = Transcript()
        tr.emit(**BASE)
        tr.emit_group(*group)
        tr.emit_group(*shared)
        transcripts.append(tr)
        expected.append([BASE, *group_events(*group), *group_events(*shared)])
    for _ in range(2):
        for tr, events in zip(transcripts, expected):
            assert tr.digest() == reference_digest(events)


def test_runs_of_one_shape_build_their_frames_once(monkeypatch):
    """spma1 at M = 4, T = 63: 256 databases, more than 512 distinct headers
    per run in 12 link groups, in the same order in every run. A second
    digest of a run, and the digest of a second run of its shape, build no
    frame."""
    params = make_params("spma1", 4, 2, t=63)
    datasets = [PartyDataset(frozenset({1}))] * 4
    first, second = (spma1.run(params, datasets, theta, RandomSource(5)).transcript
                     for theta in (1, 2))
    assert len({ev[:5] + (ev.symbols, len(ev.values)) for ev in first.events}) > 512
    assert len(first._groups) == 12
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


# payload kinds: bytes; tuples of values in 0..255; tuples with one value of
# 256 or more, at any position; and the payload-free events of emit
NAMES = st.sampled_from(("user", "d1", "p1.d2", "user:p1.d2") + ESCAPED)
NARROW = st.lists(st.integers(0, 255), max_size=5).map(tuple)
WIDE = st.tuples(NARROW, st.integers(256, 2 ** 64 - 1), st.integers(0, 5)).map(
    lambda t: t[0][:t[2]] + (t[1],) + t[0][t[2]:])
PAYLOADS = st.one_of(st.binary(max_size=5), NARROW, WIDE)


@st.composite
def calls(draw):
    """One emit_group call, with each name shared or one per payload, or
    one emit call, of a payload or of an empty one with a symbol count."""
    round, category = draw(st.integers(0, 3)), draw(st.sampled_from((QUERY, ANSWER, "x\u00e9")))
    if draw(st.booleans()):
        payloads = draw(st.lists(PAYLOADS, max_size=6))
        names = [draw(st.one_of(NAMES, st.lists(NAMES, min_size=len(payloads),
                                                max_size=len(payloads)).map(tuple)))
                 for _ in range(3)]
        return "group", (round, *names, category, payloads)
    values, symbols = draw(st.one_of(st.tuples(PAYLOADS, st.none()),
                                     st.tuples(st.just(()), st.integers(0, 9))))
    return "emit", dict(round=round, sender=draw(NAMES), receiver=draw(NAMES),
                        link=draw(NAMES), category=category, values=values, symbols=symbols)


@settings(max_examples=150)
@given(st.lists(calls(), max_size=6))
def test_groups_record_what_per_event_emits_record(sequence):
    grouped, flat, expected = Transcript(), Transcript(), []
    for kind, call in sequence:
        if kind == "group":
            grouped.emit_group(*call)
            events = group_events(*call)
        else:
            grouped.emit(**call)
            events = [call]
        for ev in events:
            flat.emit(**ev)
        expected += events
    assert grouped.events == flat.events
    assert grouped.digest() == flat.digest() == reference_digest(expected)
    tally = Counter()
    for ev in flat.events:
        tally[ev.category] += ev.symbols
    assert grouped.symbols_by_category() == tally


def test_a_group_with_a_value_outside_the_words_raises_struct_error():
    for values in ((2 ** 64,), (1, -1), (0.5,)):
        tr = Transcript()
        tr.emit_group(1, "user", ("d1", "d2", "d3"), ("l1", "l2", "l3"), QUERY,
                      [(1, 2), values, (300,)])
        with pytest.raises(struct.error):
            tr.digest()


@pytest.mark.parametrize("names", [(("d1",), "user", "l"), ("user", ("d1", "d2", "d3"), "l"),
                                   ("user", "d1", ["l1", "l2"])])
def test_emit_group_refuses_names_that_do_not_fit_its_payloads(names):
    with pytest.raises(ParameterError, match="a group needs"):
        Transcript().emit_group(1, *names, QUERY, [(1,), (2,)])


@pytest.mark.parametrize("round,payloads", [(True, [(1,)]), (1.0, [(1,)]), (1, [[1]]),
                                            (1, [bytearray(b"x")])])
def test_emit_group_refuses_non_int_rounds_and_other_payload_types(round, payloads):
    with pytest.raises(ParameterError, match="a group needs"):
        Transcript().emit_group(round, "user", "d1", "l", MASK_SHARE, payloads)
