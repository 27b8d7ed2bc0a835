"""Record of every symbol sent on every link during a protocol run.

Feeds two consumers: cost accounting (symbols per category) and
eavesdropper views (query/answer payloads per link). Provisioning events
may bill symbols without carrying payloads; see the scheme modules for the
accounting conventions.
"""

from __future__ import annotations

import hashlib
import struct
from collections import Counter
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _string
from typing import NamedTuple, Sequence

from .errors import ParameterError

ROUND_SETUP = 0
ROUND_QUERY = 1
ROUND_ANSWER = 2

QUERY = "query"
ANSWER = "answer"
MASK_SHARE = "mask-share"
NOISE_SHARE = "noise-share"
STORAGE_SHARE = "storage-share"

_tuple_new = tuple.__new__  # builds an Event without the NamedTuple's Python-level __new__


class Event(NamedTuple):
    round: int
    sender: str
    receiver: str
    link: str
    category: str
    values: Sequence[int]  # bytes or a tuple of ints, see field
    symbols: int


class Transcript:
    def __init__(self) -> None:
        self.events: list[Event] = []

    def emit(self, round: int, sender: str, receiver: str, link: str,
             category: str, values=(), symbols: int | None = None) -> Event:
        if type(values) is not tuple and type(values) is not bytes:
            values = tuple(values)
        if symbols is None:
            symbols = len(values)
        if type(round) is not int or type(symbols) is not int:  # not a bool either
            raise ParameterError(f"event round and symbol count must be ints, "
                                 f"got {round!r} and {symbols!r}")
        ev = _tuple_new(Event, (round, sender, receiver, link, category, values, symbols))
        self.events.append(ev)
        return ev

    def symbols_by_category(self) -> Counter:
        """Symbols per link category, in one pass; an absent category reads 0."""
        tally = {}
        for _, _, _, _, category, _, symbols in self.events:
            tally[category] = tally.get(category, 0) + symbols
        return Counter(tally)

    def digest(self) -> str:
        """SHA-256 of a length-framed binary encoding of every event.

        Per event: the 8-byte little-endian length of a header, the header
        (json.dumps of [round, sender, receiver, link, category, symbols,
        value count], built without the encoder object and memoized), then a
        tag byte and the values. Tag 1: every value is in 0..255, one byte
        each; a bytes payload is hashed as it is, and a tuple takes this form
        exactly when bytes(values) succeeds. Tag 0: any other payload, as
        little-endian 64-bit words. Field elements always fit, since p <
        2^64; any other value raises struct.error. The encoding depends on
        the values only, never on whether they came as bytes or a tuple.
        All of it is hashed in one update.
        """
        parts = []
        frames = _frames(tuple([(r, s, d, link, c, symbols, len(values))
                                for r, s, d, link, c, values, symbols in self.events]))
        for frame, ev in zip(frames, self.events):
            values = ev.values
            try:  # a bytes payload is returned as it is, not copied
                parts += (frame, b"\x01", bytes(values))
            except (ValueError, TypeError):  # a value outside 0..255, or no int
                parts += (frame, b"\x00", struct.pack(f"<{len(values)}Q", *values))
        return hashlib.sha256(b"".join(parts)).hexdigest()


@lru_cache(maxsize=8)
def _frames(headers: tuple) -> tuple[bytes, ...]:
    """The frame of each (round, sender, receiver, link, category, symbols,
    value count) of a run, in order. Memoized per run shape, as
    ``model._upsilon`` is: runs of one shape repeat all their headers."""
    return tuple(_frame(*header) for header in headers)


def _frame(round, sender, receiver, link, category, symbols, count) -> bytes:
    """One event's length-framed header. ``emit`` admits int rounds and
    symbol counts only, so the header is what json.dumps writes."""
    header = (f"[{round}, {_string(sender)}, {_string(receiver)}, {_string(link)}, "
              f"{_string(category)}, {symbols}, {count}]").encode()
    return len(header).to_bytes(8, "little") + header
