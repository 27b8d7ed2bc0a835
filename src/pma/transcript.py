"""Record of every symbol sent on every link during a protocol run.

Feeds two consumers: cost accounting (symbols per category) and
eavesdropper views (query/answer payloads per link). Provisioning events
may bill symbols without carrying payloads; see the scheme modules for the
accounting conventions.
"""

from __future__ import annotations

import hashlib
import struct
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
        if type(values) is not bytes:
            values = tuple(values)
        if symbols is None:
            symbols = len(values)
        if type(round) is not int or type(symbols) is not int:  # not a bool either
            raise ParameterError(f"event round and symbol count must be ints, "
                                 f"got {round!r} and {symbols!r}")
        ev = Event(round, sender, receiver, link, category, values, symbols)
        self.events.append(ev)
        return ev

    def symbols_in(self, category: str) -> int:
        return sum(ev.symbols for ev in self.events if ev.category == category)

    def digest(self) -> str:
        """SHA-256 of a length-framed binary encoding of every event.

        Per event: the 8-byte little-endian length of a header, the header
        (json.dumps of [round, sender, receiver, link, category, symbols,
        value count], built without the encoder object and memoized), then
        a 0 tag byte and the values as little-endian 64-bit words. Field
        elements always fit, since p < 2^64; any other value raises
        struct.error. A bytes payload is widened to the same words.
        """
        h = hashlib.sha256()
        for ev in self.events:
            values = ev.values
            h.update(_frame(ev.round, ev.sender, ev.receiver, ev.link, ev.category,
                            ev.symbols, len(values)))
            if type(values) is bytes:
                words = bytearray(8 * len(values))
                words[::8] = values
                h.update(words)
            else:
                h.update(struct.pack(f"<{len(values)}Q", *values))
        return h.hexdigest()


@lru_cache(maxsize=512)
def _frame(round, sender, receiver, link, category, symbols, count) -> bytes:
    """One event's length-framed header and tag byte. Memoized: the events
    of every run of one shape repeat the same headers. ``emit`` admits int
    rounds and symbol counts only, so the header is what json.dumps writes."""
    header = (f"[{round}, {_string(sender)}, {_string(receiver)}, {_string(link)}, "
              f"{_string(category)}, {symbols}, {count}]").encode()
    return len(header).to_bytes(8, "little") + header + b"\x00"
