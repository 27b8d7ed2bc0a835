"""Record of every symbol sent on every link during a protocol run.

Feeds two consumers: cost accounting (symbols per category) and
eavesdropper views (query/answer payloads per link). Provisioning events
may bill symbols without carrying payloads; see the scheme modules for the
accounting conventions.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _string

ROUND_SETUP = 0
ROUND_QUERY = 1
ROUND_ANSWER = 2

QUERY = "query"
ANSWER = "answer"
MASK_SHARE = "mask-share"
NOISE_SHARE = "noise-share"
STORAGE_SHARE = "storage-share"


@dataclass(frozen=True)
class Event:
    round: int
    sender: str
    receiver: str
    link: str
    category: str
    values: tuple[int, ...]
    symbols: int


class Transcript:
    def __init__(self) -> None:
        self.events: list[Event] = []

    def emit(self, round: int, sender: str, receiver: str, link: str,
             category: str, values=(), symbols: int | None = None) -> Event:
        values = tuple(values)
        ev = Event(round=round, sender=sender, receiver=receiver, link=link,
                   category=category, values=values,
                   symbols=len(values) if symbols is None else symbols)
        self.events.append(ev)
        return ev

    def symbols_in(self, category: str) -> int:
        return sum(ev.symbols for ev in self.events if ev.category == category)

    def digest(self) -> str:
        """SHA-256 of a length-framed binary encoding of every event.

        Per event: the 8-byte little-endian length of a header, the header
        (json.dumps of [round, sender, receiver, link, category, symbols,
        value count], built without the encoder object), then a 0 tag byte
        and the values as little-endian 64-bit words. Field elements always
        fit, since p < 2^64; any other value raises struct.error.
        """
        h = hashlib.sha256()
        for ev in self.events:
            header = (f"[{ev.round}, {_string(ev.sender)}, {_string(ev.receiver)}, "
                      f"{_string(ev.link)}, {_string(ev.category)}, {ev.symbols}, "
                      f"{len(ev.values)}]").encode()
            h.update(len(header).to_bytes(8, "little") + header + b"\x00")
            h.update(struct.pack(f"<{len(ev.values)}Q", *ev.values))
        return h.hexdigest()
