"""Record of every symbol sent on every link during a protocol run.

Feeds two consumers: cost accounting (symbols per category) and
eavesdropper views (query/answer payloads per link). Provisioning events
may bill symbols without carrying payloads; see the scheme modules for the
accounting conventions.

The unit of record is a link group: one round's events of one category
from a sender to receivers, or from senders to a receiver (``emit_group``;
``emit`` records a group of one). ``events`` is built on read.
"""

from __future__ import annotations

import hashlib
import struct
from collections import Counter
from functools import lru_cache
from itertools import repeat
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
        # (key of _frames, payloads) per group: one name and count per payload
        self._groups: list[tuple] = []

    def emit(self, round: int, sender: str, receiver: str, link: str,
             category: str, values=(), symbols: int | None = None) -> Event:
        if type(values) is not tuple and type(values) is not bytes:
            values = tuple(values)
        if symbols is None:
            symbols = len(values)
        if type(round) is not int or type(symbols) is not int:  # not a bool either
            raise ParameterError(f"event round and symbol count must be ints, "
                                 f"got {round!r} and {symbols!r}")
        self._groups.append(((round, (sender,), (receiver,), (link,), category, (symbols,),
                              (len(values),)), (values,)))
        return _tuple_new(Event, (round, sender, receiver, link, category, values, symbols))

    def emit_group(self, round: int, senders, receivers, links, category: str,
                   payloads: Sequence) -> None:
        """Payload k (bytes or a tuple) goes from sender k to receiver k on link
        k and bills its length in symbols; a name is a str or one per payload."""
        payloads = tuple(payloads)
        k = len(payloads)
        names = [(x,) * k if type(x) is str else x for x in (senders, receivers, links)]
        if type(round) is not int or not {bytes, tuple}.issuperset(map(type, payloads)) \
                or {(type(x), len(x)) for x in names} != {(tuple, k)}:
            raise ParameterError(f"a group needs an int round, bytes or tuple payloads and "
                                 f"per name a str or {k} names; round {round!r}")
        counts = tuple(map(len, payloads))
        self._groups.append(((round, *names, category, counts, counts), payloads))

    @property
    def events(self) -> list[Event]:
        """Every event in order, one per payload, built on each read."""
        return [_tuple_new(Event, (r, s, d, ln, c, v, n))
                for (r, ss, ds, links, c, ns, _), payloads in self._groups
                for s, d, ln, v, n in zip(ss, ds, links, payloads, ns)]

    def symbols_by_category(self) -> Counter:
        """Symbols per link category, one sum per group; an absent category reads 0."""
        tally = {}
        for (_, _, _, _, category, symbols, _), _ in self._groups:
            tally[category] = tally.get(category, 0) + sum(symbols)
        return Counter(tally)

    def digest(self) -> str:
        """SHA-256 of a length-framed binary encoding of every event.

        Per event: the 8-byte little-endian length of a header, the header
        (json.dumps of [round, sender, receiver, link, category, symbols,
        value count], built without the encoder object and memoized per
        group shape), then a tag byte and the values. Tag 1: every value is
        in 0..255, one byte each; a bytes payload is hashed as it is, and a
        tuple takes this form exactly when bytes(values) succeeds. Tag 0:
        any other payload, as little-endian 64-bit words. Field elements
        always fit, since p < 2^64; any other value raises struct.error.
        The encoding depends on the values only, never on bytes against
        tuple nor on grouping. A payload whose first value is above 255
        takes the words without trying bytes(). One update hashes it all.
        """
        parts = []
        for key, payloads in self._groups:
            for frame, values in zip(_frames(*key), payloads):
                try:  # a bytes payload is returned as it is, not copied
                    if not values or values[0] < 256:
                        parts += (frame, b"\x01", bytes(values))
                        continue
                except (ValueError, TypeError):  # a later value outside 0..255, or no int
                    pass
                parts += (frame, b"\x00", struct.pack(f"<{len(values)}Q", *values))
        return hashlib.sha256(b"".join(parts)).hexdigest()


@lru_cache(maxsize=1024)
def _frames(round, senders, receivers, links, category, symbols, counts) -> tuple[bytes, ...]:
    """The frame of each event of a group, in order. Memoized per group
    shape, as ``model._upsilon`` is: runs of one shape repeat their groups."""
    return tuple(map(_frame, repeat(round), senders, receivers, links, repeat(category),
                     symbols, counts))


def _frame(round, sender, receiver, link, category, symbols, count) -> bytes:
    """One event's length-framed header. ``emit`` and ``emit_group`` admit
    int rounds and symbol counts only, so the header is what json.dumps writes."""
    header = (f"[{round}, {_string(sender)}, {_string(receiver)}, {_string(link)}, "
              f"{_string(category)}, {symbols}, {count}]").encode()
    return len(header).to_bytes(8, "little") + header
