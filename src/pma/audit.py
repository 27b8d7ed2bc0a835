"""Exact privacy and security audits by coset comparison.

For a fixed secret, every audited view -- queries, answers, stored shares,
dealt masks -- is an affine map over GF(p) of the randomness the audit
ranges over: ``view(r) = A r + b``. With r uniform on GF(p)^dims, the view
is uniform on the coset ``b + colspace(A)``, each point with probability
``p^-rank(A)``. Two such views are therefore identically distributed
exactly when their cosets are equal, and that is a rank computation
rather than a walk over all ``p^dims`` assignments.

A coset law evaluates the view at 0 and at the ``dims`` unit vectors,
which gives ``b`` and the columns of ``A``, then checks the affine
prediction at a few more fixed points and raises if the view is not
affine there. The coset is kept in canonical form: the reduced row
echelon basis of ``colspace(A)`` plus ``b`` reduced against it. Every
audit splits its secrets into classes (an audit over every party's dataset
takes them from one enumerator, ``_all_datasets``) and compares their laws
through one path, ``_audit``, and a failed comparison names a concrete
view that lies in one coset and not the other. No sampling, no thresholds.
Views draw, pad, blind and deal only through the schemes' samplers, as
runs do, except lemma 6's type-I view (see ``audit_eavesdropper``).
Those draws never read the secret, so within one audit call each is
memoized per evaluation point (and theta) and every secret's law reads it.
Type-I answers read one row per party, so lemma 1 and 2 laws are joined
from per-party blocks, each evaluated once per call (``_party_joins``).
``enumerate_distribution`` keeps the exhaustive ``Fraction`` pmf as an
independent oracle for tests.

The audited claims, by identifier:

* lemma1 — symmetric privacy: given the queries and the count, the answer
  tuple's distribution does not depend on which other elements parties hold.
* lemma2 — blind estimation: given the count, the answer tuple's
  distribution does not depend on which parties hold the queried element.
* lemma3 — type-II collusion resistance: any T*N pooled queries are
  jointly independent of the queried index.
* lemma4 — type-I collusion resistance: any T queries within a party are
  jointly independent of the queried index.
* lemma5 — storage security: any T2*N stored shares of one party are
  jointly independent of its incidence vector.
* lemma6 — type-I eavesdropper security: up to Y tapped query/answer pairs
  of a party reveal nothing about the index, that party's contents, or the
  count.
* lemma7 — type-II eavesdropper security: tapped query/answer pairs reveal
  nothing about the aggregated contents.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from functools import cache, lru_cache, partial
from operator import mul
from typing import Callable, Iterable, Sequence

from . import pma1, spma2
from .errors import AuditInfeasibleError, IntegrityError, ParameterError
from .model import RandomSource, SchemeParams, query_vectors
from .transcript import Transcript

# view evaluations per audit case for the coset laws; assignments per
# call for enumerate_distribution
DEFAULT_CAP = 10_000_000
METHOD = "coset"


class _Cursor:
    """Hands out one flat randomness assignment in order. It stands in for
    a RandomSource, so views draw, pad and deal through the schemes' own
    samplers, and answer through their ``answer``, as runs do."""

    __slots__ = ("flat", "i")

    def __init__(self, flat):
        self.flat = flat
        self.i = 0

    def draw_vector(self, modulus, k):
        """The next k symbols of the assignment tuple; they are GF(p)
        elements already."""
        v = self.flat[self.i:self.i + k]
        if len(v) < k:
            raise IntegrityError(f"audit view draws {self.i + k} randomness symbols, "
                                 f"past the {len(self.flat)} of its assignment")
        self.i += k
        return v

    rows = RandomSource.rows  # one draw cut into rows, as from a RandomSource


def enumerate_distribution(view: Callable, dims: int, p: int,
                           cap: int = DEFAULT_CAP) -> dict:
    """Exact pmf of ``view(assignment)`` over all p**dims assignments."""
    total = p ** dims
    if total > cap:
        raise AuditInfeasibleError(
            f"enumeration needs {total} assignments ({dims} GF({p}) scalars), "
            f"cap is {cap}")
    counts = Counter()
    for assignment in itertools.product(range(p), repeat=dims):
        counts[view(assignment)] += 1
    return {v: Fraction(c, total) for v, c in sorted(counts.items())}


def _reduce(v, basis, pivots, p) -> list:
    """``v`` less its multiples of the echelon rows at their pivots."""
    v = list(v)
    for row, lead in zip(basis, pivots):
        if v[lead]:
            c = v[lead]
            v = [(x - c * y) % p for x, y in zip(v, row)]
    return v


@lru_cache(maxsize=128)
def _echelon(p: int, columns: tuple) -> tuple[tuple, tuple]:
    """The reduced row echelon basis of span(columns) over GF(p) and its
    pivots, in pivot order; memoized, so laws with equal columns reduce once."""
    basis, pivots = [], []
    for col in columns:
        v = _reduce(col, basis, pivots, p)
        lead = next((k for k, x in enumerate(v) if x), None)
        if lead is None:
            continue
        inv = pow(v[lead], -1, p)
        v = [x * inv % p for x in v]
        for i, row in enumerate(basis):
            if row[lead]:
                c = row[lead]
                basis[i] = [(x - c * y) % p for x, y in zip(row, v)]
        basis.append(v)
        pivots.append(lead)
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return tuple(tuple(basis[i]) for i in order), tuple(pivots[i] for i in order)


class Coset:
    """The law of an affine view: uniform on ``offset + span(basis)``.

    ``basis`` is the reduced row echelon basis of the span, with leading
    ones at ``pivots``, and ``offset`` is reduced against it (zero at every
    pivot). Both forms are unique, so two cosets are equal exactly when
    their bases and offsets are.
    """

    __slots__ = ("p", "basis", "pivots", "offset")

    def __init__(self, p: int, columns, offset) -> None:
        self.p = p
        self.basis, self.pivots = _echelon(p, tuple(map(tuple, columns)))
        self.offset = self.reduce(offset)

    def reduce(self, v) -> tuple:
        """The representative of ``v + span`` that is zero at every pivot."""
        return tuple(_reduce(v, self.basis, self.pivots, self.p))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def __eq__(self, other) -> bool:
        return (self.p, self.basis, self.offset) == (other.p, other.basis, other.offset)

    def __contains__(self, v) -> bool:
        return len(v) == len(self.offset) and self.reduce(v) == self.offset

    def outside(self, other: "Coset") -> tuple | None:
        """A view in this coset but not in ``other``; None if this coset
        lies inside ``other``."""
        if self.offset not in other:
            return self.offset
        for row in self.basis:
            v = tuple((x + y) % self.p for x, y in zip(self.offset, row))
            if v not in other:
                return v
        return None


@lru_cache(maxsize=64)
def _points(dims: int, p: int) -> tuple:
    """Where a coset law evaluates a view: 0, the unit vectors, three affinity probes."""
    zero = (0,) * dims
    return (zero, *(zero[:k] + (1,) + zero[k + 1:] for k in range(dims)),
            (1,) * dims, (p - 1,) * dims, tuple((7 * k + 3) % p for k in range(dims)))


class _Join:
    """A view that concatenates its blocks' views; the joins of one audit
    call share ``memo``, where ``coset_law`` keeps each block's affine data."""

    __slots__ = ("blocks", "memo")

    def __init__(self, blocks: tuple, memo: dict) -> None:
        self.blocks, self.memo = blocks, memo

    def __call__(self, assignment) -> tuple:
        return sum((block(assignment) for block in self.blocks), ())


def _affine(view: Callable, dims: int, p: int, audit: str) -> tuple:
    """``(columns, offset)`` of ``view`` in its ``dims`` GF(p) arguments; raises if not affine."""
    zero, *points = _points(dims, p)
    offset, columns = tuple(view(zero)), []
    for k, unit in enumerate(points[:dims]):
        v = view(unit)
        if len(v) != len(offset):
            raise IntegrityError(
                f"audit {audit}: view length changes from {len(offset)} to "
                f"{len(v)} at unit vector {k}")
        columns.append([(x - y) % p for x, y in zip(v, offset)])
    rows = [(b, row) for b, *row in zip(offset, *columns)]  # per view symbol
    for point in points[dims:]:
        predicted = [(b + sum(map(mul, point, row))) % p for b, row in rows]
        if list(view(point)) != predicted:
            raise IntegrityError(
                f"audit {audit}: view is not affine in its {dims} GF({p}) "
                f"randomness symbols; the affine prediction fails at "
                f"point {list(point)}")
    return columns, offset


def coset_law(view: Callable, dims: int, p: int, audit: str) -> Coset:
    """The coset on which ``view`` is uniform when its ``dims`` GF(p) arguments are,
    a ``_Join``'s from its blocks' memoized data; IntegrityError if it is not affine."""
    if type(view) is not _Join:
        return Coset(p, *_affine(view, dims, p, audit))
    memo = view.memo
    laws = [memo.get(b) or memo.setdefault(b, _affine(b, dims, p, audit)) for b in view.blocks]
    columns, offsets = zip(*laws)
    return Coset(p, [sum(column, []) for column in zip(*columns)], sum(offsets, ()))


def _party_joins(params: SchemeParams, draw: Callable) -> Callable:
    """``bits -> view``: the type-I answers on ``draw(assignment)``, (queries, masks, blinding),
    joined over parties i at row ``bits[i]``; the views share a block per (i, row) and a memo."""
    def block(assignment, i, row):
        queries, masks, blinding = draw(assignment)
        return pma1.answer(row, queries[i], masks[i], blinding[i], params)

    part, memo = cache(lambda i, row: partial(block, i=i, row=row)), {}
    return lambda bits: _Join(tuple(map(part, itertools.count(), bits)), memo)


@dataclass
class AuditResult:
    name: str
    lemma: str | None
    passed: bool
    detail: dict = dataclass_field(default_factory=dict)
    witness: dict | None = None
    dims: int = 0  # randomness dimension of the compared laws
    rank: int = 0  # largest rank of a compared law
    secrets: int = 0  # laws compared, up to the first class that differs


def _compare_all(laws: dict) -> dict | None:
    """None if every law in the mapping is identical, else a witness for
    the first difference: a view that one law gives probability
    ``p^-rank`` and the other probability 0."""
    items = list(laws.items())
    base_label, base = items[0]
    for label, law in items[1:]:
        if law != base:
            (label_a, a), (label_b, b) = (base_label, base), (label, law)
            view = a.outside(b)
            if view is None:  # a lies inside b, so b has the extra views
                (label_a, a), (label_b, b) = (label_b, b), (label_a, a)
                view = a.outside(b)
            return {
                "config_a": repr(label_a),
                "config_b": repr(label_b),
                "view": list(view),
                "prob_a": str(Fraction(1, a.p ** a.rank)),
                "prob_b": "0",
            }
    return None


def _audit(name: str, lemma: str | None, params: SchemeParams, dims: int,
           classes: Iterable[tuple[dict, list]], detail: dict,
           cap: int) -> AuditResult:
    """Every audit: within each class of secrets, all laws must be equal.

    ``classes`` yields ``(class detail, [(label, view), ...])``, each view a
    function of ``dims`` GF(p) randomness symbols. Laws are built one class
    at a time within ``cap`` view evaluations for the whole case, and the
    audit fails at the first class whose laws differ, with a witness and
    that class's detail added to the report's.
    """
    p = params.p
    per_law = len(_points(dims, p))
    detail = {**params.summary(), **detail}
    evaluations = rank = secrets = 0
    witness = None
    for class_detail, members in classes:
        laws = {}
        for label, view in members:
            evaluations += per_law
            if evaluations > cap:
                raise AuditInfeasibleError(
                    f"{name} needs more than {cap} view evaluations "
                    f"(the cap) for its coset laws")
            laws[label] = coset_law(view, dims, p, name)
            rank = max(rank, laws[label].rank)
            secrets += 1
        witness = _compare_all(laws)
        if witness is not None:
            detail = {**detail, **class_detail}
            break
    return AuditResult(name, lemma, witness is None, detail, witness, dims, rank, secrets)


def _taps(params: SchemeParams, dbs: Sequence[int]) -> tuple:
    """Checked 1-based database indices, each named once: within one party
    for the type-I variants (the query structure is identical across
    parties), global for type II."""
    limit = len(params.alphas_used)
    taps = tuple(dbs)
    for k, j in enumerate(taps):
        if not (type(j) is int and 1 <= j <= limit):
            raise ParameterError(f"database index {j!r} outside 1..{limit}")
        if j in taps[:k]:
            raise ParameterError(f"database index {j} named twice in {list(taps)}")
    return taps


def _all_datasets(m: int, e: int):
    """Every assignment of incidence bits to M parties over E elements."""
    return itertools.product(itertools.product((0, 1), repeat=e), repeat=m)


def _dealt_sums(params: SchemeParams):
    """Every aggregated bit-sum vector sigma with its storage, dealt by
    ``spma2.encode_storage`` at the fixed, nonzero noise (7l + 3k + 1) mod p."""
    p, e = params.p, params.e
    noise = tuple((7 * l + 3 * k + 1) % p for l in range(params.storage_depth)
                  for k in range(e))
    for sigma in itertools.product(range(params.m + 1), repeat=e):
        yield sigma, spma2.encode_storage(sigma, params, _Cursor(noise)).shares


# ---------------------------------------------------------------------------
# collusion resistance (lemma3 / lemma4)

def audit_query_privacy(params: SchemeParams, colluding_dbs: Sequence[int], *,
                        cap: int = DEFAULT_CAP) -> AuditResult:
    """Joint queries on the colluding databases must have the same exact
    distribution for every queried index.

    ``colluding_dbs`` are 1-based database indices: within party 1 for
    the type-I variants, global for type II. The queries are the scheme's
    ``gen_queries``, so type I ranges over every party's noise.
    """
    taps = _taps(params, colluding_dbs)
    scheme, lemma, parties = (spma2, "lemma3", 1) if params.is_type2 else \
        (pma1, "lemma4", params.m)

    def view(assignment, theta):
        queries = scheme.gen_queries(theta, params, _Cursor(assignment)).queries
        queries = queries if params.is_type2 else queries[0]
        return sum((queries[j - 1] for j in taps), ())  # taps' queries, joined

    members = [(("theta", theta), partial(view, theta=theta))
               for theta in range(1, params.e + 1)]
    return _audit("query-privacy", lemma, params, parties * params.mu * params.e,
                  [({}, members)], {"colluding_dbs": list(taps)}, cap)


# ---------------------------------------------------------------------------
# blind estimation (lemma2)

def audit_blind_estimation(params: SchemeParams, *, zero_masks: bool = False,
                           cap: int = DEFAULT_CAP) -> AuditResult:
    """For every queried index and count value, the answer tuple must be
    identically distributed across all placements of the queried element.

    The randomness covers the query noise together with the masks (and
    the per-party blinding for the symmetric variant): the user-privacy
    requirement conditions on the answers and the count only, so the
    user's own query randomness is marginalized here.
    """
    if params.is_type2:
        raise ParameterError("blind-estimation audit applies to the type-I variants")
    m, n, e, mu = params.m, params.n, params.e, params.mu

    @cache
    def draw(assignment, theta):
        cur = _Cursor(assignment)
        queries = pma1.gen_queries(theta, params, cur).queries
        masks = ((0,) * n,) * m if zero_masks else pma1.gen_masks(params, cur)
        return queries, masks, pma1.draw_party_noise(params, cur)

    def classes():
        # one class per (bits off theta, count at it); placements in order: columns descend
        for theta in range(1, e + 1):
            join = _party_joins(params, partial(draw, theta=theta))
            groups: dict[tuple, list] = {}
            for bits in _all_datasets(m, e):
                off = tuple(r[:theta - 1] + r[theta:] for r in bits)
                groups.setdefault((off, sum(r[theta - 1] for r in bits)), []).append(bits)
            for (_, kappa), members in sorted(groups.items()):
                if len(members) > 1:
                    yield {"kappa": kappa}, [(("theta", theta, "bits", bits), join(bits))
                                             for bits in reversed(members)]

    dims = m * mu * e + (0 if zero_masks else (m - 1) * n) + m * params.blinding_depth
    return _audit("blind-estimation", "lemma2", params, dims, classes(),
                  {"zero_masks": zero_masks}, cap)


# ---------------------------------------------------------------------------
# symmetric privacy (lemma1)

def audit_symmetric_privacy(params: SchemeParams, *, zero_blinding: bool = False,
                            cap: int = DEFAULT_CAP) -> AuditResult:
    """With the queries for index 1 fixed and the count given, the answer
    tuple must be identically distributed across every dataset
    configuration with that count.

    The check runs under two fixed query-noise realizations, all zeros and
    all ones, fed to the scheme's ``gen_queries``, and must hold for each.
    The blinding is the scheme's own draw; ``zero_blinding`` swaps it for
    zeros. The non-symmetric type-I scheme is accepted here so the suite
    can demonstrate that it fails.
    """
    m, e, mu = params.m, params.e, params.mu
    depth = 0 if zero_blinding else params.blinding_depth
    # secrets(queries): (label, kappa, view) per dataset secret at those queries
    if params.is_type2:
        scheme, dims = spma2, depth

        @cache
        def draw(assignment):
            return () if zero_blinding else \
                spma2.draw_global_noise(params, _Cursor(assignment))

        def view(assignment, ptildes, queries):
            return spma2.answer(ptildes, queries, draw(assignment), params)

        sums = list(_dealt_sums(params))  # answers read the datasets only through these

        def secrets(queries):
            return [(("sums", sigma), sigma[0], partial(view, ptildes=ptildes, queries=queries))
                    for sigma, ptildes in sums]
    else:
        scheme, dims = pma1, (m - 1) * params.n + m * depth

        @cache
        def draw(assignment):
            cur = _Cursor(assignment)
            masks = pma1.gen_masks(params, cur)
            return masks, (((),) * m if zero_blinding else pma1.draw_party_noise(params, cur))

        def secrets(queries):
            join = _party_joins(params, lambda assignment: (queries, *draw(assignment)))
            return [(("bits", bits), sum(row[0] for row in bits), join(bits))
                    for bits in _all_datasets(m, e)]

    def classes():
        for rlabel, value in (("zero", 0), ("one", 1)):
            queries = scheme.gen_queries(1, params, _Cursor((value,) * m * mu * e)).queries
            groups: dict[int, list] = {}
            for label, kappa, view in secrets(queries):
                groups.setdefault(kappa, []).append((("realization", rlabel, *label), view))
            for kappa, members in groups.items():
                yield {"kappa": kappa, "realization": rlabel}, members

    return _audit("symmetric-privacy", "lemma1", params, dims, classes(),
                  {"zero_blinding": zero_blinding}, cap)


# ---------------------------------------------------------------------------
# storage security (lemma5)

def audit_storage_security(params: SchemeParams, *, subset_size: int | None = None,
                           zero_storage_noise: bool = False,
                           cap: int = DEFAULT_CAP) -> AuditResult:
    """Any T2*N shares of one party must have the same exact joint
    distribution for every value of that party's incidence vector; that
    budget, not the depth under test, sizes the default subset."""
    if not params.is_type2:
        raise ParameterError("storage-security audit applies to the type-II variant")
    e, n_eff = params.e, params.n_eff
    size = params.t2 * params.n if subset_size is None else subset_size
    if not (type(size) is int and 1 <= size <= n_eff):
        raise ParameterError(f"share subset size {size!r} outside 1..{n_eff}")
    depth = 0 if zero_storage_noise else params.storage_depth
    silent = (0,) * (params.storage_depth * e)  # the control's storage noise

    def view(assignment, bits, subset):
        shares = spma2.encode_storage(bits, params, _Cursor(assignment or silent)).shares
        return sum((shares[j] for j in subset), ())

    def classes():
        for subset in itertools.combinations(range(n_eff), size):
            yield {"subset": [j + 1 for j in subset]}, [
                (("bits", bits), partial(view, bits=bits, subset=subset))
                for bits in itertools.product((0, 1), repeat=e)]

    return _audit("storage-security", "lemma5", params, depth * e, classes(),
                  {"subset_size": size, "zero_storage_noise": zero_storage_noise}, cap)


# ---------------------------------------------------------------------------
# eavesdropper security (lemma6 / lemma7)

def audit_eavesdropper(params: SchemeParams, taps: Sequence[int], *,
                       zero_masks: bool = False,
                       cap: int = DEFAULT_CAP) -> AuditResult:
    """Query/answer pairs on the tapped links must be identically
    distributed regardless of the queried index and of the protected
    contents.

    Type I taps name databases of party 1 (without loss of generality),
    and this view alone draws by itself, party 1's share only, since the
    full-round samplers would pad twice per evaluation: its query noise,
    blinding and mask vector, exact as one party's masks are marginally
    uniform under the zero-sum coupling. Type II taps name participating
    databases; the storage is dealt at a fixed noise realization since the
    blinding and query noise alone must carry the argument.
    """
    p, e, mu, n = params.p, params.e, params.mu, params.n
    taps = _taps(params, taps)
    depth = params.blinding_depth

    if params.is_type2:
        if zero_masks:
            raise ParameterError("zero_masks applies to the type-I variants, "
                                 "whose answers carry masks")

        @cache
        def draw(assignment, theta):
            cur = _Cursor(assignment)
            queries = spma2.gen_queries(theta, params, cur).queries
            return queries, spma2.draw_global_noise(params, cur)

        def view(assignment, theta, ptildes):
            queries, blinding = draw(assignment, theta)
            answers = spma2.answer(ptildes, queries, blinding, params)
            return sum(((*queries[j - 1], answers[j - 1]) for j in taps), ())

        members = [(("theta", theta, "sums", sigma),
                    partial(view, theta=theta, ptildes=ptildes))
                   for theta in range(1, e + 1) for sigma, ptildes in _dealt_sums(params)]
        lemma, dims = "lemma7", mu * e + depth
        detail = {"taps": list(taps)}
    else:
        @cache
        def draw(assignment, theta):
            cur = _Cursor(assignment)
            queries = query_vectors(theta, cur.rows(p, mu, e), params)
            mask = (0,) * n if zero_masks else cur.draw_vector(p, n)
            return queries, mask, cur.draw_vector(p, depth)

        def view(assignment, theta, bits):
            queries, mask, blinding = draw(assignment, theta)
            answers = pma1.answer(bits, queries, mask, blinding, params)
            return sum(((*queries[j - 1], answers[j - 1]) for j in taps), ())

        members = [(("theta", theta, "bits", bits), partial(view, theta=theta, bits=bits))
                   for theta in range(1, e + 1)
                   for bits in itertools.product((0, 1), repeat=e)]
        lemma, dims = "lemma6", mu * e + (0 if zero_masks else n) + depth
        detail = {"taps": list(taps), "zero_masks": zero_masks}
    return _audit("eavesdropper", lemma, params, dims, [({}, members)], detail, cap)


# ---------------------------------------------------------------------------
# inter-party dealing independence

def audit_interparty_dealing(params: SchemeParams, *, leak_incidence: bool = False,
                             cap: int = DEFAULT_CAP) -> AuditResult:
    """The only inter-party traffic in the type-I schemes is mask dealing:
    parties 1..M-1 send their free masks to party M. The payloads that
    ``pma1.emit_mask_events`` writes on those links must have a
    distribution that does not depend on any dataset.

    ``leak_incidence`` is the broken control: every sender also writes its
    incidence vector on its link to party M.
    """
    if params.is_type2:
        raise ParameterError("inter-party dealing audit applies to the type-I variants")
    m, n = params.m, params.n
    dealer = f"p{m}"
    links = {f"p{i}:{dealer}" for i in range(1, m)}

    @cache
    def draw(assignment):
        tr = Transcript()
        pma1.emit_mask_events(params, pma1.gen_masks(params, _Cursor(assignment)), tr)
        return tuple(v for ev in tr.events if ev.link in links for v in ev.values)

    def view(assignment, bits):
        # the leak follows the masks on the same links, as if emitted after them
        return draw(assignment) + (sum(bits[:m - 1], ()) if leak_incidence else ())

    members = [(("bits", bits), partial(view, bits=bits))
               for bits in _all_datasets(m, params.e)]
    return _audit("interparty-dealing-independence", None, params, (m - 1) * n,
                  [({}, members)], {"leak_incidence": leak_incidence}, cap)
