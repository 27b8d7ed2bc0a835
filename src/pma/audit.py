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
audit splits its secrets into classes and compares their laws through one
path, ``_audit``, and a failed comparison names a concrete view that lies
in one coset and not the other. No sampling, no thresholds.
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
from functools import partial
from operator import mul
from typing import Callable, Iterable, Sequence

from . import pma1, spma1, spma2
from .errors import AuditInfeasibleError, IntegrityError, ParameterError
from .field import noise_pad_vector
from .model import SchemeParams, query_vectors
from .transcript import MASK_SHARE, ROUND_SETUP, Transcript

# view evaluations per audit case for the coset laws; assignments per
# call for enumerate_distribution
DEFAULT_CAP = 10_000_000
METHOD = "coset"


class _Cursor:
    """Hands out one flat randomness assignment in order. It stands in for
    a RandomSource, so views draw through the schemes' own samplers."""

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

    def rows(self, r, k):
        return tuple(self.draw_vector(None, k) for _ in range(r))


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
        self.basis = tuple(tuple(basis[i]) for i in order)
        self.pivots = tuple(pivots[i] for i in order)
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


def _probes(dims: int, p: int) -> tuple:
    """Fixed points beyond 0 and the unit vectors at which a coset law
    checks that the view is affine."""
    return ((1,) * dims, (p - 1,) * dims,
            tuple((7 * k + 3) % p for k in range(dims)))


def coset_law(view: Callable, dims: int, p: int, audit: str) -> Coset:
    """The coset on which ``view`` is uniform when its ``dims`` GF(p)
    arguments are; raises IntegrityError if the view is not affine."""
    zero = (0,) * dims
    offset = view(zero)
    columns = []
    for k in range(dims):
        v = view(zero[:k] + (1,) + zero[k + 1:])
        if len(v) != len(offset):
            raise IntegrityError(
                f"audit {audit}: view length changes from {len(offset)} to "
                f"{len(v)} at unit vector {k}")
        columns.append([(x - y) % p for x, y in zip(v, offset)])
    rows = [(b, row) for b, *row in zip(offset, *columns)]  # per view symbol
    for point in _probes(dims, p):
        predicted = [(b + sum(map(mul, point, row))) % p for b, row in rows]
        if list(view(point)) != predicted:
            raise IntegrityError(
                f"audit {audit}: view is not affine in its {dims} GF({p}) "
                f"randomness symbols; the affine prediction fails at "
                f"point {list(point)}")
    return Coset(p, columns, offset)


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
    per_law = 1 + dims + len(_probes(dims, p))
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
    """Checked 1-based database indices: within one party for the type-I
    variants (the query structure is identical across parties), global for
    type II."""
    limit = len(params.alphas_used)
    taps = tuple(dbs)
    for j in taps:
        if not 1 <= j <= limit:
            raise ParameterError(f"database index {j} outside 1..{limit}")
    return taps


def _all_datasets(m: int, e: int):
    """Every assignment of incidence bits to M parties over E elements."""
    return itertools.product(itertools.product((0, 1), repeat=e), repeat=m)


def _canonical_rows(depth: int, e: int, p: int) -> tuple:
    """A fixed, reproducible, not-all-zero noise realization."""
    return tuple(tuple((7 * l + 3 * k + 1) % p for k in range(e))
                 for l in range(depth))


# ---------------------------------------------------------------------------
# collusion resistance (lemma3 / lemma4)

def audit_query_privacy(params: SchemeParams, colluding_dbs: Sequence[int], *,
                        cap: int = DEFAULT_CAP) -> AuditResult:
    """Joint queries on the colluding databases must have the same exact
    distribution for every queried index.

    ``colluding_dbs`` are 1-based database indices: within one party for
    the type-I variants, global for type II.
    """
    taps = _taps(params, colluding_dbs)
    powers = [params.upsilon[j - 1] for j in taps]

    def view(assignment, theta):
        rows = _Cursor(assignment).rows(params.mu, params.e)
        return sum(query_vectors(theta, powers, rows, params), ())  # taps' queries, joined

    members = [(("theta", theta), partial(view, theta=theta))
               for theta in range(1, params.e + 1)]
    lemma = "lemma3" if params.is_type2 else "lemma4"
    return _audit("query-privacy", lemma, params, params.mu * params.e,
                  [({}, members)], {"colluding_dbs": list(taps)}, cap)


# ---------------------------------------------------------------------------
# blind estimation (lemma2)

def _bits_with_placement(gamma_flat, placement, theta, m, e):
    """Incidence vectors from fixed non-queried bits plus a placement of
    the queried element."""
    bits = []
    pos = 0
    for i in range(m):
        row = []
        for k in range(1, e + 1):
            if k == theta:
                row.append(1 if i in placement else 0)
            else:
                row.append(gamma_flat[pos])
                pos += 1
        bits.append(tuple(row))
    return tuple(bits)


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
    f = params.field
    m, n, e, mu = params.m, params.n, params.e, params.mu
    ups = params.upsilon
    zero = ((0,) * n,) * m

    def view(assignment, theta, bits):
        cur = _Cursor(assignment)
        queries = pma1.gen_queries(theta, params, cur).queries
        masks = zero if zero_masks else pma1.gen_masks(params, cur)
        blinding = pma1.draw_party_noise(params, cur)
        return tuple(spma1.answer(bits[i], queries[i][j], blinding[i], masks[i][j], ups[j], f)
                     for i in range(m) for j in range(n))

    def classes():
        for theta in range(1, e + 1):
            for gamma_flat in itertools.product((0, 1), repeat=m * (e - 1)):
                for kappa in range(m + 1):
                    placements = list(itertools.combinations(range(m), kappa))
                    if len(placements) < 2:
                        continue
                    yield {"kappa": kappa}, [
                        (("theta", theta, "gamma", gamma_flat, "placement", placement),
                         partial(view, theta=theta, bits=_bits_with_placement(
                             gamma_flat, placement, theta, m, e)))
                        for placement in placements]

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
    all ones, and must hold for each of them. The non-symmetric type-I
    scheme is accepted here so the suite can demonstrate that it fails.
    """
    f = params.field
    m, e, mu = params.m, params.e, params.mu
    ups = params.upsilon
    depth = 0 if zero_blinding else params.blinding_depth
    # secrets(rows) yields (label, kappa, view) per dataset secret, with
    # every query padded by the noise rows ``rows``
    if params.is_type2:
        n_eff = params.n_eff
        dims = depth
        xrows = _canonical_rows(params.storage_depth, e, f.p)

        def view(assignment, ptildes, queries):
            zp = _Cursor(assignment).draw_vector(f.p, depth)
            return tuple(spma2.answer(ptildes[nn], queries[nn], zp, ups[nn], f)
                         for nn in range(n_eff))

        def secrets(rows):
            queries = query_vectors(1, ups, rows, params)
            # answers read the datasets only through the aggregated
            # bit-sums, so range over those directly
            for sigma in itertools.product(range(m + 1), repeat=e):
                ptildes = noise_pad_vector(f, sigma, ups, xrows)
                yield ("sums", sigma), sigma[0], partial(view, ptildes=ptildes,
                                                         queries=queries)
    else:
        n = params.n
        dims = (m - 1) * n + m * depth

        def view(assignment, bits, queries):
            cur = _Cursor(assignment)
            masks = pma1.gen_masks(params, cur)
            blinding = cur.rows(m, depth)
            return tuple(spma1.answer(bits[i], queries[j], blinding[i], masks[i][j], ups[j], f)
                         for i in range(m) for j in range(n))

        def secrets(rows):
            # every party pads with the same rows, so its queries are alike
            queries = query_vectors(1, ups, rows, params)
            for bits in _all_datasets(m, e):
                yield (("bits", bits), sum(bits[i][0] for i in range(m)),
                       partial(view, bits=bits, queries=queries))

    def classes():
        for rlabel, value in (("zero", 0), ("one", 1)):
            groups: dict[int, list] = {}
            for label, kappa, view in secrets(((value,) * e,) * mu):
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
    """Any storage-depth-many shares of one party must have the same exact
    joint distribution for every value of that party's incidence vector."""
    if not params.is_type2:
        raise ParameterError("storage-security audit applies to the type-II variant")
    e, n_eff = params.e, params.n_eff
    size = params.storage_depth if subset_size is None else subset_size
    if not 1 <= size <= n_eff:
        raise ParameterError(f"share subset size {size} outside 1..{n_eff}")
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

    Type I taps name databases of one party (party 1 without loss of
    generality); the tapped party's mask vector is drawn directly, which
    is exact because any single party's masks are marginally uniform
    under the zero-sum coupling. Type II taps name participating databases;
    the storage noise is held at a fixed realization since the blinding and
    query noise alone must carry the argument.
    """
    f = params.field
    e, mu = params.e, params.mu
    taps = _taps(params, taps)
    powers = [params.upsilon[j - 1] for j in taps]
    depth = params.blinding_depth

    if params.is_type2:
        if zero_masks:
            raise ParameterError("zero_masks applies to the type-I variants, "
                                 "whose answers carry masks")
        m = params.m
        xrows = _canonical_rows(params.storage_depth, e, f.p)

        def view(assignment, theta, ptildes):
            cur = _Cursor(assignment)
            queries = spma2.gen_queries(theta, params, cur).queries
            zp = spma2.draw_global_noise(params, cur)
            out = []
            for j, ptilde, w in zip(taps, ptildes, powers):
                q = queries[j - 1]
                out.extend(q)
                out.append(spma2.answer(ptilde, q, zp, w, f))
            return tuple(out)

        members = []
        for theta in range(1, e + 1):
            for sigma in itertools.product(range(m + 1), repeat=e):
                ptildes = noise_pad_vector(f, sigma, powers, xrows)
                members.append((("theta", theta, "sums", sigma),
                                partial(view, theta=theta, ptildes=ptildes)))
        lemma, dims = "lemma7", mu * e + depth
        detail = {"taps": list(taps)}
    else:
        n = params.n
        zero_mask_vec = (0,) * n

        def view(assignment, theta, bits):
            cur = _Cursor(assignment)
            zrows = cur.rows(mu, e)
            svec = zero_mask_vec if zero_masks else cur.draw_vector(f.p, n)
            blinding = cur.draw_vector(f.p, depth)
            out = []
            for q, j, w in zip(query_vectors(theta, powers, zrows, params), taps, powers):
                out.extend(q)
                out.append(spma1.answer(bits, q, blinding, svec[j - 1], w, f))
            return tuple(out)

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

    def view(assignment, bits):
        tr = Transcript()
        pma1.emit_mask_events(params, pma1.gen_masks(params, _Cursor(assignment)), tr)
        if leak_incidence:
            for i in range(m - 1):
                tr.emit(ROUND_SETUP, f"p{i + 1}", dealer, f"p{i + 1}:{dealer}",
                        MASK_SHARE, bits[i])
        return tuple(v for ev in tr.events if ev.link in links for v in ev.values)

    members = [(("bits", bits), partial(view, bits=bits))
               for bits in _all_datasets(m, params.e)]
    return _audit("interparty-dealing-independence", None, params, (m - 1) * n,
                  [({}, members)], {"leak_incidence": leak_incidence}, cap)
