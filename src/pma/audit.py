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
audit compares the laws of its secrets through one path, and a failed
comparison names a concrete view that lies in one coset and not the
other. No sampling, no thresholds. ``enumerate_distribution`` keeps the
exhaustive ``Fraction`` pmf as an independent oracle for tests.

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
from typing import Callable, Sequence

from . import pma1, spma1, spma2
from .errors import AuditInfeasibleError, IntegrityError, ParameterError
from .field import noise_pad_scalar, noise_pad_vector
from .model import SchemeParams, query_vector
from .transcript import MASK_SHARE, ROUND_SETUP, Transcript

# view evaluations per audit case for the coset laws; assignments per
# call for enumerate_distribution
DEFAULT_CAP = 10_000_000
METHOD = "coset"

DistributionMap = dict


class _Cursor:
    """Slices one flat randomness assignment into noise/mask structures."""

    __slots__ = ("flat", "i")

    def __init__(self, flat):
        self.flat = flat
        self.i = 0

    def vec(self, k):
        v = self.flat[self.i:self.i + k]
        self.i += k
        return tuple(v)

    def rows(self, r, k):
        return tuple(self.vec(k) for _ in range(r))


def enumerate_distribution(view: Callable, dims: int, p: int,
                           cap: int = DEFAULT_CAP) -> DistributionMap:
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
        columns.append(tuple((x - y) % p for x, y in zip(v, offset)))
    for point in _probes(dims, p):
        predicted = list(offset)
        for x, col in zip(point, columns):
            if x:
                predicted = [(a + x * c) % p for a, c in zip(predicted, col)]
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
    assignments: int  # sum of p**dims over the compared laws
    detail: dict = dataclass_field(default_factory=dict)
    witness: dict | None = None
    dims: int = 0  # largest randomness dimension of a compared law
    rank: int = 0  # largest rank of a compared law
    secrets: int = 0  # secret values whose laws were compared

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lemma": self.lemma,
            "verdict": "pass" if self.passed else "fail",
            "method": METHOD,
            "enumerated_assignments": self.assignments,
            "dims": self.dims,
            "rank": self.rank,
            "secrets": self.secrets,
            "params": self.detail,
            "witness": self.witness,
        }


class _Laws:
    """Laws of one audit case, one per secret value, within a budget of
    ``cap`` view evaluations, and the tallies its report carries."""

    def __init__(self, name: str, p: int, cap: int) -> None:
        self.name, self.p, self.cap = name, p, cap
        self.evaluations = self.assignments = 0
        self.dims = self.rank = self.secrets = 0

    def law(self, view: Callable, dims: int) -> Coset:
        self.evaluations += 1 + dims + len(_probes(dims, self.p))
        if self.evaluations > self.cap:
            raise AuditInfeasibleError(
                f"{self.name} needs more than {self.cap} view evaluations "
                f"(the cap) for its coset laws")
        law = coset_law(view, dims, self.p, self.name)
        self.assignments += self.p ** dims
        self.dims = max(self.dims, dims)
        self.rank = max(self.rank, law.rank)
        self.secrets += 1
        return law

    def result(self, lemma: str | None, witness: dict | None,
               detail: dict) -> AuditResult:
        return AuditResult(
            name=self.name, lemma=lemma, passed=witness is None,
            assignments=self.assignments, detail=detail, witness=witness,
            dims=self.dims, rank=self.rank, secrets=self.secrets)


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


def _all_datasets(m: int, e: int):
    """Every assignment of incidence bits to M parties over E elements."""
    return itertools.product(itertools.product((0, 1), repeat=e), repeat=m)


def _canonical_rows(depth: int, e: int, p: int) -> tuple:
    """A fixed, reproducible, not-all-zero noise realization."""
    return tuple(tuple((7 * l + 3 * k + 1) % p for k in range(e))
                 for l in range(depth))


def _scaled_rows(depth: int, e: int, value: int) -> tuple:
    return tuple(((value,) * e) for _ in range(depth))


# ---------------------------------------------------------------------------
# collusion resistance (lemma3 / lemma4)

def audit_query_privacy(params: SchemeParams, colluding_dbs: Sequence[int], *,
                        cap: int = DEFAULT_CAP) -> AuditResult:
    """Joint queries on the colluding databases must have the same exact
    distribution for every queried index.

    ``colluding_dbs`` are 1-based database indices: within one party for
    the type-I variants (the query structure is identical across parties),
    global for type II.
    """
    f = params.field
    alphas = params.alphas_used
    limit = params.n_eff if params.is_type2 else params.n
    taps = tuple(colluding_dbs)
    for j in taps:
        if not 1 <= j <= limit:
            raise ParameterError(f"database index {j} outside 1..{limit}")
    dims = params.mu * params.e
    laws = _Laws("query-privacy", f.p, cap)

    def make_view(theta):
        def view(assignment):
            cur = _Cursor(assignment)
            rows = cur.rows(params.mu, params.e)
            out = []
            for j in taps:
                out.extend(query_vector(theta, alphas[j - 1], rows, params))
            return tuple(out)
        return view

    dists = {("theta", theta): laws.law(make_view(theta), dims)
             for theta in range(1, params.e + 1)}
    lemma = "lemma3" if params.is_type2 else "lemma4"
    return laws.result(lemma, _compare_all(dists),
                       {**params.summary(), "colluding_dbs": list(taps)})


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
                           thetas: Sequence[int] | None = None,
                           cap: int = DEFAULT_CAP) -> AuditResult:
    """For every count value, the answer tuple must be identically
    distributed across all placements of the queried element.

    The randomness covers the query noise together with the masks (and
    the per-party blinding for the symmetric variant): the user-privacy
    requirement conditions on the answers and the count only, so the
    user's own query randomness is marginalized here.
    """
    if params.is_type2:
        raise ParameterError("blind-estimation audit applies to the type-I variants")
    blinded = params.variant == "spma1"
    f = params.field
    m, n, e, mu = params.m, params.n, params.e, params.mu
    alphas = params.alphas_used
    z_dims = m * mu * e
    s_dims = 0 if zero_masks else (m - 1) * n
    zp_dims = m * (n - 1) if blinded else 0
    dims = z_dims + s_dims + zp_dims
    thetas = list(range(1, e + 1)) if thetas is None else list(thetas)
    zero_free = tuple(((0,) * n) for _ in range(m - 1))
    laws = _Laws("blind-estimation", f.p, cap)

    for theta in thetas:
        for gamma_flat in itertools.product((0, 1), repeat=m * (e - 1)):
            for kappa in range(m + 1):
                placements = list(itertools.combinations(range(m), kappa))
                if len(placements) < 2:
                    continue
                dists = {}
                for placement in placements:
                    bits = _bits_with_placement(gamma_flat, placement, theta, m, e)

                    def view(assignment, bits=bits, theta=theta):
                        cur = _Cursor(assignment)
                        noise = tuple(cur.rows(mu, e) for _ in range(m))
                        free = zero_free if zero_masks else cur.rows(m - 1, n)
                        masks = pma1.masks_from_free(params, free)
                        zrows = cur.rows(m, n - 1) if blinded else None
                        out = []
                        for i in range(m):
                            for j in range(n):
                                q = query_vector(theta, alphas[j], noise[i], params)
                                if blinded:
                                    a = spma1.answer(bits[i], q, zrows[i],
                                                     masks[i][j], alphas[j], f)
                                else:
                                    a = pma1.answer(bits[i], q, masks[i][j], f)
                                out.append(a)
                        return tuple(out)

                    dists[("theta", theta, "gamma", gamma_flat,
                           "placement", placement)] = laws.law(view, dims)
                witness = _compare_all(dists)
                if witness is not None:
                    return laws.result(
                        "lemma2", witness,
                        {**params.summary(), "zero_masks": zero_masks, "kappa": kappa})
    return laws.result("lemma2", None,
                       {**params.summary(), "zero_masks": zero_masks})


# ---------------------------------------------------------------------------
# symmetric privacy (lemma1)

def _type1_noise_realizations(params: SchemeParams):
    zero = tuple(tuple((0,) * params.e for _ in range(params.mu))
                 for _ in range(params.m))
    ones = tuple(tuple((1,) * params.e for _ in range(params.mu))
                 for _ in range(params.m))
    return (("zero", zero), ("one", ones))


def _type2_noise_realizations(params: SchemeParams):
    return (("zero", _scaled_rows(params.mu, params.e, 0)),
            ("one", _scaled_rows(params.mu, params.e, 1)))


def audit_symmetric_privacy(params: SchemeParams, *, zero_blinding: bool = False,
                            thetas: Sequence[int] = (1,),
                            cap: int = DEFAULT_CAP) -> AuditResult:
    """With the queries fixed and the count given, the answer tuple must be
    identically distributed across every dataset configuration with that
    count.

    The check runs under several fixed query-noise realizations and must
    hold for each of them. The non-symmetric type-I scheme is accepted here
    so the suite can demonstrate that it fails.
    """
    f = params.field
    m, e = params.m, params.e
    alphas = params.alphas_used
    laws = _Laws("symmetric-privacy", f.p, cap)
    # secrets(theta, noise) yields (label, kappa, view) per dataset secret
    if params.is_type2:
        n_eff = params.n_eff
        dims = 0 if zero_blinding else n_eff - 1
        zero_zp = (0,) * (n_eff - 1)
        xrows = _canonical_rows(params.storage_depth, e, f.p)

        def secrets(theta, zrows):
            queries = [query_vector(theta, alphas[nn], zrows, params)
                       for nn in range(n_eff)]
            # answers read the datasets only through the aggregated
            # bit-sums, so range over those directly
            for sigma in itertools.product(range(m + 1), repeat=e):
                ptildes = [noise_pad_vector(f, sigma, alphas[nn], xrows)
                           for nn in range(n_eff)]

                def view(assignment, ptildes=ptildes):
                    cur = _Cursor(assignment)
                    zp = zero_zp if zero_blinding else cur.vec(n_eff - 1)
                    return tuple(
                        spma2.answer(ptildes[nn], queries[nn], zp, alphas[nn], f)
                        for nn in range(n_eff))

                yield ("sums", sigma), sigma[theta - 1], view
        realizations = _type2_noise_realizations(params)
    else:
        blinded = params.variant == "spma1" and not zero_blinding
        n = params.n
        dims = (m - 1) * n + (m * (n - 1) if blinded else 0)

        def secrets(theta, noise):
            queries = [[query_vector(theta, alphas[j], noise[i], params)
                        for j in range(n)] for i in range(m)]
            for bits in _all_datasets(m, e):
                base = [[f.dot(bits[i], queries[i][j]) for j in range(n)]
                        for i in range(m)]

                def view(assignment, base=base):
                    cur = _Cursor(assignment)
                    masks = pma1.masks_from_free(params, cur.rows(m - 1, n))
                    zrows = cur.rows(m, n - 1) if blinded else None
                    out = []
                    for i in range(m):
                        for j in range(n):
                            a = base[i][j]
                            if blinded:
                                a = noise_pad_scalar(f, a, alphas[j], zrows[i])
                            out.append(f.add(a, masks[i][j]))
                    return tuple(out)

                yield ("bits", bits), sum(bits[i][theta - 1] for i in range(m)), view
        realizations = _type1_noise_realizations(params)

    for theta in thetas:
        for rlabel, noise in realizations:
            groups: dict[int, dict] = {}
            for label, kappa, view in secrets(theta, noise):
                groups.setdefault(kappa, {})[("realization", rlabel, *label)] = \
                    laws.law(view, dims)
            for kappa, dists in groups.items():
                witness = _compare_all(dists)
                if witness is not None:
                    return laws.result(
                        "lemma1", witness,
                        {**params.summary(), "zero_blinding": zero_blinding,
                         "kappa": kappa, "realization": rlabel})
    return laws.result("lemma1", None,
                       {**params.summary(), "zero_blinding": zero_blinding})


# ---------------------------------------------------------------------------
# storage security (lemma5)

def audit_storage_security(params: SchemeParams, *, subset_size: int | None = None,
                           zero_storage_noise: bool = False,
                           cap: int = DEFAULT_CAP) -> AuditResult:
    """Any storage-depth-many shares of one party must have the same exact
    joint distribution for every value of that party's incidence vector."""
    if not params.is_type2:
        raise ParameterError("storage-security audit applies to the type-II variant")
    f = params.field
    depth, e, n_eff = params.storage_depth, params.e, params.n_eff
    alphas = params.alphas_used
    size = depth if subset_size is None else subset_size
    if not 1 <= size <= n_eff:
        raise ParameterError(f"share subset size {size} outside 1..{n_eff}")
    dims = 0 if zero_storage_noise else depth * e
    zero_rows = _scaled_rows(depth, e, 0)
    laws = _Laws("storage-security", f.p, cap)
    detail = {**params.summary(), "subset_size": size,
              "zero_storage_noise": zero_storage_noise}
    for subset in itertools.combinations(range(n_eff), size):
        dists = {}
        for bits in itertools.product((0, 1), repeat=e):

            def view(assignment, bits=bits, subset=subset):
                cur = _Cursor(assignment)
                rows = zero_rows if zero_storage_noise else cur.rows(depth, e)
                out = []
                for j in subset:
                    out.extend(noise_pad_vector(f, bits, alphas[j], rows))
                return tuple(out)

            dists[("bits", bits)] = laws.law(view, dims)
        witness = _compare_all(dists)
        if witness is not None:
            return laws.result("lemma5", witness,
                               {**detail, "subset": [j + 1 for j in subset]})
    return laws.result("lemma5", None, detail)


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
    alphas = params.alphas_used
    taps = tuple(taps)
    limit = params.n_eff if params.is_type2 else params.n
    for j in taps:
        if not 1 <= j <= limit:
            raise ParameterError(f"database index {j} outside 1..{limit}")
    laws = _Laws("eavesdropper", f.p, cap)
    dists = {}

    if params.is_type2:
        n_eff, e, m, mu = params.n_eff, params.e, params.m, params.mu
        dims = mu * e + n_eff - 1
        xrows = _canonical_rows(params.storage_depth, e, f.p)
        for theta in range(1, e + 1):
            for sigma in itertools.product(range(m + 1), repeat=e):
                ptildes = {j: noise_pad_vector(f, sigma, alphas[j - 1], xrows)
                           for j in taps}

                def view(assignment, theta=theta, ptildes=ptildes):
                    cur = _Cursor(assignment)
                    zrows = cur.rows(mu, e)
                    zp = cur.vec(n_eff - 1)
                    out = []
                    for j in taps:
                        q = query_vector(theta, alphas[j - 1], zrows, params)
                        out.extend(q)
                        out.append(spma2.answer(ptildes[j], q, zp, alphas[j - 1], f))
                    return tuple(out)

                dists[("theta", theta, "sums", sigma)] = laws.law(view, dims)
        return laws.result("lemma7", _compare_all(dists),
                           {**params.summary(), "taps": list(taps)})

    blinded = params.variant == "spma1"
    n, e, mu = params.n, params.e, params.mu
    dims = mu * e + (0 if zero_masks else n) + ((n - 1) if blinded else 0)
    zero_mask_vec = (0,) * n
    for theta in range(1, e + 1):
        for bits in itertools.product((0, 1), repeat=e):

            def view(assignment, theta=theta, bits=bits):
                cur = _Cursor(assignment)
                zrows = cur.rows(mu, e)
                svec = zero_mask_vec if zero_masks else cur.vec(n)
                zprow = cur.vec(n - 1) if blinded else None
                out = []
                for j in taps:
                    q = query_vector(theta, alphas[j - 1], zrows, params)
                    out.extend(q)
                    if blinded:
                        a = spma1.answer(bits, q, zprow, svec[j - 1], alphas[j - 1], f)
                    else:
                        a = pma1.answer(bits, q, svec[j - 1], f)
                    out.append(a)
                return tuple(out)

            dists[("theta", theta, "bits", bits)] = laws.law(view, dims)
    return laws.result("lemma6", _compare_all(dists),
                       {**params.summary(), "taps": list(taps), "zero_masks": zero_masks})


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
    f = params.field
    m, n = params.m, params.n
    dealer = f"p{m}"
    links = {f"p{i}:{dealer}" for i in range(1, m)}
    laws = _Laws("interparty-dealing-independence", f.p, cap)
    dists = {}
    for bits in _all_datasets(m, params.e):

        def view(assignment, bits=bits):
            tr = Transcript()
            pma1.emit_mask_events(
                params, pma1.masks_from_free(params, _Cursor(assignment).rows(m - 1, n)),
                tr)
            if leak_incidence:
                for i in range(m - 1):
                    tr.emit(ROUND_SETUP, f"p{i + 1}", dealer, f"p{i + 1}:{dealer}",
                            MASK_SHARE, bits[i])
            return tuple(v for ev in tr.events if ev.link in links for v in ev.values)

        dists[("bits", bits)] = laws.law(view, (m - 1) * n)
    return laws.result(None, _compare_all(dists),
                       {**params.summary(), "leak_incidence": leak_incidence})

