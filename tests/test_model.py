"""Parameter validation, datasets, incidence vectors, randomness source."""

import copy
import hashlib
import itertools
import json
import math
import pickle
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pma import model, pma1, spma1, spma2
from pma.errors import ParameterError
from pma.field import Upsilon
from pma.harness import RunConfig, run_protocol
from pma.model import (PartyDataset, RandomSource, auto_n, auto_p, generate_datasets,
                       incidence, load_datasets, make_params, query_vectors,
                       true_count)
from tests.oracles import ref_draw, ref_query_vectors, ref_stream

P1 = PartyDataset.from_members({1, 2, 3, 4, 5}, 5)
P2 = PartyDataset.from_members({2, 3, 4}, 5)


def test_validate_type1_examples():
    params = make_params("pma1", 3, 2, t=1, y=0, n=2)
    assert params.n == 2
    with pytest.raises(ParameterError, match="max\\(T, Y\\)"):
        make_params("pma1", 2, 2, t=1, y=1, n=1)


def test_validate_type2_example():
    params = make_params("spma2", 3, 2, t=1, y=(0, 0, 0), n=2)
    assert params.n_eff == 5  # 2 + max(2, 0) + 1
    assert params.m * params.n - params.n_eff == 1  # one database dropped


def test_n_eff_is_defined_for_type2_only():
    # type I: every one of the N databases of a party answers
    for variant in ("pma1", "spma1"):
        params = make_params(variant, 2, 2, t=1)
        with pytest.raises(ParameterError, match="type-II variant only"):
            params.n_eff
        assert len(params.alphas_used) == params.n


def test_type2_infeasible_named_inequality():
    with pytest.raises(ParameterError, match="T2\\*N"):
        make_params("spma2", 2, 2, t=1, y=0, n=1)


def test_type2_zero_budgets_need_n_plus_one():
    with pytest.warns(UserWarning, match="in the clear"):
        params = make_params("spma2", 2, 1, t=0, y=0)
    assert params.n_eff == params.n + 1


def test_p_must_exceed_m():
    with pytest.raises(ParameterError, match="p > M"):
        make_params("pma1", 3, 1, t=0, y=0, p=3)


def test_auto_n():
    assert auto_n("pma1", 4, 1, (0,) * 4) == 2
    assert auto_n("pma1", 4, 0, (2,) * 4) == 3
    assert auto_n("spma2", 3, 1, (0, 0, 0)) == 1
    with pytest.raises(ParameterError, match=r"M > T \+ T2: M=2, T=1, T2=1"):
        auto_n("spma2", 2, 1, (0, 0))
    # no ceiling on N: Y = 3000 at M - T2 = 2 needs N = 1501; only the
    # parameters are built, a run would build a 4502 x 4502 Upsilon
    assert auto_n("spma2", 3, 1, (3000, 0, 0)) == 1501
    assert make_params("spma2", 3, 2, t=1, y=[3000, 0, 0]).n == 1501


def test_auto_n_type2_is_the_least_feasible_count():
    for m, t, t2, y in itertools.product(range(2, 7), range(4), range(1, 4), range(13)):
        budgets = (y,) + (0,) * (m - 1)
        feasible = [n for n in range(1, 15) if m * n >= t2 * n + max(t * n, y) + 1]
        if feasible:
            assert auto_n("spma2", m, t, budgets, t2) == feasible[0]
        else:
            with pytest.raises(ParameterError, match="M > T"):
                auto_n("spma2", m, t, budgets, t2)


def test_auto_p_smallest_prime_above_bound():
    assert auto_p(2, 1) == 5  # max(2, 3) = 3 -> next prime
    assert auto_p(3, 2) == 11  # max(3, 7) = 7 -> next prime
    assert auto_p(6, 3) == 23  # strictly above MN+1 = 19 so alphas 1..MN work


def test_oversized_n_warns():
    with pytest.warns(UserWarning, match="extra databases"):
        with pytest.warns(UserWarning, match="in the clear"):
            make_params("pma1", 2, 2, t=0, y=0, n=3)


def test_degenerate_depth_warns():
    with pytest.warns(UserWarning, match="in the clear"):
        make_params("pma1", 2, 2, t=0, y=0)


class _FixedBytes(RandomSource):
    """A RandomSource whose hash calls hand out the given byte strings in
    turn, each cut to the length asked for; ``asked`` logs those lengths."""

    __slots__ = ("blocks", "asked")

    def __init__(self, *blocks):
        super().__init__(0)
        self.blocks, self.asked = list(blocks), []

    def _read(self, n):
        self._counter += 1
        self.asked.append(n)
        return self.blocks.pop(0)[:n]


def _threshold56(pk):
    """The membership bound on a 56-bit word: U' joins iff U' < it."""
    return 8 * math.ceil(pk * 2 ** 53)


def _lazy_blocks(words, probs):
    """The hash calls a party's 56-bit membership words take when read
    lazily: every first byte, then the 6-byte tails, in order, of the
    elements whose first byte equals their threshold's while its tail is
    not zero (no call if none)."""
    tied = [w for w, t in zip(words, map(_threshold56, probs))
            if w >> 48 == t >> 48 and t % 2 ** 48]
    return [bytes(w >> 48 for w in words)] + (
        [b"".join((w % 2 ** 48).to_bytes(6, "big") for w in tied)] if tied else [])


def _generate_from_words(words_by_party, probs, given=None):
    """generate_datasets on parties whose 56-bit membership words are
    given; also returns the byte counts it asked each hash call for."""
    blocks = [b for words in words_by_party for b in _lazy_blocks(words, probs)]
    rng = _FixedBytes(*blocks)
    params = make_params("pma1", len(words_by_party), len(probs), t=1)
    datasets = generate_datasets(params, probs if given is None else given, rng)
    assert rng.blocks == []  # every call read
    return datasets, rng.asked, [len(b) for b in blocks]


def test_membership_compares_words_with_the_exact_threshold():
    # 53-bit words U at and next to each threshold pk * 2^53, where an
    # integer threshold that rounds the wrong way would flip membership;
    # the 56-bit word read is 8U plus three low bits, which never count
    probs = [0.1, 1 / 3, 0.5, 2 / 3, 0.999999, 1e-300, 0.0, 1.0]
    below = [min(int(pk * 2 ** 53), 2 ** 53 - 1) for pk in probs]
    above = [min(u + 1, 2 ** 53 - 1) for u in below]
    words = [[8 * u + low for u in us] for us, low in ((below, 7), (above, 0))]
    datasets, asked, expected = _generate_from_words(words, probs)
    assert asked == expected
    for us, d in zip((below, above), datasets):
        assert d.members == {k + 1 for k, (u, pk) in enumerate(zip(us, probs))
                             if u < pk * 2 ** 53}
    # 0.5 up to 1 scale to integers (their ulp is 2^-53), so only 1, 2, 6, 8
    assert datasets[0].members == {1, 2, 6, 8}


@pytest.mark.parametrize("pk", [0.1, 1 / 3, 0.5, 0.999999, 1e-300, 0.0, 1.0, 0, 1])
def test_scalar_probability_compares_words_with_the_exact_threshold(pk):
    u0 = int(pk * 2 ** 53)
    near = [8 * u + low for u in (u0 - 1, u0, u0 + 1) if 0 <= u < 2 ** 53 for low in (0, 7)]
    datasets, asked, expected = _generate_from_words([near, near], [pk] * len(near), pk)
    assert asked == expected
    members = {k + 1 for k, w in enumerate(near) if w >> 3 < pk * 2 ** 53}
    assert [d.members for d in datasets] == [members, members]


@pytest.mark.parametrize("pk", [0, 1e-300, 0.1, 1 / 3, 0.5, 0.999999, 1])
def test_lazy_membership_compare_equals_the_full_compare(pk):
    # every first byte, each with the tails at the threshold's tail - 1, 0
    # and + 1: the first byte alone must decide all but the threshold's own,
    # and a tied one must read its tail and compare it as bytes
    t = _threshold56(pk)
    tails = sorted({min(max(t % 2 ** 48 + d, 0), 2 ** 48 - 1) for d in (-1, 0, 1)})
    words = [b << 48 | tail for b in range(256) for tail in tails]
    members = {k + 1 for k, w in enumerate(words) if w < t}
    ties = [6 * len(tails)] if t % 2 ** 48 else []  # 0, 0.5 and 1 tie nothing
    for given in (pk, [pk] * len(words)):  # one table, and per-element bounds
        datasets, asked, expected = _generate_from_words(
            [words, words[::-1]], [pk] * len(words), given)
        assert asked == expected == [len(words), *ties] * 2
        reversed_members = {len(words) + 1 - k for k in members}
        assert [d.members for d in datasets] == [members, reversed_members]


def test_lazy_membership_compare_takes_a_threshold_per_lane():
    # every probability above at once, interleaved, on the words above:
    # neighbouring elements are marked against different bounds
    cases = [(b << 48 | min(max(_threshold56(pk) % 2 ** 48 + d, 0), 2 ** 48 - 1), pk)
             for b in range(256) for pk in (0, 1e-300, 0.1, 1 / 3, 0.5, 0.999999, 1)
             for d in (-1, 0, 1)]
    words, probs = [w for w, _ in cases], [pk for _, pk in cases]
    datasets, asked, expected = _generate_from_words([words, words], probs)
    assert asked == expected
    members = {k + 1 for k, (w, pk) in enumerate(cases) if w < _threshold56(pk)}
    assert [d.members for d in datasets] == [members, members]


def test_membership_lanes_do_not_carry():
    # neighbouring elements at both ends of the range: first byte 0 at p = 1
    # (bounds 256: every byte joins) next to 255 at p = 0 (bounds 0: none
    # does), and a tie at p = 1/3 on its threshold itself between them
    probs = [1.0, 0.0, 1 / 3, 1.0, 0.0]
    words = [0, 2 ** 56 - 1, _threshold56(1 / 3), 2 ** 56 - 1, 0]
    datasets, asked, expected = _generate_from_words([words, words], probs)
    assert asked == expected == [5, 6, 5, 6]
    # p = 1 always joins and p = 0 never does, whatever the words
    assert [d.members for d in datasets] == [{1, 4}, {1, 4}]


def test_params_warnings_point_at_the_caller():
    with pytest.warns(UserWarning) as record:
        make_params("pma1", 2, 2, t=0, y=0, n=3)
    assert len(record) == 2  # extra databases and clear queries
    assert {w.filename for w in record} == {__file__}


def test_pma2_alias_resolves_to_type2():
    params = make_params("pma2", 3, 2, t=1, y=0)
    assert params.variant == "spma2"


def test_unknown_variant():
    for variant in ("pma3", ["pma1"], None):
        with pytest.raises(ParameterError, match="unknown variant"):
            make_params(variant, 2, 2)


def test_alphas_default_skips_p_minus_one():
    params = make_params("pma1", 2, 2, t=1, y=0, p=3)
    assert params.alphas_used == (1, 0)


def test_too_few_evaluation_points_named():
    # GF(5) offers the points 1, 2, 3 and 0 (4 = p-1 is never used)
    assert make_params("spma2", 4, 2, t=1, p=5).alphas_used == (1, 2, 3)
    with pytest.raises(ParameterError, match="only 4 usable evaluation points, need 6"):
        make_params("spma2", 4, 2, t=1, y=[0, 0, 3, 0], p=5)


def test_y_is_stored_per_party_for_every_variant():
    assert make_params("pma1", 3, 2, t=1, y=2).y == (2, 2, 2)
    assert make_params("spma1", 2, 2, t=1, y=[1, 1]).y == (1, 1)
    assert make_params("spma2", 3, 2, t=1, y=1).y == (1, 1, 1)
    assert make_params("spma2", 3, 2, t=1, y=[0, 2, 1]).y == (0, 2, 1)
    with pytest.raises(ParameterError, match="single eavesdropping budget"):
        make_params("pma1", 2, 2, t=1, y=[0, 1])
    with pytest.raises(ParameterError, match="single eavesdropping budget"):
        make_params("spma1", 2, 2, t=1, y=(1, 0))
    with pytest.raises(ParameterError, match="budgets must be 3"):
        make_params("spma2", 3, 2, t=1, y=(0, 0))


@pytest.mark.parametrize("variant", ["pma1", "spma1", "spma2"])
@pytest.mark.parametrize("y", [[1] * 5, [1], []])
def test_y_list_of_the_wrong_length_names_m(variant, y):
    # a type-I list repeats one value, but it still has one entry per party
    with pytest.raises(ParameterError, match=r"budgets must be 2 .*\(M=2\)"):
        make_params(variant, 2, 2, t=1, y=y)


@pytest.mark.parametrize("key,value", [
    ("m", "3"), ("m", 2.0), ("e", None), ("t", True), ("t2", "1"), ("n", 2.5),
    ("p", "7"), ("y", "1"), ("y", "00"), ("y", 1.5), ("y", [1.7, 0, 0]),
    ("y", -1), ("y", [0, None, 0]), ("y", {"a": 1}),
])
def test_raw_values_checked_before_n_and_p_are_derived(key, value):
    kwargs = {"m": 3, "e": 2, "t": 1, key: value}
    m, e = kwargs.pop("m"), kwargs.pop("e")
    with pytest.raises(ParameterError, match=f"^{key} must be"):
        make_params("spma2", m, e, **kwargs)


def test_lower_bounds_checked_before_n_and_p_are_derived():
    for kwargs, named in [({"m": 1}, "party count M"), ({"e": 0}, "universe size E"),
                          ({"t": -1}, "collusion budget T"),
                          ({"t2": 0}, "communicating-party count T2"),
                          ({"n": 0}, "database count N")]:
        args = {"m": 3, "e": 2, "t": 1, **kwargs}
        m, e = args.pop("m"), args.pop("e")
        with pytest.raises(ParameterError, match=f"{named} must be at least"):
            make_params("spma2", m, e, **args)


def test_p_past_the_sampler_range_named(monkeypatch):
    p = 18446744073709551629  # the smallest prime above 2^64
    with pytest.raises(ParameterError, match="field modulus p must be below 2\\^64"):
        make_params("pma1", 2, 3, t=1, p=p)
    # the largest prime below 2^64 is in range
    assert make_params("pma1", 2, 3, t=1, p=18446744073709551557).p < 2 ** 64
    # a derived p is checked before the 2^63 evaluation points are built
    monkeypatch.setattr("pma.model.default_alphas", lambda p, n: pytest.fail("points built"))
    with pytest.raises(ParameterError, match="field modulus p must be below 2\\^64"):
        make_params("pma1", 2, 3, t=1, n=2 ** 63)


@pytest.mark.parametrize("m", [2 ** 64 - 59, 2 ** 64])
def test_m_without_a_field_named_before_y_is_expanded(m):
    # p > M and p < 2^64, so no p exists from the largest prime below 2^64 on
    with pytest.raises(ParameterError, match="p > M is required"):
        make_params("pma1", m, 1)


def test_incidence_examples():
    assert incidence(P1, 5) == bytes((1, 1, 1, 1, 1))
    assert incidence(P2, 5) == bytes((0, 1, 1, 1, 0))
    assert incidence(PartyDataset.from_members(frozenset(), 3), 3) == bytes((0, 0, 0))


def test_incidence_bijection_small_universe():
    for members in map(frozenset, itertools.chain.from_iterable(
            itertools.combinations(range(1, 4), r) for r in range(4))):
        ds = PartyDataset.from_members(members, 3)
        assert ds.members == members and PartyDataset(incidence(ds, 3)) == ds


@st.composite
def dataset_sources(draw):
    """A generated or a loaded dataset source: (M, E, probs, seed), or a
    dataset dict over a universe of E names."""
    m, e = draw(st.integers(2, 4)), draw(st.integers(1, 12))
    if draw(st.booleans()):
        probs = draw(st.floats(0, 1) | st.lists(st.floats(0, 1), min_size=e, max_size=e))
        return m, e, probs, draw(st.integers(0, 2 ** 64 - 1))
    universe = [f"x{k}" for k in range(e)]
    parties = draw(st.lists(st.lists(st.sampled_from(universe), max_size=e),
                            min_size=m, max_size=m))
    return {"universe": universe[::-1], "parties": parties}


@given(dataset_sources())
def test_datasets_carry_their_incidence_vector(source):
    if isinstance(source, dict):
        e = len(source["universe"])
        datasets = load_datasets(source)[1]
    else:
        m, e, probs, seed = source
        rng = RandomSource(seed)
        datasets = generate_datasets(make_params("pma1", m, e, t=1), probs, rng)
        # one hash call per party, and one more for the tails of its ties
        assert m <= rng.position <= 2 * m
    for d in datasets:
        assert type(d.bits) is bytes and incidence(d, e) is d.bits  # one incidence type
        # a generated one builds its members here, once
        same = PartyDataset.from_members(d.members, e)
        assert same.bits == d.bits and d.members is d.members
        assert d == same and hash(d) == hash(same) and repr(d) == repr(same)
        with pytest.raises(AttributeError):
            d.bits = ()
        copied = pickle.loads(pickle.dumps(d))
        assert copied == d and copied.bits == d.bits


@pytest.mark.parametrize("e", [10, 10_000])
def test_generated_member_sets_are_exact_size_copies(e):
    # a frozenset built from an iterator keeps the over-allocated table of
    # its growth, twice the size at E = 10^4, p = 0.5
    d = generate_datasets(make_params("pma1", 2, e, t=1), 0.5, RandomSource(3))[0]
    assert sys.getsizeof(d.members) == sys.getsizeof(frozenset(set(d.members)))
    assert sys.getsizeof(d.members) < sys.getsizeof(frozenset(iter(d.members)))


@pytest.mark.parametrize("config", [
    RunConfig("pma1", m=3, e=40, t=1, theta=7, seed=1),
    RunConfig("spma1", m=3, e=20, t=2, seed=2),
    RunConfig("spma2", m=4, e=20, t=1, seed=3)])
def test_runs_on_generated_datasets_build_no_member_set(monkeypatch, config):
    # the oracle reads the carried incidence vector; only a reader of the
    # members, as the benchmark's own oracle, builds them
    reads = []
    members = PartyDataset.members
    monkeypatch.setattr(PartyDataset, "members",
                        property(lambda d: reads.append(d) or members.fget(d)))
    report = run_protocol(config)
    assert report["results"] and reads == []
    d = PartyDataset(bits=(0, 1, 1))
    assert true_count(2, [d], 3) == 1 and reads == []


@pytest.mark.parametrize("bits", [
    (0,) * 10 + (2,) + (0,) * 9, b"\0\1\2", (0, 1, 255), (0, 1, 256), (0, -1), [True, 2],
    (0, 1.0), "01", 3, True], ids=lambda b: repr(b)[:12])
def test_party_dataset_refuses_bits_other_than_0_and_1(bits):
    with pytest.raises(ParameterError, match="0s and 1s"):
        PartyDataset(bits=bits)


@pytest.mark.parametrize("build,error,match", [
    (lambda: PartyDataset({1}), ParameterError, "0s and 1s"),
    (lambda: PartyDataset(frozenset({1})), ParameterError, "0s and 1s"),
    (lambda: PartyDataset(members=frozenset({1})), TypeError, "members"),
    (lambda: PartyDataset.from_members({6}, 5), ParameterError, "6 outside universe 1..5"),
    (lambda: PartyDataset.from_members({2, -1}, 3), ParameterError, "-1 outside universe"),
    (lambda: PartyDataset.from_members({2, 1.0}, 3), ParameterError, "1.0 outside universe"),
    (lambda: PartyDataset.from_members({True}, 3), ParameterError, "True outside universe"),
    (lambda: incidence(PartyDataset(bits=(0, 1, 1)), 4), ParameterError, "span 3 elements"),
    (lambda: incidence(PartyDataset(bits=(0, 1, 1)), 2), ParameterError, "span 3 elements"),
    (lambda: true_count(2, [P1, PartyDataset(bits=(0, 1, 1))], 5), ParameterError,
     "span 3 elements"),
], ids=["set", "frozenset", "members-keyword", "member-above-e", "member-negative",
        "member-not-an-int", "member-bool", "incidence-longer-universe",
        "incidence-shorter-universe", "true-count-other-universe"])
def test_datasets_refuse_other_forms(build, error, match):
    # a dataset is its incidence bits: an unordered set would pass bytes()
    # in an arbitrary order, members come only through from_members, and
    # bits of another universe size are refused rather than read as members
    with pytest.raises(error, match=match):
        build()


@pytest.mark.parametrize("variant", ["pma1", "spma2"])
def test_runs_count_only_datasets_of_0_1_bits(variant):
    # a 2 among the bits once counted as a member (tuple path), carried
    # across byte lanes into a wrong count or an IntegrityError (bytes
    # path), or weighed a storage share twice (spma2); it is now refused
    # before any run, and the 1 in its place is counted once
    bad = (0,) * 10 + (2,) + (0,) * 9
    with pytest.raises(ParameterError, match="0s and 1s"):
        PartyDataset(bits=bad)
    params = make_params(variant, 3, 20, t=1)
    good = [PartyDataset(bits=tuple(min(b, 1) for b in bad)) for _ in range(2)]
    datasets = good + [PartyDataset(bytes(20))]
    assert all(type(d.bits) is bytes for d in good)
    scheme = pma1 if variant == "pma1" else spma2
    for seed in range(6):
        assert [scheme.run(params, datasets, theta, RandomSource(seed)).count
                for theta in (10, 11, 12)] == [0, 2, 0]


@pytest.mark.parametrize("p", [3, 23, 2 ** 61 - 1])
@pytest.mark.parametrize("e", [3, 20])  # the unit vector added in the pass, and after it
def test_query_vectors_match_the_reference(p, e):
    rng = RandomSource(p)
    with warnings.catch_warnings():  # t=0 makes clear queries
        warnings.simplefilter("ignore", UserWarning)
        params = make_params("pma1", 2, e, t=0, p=p)
    # depth 0 (clear queries), 1 and 2 take the row branch, depth E too;
    # E + 2 takes the packed deep branch; queries run over every point
    for depth in (0, 1, 2, e, e + 2):
        xs = (2, 1)[:2 if depth else 1]
        powers = Upsilon(p, [tuple(pow(x, k, p) for k in range(depth + 1)) for x in xs])
        vars(params)["upsilon"] = powers  # the points these queries are padded at
        rows = [rng.draw_vector(p, e) for _ in range(depth)]
        for theta in (1, e):
            queries = query_vectors(theta, rows, params)
            assert tuple(map(tuple, queries)) == \
                ref_query_vectors(theta, e, powers, rows, p), (depth, theta)
            lanes = 0 < depth <= e and e >= 16 and p <= 128  # the pad's lane path
            assert {type(q) for q in queries} == {bytes if lanes else tuple}


def test_true_count_examples():
    assert true_count(3, [P1, P2], 5) == 2
    assert true_count(1, [P1, P2], 5) == 1
    assert true_count(2, [PartyDataset(bytes(5))] * 4, 5) == 0


def test_true_count_matches_incidence_sum():
    rng = RandomSource(5)
    params = make_params("pma1", 3, 4, t=1, y=0)
    for _ in range(10):
        datasets = generate_datasets(params, 0.5, rng)
        for theta in range(1, 5):
            expected = sum(incidence(d, 4)[theta - 1] for d in datasets)
            assert true_count(theta, datasets, 4) == expected


def test_true_count_range_check():
    with pytest.raises(ParameterError):
        true_count(0, [P1], 5)
    with pytest.raises(ParameterError):
        true_count(6, [P1], 5)


def test_unit_vector():
    # a query without noise is the unit vector of the queried index
    params = make_params("pma1", 2, 3, t=1)
    assert query_vectors(1, (), params) == ((1, 0, 0),) * 2
    assert query_vectors(3, (), params) == ((0, 0, 1),) * 2
    with pytest.raises(ParameterError):
        query_vectors(4, (), params)


def test_generate_extremes_and_determinism():
    params = make_params("pma1", 3, 4, t=1, y=0)
    full = generate_datasets(params, 1.0, RandomSource(0))
    assert all(d.members == frozenset(range(1, 5)) for d in full)
    empty = generate_datasets(params, 0.0, RandomSource(0))
    assert all(d.members == frozenset() for d in empty)
    a = generate_datasets(params, 0.5, RandomSource(42))
    b = generate_datasets(params, 0.5, RandomSource(42))
    assert a == b


def ref_memberships(params, probs, seed):
    """The membership rule U / 2^53 < p_k, element by element, for the
    53-bit U = U' >> 3 of a 56-bit word U'. Each party's hash call gives
    the first bytes of its words. Where the rule holds for every tail or
    for none the first byte decides; the others read their 6-byte tails,
    in order, from the party's next hash call."""
    plist = [probs] * params.e if isinstance(probs, (int, float)) else probs
    datasets, counter = [], 0
    for _ in range(params.m):
        first = ref_stream(seed, counter, params.e)
        counter += 1
        joins = {}
        for k, (b, pk) in enumerate(zip(first, plist)):
            low, high = ((b << 48 | tail) >> 3 < pk * 2 ** 53 for tail in (0, 2 ** 48 - 1))
            if low == high:
                joins[k] = low
        tied = [k for k in range(params.e) if k not in joins]
        if tied:
            tails = ref_stream(seed, counter, 6 * len(tied))
            counter += 1
            for j, k in enumerate(tied):
                word = first[k] << 48 | int.from_bytes(tails[6 * j:6 * j + 6], "big")
                joins[k] = word >> 3 < plist[k] * 2 ** 53
        datasets.append(PartyDataset([joins[k] for k in range(params.e)]))
    return datasets, counter


def test_generate_matches_float_rule():
    params = make_params("pma1", 4, 300, t=1, y=0)
    # per-element probabilities: a ramp, subnormal and near-1 values, and
    # thresholds whose first byte equals the first party's first byte at
    # seeds 7 and 42, so that those elements read their tails
    edges = [k / 300 for k in range(300)]
    edges[:6] = [5e-324, 2.0 ** -53, 1 - 2.0 ** -53, 1.0, 0.0, 2.0 ** -1022]
    for seed in (7, 42):
        first = ref_stream(seed, 0, 300)
        for k in range(6 + seed % 2, 300, 4):
            edges[k] = ((first[k] << 45) + k * 0x9E3779B97F % 2 ** 45) / 2 ** 53
    for seed in (0, 1, 7, 42, 2 ** 40):
        for probs in (0, 0.0, 0.5, 1, 1.0, 0.3, edges):
            rng = RandomSource(seed)
            got = generate_datasets(params, probs, rng)
            assert (got, rng.position) == ref_memberships(params, probs, seed), (seed, probs)


def test_generate_prob_validation():
    params = make_params("pma1", 2, 3, t=1, y=0)
    with pytest.raises(ParameterError):
        generate_datasets(params, 1.5, RandomSource(0))
    with pytest.raises(ParameterError):
        generate_datasets(params, [0.5, 0.5], RandomSource(0))


@pytest.mark.parametrize("probs,named", [
    ("0.5", "'0.5'"),
    (None, "None"),
    (["a", "b", "c"], "'a'"),
    ([0.5, None, 0.5], "None"),
    ([0.5, float("nan"), 0.5], "nan"),
    (-0.25, "-0.25"),
], ids=["string", "none", "letters", "none-entry", "nan-entry", "negative"])
def test_generate_names_the_bad_probability(probs, named):
    params = make_params("pma1", 2, 3, t=1, y=0)
    rng = RandomSource(0)
    with pytest.raises(ParameterError, match="membership probabilit") as info:
        generate_datasets(params, probs, rng)
    assert named in str(info.value)
    assert rng.position == 0  # rejected before any draw


def test_random_source_determinism_and_range():
    a = RandomSource(123)
    b = RandomSource(123)
    seq_a = [a.draw_vector(31, 1)[0] for _ in range(64)]
    seq_b = [b.draw_vector(31, 1)[0] for _ in range(64)]
    assert seq_a == seq_b
    assert all(0 <= v < 31 for v in seq_a)
    assert a.position == b.position
    assert RandomSource(124).draw_vector(31, 1)[0] != seq_a[0] or \
        [RandomSource(124).draw_vector(31, 1)[0] for _ in range(8)] != seq_a[:8]


def test_random_source_rejects_bad_modulus():
    with pytest.raises(ParameterError):
        RandomSource(0).draw_vector(0, 1)
    for k in (0, 1, 5):
        with pytest.raises(ParameterError):
            RandomSource(0).draw_vector(0, k)


def test_draw_vector_exact_rejection_refills():
    # 2^64 mod (2^63 + 1) = 2^63 - 1, so about half the words are rejected
    modulus, k = 2 ** 63 + 1, 64
    a, b = RandomSource(7), RandomSource(7)
    vec = a.draw_vector(modulus, k)
    assert len(vec) == k and all(0 <= v < modulus for v in vec)
    assert vec == b.draw_vector(modulus, k)
    assert (vec, a.position) == ref_draw(7, modulus, k)
    assert a.position > 1
    assert a.draw_vector(modulus, k) != vec and a.position > b.position


@pytest.mark.parametrize("modulus", [
    *(2 ** b for b in range(1, 65)), 3, 131, 2 ** 14 + 1, 32749, 32771, 2 ** 61 - 1,
    2 ** 63 + 1],
    ids=lambda m: f"2^{m.bit_length() - 1}" if m & (m - 1) == 0 else str(m))
def test_draw_vector_matches_the_per_word_reference(modulus):
    # consecutive draws from one source, an empty one first: an empty draw
    # makes no hash call, whatever the modulus; a draw of 16 values or more
    # is bytes at a modulus up to 128, any other a tuple
    rng, counter = RandomSource(11), 0
    for k in (0, 1, 7, 100):
        expected, counter = ref_draw(11, modulus, k, counter)
        drawn = rng.draw_vector(modulus, k)
        assert (tuple(drawn), rng.position) == (expected, counter), k
        assert type(drawn) is (bytes if k >= 16 and modulus <= 128 else tuple)


def test_draw_vector_modulus_one_gives_zeros():
    rng = RandomSource(3)
    assert rng.draw_vector(1, 4) == (0, 0, 0, 0)
    assert rng.draw_vector(1, 1)[0] == 0
    assert rng.draw_vector(5, 0) == ()
    assert rng.position == 0  # nothing to hash


def test_draw_vector_rejects_negative_length():
    with pytest.raises(ParameterError):
        RandomSource(0).draw_vector(5, -1)


@settings(max_examples=10)
@given(st.integers(0, 2 ** 64 - 1))
def test_byte_lane_draws_match_the_per_word_reference(seed):
    # every modulus on both sides of the byte-lane bound 128, at lengths on
    # both sides of the lane length bound 16 and of 256, one source each
    for modulus in range(2, 132):
        rng, counter = RandomSource(seed), 0
        for k in (15, 16, 17, 64, 255, 256, 257, 600):
            expected, counter = ref_draw(seed, modulus, k, counter)
            drawn = rng.draw_vector(modulus, k)
            assert (tuple(drawn), rng.position) == (expected, counter)
            assert type(drawn) is (bytes if k >= 16 and modulus <= 128 else tuple)


@pytest.mark.parametrize("modulus", [23, 127, 128])
def test_byte_draws_reject_and_refill(modulus):
    bound = 256 - 256 % modulus  # 253, 254 and 256
    first = bytes(range(256)) + bytes(range(44))  # 300 bytes, every value
    rejected = len([b for b in first if b >= bound])  # 3, 2 and none
    refill = bytes(range(256))
    rng = _FixedBytes(first, refill)
    drawn = rng.draw_vector(modulus, 300)
    assert drawn == bytes(b % modulus for b in (first + refill) if b < bound)[:300]
    # the refill reads one byte per value still missing, from the next call
    assert rng.asked == ([300, rejected] if rejected else [300])
    # a call of nothing but rejected bytes is made up from the next ones,
    # in a long draw and in a short one, which is a tuple of the same values
    every = bytes(range(256))
    for k, form in ((200, bytes), (15, tuple)):
        rng = _FixedBytes(b"\xff" * k, every, every)
        drawn = rng.draw_vector(modulus, k)
        if modulus == 128:  # 255 is kept: 2^8 mod 128 = 0
            assert drawn == form((127,) * k) and rng.asked == [k]
        else:
            assert drawn == form(b % modulus for b in every[:k]) and rng.asked == [k, k]


def test_load_datasets_maps_sorted_universe(tmp_path):
    obj = {"universe": ["a", "b", "c", "d", "e"],
           "parties": [["a", "b", "c", "d", "e"], ["b", "c", "d"]]}
    path = tmp_path / "data.json"
    path.write_text(json.dumps(obj))
    universe, datasets = load_datasets(str(path))
    assert universe == ("a", "b", "c", "d", "e")
    assert datasets[0] == P1
    assert datasets[1] == P2


def test_load_datasets_unsorted_universe_sorted_first():
    obj = {"universe": ["c", "a", "b"], "parties": [["c"], []]}
    _, datasets = load_datasets(obj)
    assert datasets[0].members == frozenset({3})


def test_load_datasets_unreadable_file_names_path_and_reason(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(ParameterError, match="No such file") as info:
        load_datasets(str(missing))
    assert str(missing) in str(info.value)
    bad = tmp_path / "bad.json"
    bad.write_text('{"universe": ["a"],')
    with pytest.raises(ParameterError, match="not valid JSON") as info:
        load_datasets(bad)
    assert str(bad) in str(info.value)


def test_load_datasets_names_offender():
    with pytest.raises(ParameterError, match="'z'"):
        load_datasets({"universe": ["a", "b"], "parties": [["z"]]})
    with pytest.raises(ParameterError, match="duplicate"):
        load_datasets({"universe": ["a", "a"], "parties": [[]]})
    with pytest.raises(ParameterError):
        load_datasets({"universe": ["a"]})


@pytest.mark.parametrize("parties", ["a", {"a": ["a"]}, [["a"], "a"], [("a",)], [None]],
                         ids=["string", "dict", "string-entry", "tuple-entry", "null-entry"])
def test_load_datasets_refuses_parties_other_than_a_list_of_lists(parties):
    with pytest.raises(ParameterError, match="parties must be a list of element lists"):
        load_datasets({"universe": ["a"], "parties": parties})


def test_upsilon_shared_by_one_shape():
    ups = make_params("pma1", 3, 4, t=1, p=11).upsilon
    assert make_params("pma1", 3, 4, t=1, p=11).upsilon is ups
    assert make_params("spma1", 4, 9, t=1, p=11).upsilon is ups  # same p and points
    assert type(ups) is Upsilon and ups.p == 11 and all(type(row) is tuple for row in ups)
    assert make_params("pma1", 3, 4, t=1, p=13).upsilon is not ups  # equal entries
    assert len(make_params("pma1", 3, 4, t=3, p=11).upsilon) == 4


def test_runs_of_one_shape_invert_upsilon_once(upsilon_builds):
    # N = 4: the blinding has depth 3, past the one-entry base, so its pad
    # reads packed columns too
    model._upsilon.cache_clear()
    for seed in (1, 2):
        run_protocol(RunConfig("spma1", m=2, e=2, t=3, seed=seed))
    ups = make_params("spma1", 2, 2, t=3).upsilon
    assert [(kind, matrix is ups, depth) for kind, matrix, depth in upsilon_builds] == \
        [("pack", True, 3), ("inverse", True, None)]


@pytest.mark.parametrize("variant,scheme", [("pma1", pma1), ("spma1", spma1), ("spma2", spma2)])
def test_params_and_runs_survive_pickle_and_deepcopy(variant, scheme):
    # with Upsilon's packed inverse and packed columns built: each one int
    # per column, with no copy of the inverse by rows; copies carry both
    params = make_params(variant, 3, 2, t=1)
    run = scheme.run(params, [PartyDataset(b"\1\1")] * 3, 2, RandomSource(4))
    ups = params.upsilon
    built = ups.inverse, ups.packed(1)
    assert [type(column) for column in built[0][0]] == [int] * len(ups)
    for copied in (pickle.loads(pickle.dumps((params, run))), copy.deepcopy((params, run))):
        copied_params, copied_run = copied
        for p in (copied_params, copied_run.params):
            assert p == params and type(p.upsilon) is Upsilon and p.upsilon.p == params.p
            assert {"inverse", "_packed"} <= set(vars(p.upsilon))  # carried, not rebuilt
            assert p.upsilon == ups and (p.upsilon.inverse, p.upsilon.packed(1)) == built
        assert (copied_run.count, copied_run.answers) == (3, run.answers)
