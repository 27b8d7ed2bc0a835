"""GF(p) arithmetic and the evaluation-matrix solver."""

import itertools
import random
from itertools import compress
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pma import pma1
from pma.errors import IntegrityError, ParameterError
from pma.field import (LaneMask, PrimeField, Upsilon, build_upsilon, default_alphas,
                       is_prime, masked_lane_sum, noise_pad_vector, solve_linear)
from pma.model import RandomSource, make_params, query_vectors
from tests.oracles import ref_blinding


def mat_vec(field, m, v):
    return tuple(field.dot(row, v) for row in m)


def determinant(field, m):
    """Per-element elimination; 0 exactly when m is singular over GF(p)."""
    n = len(m)
    work = [[field.check(x) for x in row] for row in m]
    p = field.p
    det = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det % p
        det = (det * work[col][col]) % p
        inv = pow(work[col][col], -1, p)
        for r in range(col + 1, n):
            if work[r][col]:
                factor = (work[r][col] * inv) % p
                work[r] = [(a - factor * b) % p for a, b in zip(work[r], work[col])]
    return det % p


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(-3, 32):
        assert is_prime(n) == (n in primes)


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    for n in range(5000):
        assert is_prime(n) == trial(n), n
    # Carmichael numbers and a strong pseudoprime to bases 2, 3, 5 and 7
    for n in (561, 41041, 825265, 3215031751):
        assert not is_prime(n)
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 64 - 59)
    assert not is_prime(2 ** 61 + 1) and not is_prime((2 ** 31 - 1) ** 2)
    with pytest.raises(ParameterError):
        is_prime(2 ** 89 - 1)


def test_inverse_cancels_for_all_nonzero():
    # a 1 x 1 Upsilon is ((1,),) at any point; no plain matrix is solved,
    # not even that one
    f = PrimeField(31)
    for alpha in range(31):
        assert solve_linear(f, build_upsilon(f, (alpha,)), [5]) == [5]
    for a in range(1, 31):
        with pytest.raises(ParameterError, match="only an Upsilon"):
            solve_linear(f, [[a]], [1])
    # at the points 0 and a the line through (0, 0) and (a, 1) has slope 1/a
    for a in range(1, 31):
        ups = build_upsilon(f, (30, a - 1))
        assert ups == ((1, 0), (1, a))
        assert solve_linear(f, ups, [0, 1])[1] * a % 31 == 1


def test_element_range_enforced():
    # the boundary checks; dot and the pads assume their inputs are valid
    f = PrimeField(7)
    for bad in (7, -1, 1.0):
        with pytest.raises(ParameterError):
            f.check(bad)
        with pytest.raises(ParameterError):
            f.check_all((1, bad, 2))
    assert f.check_all((0, 6)) == (0, 6)


def test_non_prime_modulus_rejected():
    with pytest.raises(ParameterError):
        PrimeField(6)


def test_dot_length_mismatch():
    with pytest.raises(ParameterError):
        PrimeField(7).dot((1, 2, 3), (1, 2))


def test_default_alphas_prefers_small_positives():
    assert default_alphas(7, 3) == (1, 2, 3)
    assert default_alphas(2 ** 61 - 1, 3) == (1, 2, 3)  # builds only 3 points
    # at p=3 only {0, 1} avoid p-1; 0 closes the gap
    assert default_alphas(3, 2) == (1, 0)
    with pytest.raises(ParameterError):
        default_alphas(3, 3)


def test_default_alphas_match_the_point_pool():
    # the pool 1, 2, ..., p-2, 0, sliced; built only up to count points
    for p in range(2, 132):
        pool = list(range(1, p - 1)) + [0]
        for count in range(p):
            assert default_alphas(p, count) == tuple(pool[:count]), (p, count)


def test_upsilon_rows_direct_evaluation():
    # rows are [ (1+a)^0, (1+a)^1, (1+a)^2 ] for a in (1, 2, 3) over GF(7)
    f = PrimeField(7)
    ups = build_upsilon(f, (1, 2, 3))
    assert ups == ((1, 2, 4), (1, 3, 2), (1, 4, 2))


def test_upsilon_degree_zero():
    assert build_upsilon(PrimeField(7), (4,)) == ((1,),)


def test_upsilon_determinant_vandermonde_formula():
    # independent oracle: det = prod_{j<k} (x_k - x_j) with x = 1 + alpha
    f = PrimeField(7)
    alphas = (1, 2, 3)
    xs = [(1 + a) % 7 for a in alphas]
    expected = 1
    for j, k in itertools.combinations(range(3), 2):
        expected = expected * (xs[k] - xs[j]) % 7
    assert expected == 2
    assert determinant(f, build_upsilon(f, alphas)) == expected


def test_upsilon_deterministic():
    f = PrimeField(31)
    assert build_upsilon(f, (1, 2, 3, 4)) == build_upsilon(f, (1, 2, 3, 4))


def test_solve_identity():
    # nonsingular, but no Upsilon: refused on every call
    f = PrimeField(7)
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for _ in range(2):
        with pytest.raises(ParameterError, match="only an Upsilon"):
            solve_linear(f, ident, [3, 0, 6])


def test_solve_trivial_1x1():
    f = PrimeField(7)
    assert solve_linear(f, build_upsilon(f, (4,)), [5]) == [5]


def test_solve_upsilon_round_trip():
    # rhs = Upsilon * (2,0,0)^t is the first column doubled: (2,2,2)
    f = PrimeField(7)
    ups = build_upsilon(f, (1, 2, 3))
    assert mat_vec(f, ups, (2, 0, 0)) == (2, 2, 2)
    assert solve_linear(f, ups, [2, 2, 2]) == [2, 0, 0]


def test_solve_round_trip_random_vectors():
    f = PrimeField(31)
    rng = RandomSource(11)
    for n in range(1, 6):
        ups = build_upsilon(f, default_alphas(31, n))
        for _ in range(5):
            x = rng.draw_vector(31, n)
            rhs = mat_vec(f, ups, x)
            assert tuple(solve_linear(f, ups, list(rhs))) == x


def test_solve_singular_raises():
    # the point 1 twice: rows ((1, 2), (1, 2))
    f = PrimeField(7)
    with pytest.raises(IntegrityError):
        solve_linear(f, build_upsilon(f, (1, 1)), [1, 2])


def ref_solve(p, m, rhs):
    """Gauss-Jordan over every row and column, one element at a time."""
    n = len(m)
    aug = [list(row) + [b] for row, b in zip(m, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], p - 2, p)
        for k in range(n + 1):
            aug[col][k] = aug[col][k] * inv % p
        for r in range(n):
            factor = aug[r][col]
            if r != col and factor:
                for k in range(n + 1):
                    aug[r][k] = (aug[r][k] - factor * aug[col][k]) % p
    return [row[n] for row in aug]


def random_matrix(rng, p, n):
    return [list(rng.draw_vector(p, n)) for _ in range(n)]


def random_points(rng, p, n):
    """n distinct points of GF(p), 0 among the candidates."""
    points = []
    while len(points) < n:
        (x,) = rng.draw_vector(p, 1)
        if x not in points:
            points.append(x)
    return points


def evaluation_matrix(p, points):
    """Rows [1, x, x^2, ...] by pow, independent of build_upsilon."""
    return [[pow(x, k, p) for k in range(len(points))] for x in points]


def upsilon_at(f, points):
    """The Upsilon whose column 1 holds ``points``."""
    return build_upsilon(f, [(x - 1) % f.p for x in points])


@pytest.mark.parametrize("p,sizes", [(2, range(1, 3)), (7, range(1, 8)),
                                     (131, (1, 2, 3, 5, 8, 17)),
                                     (2 ** 61 - 1, (1, 2, 4, 9))])
def test_solve_matches_reference_on_random_systems(p, sizes):
    # random points, 0 among the candidates; the reference reads rows by pow
    f = PrimeField(p)
    rng = RandomSource(p)
    for n in sizes:
        for _ in range(4):
            points = random_points(rng, p, n)
            m = evaluation_matrix(p, points)
            assert upsilon_at(f, points) == tuple(map(tuple, m))
            rhs = list(rng.draw_vector(p, n))
            x = solve_linear(f, upsilon_at(f, points), rhs)
            assert x == ref_solve(p, m, rhs)
            assert mat_vec(f, m, x) == tuple(rhs)


def test_solve_collusion_wide_shape():
    # N = 64 databases at p = 131: the Vandermonde decode
    f = PrimeField(131)
    rng = RandomSource(64)
    ups = build_upsilon(f, default_alphas(131, 64))
    for _ in range(2):
        rhs = list(rng.draw_vector(131, 64))
        x = solve_linear(f, ups, rhs)
        assert x == ref_solve(131, ups, rhs)
        assert mat_vec(f, ups, x) == tuple(rhs)


@pytest.mark.parametrize("p,n", [(p, n) for p in (3, 131, 2 ** 61 - 1) for n in (0, 1, 2, 64)
                                  if n < p])  # GF(3) has only two usable points
def test_packed_solve_at_its_largest_slot_sums(p, n):
    # a right-hand side of all p-1 fills every slot of the packed inverse's
    # product towards its bound, n (p-1)^2; the empty Upsilon solves to []
    f = PrimeField(p)
    ups = build_upsilon(f, default_alphas(p, n))
    rhs = [p - 1] * n
    columns, shifts, mask = ups.inverse
    assert len(columns) == len(shifts) == n and mask.bit_length() >= 1
    assert solve_linear(f, ups, rhs) == ref_solve(p, ups, rhs)
    assert mat_vec(f, ups, solve_linear(f, ups, rhs)) == tuple(rhs)


def test_solve_singular_systems_raise():
    rng = RandomSource(9)
    for p in (2, 7, 131):
        f = PrimeField(p)
        for n in (2, 3, 5, 9):
            if n <= p:
                # one point repeated: rows i and j are equal
                points = random_points(rng, p, n)
                i, j = sorted(random_points(rng, n, 2))
                points[j] = points[i]
                m = upsilon_at(f, points)
                assert determinant(f, m) == 0
                with pytest.raises(IntegrityError, match="distinct"):
                    solve_linear(f, m, list(rng.draw_vector(p, n)))
            # a zero row, or a zero column: singular, and no Upsilon
            m = random_matrix(rng, p, n)
            m[0] = [0] * n
            for matrix in (m, [list(col) for col in zip(*m)]):
                assert determinant(f, matrix) == 0
                with pytest.raises(ParameterError, match="only an Upsilon"):
                    solve_linear(f, matrix, [0] * n)


def test_solve_factors_each_matrix_once(upsilon_builds):
    # five right-hand sides on one Upsilon, as lists and then as tuples: one
    # inverse, then one packed product per solve; the same matrix as plain rows
    # is refused on every call and builds nothing
    p = 131
    f = PrimeField(p)
    rng = RandomSource(21)
    points = random_points(rng, p, 7)
    ups, m = upsilon_at(f, points), evaluation_matrix(p, points)
    rhss = [list(rng.draw_vector(p, 7)) for _ in range(5)]
    for wrap in (list, tuple):
        for rhs in rhss:
            assert solve_linear(f, ups, wrap(rhs)) == ref_solve(p, m, rhs)
            with pytest.raises(ParameterError, match="only an Upsilon"):
                solve_linear(f, m, wrap(rhs))
    assert upsilon_builds == [("inverse", ups, None)]
    assert upsilon_builds[0][1] is ups


def test_solve_singular_raises_on_every_call(upsilon_builds):
    # the point 2 twice; a failed inverse is not memoized
    f = PrimeField(7)
    ups = build_upsilon(f, (1, 1))
    for _ in range(2):
        with pytest.raises(IntegrityError):
            solve_linear(f, ups, [1, 2])
    assert upsilon_builds == [("inverse", ups, None)] * 2


def test_solve_checks_rhs_after_matrix_is_cached():
    f = PrimeField(7)
    m = build_upsilon(f, (1, 2))
    assert m == ((1, 2), (1, 3))
    assert solve_linear(f, m, [1, 2]) == ref_solve(7, m, [1, 2])
    for bad in (7, -1, 1.0):
        with pytest.raises(ParameterError, match="not an element of GF"):
            solve_linear(f, m, [1, bad])
    assert solve_linear(f, m, [5, 0]) == ref_solve(7, m, [5, 0])


@pytest.mark.parametrize("bad", (7, -1, 3.0, [3]))
def test_solve_rejects_matrix_outside_field(bad, upsilon_builds):
    # next to the Upsilon ((1, 2), (1, 3)), inverted: 3.0 equals its 3, and
    # a list is no element; the plain rows are refused before any is read
    f = PrimeField(7)
    ups = build_upsilon(f, (1, 2))
    assert solve_linear(f, ups, [1, 2]) == ref_solve(7, ups, [1, 2])
    with pytest.raises(ParameterError, match="only an Upsilon"):
        solve_linear(f, ((1, 2), (1, bad)), [1, 2])
    assert upsilon_builds == [("inverse", ups, None)]


@st.composite
def evaluation_systems(draw):
    p = draw(st.sampled_from((3, 7, 31, 131, 2 ** 61 - 1)))
    element = st.integers(0, p - 1)
    points = draw(st.lists(element, unique=True, max_size=min(p, 64)))
    n = len(points)
    rhs = draw(st.lists(element, min_size=n, max_size=n))
    # one entry moved off [1, x, x^2, ...]: row i, column k, by a nonzero delta
    change = draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                            st.integers(1, p - 1))) if n else None
    return p, points, rhs, change


@settings(max_examples=100)
@given(evaluation_systems())
@example((131, list(range(64)), [k * k % 131 for k in range(64)], (63, 0, 5)))
@example((2 ** 61 - 1, [0, 2 ** 61 - 2, 1], [1, 2, 3], (1, 1, 2)))
def test_solve_inverts_every_evaluation_matrix_and_refuses_the_rest(case):
    # every Upsilon of distinct points is solved; its rows as plain lists,
    # whether moved off [1, x, x^2, ...] or not, are refused
    p, points, rhs, change = case
    f = PrimeField(p)
    m = evaluation_matrix(p, points)
    x = solve_linear(f, upsilon_at(f, points), rhs)
    assert x == ref_solve(p, m, rhs)
    assert mat_vec(f, m, x) == tuple(rhs)
    if change is None:  # no points: no entry to move
        return
    with pytest.raises(ParameterError, match="only an Upsilon"):
        solve_linear(f, m, rhs)
    i, k, delta = change
    m[i][k] = (m[i][k] + delta) % p
    with pytest.raises(ParameterError, match="only an Upsilon"):
        solve_linear(f, m, rhs)


@pytest.mark.parametrize("p", (131, 2 ** 61 - 1))
def test_params_upsilon_is_the_built_matrix(p):
    params = make_params("spma1", 3, 2, t=2, p=p)
    assert params.upsilon == build_upsilon(params.field, params.alphas_used)
    assert params.upsilon is params.upsilon  # built once per parameter set


def test_upsilon_matches_pow_definition():
    cases = [(p, default_alphas(p, n)) for p, n in ((2, 1), (3, 2), (7, 6), (131, 64))]
    # non-default points, 0 among them, and leading slices of each list
    cases += [(131, (0, 128, 64, 3, 77)), (2 ** 61 - 1, (2 ** 60, 0, 2 ** 61 - 3, 9))]
    for p, alphas in cases:
        for n in {1, len(alphas) - 1 or 1, len(alphas)}:
            expected = tuple(tuple(pow(1 + a, k, p) for k in range(n))
                             for a in alphas[:n])
            assert build_upsilon(PrimeField(p), alphas[:n]) == expected


def test_solve_shape_errors():
    # a right-hand side of the wrong length, either way, and a non-square
    # matrix, which is no Upsilon
    f = PrimeField(7)
    for ups, rhs in ((build_upsilon(f, (1,)), [1, 2]), (build_upsilon(f, (1, 2)), [1])):
        with pytest.raises(ParameterError, match="right-hand side has length"):
            solve_linear(f, ups, rhs)
    with pytest.raises(ParameterError, match="only an Upsilon"):
        solve_linear(f, ((1, 2),), [1])


def test_noise_pad_vector_direct():
    # Upsilon over GF(5) at alpha = 1 and 2 has the rows (1, 2) and (1, 3):
    # 1 + (1+1)^1 * 2 = 5 = 0 and 1 + (1+2)^1 * 2 = 7 = 2 mod 5
    ups = build_upsilon(PrimeField(5), (1, 2))
    assert noise_pad_vector(ups, (1,), [(2,)]) == ((0,), (2,))
    assert noise_pad_vector(ups, (1, 2), []) == ((1, 2),) * 2


def test_blind_direct():
    # Upsilon over GF(5) at alpha = 1, 2, 3 has the rows (1, 2, 4), (1, 3,
    # 4) and (1, 4, 1): 2*1 + 4*2 = 10 = 0, 3 + 8 = 11 = 1 and 4 + 2 = 1
    ups = build_upsilon(PrimeField(5), (1, 2, 3))
    assert ups.blind((1, 2)) == [0, 1, 1]
    assert ups.blind(()) == ups.blind(b"") == [0, 0, 0]


def test_noise_pad_rejects_ragged_rows_and_short_powers():
    # two points: Upsilon has the powers x^0 and x^1, so depth 1 at most
    ups = build_upsilon(PrimeField(5), (1, 2))
    with pytest.raises(ParameterError, match="noise row length"):
        noise_pad_vector(ups, (1, 2), [(1, 2), (3,)])
    with pytest.raises(ParameterError, match="noise of depth 2 needs powers up to x\\^2"):
        noise_pad_vector(ups, (1, 2), [(1, 2), (3, 4)])
    with pytest.raises(ParameterError, match="noise of depth 2 needs powers up to x\\^2"):
        ups.blind((1, 2))


@pytest.mark.parametrize("p", (3, 131, 2 ** 61 - 1))
def test_blind_matches_the_per_point_reference(p):
    # depths 0, 1 and N-1, with drawn scalars and with every scalar at p-1;
    # N = 2 at p = 3, else the N = 64 shape. Depth N or more has no powers
    # to weight with and is refused, naming the depth.
    n = min(p - 1, 64)
    ups = build_upsilon(PrimeField(p), default_alphas(p, n))
    rng = RandomSource(p)
    for depth in (0, 1, n - 1):
        for scalars in ((p - 1,) * depth, rng.draw_vector(p, depth)):
            assert ups.blind(scalars) == [ref_blinding(p, row, scalars) for row in ups]
    for depth in (n, n + 1):
        with pytest.raises(ParameterError, match=f"noise of depth {depth} needs"):
            ups.blind((1,) * depth)


# not elements of GF(5): negative, equal to p, not an int. The pads take
# them on trust; each is rejected where the pad's input enters the protocol.
NOT_IN_GF5 = (-1, 5, 1.0)


@pytest.mark.parametrize("bad", NOT_IN_GF5)
def test_noise_pad_vector_rejects_bad_base(bad):
    # a pad's base is an incidence vector, or a query's unit vector; the
    # query's builder rejects an index outside the universe 1..E (a member
    # outside it is refused by PartyDataset.from_members, see test_model)
    with pytest.raises(ParameterError, match="outside 1..3"):
        query_vectors(bad, (), make_params("pma1", 2, 3, t=1, p=5))


# Per-element references: one modular multiply-add at a time, as the
# vectorised field code must reproduce exactly.
def ref_dot(p, u, v):
    acc = 0
    for a, b in zip(u, v):
        acc = (acc + a * b) % p
    return acc


def ref_weight(p, alpha, depth):
    c = 1
    for _ in range(depth):
        c = c * (1 + alpha) % p
    return c


def ref_pad_vector(p, base, alpha, rows):
    out = list(base)
    for depth, row in enumerate(rows, start=1):
        c = ref_weight(p, alpha, depth)
        for k, z in enumerate(row):
            out[k] = (out[k] + c * z) % p
    return tuple(out)


def ref_pad_scalar(p, base, alpha, noise):
    acc = base
    for depth, z in enumerate(noise, start=1):
        acc = (acc + ref_weight(p, alpha, depth) * z) % p
    return acc


@st.composite
def field_vectors(draw):
    p = draw(st.sampled_from((2, 3, 5, 131, 2 ** 61 - 1)))
    length = draw(st.integers(0, 50))
    # depths above the length take noise_pad_vector's column-order branch
    depth = draw(st.integers(0, 12))
    element = st.integers(0, p - 1)
    vector = st.lists(element, min_size=length, max_size=length)
    return (p, draw(vector), draw(vector),
            draw(st.lists(vector, min_size=depth, max_size=depth)),
            draw(st.lists(element, min_size=1, max_size=4)),  # the points' alphas
            draw(st.integers(0, 2)),  # powers past x^depth, as in a row of Upsilon
            draw(element),
            draw(st.lists(element, min_size=depth, max_size=depth)))


@given(field_vectors())
# the collusion-wide shape: 63 noise rows on a length-2 vector
@example((131, [1, 0], [5, 7], [[k % 131, (3 * k) % 131] for k in range(63)],
          [1, 2, 64], 0, 9, list(range(63))))
@example((2 ** 61 - 1, [], [], [[]] * 4, [3, 0], 0, 2 ** 61 - 2, [1, 2, 3, 4]))
@example((5, [4], [3], [[4], [3], [2]], [2, 0, 1, 3], 1, 4, [1, 2, 3]))
# long bases with one nonzero entry, at p-1, and with none: added after the
# noise; with two, in the first row's pass
@example((131, [0] * 19 + [130], [1] * 20, [[130] * 20, list(range(20))], [1, 2],
          0, 9, [1, 2]))
@example((2 ** 61 - 1, [0] * 20, [1] * 20, [list(range(20))], [3, 0], 1, 2, [5]))
@example((23, [1] + [0] * 18 + [1], [1] * 20, [list(range(20))], [3], 0, 2, [5]))
def test_vector_ops_match_per_element_reference(case):
    p, u, v, rows, alphas, extra, scalar, noise = case
    f = PrimeField(p)
    ups = Upsilon(p, [tuple(ref_weight(p, a, k) for k in range(len(rows) + 1 + extra))
                      for a in alphas])
    assert f.dot(u, v) == ref_dot(p, u, v)
    assert noise_pad_vector(ups, u, rows) == tuple(
        ref_pad_vector(p, u, a, rows) for a in alphas)
    # a party's type-I answers, one per point, read 0/1 incidence bits as
    # member sums, plus a mask symbol and the blinding at the point; answer
    # reads only p and the Upsilon of its parameters
    bits = [a % 2 for a in u]
    params = SimpleNamespace(p=p, upsilon=ups)
    mask = [(scalar + k) % p for k in range(len(alphas))]
    assert ups.blind(noise) == [ref_pad_scalar(p, 0, alpha, noise) for alpha in alphas]
    assert pma1.answer(bits, [v] * len(alphas), mask, (), params) == tuple(
        (ref_dot(p, bits, v) + s) % p for s in mask)
    assert pma1.answer(bits, [v] * len(alphas), mask, noise, params) == tuple(
        (ref_dot(p, bits, v) + ref_pad_scalar(p, 0, alpha, noise) + s) % p
        for alpha, s in zip(alphas, mask))


def ref_pad_rows(p, base, powers, rows):
    """The vector pad at explicit rows of powers, one element at a time;
    w[0] is not read, so the base enters unweighted."""
    padded = []
    for w in powers:
        out = list(base)
        for depth, row in enumerate(rows, start=1):
            for k, z in enumerate(row):
                out[k] = (out[k] + w[depth] * z) % p
        padded.append(tuple(out))
    return tuple(padded)


@pytest.mark.parametrize("p", (131, 2 ** 61 - 1))
def test_deep_pad_worst_case_slot_sums(p):
    # every input at p-1 fills each packed slot to its bound
    # (p-1) + depth*(p-1)^2; 64 points and depth 63, as on the N=64 shape;
    # the blinding fills it to depth*(p-1)^2
    top = p - 1
    ups = Upsilon(p, [(top,) * 64] * 64)
    for length in (0, 1, 2):
        base, rows = (top,) * length, [(top,) * length] * 63
        assert noise_pad_vector(ups, base, rows) == ref_pad_rows(p, base, ups, rows)
    scalars = (top,) * 63
    assert ups.blind(scalars) == [ref_blinding(p, row, scalars) for row in ups]


def test_deep_pad_packed_columns_follow_the_rows_given(upsilon_builds):
    # an Upsilon packs its columns once per depth, for its pads and its
    # blinding alike; a pad runs over every point, and the audits read
    # their taps from it
    p = 131
    f = PrimeField(p)
    rng = RandomSource(17)
    alphas = default_alphas(p, 64)
    ups = build_upsilon(f, alphas)
    taps = (3, 0, 40, 63)
    for depth in (63, 62, 63):
        rows = [rng.draw_vector(p, 2) for _ in range(depth)]
        scalars = rng.draw_vector(p, depth)
        padded = noise_pad_vector(ups, (1, 0), rows)
        assert padded == ref_pad_rows(p, (1, 0), ups, rows)
        assert [padded[j] for j in taps] == [ref_pad_vector(p, (1, 0), alphas[j], rows)
                                             for j in taps]
        assert ups.blind(scalars) == [ref_blinding(p, row, scalars) for row in ups]
    assert [(powers is ups, depth) for _, powers, depth in upsilon_builds] == \
        [(True, 63), (True, 62)]


@st.composite
def lane_pads(draw, length):
    """A pad on both sides of the byte-lane bound on p, at 128: a zero,
    sparse, two-entry (side by side, or spread to both ends) or dense base,
    depths 1 to 3, one to three points."""
    p = draw(st.sampled_from((113, 127, 131)))
    depth = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("zero", "sparse", "pair", "spread", "dense")))
    rng = RandomSource(draw(st.integers(0, 2 ** 64 - 1)))
    base = [0] * length
    if kind in ("sparse", "pair"):  # one nonzero entry, or two side by side
        k = draw(st.integers(0, length - 2))
        base[k:k + 1 + (kind == "pair")] = [draw(st.integers(1, p - 1))] * (1 + (kind == "pair"))
    elif kind == "spread":  # two nonzero entries, far apart
        base[0], base[-1] = draw(st.integers(1, p - 1)), draw(st.integers(1, p - 1))
    elif kind == "dense":
        base = list(rng.draw_vector(p, length))
    alphas = draw(st.lists(st.integers(0, p - 2), min_size=1, max_size=3, unique=True))
    return p, base, alphas, [rng.draw_vector(p, length) for _ in range(depth)]


@pytest.mark.parametrize("length", (15, 16, 17, 10_000))  # around the length bound, and long
@settings(max_examples=25)
@given(data=st.data())
def test_byte_lane_pads_match_the_reference(length, data):
    p, base, alphas, rows = data.draw(lane_pads(length))
    powers = Upsilon(p, [tuple(pow(1 + a, k, p) for k in range(4)) for a in alphas])
    expected = ref_pad_rows(p, base, powers, rows)
    # the lane path, with its bytes rows, is chosen by p, length and sparsity
    lanes = length >= 16 and p <= 128 and sum(map(bool, base)) <= 1
    # a query's base is bytes, any other a tuple
    for given_base in (tuple(base), bytes(base)):
        padded = noise_pad_vector(powers, given_base, rows)
        assert tuple(map(tuple, padded)) == expected
        assert {type(row) for row in padded} == {bytes if lanes else tuple}


def test_byte_lane_pads_reduce_full_lanes():
    # every entry at p-1, three rows: a lane is reduced before the last add
    for p, length in ((127, 17), (113, 16), (127, 10_000)):
        top = p - 1
        powers = Upsilon(p, [(top,) * 4, (1, 2, 4, 8)])
        for base in ((top,) + (0,) * (length - 1), (0,) * (length - 1) + (top,)):
            rows = [(top,) * length] * 3
            padded = noise_pad_vector(powers, bytes(base), rows)
            assert tuple(map(tuple, padded)) == ref_pad_rows(p, base, powers, rows)
            assert {type(row) for row in padded} == {bytes}


@pytest.mark.parametrize("p", (2, 3, 23, 127))
@pytest.mark.parametrize("length", (0, 1, 2, 3, 15, 16, 17, 255, 256, 257, 10_000))
def test_masked_lane_sum_matches_the_member_sum(p, length):
    gen = random.Random(p * 100_003 + length)
    cases = [(bytes([p - 1]) * length, bytes([1]) * length),  # every lane at p-1: reduced
             (bytes([p - 1]) * length, bytes(length))]  # nothing selected
    for _ in range(3):
        cases.append((bytes(gen.randrange(p) for _ in range(length)),
                      bytes(gen.randrange(2) for _ in range(length))))
    for values, bits in cases:
        # bytes bits and tuple bits make the same mask
        for mask in (LaneMask(bits), LaneMask(tuple(bits))):
            assert masked_lane_sum(p, values, mask) == \
                sum(compress(tuple(values), tuple(bits))) % p
    if length:
        with pytest.raises(ParameterError, match="length mismatch"):
            masked_lane_sum(p, values, LaneMask(bits[1:]))
    with pytest.raises(AttributeError):  # raw bits are not a mask
        masked_lane_sum(p, values, bits)


def test_solve_takes_only_an_upsilon_of_its_field(upsilon_builds):
    # the N = 64 shape: its Upsilon is inverted once; a list matrix, a plain
    # tuple copy and an Upsilon of another field are refused on every
    # call, before anything is built
    p = 131
    f = PrimeField(p)
    ups = build_upsilon(f, default_alphas(p, 64))
    rhs = list(range(64))
    other = build_upsilon(PrimeField(137), default_alphas(137, 64))
    refused = ([list(row) for row in ups], tuple(map(tuple, ups)), other)
    for _ in range(2):
        assert solve_linear(f, ups, rhs) == ref_solve(p, ups, rhs)
        for matrix in refused:
            with pytest.raises(ParameterError, match=r"only an Upsilon of GF\(131\)"):
                solve_linear(f, matrix, rhs)
    # the Upsilon of GF(131) is no Upsilon of GF(137)
    with pytest.raises(ParameterError, match=r"only an Upsilon of GF\(137\)"):
        solve_linear(PrimeField(137), ups, rhs)
    assert upsilon_builds == [("inverse", ups, None)]
