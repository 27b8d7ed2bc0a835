"""GF(p) arithmetic and the exact solver."""

import itertools

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pma import pma1, spma1, spma2
from pma.errors import IntegrityError, ParameterError
from pma.field import (PrimeField, _factor, build_upsilon, default_alphas, is_prime,
                       noise_pad_scalar, noise_pad_vector, solve_linear)
from pma.model import PartyDataset, RandomSource, incidence, make_params, unit_vector


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
    # the solver's pivot inverse: a x = 1 on a 1 x 1 system
    f = PrimeField(31)
    for a in range(1, 31):
        (x,) = solve_linear(f, [[a]], [1])
        assert a * x % 31 == 1


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
    f = PrimeField(7)
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert solve_linear(f, ident, [3, 0, 6]) == [3, 0, 6]


def test_solve_trivial_1x1():
    assert solve_linear(PrimeField(7), ((1,),), [5]) == [5]


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
    f = PrimeField(7)
    with pytest.raises(IntegrityError):
        solve_linear(f, ((1, 1), (1, 1)), [1, 2])


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


@pytest.mark.parametrize("p,sizes", [(2, range(1, 9)), (7, range(1, 9)),
                                     (131, (1, 2, 3, 5, 8, 17)),
                                     (2 ** 61 - 1, (1, 2, 4, 9))])
def test_solve_matches_reference_on_random_systems(p, sizes):
    f = PrimeField(p)
    rng = RandomSource(p)
    for n in sizes:
        solved = 0
        while solved < 4:
            m = random_matrix(rng, p, n)
            if determinant(f, m) == 0:
                continue
            rhs = list(rng.draw_vector(p, n))
            x = solve_linear(f, m, rhs)
            assert x == ref_solve(p, m, rhs)
            assert mat_vec(f, m, x) == tuple(rhs)
            solved += 1


def test_solve_row_swaps():
    f = PrimeField(131)
    rng = RandomSource(5)
    # zeros on and below the leading diagonal entries force a swap at every
    # column but the last: the reversed rows of an upper triangular matrix
    for n in (2, 3, 6, 12):
        upper = [[0] * r + [1 + rng.draw_vector(130, 1)[0]]
                 + list(rng.draw_vector(131, n - r - 1))
                 for r in range(n)]
        m = upper[::-1]
        rhs = list(rng.draw_vector(131, n))
        x = solve_linear(f, m, rhs)
        assert x == ref_solve(131, m, rhs)
        assert mat_vec(f, m, x) == tuple(rhs)
    # a zero pivot that appears only after eliminating the first column
    m = [[1, 2, 3], [2, 4, 5], [3, 5, 6]]
    x = solve_linear(PrimeField(7), m, [1, 2, 3])
    assert x == ref_solve(7, m, [1, 2, 3])


def test_solve_collusion_wide_shape():
    # N = 64 databases at p = 131: the Vandermonde decode and a random system
    f = PrimeField(131)
    rng = RandomSource(64)
    ups = build_upsilon(f, default_alphas(131, 64))
    m = random_matrix(rng, 131, 64)
    assert determinant(f, m) != 0
    for matrix in (ups, m):
        for _ in range(2):
            rhs = list(rng.draw_vector(131, 64))
            x = solve_linear(f, matrix, rhs)
            assert x == ref_solve(131, matrix, rhs)
            assert mat_vec(f, matrix, x) == tuple(rhs)


def test_solve_singular_systems_raise():
    rng = RandomSource(9)
    for p in (2, 7, 131):
        f = PrimeField(p)
        for n in (2, 3, 5, 9):
            m = random_matrix(rng, p, n)
            # last row a combination of the others: the rank deficit shows
            # only at the last column
            weights = rng.draw_vector(p, n - 1)
            m[-1] = [sum(w * row[k] for w, row in zip(weights, m)) % p
                     for k in range(n)]
            assert determinant(f, m) == 0
            with pytest.raises(IntegrityError):
                solve_linear(f, m, list(rng.draw_vector(p, n)))
            m[0] = [0] * n  # a zero column at the first step
            m = [list(col) for col in zip(*m)]
            with pytest.raises(IntegrityError):
                solve_linear(f, m, [0] * n)


def test_solve_factors_each_matrix_once():
    # five right-hand sides on one matrix, as lists and then as tuples: one
    # factorization, then substitution only
    p = 131
    f = PrimeField(p)
    rng = RandomSource(21)
    m = random_matrix(rng, p, 7)
    assert determinant(f, m) != 0
    rhss = [list(rng.draw_vector(p, 7)) for _ in range(5)]
    before = _factor.cache_info()
    for matrix, wrap in ((m, list), (tuple(map(tuple, m)), tuple)):
        for rhs in rhss:
            assert solve_linear(f, matrix, wrap(rhs)) == ref_solve(p, m, rhs)
    after = _factor.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 9)


def test_solve_singular_raises_on_every_call():
    f = PrimeField(7)
    for _ in range(2):
        with pytest.raises(IntegrityError):
            solve_linear(f, ((1, 2), (2, 4)), [1, 2])


def test_solve_checks_rhs_after_matrix_is_cached():
    f = PrimeField(7)
    m = ((1, 2), (3, 4))
    assert solve_linear(f, m, [1, 2]) == ref_solve(7, m, [1, 2])
    for bad in (7, -1, 1.0):
        with pytest.raises(ParameterError, match="not an element of GF"):
            solve_linear(f, m, [1, bad])
    assert solve_linear(f, m, [5, 0]) == ref_solve(7, m, [5, 0])


@pytest.mark.parametrize("bad", (7, -1, 3.0, [3]))
def test_solve_rejects_matrix_outside_field(bad):
    # with ((1, 2), (3, 4)) cached: 3.0 equals its 3, and a list is no key
    f = PrimeField(7)
    assert solve_linear(f, ((1, 2), (3, 4)), [1, 2]) == ref_solve(7, ((1, 2), (3, 4)), [1, 2])
    with pytest.raises(ParameterError, match="not an element of GF"):
        solve_linear(f, ((1, 2), (bad, 4)), [1, 2])


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
    f = PrimeField(7)
    with pytest.raises(ParameterError):
        solve_linear(f, ((1, 2),), [1])
    with pytest.raises(ParameterError):
        solve_linear(f, ((1,),), [1, 2])


def test_noise_pad_vector_direct():
    # rows of Upsilon over GF(5) at alpha = 1 and 2: (1, 2, 4) and (1, 3, 4)
    # 1 + (1+1)^1 * 2 = 5 = 0 and 1 + (1+2)^1 * 2 = 7 = 2 mod 5
    f = PrimeField(5)
    assert noise_pad_vector(f, (1,), [(1, 2, 4), (1, 3, 4)], [(2,)]) == ((0,), (2,))
    assert noise_pad_vector(f, (1, 2), [], [(2, 3)]) == ()


def test_noise_pad_scalar_direct():
    # 3 + 2*1 + 4*2 = 13 = 3 mod 5, with the Upsilon row (1, 2, 4) at alpha = 1
    f = PrimeField(5)
    assert noise_pad_scalar(f, 3, (1, 2, 4), (1, 2)) == 3
    assert noise_pad_scalar(f, 3, (1,), ()) == 3


def test_noise_pad_rejects_ragged_rows_and_short_powers():
    f = PrimeField(5)
    with pytest.raises(ParameterError, match="noise row length"):
        noise_pad_vector(f, (1, 2), [(1, 2, 4)], [(1, 2), (3,)])
    with pytest.raises(ParameterError, match="needs powers up to x\\^2"):
        noise_pad_vector(f, (1, 2), [(1, 2, 4), (1, 3)], [(1, 2), (3, 4)])
    with pytest.raises(ParameterError, match="needs powers up to x\\^2"):
        noise_pad_scalar(f, 3, (1, 2), (1, 2))


# not elements of GF(5): negative, equal to p, not an int. The pads take
# them on trust; each is rejected where the pad's input enters the protocol.
NOT_IN_GF5 = (-1, 5, 1.0)


@pytest.mark.parametrize("bad", NOT_IN_GF5)
def test_noise_pad_vector_rejects_bad_base(bad):
    # a pad's base is an incidence vector or a unit vector; their builders
    # reject a member or an index outside the universe 1..E
    with pytest.raises(ParameterError, match="outside universe"):
        incidence(PartyDataset(frozenset({2, bad})), 3)
    with pytest.raises(ParameterError, match="outside 1..3"):
        unit_vector(bad, 3)


@pytest.mark.parametrize("bad", NOT_IN_GF5)
def test_noise_pad_vector_rejects_bad_noise_row(bad):
    good, wrong = (0, 0, 0), (2, bad, 0)
    type1 = make_params("pma1", 2, 3, t=2, p=5)
    with pytest.raises(ParameterError, match="not an element of GF"):
        pma1.queries_from_noise(1, type1, ((good, good), (good, wrong)))
    type2 = make_params("spma2", 3, 3, t=1, p=5)
    with pytest.raises(ParameterError, match="not an element of GF"):
        spma2.queries_from_noise(1, type2, (wrong,))
    with pytest.raises(ParameterError, match="not an element of GF"):
        spma2.encode_from_noise((1, 0, 1), type2, (wrong,))


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
def test_vector_ops_match_per_element_reference(case):
    p, u, v, rows, alphas, extra, scalar, noise = case
    f = PrimeField(p)
    powers = [tuple(ref_weight(p, a, k) for k in range(len(rows) + 1 + extra))
              for a in alphas]
    assert f.dot(u, v) == ref_dot(p, u, v)
    assert noise_pad_vector(f, u, powers, rows) == tuple(
        ref_pad_vector(p, u, a, rows) for a in alphas)
    # type-I answers read 0/1 incidence bits as member sums
    bits = [a % 2 for a in u]
    assert pma1.answer(bits, v, scalar, f) == (ref_dot(p, bits, v) + scalar) % p
    for alpha, w in zip(alphas, powers):
        assert noise_pad_scalar(f, scalar, w, noise) == \
            ref_pad_scalar(p, scalar, alpha, noise)
        assert spma1.answer(bits, v, noise, scalar, w, f) == (
            ref_dot(p, bits, v) + ref_pad_scalar(p, 0, alpha, noise) + scalar) % p
