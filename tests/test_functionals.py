from __future__ import annotations

import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqlab import functionals
from cqlab.errors import SizeError
from cqlab.functionals import (
    CosQuadMinusOne,
    EvenPolynomial,
    Quadratic,
    SinQuad,
    SymmetricForm,
    amplify,
    moment_form,
    quadratic_form_rows,
    symmetrize_tensor,
)
from cqlab.gaussian import GaussianState
from cqlab.hilbert import operator_norm, symmetric_from_entries, trace_product


def _families(a):
    return [
        Quadratic(a),
        SinQuad(a),
        CosQuadMinusOne(a),
        EvenPolynomial({
            2: SymmetricForm.from_matrix(a),
            4: SymmetricForm.from_quadratic_power(a, 2, 0.3),
        }),
    ]


def _value(f, psi):
    """f(psi) at one point, read from the batch kernel."""
    return f.eval_batch(np.asarray(psi, dtype=np.float64)[None])[0, 0]


def _diag(form, psi):
    """form(psi, ..., psi) at one point, read from the batch kernel."""
    return form.eval_diag_batch(np.asarray(psi, dtype=np.float64)[None])[0]


def test_quadratic_eval():
    assert _value(Quadratic(np.eye(2)), [3.0, 4.0]) == 25.0


def test_sin_quad_preserves_vacuum():
    a = symmetric_from_entries([[0.5, 0.1], [0.1, 0.2]])
    assert _value(SinQuad(a), np.zeros(2)) == 0.0


def test_all_families_vanish_at_zero():
    a = symmetric_from_entries([[0.5, 0.1], [0.1, 0.2]])
    for f in _families(a):
        assert _value(f, np.zeros(2)) == 0.0


def test_cos_minus_one_range():
    rng = np.random.default_rng(2)
    f = CosQuadMinusOne(symmetric_from_entries(rng.normal(size=(3, 3))))
    for _ in range(50):
        v = _value(f, rng.normal(size=3) * 3.0)
        assert -2.0 <= v <= 0.0


def test_quadratic_taylor_form_defining_identity():
    rng = np.random.default_rng(4)
    a = symmetric_from_entries(rng.normal(size=(3, 3)))
    f = Quadratic(a)
    form = f.taylor_form(2)
    psi = rng.normal(size=3)
    assert _diag(form, psi) / 2.0 == pytest.approx(_value(f, psi), rel=1e-12)


def test_sin_quad_taylor_order_four_is_zero():
    assert SinQuad(np.eye(2)).taylor_form(4).is_zero


def test_cos_taylor_order_four_one_dimensional_coefficient():
    # oracle: cos(a psi^2) - 1 = -a^2 psi^4 / 2 + ..., so f''''(0) = -12 a^2
    a = 0.7
    form = CosQuadMinusOne([[a]]).taylor_form(4)
    assert form.dense()[0, 0, 0, 0] == pytest.approx(-12.0 * a * a, rel=1e-12)


def test_sin_taylor_order_six_one_dimensional_coefficient():
    # oracle: sin(a psi^2) = a psi^2 - a^3 psi^6 / 6 + ..., so f^(6)(0) = -120 a^3
    a = 0.4
    form = SinQuad([[a]]).taylor_form(6)
    one = np.array([1.0])
    assert _diag(form, one) == pytest.approx(-120.0 * a ** 3, rel=1e-12)


def test_even_polynomial_taylor_scaling():
    rng = np.random.default_rng(6)
    q2 = symmetric_from_entries(rng.normal(size=(2, 2)))
    f = EvenPolynomial({2: SymmetricForm.from_matrix(q2)})
    # f^(2)(0) = 2! sym(Q_2)
    assert np.allclose(f.taylor_form(2).dense(), 2.0 * q2, atol=1e-15)


def test_odd_taylor_forms_vanish():
    a = symmetric_from_entries([[0.3, 0.1], [0.1, 0.9]])
    for f in _families(a):
        for k in (1, 3, 5):
            assert f.taylor_form(k).is_zero


def test_taylor_consistency_remainder_shrinks():
    # halving ||psi|| must shrink the K=6 Taylor residual by at least 2^7.5
    rng = np.random.default_rng(8)
    a = symmetric_from_entries(rng.normal(size=(3, 3)))
    for f in _families(a):
        psi = rng.normal(size=3)
        psi = 0.1 * psi / np.linalg.norm(psi)

        def residual(v):
            total = sum(
                _diag(f.taylor_form(k), v) / math.factorial(k) for k in range(1, 7))
            return _value(f, v) - total

        r1, r2 = abs(residual(psi)), abs(residual(psi / 2.0))
        if r1 < 1e-14:
            continue  # polynomial families reproduce exactly
        assert r2 <= r1 / 2 ** 7.5


def test_polynomial_families_reproduced_exactly_by_taylor_data():
    rng = np.random.default_rng(9)
    a = symmetric_from_entries(rng.normal(size=(3, 3)))
    f = EvenPolynomial({
        2: SymmetricForm.from_matrix(a),
        4: SymmetricForm.from_quadratic_power(a, 2, -0.2),
    })
    psi = rng.normal(size=3)
    total = sum(_diag(f.taylor_form(k), psi) / math.factorial(k) for k in (2, 4))
    assert total == pytest.approx(_value(f, psi), rel=1e-12)


def test_amplify_quadratic_matches_scaled_operator():
    rng = np.random.default_rng(10)
    a = symmetric_from_entries(rng.normal(size=(2, 2)))
    f = amplify(Quadratic(a), 0.1)
    g = Quadratic(10.0 * a)
    psi = rng.normal(size=2)
    assert _value(f, psi) == pytest.approx(_value(g, psi), rel=1e-12)
    assert np.allclose(f.taylor_form(2).dense(), g.taylor_form(2).dense(), rtol=1e-12)


@given(st.floats(0.01, 10.0), st.floats(0.01, 10.0))
@settings(max_examples=25, deadline=None)
def test_amplify_composition(alpha, beta):
    f = Quadratic([[1.0, 0.0], [0.0, 2.0]])
    twice = amplify(amplify(f, alpha), beta)
    once = amplify(f, alpha * beta)
    psi = np.array([0.3, -0.4])
    assert _value(twice, psi) == pytest.approx(_value(once, psi), rel=1e-12)


def test_amplified_quadratic_average_is_exact():
    # amplified classical average of f_A over a dispersion-alpha state equals
    # Tr D A with no remainder for quadratics
    rng = np.random.default_rng(12)
    alpha = 0.05
    m = rng.normal(size=(3, 3))
    b = m @ m.T
    b *= alpha / np.trace(b)
    d = b / alpha
    a = symmetric_from_entries(rng.normal(size=(3, 3)))
    classical = trace_product(b, a)  # exact Gaussian average of (A psi, psi)
    assert classical / alpha == pytest.approx(trace_product(d, a), rel=1e-12)


def test_symmetrize_idempotent_exactly():
    rng = np.random.default_rng(16)
    t = rng.normal(size=(3, 3, 3, 3))
    once = symmetrize_tensor(t)
    assert np.array_equal(symmetrize_tensor(once), once)


def _symmetrize_by_transposes(t):
    """The mean of t over its k! axis transposes, one array per permutation."""
    perms = list(itertools.permutations(range(t.ndim)))
    return sum(np.transpose(t, perm) for perm in perms) / len(perms)


@pytest.mark.parametrize("order", range(7))
@pytest.mark.parametrize("dim", range(1, 6))
def test_symmetrize_matches_the_transpose_average(order, dim):
    # each side sums at most k! terms of the orbit's entries, so the two
    # differ by at most k! ulps of the orbit's mean |t|
    rng = np.random.default_rng(10 * order + dim)
    t = rng.normal(size=(dim,) * order)
    got = symmetrize_tensor(t)
    bound = math.factorial(order) * np.finfo(float).eps * _symmetrize_by_transposes(np.abs(t))
    assert np.all(np.abs(got - _symmetrize_by_transposes(t)) <= bound)
    assert symmetrize_tensor(got) is got


def test_symmetrize_holds_a_few_copies_of_the_tensor():
    # the orbit map holds int32 sorted indices and one rank per entry; the
    # k! transpose average held 13 copies of this dim-8, order-6 tensor
    t = np.random.default_rng(24).normal(size=(8,) * 6)
    tracemalloc.start()
    try:
        symmetrize_tensor(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 6 * t.nbytes


@pytest.mark.parametrize("order", range(5))
@pytest.mark.parametrize("dim", range(1, 6))
def test_orbit_ranks_follow_the_monomial_rows(order, dim):
    # orbit m of _orbits is row m of the degree-`order` monomials, each
    # tuple in C order is ranked at its sorted form, and an orbit holds as
    # many tuples as its sorted tuple has orderings
    rank, sizes, tuples = functionals._orbits(dim, order)
    xt = np.random.default_rng(25).normal(size=(dim, 7))
    y = functionals._monomial_rows(xt, order)[order]
    assert y.shape[0] == sizes.size == math.comb(dim + order - 1, order)
    np.testing.assert_allclose(y, np.prod(xt[tuples], axis=0), rtol=1e-15, atol=0.0)
    indices = np.indices((dim,) * order).reshape(order, dim ** order)
    assert np.array_equal(tuples[:, rank], np.sort(indices, axis=0))
    orderings = [math.factorial(order) // math.prod(map(math.factorial, Counter(m).values()))
                 for m in tuples.T]
    assert sizes.tolist() == orderings
    assert sizes.sum() == dim ** order


def test_symmetric_form_permutation_invariance():
    rng = np.random.default_rng(17)
    form = SymmetricForm.from_dense(rng.normal(size=(3, 3, 3, 3)))
    args = [rng.normal(size=3) for _ in range(4)]
    base = form(*args)
    assert form(args[1], args[0], args[3], args[2]) == pytest.approx(base, rel=1e-12)
    assert form(args[3], args[2], args[1], args[0]) == pytest.approx(base, rel=1e-12)


@pytest.mark.parametrize("order", [2, 4, 6])
def test_pairing_form_matches_dense_on_arguments(order):
    # the call sums the matchings; dense() symmetrizes a tensor power of M
    rng = np.random.default_rng(18)
    a = symmetric_from_entries(rng.normal(size=(3, 3)))
    form = SymmetricForm.from_quadratic_power(a, order // 2, 0.7)
    dense = SymmetricForm.from_dense(form.dense())
    args = [rng.normal(size=3) for _ in range(order)]
    assert form(*args) == pytest.approx(dense(*args), rel=1e-10)
    psi = rng.normal(size=3)
    assert _diag(form, psi) == pytest.approx(0.7 * float(psi @ a @ psi) ** (order // 2), rel=1e-12)


def _pointwise(f, v):
    """An independent reference for f(v): g((A v, v)) for the quadratic-form
    families, and each term's form on the explicit arguments (v, ..., v) for
    an even polynomial."""
    if hasattr(f, "g"):
        return f.g(v @ f.operator @ v)
    return sum(q(*[v] * q.order) for q in f.terms.values())


def test_batch_eval_matches_pointwise():
    rng = np.random.default_rng(19)
    a = symmetric_from_entries(rng.normal(size=(3, 3)))
    x = rng.normal(size=(40, 3))
    for f in _families(a):
        batch = f.eval_batch(x)[:, 0]
        point = np.array([_pointwise(f, row) for row in x])
        assert np.allclose(batch, point, rtol=1e-12, atol=1e-14)
    form = SymmetricForm.from_dense(rng.normal(size=(3, 3, 3, 3)))
    batch = form.eval_diag_batch(x)
    point = np.array([form(*[row] * form.order) for row in x])
    assert np.allclose(batch, point, rtol=1e-10, atol=1e-12)


_RATIOS = [1.0, 0.3, 0.1, 0.03, 1e-3]


@pytest.mark.parametrize("dim", [1, 7, 64])
def test_eval_batch_at_ratios_reads_one_contraction(dim):
    # f(sqrt(r) x) for every ratio r from one contraction of x: the default
    # call is the one column of ratio 1.0, column i of a k-ratio call is the
    # one-ratio call at r_i bit for bit, and each agrees with scaling x first
    rng = np.random.default_rng(dim)
    m = rng.normal(size=(dim, dim))
    # positive semidefinite with trace 1, so q has no cancellation, and these
    # draws keep it well below pi, near which sin's relative error grows; an
    # orthogonal pullback keeps both
    a = m @ m.T / np.trace(m @ m.T)
    x = 0.5 * rng.normal(size=(300, dim))
    families = _families(a)
    families.append(amplify(families[2], 1e-3))
    orthogonal = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    families += [f.pullback(orthogonal) for f in families]
    for f in families:
        assert f.eval_batch(x).shape == (x.shape[0], 1)
        assert np.array_equal(f.eval_batch(x), f.eval_batch(x, [1.0])), f
        values = f.eval_batch(x, _RATIOS)
        assert values.shape == (x.shape[0], len(_RATIOS))
        for i, r in enumerate(_RATIOS):
            assert np.array_equal(values[:, i], f.eval_batch(x, [r])[:, 0]), (f, r)
            np.testing.assert_allclose(values[:, i], f.eval_batch(math.sqrt(r) * x)[:, 0],
                                       rtol=1e-12, atol=0.0, err_msg=f"{f} at r = {r}")


@pytest.mark.parametrize("rank", [0, 1, 3, 5])
def test_form_pullback_contracts_every_argument(rank):
    # (F^* Q)(z_1, ..., z_k) = Q(F z_1, ..., F z_k) for every kind of form,
    # on distinct arguments, so an axis contracted out of order shows
    rng = np.random.default_rng(21)
    fmat = rng.normal(size=(5, rank))
    a = symmetric_from_entries(rng.normal(size=(5, 5)))
    forms = [SymmetricForm.zero(4, 5), SymmetricForm.from_matrix(a),
             SymmetricForm.from_quadratic_power(a, 2, 0.7),
             SymmetricForm.from_dense(rng.normal(size=(5, 5, 5))),
             SymmetricForm.from_dense(rng.normal(size=(5, 5, 5, 5))),
             SymmetricForm.from_dense(rng.normal(size=(5, 5)))]
    for form in forms:
        pulled = form.pullback(fmat)
        assert (pulled.order, pulled.dim) == (form.order, rank)
        args = [rng.normal(size=rank) for _ in range(form.order)]
        want = form(*[fmat @ v for v in args])
        assert pulled(*args) == pytest.approx(want, rel=1e-12, abs=1e-12), form.kind
        # a dense pullback is exactly symmetric, as every dense form is
        if pulled.kind == "dense":
            assert pulled.tensor is symmetrize_tensor(pulled.tensor)


def test_every_order_two_form_is_a_pairing_form():
    # one symmetric matrix per order-2 form, whichever way it was built
    rng = np.random.default_rng(23)
    t = rng.normal(size=(4, 4))
    a = symmetric_from_entries(t)
    fmat = rng.normal(size=(4, 2))
    forms = [SymmetricForm.from_matrix(t), SymmetricForm.from_dense(t), moment_form(a @ a, 2)]
    forms += [f.taylor_form(2) for f in _families(a) + [amplify(SinQuad(a), 0.1)]]
    forms += [q.scaled(-0.5) for q in forms] + [q.pullback(fmat) for q in forms]
    for form in forms:
        assert form.order == 2 and form.kind in ("pairing", "zero")
        assert (form.kind == "zero") == (form.coeff == 0.0)
    # cos - 1 has no quadratic term: its order-2 forms are the zero form
    assert sum(q.kind == "zero" for q in forms) == 3
    # the matrix has the bits the dense route's symmetrized tensor had
    assert np.array_equal(SymmetricForm.from_dense(t).matrix, a)
    assert np.array_equal(a, symmetrize_tensor(t))
    assert SymmetricForm.from_dense(t).coeff == 1.0


def test_order_six_blocked_eval_cross_checks_factored_route():
    # the dense blocked evaluator and the factored power-of-quadratic route
    # compute (0.3 (A psi, psi))^3-type values independently
    rng = np.random.default_rng(20)
    a = symmetric_from_entries(rng.normal(size=(3, 3)))
    factored = SymmetricForm.from_quadratic_power(a, 3, 0.3)
    dense = SymmetricForm.from_dense(factored.dense())
    x = rng.normal(size=(4200, 3))
    values = factored.eval_diag_batch(x)
    # cancellation in the 3^6-term dense contraction leaves round-off at the
    # scale of the largest values, not of each near-zero result
    assert np.allclose(dense.eval_diag_batch(x), values,
                       rtol=1e-9, atol=1e-9 * np.abs(values).max())
    direct = 0.3 * np.einsum("pi,ij,pj->p", x, a, x) ** 3
    assert np.allclose(values, direct, rtol=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
def test_packed_dense_eval_matches_the_form_on_explicit_arguments(order, dim):
    # the packed kernel against the tensor contracted with k copies of each row
    rng = np.random.default_rng(100 * order + dim)
    form = SymmetricForm.from_dense(rng.normal(size=(dim,) * order))
    x = rng.normal(size=(30, dim)) * 10.0 ** rng.uniform(-2, 2, size=(30, 1))
    x[0] = 0.0
    reference = np.array([form(*[row] * order) for row in x])
    bound = 1e-14 * np.abs(form.dense()).sum() * np.abs(x).max(axis=1) ** order
    assert np.all(np.abs(form.eval_diag_batch(x) - reference) <= bound)


def test_packed_dense_eval_stays_small_at_order_six():
    # dim 6, order 6: a pass holds (56, 2048) monomial arrays, where a
    # (2048, 6^5) product, 127 MB, would be needed to contract row by axis
    rng = np.random.default_rng(22)
    form = SymmetricForm.from_dense(rng.normal(size=(6,) * 6))
    x = rng.normal(size=(4096, 6))
    tracemalloc.start()
    try:
        values = form.eval_diag_batch(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    reference = np.array([form(*[row] * 6) for row in x[:50]])
    assert np.allclose(values[:50], reference, rtol=0.0,
                       atol=1e-14 * np.abs(form.tensor).sum() * np.abs(x[:50]).max() ** 6)


def test_dense_eval_pass_is_held_to_the_size_cap(monkeypatch):
    # a pass at dim 6 and order 6 forms (56, rows) monomial products, held to
    # MAX_DENSE_SIZE entries; under a cap of 4 * 6^5 entries the 300 rows
    # give the same values, and the pass stays far below the 6^5 entries per
    # row that contracting the tensor with each row would hold
    rng = np.random.default_rng(21)
    form = SymmetricForm.from_dense(rng.normal(size=(6,) * 6))
    x = rng.normal(size=(300, 6))
    whole = form.eval_diag_batch(x)
    monkeypatch.setattr(functionals, "MAX_DENSE_SIZE", 4 * 6 ** 5)
    tracemalloc.start()
    try:
        blocked = form.eval_diag_batch(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x.shape[0] * 6 ** 5 * 8 / 4
    assert np.allclose(blocked, whole, rtol=1e-12, atol=1e-12 * np.abs(whole).max())


def test_from_dense_refuses_a_tensor_over_the_size_cap(monkeypatch):
    monkeypatch.setattr(functionals, "MAX_DENSE_SIZE", 3 ** 4 - 1)
    with pytest.raises(SizeError, match="order 4 at dim 3 is too large"):
        SymmetricForm.from_dense(np.zeros((3,) * 4))


@given(st.integers(1, 64), st.integers(1, 40), st.integers(0, 2 ** 32 - 1),
       st.floats(1e-3, 1e3))
@settings(max_examples=40, deadline=None)
def test_quadratic_form_rows_matches_three_operand_einsum(dim, rows, seed, scale):
    rng = np.random.default_rng(seed)
    x = scale * rng.standard_normal((rows, dim))
    a = symmetric_from_entries(rng.standard_normal((dim, dim)))
    reference = np.einsum("pi,ij,pj->p", x, a, x)
    bound = 1e-12 * np.einsum("pi,pi->p", x, x) * operator_norm(a)
    assert np.all(np.abs(quadratic_form_rows(x, a) - reference) <= bound)


def _binomial_characteristic(mu: Fraction) -> tuple[Fraction, Fraction]:
    """(1 - 2 i mu)^(-1/2) as (real, imaginary) Fractions: its binomial
    series sum_n C(2n, n) (i mu / 2)^n, whose n-th term is at most |2 mu|^n.
    The sum stops when the tail is below 1e-30 (2 mu)^2, relative to cos - 1,
    which is of order mu^2."""
    ratio = abs(2 * mu)
    assert ratio < 1
    parts, n, term = [Fraction(0), Fraction(0)], 0, Fraction(1)
    while ratio ** n / (1 - ratio) >= Fraction(1, 10 ** 30) * ratio ** 2:
        sign = 1 if n % 4 < 2 else -1
        parts[n % 2] += sign * term
        n += 1
        term *= Fraction(2 * n * (2 * n - 1), n * n) * mu / 2
    return parts[0], parts[1]


def _relative_error(value: float, exact: Fraction) -> Fraction:
    return abs(Fraction(value) - exact) / abs(exact)


# diagonal B and A with dyadic entries, which floats hold exactly
_ORACLE_CASES = [
    ([Fraction(3, 4)], [Fraction(5, 8)]),
    ([Fraction(1, 2), Fraction(1, 4)], [Fraction(3, 4), Fraction(-1, 2)]),
    ([Fraction(1, 8), Fraction(3, 8), Fraction(1)],
     [Fraction(-1, 4), Fraction(7, 8), Fraction(1, 2)]),
]


@pytest.mark.parametrize("b, a", _ORACLE_CASES, ids=["dim1", "dim2", "dim3"])
def test_sin_and_cos_closed_forms_match_an_exact_series(b, a):
    # under alpha B the characteristic is prod_j (1 - 2 i alpha b_j a_j)^(-1/2),
    # summed exactly in rationals: cos - 1 and sin keep 1e-15 relative
    # accuracy down to alpha = 1e-8, where cos - 1 is of order 1e-17
    rho = GaussianState(np.diag([float(v) for v in b]))
    op = np.diag([float(v) for v in a])
    alphas = [1e-1, 1e-2, 1e-4, 1e-6, 1e-8]
    cos_values = CosQuadMinusOne(op).closed_form(rho, alphas)
    sin_values = SinQuad(op).closed_form(rho, alphas)
    for alpha, cos_value, sin_value in zip(alphas, cos_values, sin_values):
        re, im = Fraction(1), Fraction(0)
        for bj, aj in zip(b, a):
            fre, fim = _binomial_characteristic(Fraction(alpha) * bj * aj)
            re, im = re * fre - im * fim, re * fim + im * fre
        assert _relative_error(cos_value, re - 1) <= Fraction(1, 10 ** 15), alpha
        assert _relative_error(sin_value, im) <= Fraction(1, 10 ** 15), alpha


def test_cos_minus_one_kernel_matches_an_exact_series():
    # cos q - 1 = sum_(n >= 1) (-1)^n q^(2n) / (2n)!, alternating with
    # falling terms for q <= 1, so the first omitted term bounds the tail
    qs = [10.0 ** -k for k in range(9)]
    values = CosQuadMinusOne([[1.0]]).eval_batch(np.ones((1, 1)), qs)[0]
    for q, value in zip(qs, values):
        x = Fraction(q)
        exact, n, term = Fraction(0), 1, -x * x / 2
        while abs(term) >= Fraction(1, 10 ** 30) * x * x:
            exact += term
            term *= -x * x / ((2 * n + 1) * (2 * n + 2))
            n += 1
        assert _relative_error(float(value), exact) <= Fraction(1, 10 ** 15), q


def test_closed_forms_reach_their_limit_when_the_characteristic_overflows():
    # 4 (r mu)^2 overflows to inf: |E exp(i q)| -> 0, so cos - 1 -> -1 and
    # sin -> 0, with no RuntimeWarning (warnings are errors in this suite)
    rho = GaussianState(np.diag([1.0, 0.5]))
    op = np.diag([2.0, -3.0])
    assert SinQuad(op).closed_form(rho, [1e300]) == [0.0]
    assert CosQuadMinusOne(op).closed_form(rho, [1e300]) == [pytest.approx(-1.0, rel=1e-15)]
