from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqlab.errors import DimensionMismatchError, OrderError, SizeError
from cqlab.functionals import SymmetricForm, double_factorial, perfect_matchings
from cqlab.gaussian import GaussianState
from cqlab.hilbert import symmetric_from_entries, trace_product
from cqlab.wick import (
    gaussian_integral_multilinear,
    moment_form,
    moment_mc_check,
    trace_forms,
)


def test_single_pairing_for_k_one():
    assert perfect_matchings(1) == (((0, 1),),)


def test_three_pairings_for_k_two():
    got = perfect_matchings(2)
    assert len(got) == 3
    assert got == (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


def test_fifteen_pairings_for_k_three():
    # oracle: exhaustive enumeration of partitions of 6 items into pairs
    got = perfect_matchings(3)
    assert len(got) == 15 == double_factorial(5)
    seen = set()
    for matching in got:
        flat = sorted(i for pair in matching for i in pair)
        assert flat == list(range(6))
        seen.add(frozenset(frozenset(p) for p in matching))
    assert len(seen) == 15


@given(st.integers(1, 4))
@settings(max_examples=10, deadline=None)
def test_pairing_count_is_double_factorial(k):
    assert len(perfect_matchings(k)) == double_factorial(2 * k - 1)


def test_moment_eval_repeated_axis_is_three():
    # oracle: fourth moment of a standard normal coordinate, E z^4 = 3
    e1 = np.eye(3)[0]
    assert moment_form(np.eye(3), 4)(e1, e1, e1, e1) == 3.0


def test_moment_eval_split_axes_is_one():
    # only the (0,1)(2,3) matching survives
    e = np.eye(3)
    assert moment_form(np.eye(3), 4)(e[0], e[0], e[1], e[1]) == 1.0


def test_moment_eval_order_two_is_covariance_form():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(4, 4))
    d = m @ m.T
    y1, y2 = rng.normal(size=4), rng.normal(size=4)
    assert moment_form(d, 2)(y1, y2) == pytest.approx(float(y1 @ d @ y2), rel=1e-12)


def test_moment_eval_rejects_odd_count():
    with pytest.raises(OrderError):
        moment_form(np.eye(2), 3)


def test_moment_form_multilinear_in_each_slot():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(3, 3))
    d = m @ m.T
    args = [rng.normal(size=3) for _ in range(4)]
    u, v = rng.normal(size=3), rng.normal(size=3)
    a, b = 1.7, -0.4
    for slot in range(4):
        left = list(args)
        left[slot] = a * u + b * v
        with_u = list(args)
        with_u[slot] = u
        with_v = list(args)
        with_v[slot] = v
        lhs = moment_form(d, 4)(*left)
        rhs = a * moment_form(d, 4)(*with_u) + b * moment_form(d, 4)(*with_v)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_trace_forms_order_two_reduces_to_trace_product():
    rng = np.random.default_rng(7)
    a = symmetric_from_entries(rng.normal(size=(4, 4)))
    b = symmetric_from_entries(rng.normal(size=(4, 4)))
    fa = SymmetricForm.from_matrix(a)
    fb = SymmetricForm.from_matrix(b)
    assert trace_forms(fb, fa) == pytest.approx(trace_product(b, a), rel=1e-12)


def test_trace_forms_single_surviving_tuple():
    t = np.zeros((2, 2, 2, 2))
    t[0, 0, 0, 0] = 1.0
    f = SymmetricForm.from_dense(t)
    assert trace_forms(f, f) == 1.0


def test_trace_forms_matches_quadruple_loop():
    # oracle: naive summation over all 3^4 basis tuples
    rng = np.random.default_rng(9)
    fa = SymmetricForm.from_dense(rng.normal(size=(3, 3, 3, 3)))
    fb = SymmetricForm.from_dense(rng.normal(size=(3, 3, 3, 3)))
    ta, tb = fa.dense(), fb.dense()
    oracle = 0.0
    for idx in itertools.product(range(3), repeat=4):
        oracle += tb[idx] * ta[idx]
    assert trace_forms(fb, fa) == pytest.approx(oracle, rel=1e-10)


def test_trace_forms_pairing_side_matches_densified():
    rng = np.random.default_rng(10)
    m = rng.normal(size=(3, 3))
    d = symmetric_from_entries(m @ m.T)
    e4 = moment_form(d, 4)
    a4 = SymmetricForm.from_dense(rng.normal(size=(3, 3, 3, 3)))
    dense_route = float(np.sum(e4.dense() * a4.dense()))
    assert trace_forms(e4, a4) == pytest.approx(dense_route, rel=1e-10)


@given(st.integers(1, 4), st.sampled_from((4, 6)), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_closed_form_contractions_match_fully_dense(dim, order, seed):
    # reference: both sides densified, so the dense x dense branch runs
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim))
    b = moment_form(symmetric_from_entries(m @ m.T), order)
    a_pair = SymmetricForm.from_quadratic_power(rng.normal(size=(dim, dim)), order // 2,
                                                rng.normal())
    a_dense = SymmetricForm.from_dense(rng.normal(size=(dim,) * order))
    b_ref = SymmetricForm.from_dense(b.dense())
    for a in (a_pair, a_dense):
        got = trace_forms(b, a)
        ref = trace_forms(b_ref, SymmetricForm.from_dense(a.dense()))
        scale = float(np.sum(np.abs(b.dense()) * np.abs(a.dense())))
        assert abs(got - ref) <= 1e-12 * scale


def test_trace_forms_one_dimensional_order_eight():
    # oracle: at dim 1 every form is its single entry, cB 105 d^4 times cA 105 m^4
    d, m, scale = 0.7, -1.3, 2.5
    b = moment_form(np.array([[d]]), 8)
    a = SymmetricForm.from_quadratic_power(np.array([[m]]), 4, scale)
    oracle = b.coeff * a.coeff * double_factorial(7) ** 2 * (d * m) ** 4
    assert trace_forms(b, a) == pytest.approx(oracle, rel=1e-14)
    assert trace_forms(a, b) == pytest.approx(oracle, rel=1e-14)


def test_integral_order_eight_matches_mc():
    rng = np.random.default_rng(21)
    m = rng.normal(size=(3, 3))
    d = symmetric_from_entries(m @ m.T / 3.0)
    form = SymmetricForm.from_quadratic_power(rng.normal(size=(3, 3)), 4, 1.0)
    analytic, mc, stderr = moment_mc_check(GaussianState(d), form, 400_000, seed=41)
    assert abs(analytic - mc) <= 4.0 * stderr


def test_trace_forms_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        trace_forms(SymmetricForm.from_matrix(np.eye(2)), SymmetricForm.from_matrix(np.eye(3)))


@pytest.mark.parametrize("order", [8, 10])
def test_pairing_form_evaluation_capped_at_max_dense_order(order):
    # moment forms exist at any even order, but explicit arguments are
    # contracted by a sum over matchings, which stops at MAX_DENSE_ORDER = 6
    with pytest.raises(SizeError, match="capped at order 6"):
        moment_form(np.eye(1), order)(*[[1.0]] * order)


def test_trace_forms_order_mismatch():
    with pytest.raises(OrderError):
        trace_forms(SymmetricForm.from_matrix(np.eye(2)),
                    SymmetricForm.from_dense(np.zeros((2, 2, 2, 2))))


def test_trace_forms_basis_independent():
    # recompute the contraction after rotating both forms by a random
    # orthogonal matrix; the generalized trace must not move
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    fa = SymmetricForm.from_dense(rng.normal(size=(3, 3, 3, 3)))
    fb = SymmetricForm.from_dense(rng.normal(size=(3, 3, 3, 3)))

    def rotate(t):
        return np.einsum("ijkl,ia,jb,kc,ld->abcd", t, q, q, q, q)

    base = trace_forms(fb, fa)
    rotated = trace_forms(SymmetricForm.from_dense(rotate(fb.dense())),
                          SymmetricForm.from_dense(rotate(fa.dense())))
    assert rotated == pytest.approx(base, rel=1e-9)


def test_integral_order_two_is_trace_formula():
    rng = np.random.default_rng(13)
    a = symmetric_from_entries(rng.normal(size=(4, 4)))
    m = rng.normal(size=(4, 4))
    d = symmetric_from_entries(m @ m.T)
    form = SymmetricForm.from_matrix(a)
    assert gaussian_integral_multilinear(form, d) == pytest.approx(
        trace_product(d, a), rel=1e-12)


def test_integral_odd_order_vanishes():
    rng = np.random.default_rng(14)
    form = SymmetricForm.from_dense(rng.normal(size=(2, 2, 2)))
    assert gaussian_integral_multilinear(form, np.eye(2)) == 0.0


def test_integral_one_dimensional_quartic():
    # oracle: E psi^4 = 3 d^2 for psi ~ N(0, d)
    a_coeff, d = 0.8, 0.3
    form = SymmetricForm.from_dense(np.full((1, 1, 1, 1), a_coeff))
    got = gaussian_integral_multilinear(form, np.array([[d]]))
    assert got == pytest.approx(3.0 * a_coeff * d * d, rel=1e-12)


def test_integral_reproduces_pairing_count_at_identity():
    # A = e1 (x) ... (x) e1 makes every matching contribute one, so the
    # integral equals (2k-1)!!
    for k in (1, 2, 3):
        t = np.zeros((2,) * (2 * k))
        t[(0,) * (2 * k)] = 1.0
        form = SymmetricForm.from_dense(t)
        got = gaussian_integral_multilinear(form, np.eye(2))
        assert got == float(double_factorial(2 * k - 1))


def test_moment_mc_order_two():
    rng = np.random.default_rng(17)
    m = rng.normal(size=(8, 8))
    d = symmetric_from_entries(m @ m.T / 8.0)
    rho = GaussianState(d)
    form = SymmetricForm.from_matrix(symmetric_from_entries(rng.normal(size=(8, 8))))
    analytic, mc, stderr = moment_mc_check(rho, form, 100_000, seed=23)
    assert abs(analytic - mc) <= 4.0 * stderr


def test_moment_mc_order_four():
    rng = np.random.default_rng(18)
    m = rng.normal(size=(4, 4))
    d = symmetric_from_entries(m @ m.T / 4.0)
    rho = GaussianState(d)
    form = SymmetricForm.from_dense(rng.normal(size=(4, 4, 4, 4)))
    analytic, mc, stderr = moment_mc_check(rho, form, 200_000, seed=29)
    assert abs(analytic - mc) <= 4.0 * stderr


def test_moment_mc_rejects_odd_order():
    # odd integrals are 0 through gaussian_integral_multilinear; the MC check
    # averages an even polynomial, so an odd form is refused in one line
    rng = np.random.default_rng(19)
    form = SymmetricForm.from_dense(rng.normal(size=(3, 3, 3)))
    with pytest.raises(OrderError, match="even order") as info:
        moment_mc_check(GaussianState(np.eye(3) * 0.5), form, 50_000, seed=31)
    assert "\n" not in str(info.value)


def test_integral_bounded_by_form_norm_times_moment():
    # |integral| <= ||A|| * E ||psi||^k, checked with a 4-sigma MC slack
    rng = np.random.default_rng(20)
    m = rng.normal(size=(3, 3))
    d = symmetric_from_entries(m @ m.T / 3.0)
    rho = GaussianState(d)
    x = rho.sample(seed=37, count=100_000)
    norms = np.sqrt(np.einsum("pi,pi->p", x, x))
    for order in (2, 4):
        form = SymmetricForm.from_dense(rng.normal(size=(3,) * order))
        integral = gaussian_integral_multilinear(form, d)
        powers = norms ** order
        moment = powers.mean()
        moment_se = powers.std(ddof=1) / math.sqrt(len(x))
        assert abs(integral) <= np.linalg.norm(form.dense()) * (moment + 4.0 * moment_se)
