from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cqlab import experiments
from cqlab.correspondence import (
    DensityOperator,
    ObservableMultiple,
    generalized_average,
    quantum_average,
    t2n_variable,
    t_state,
    t_state_extended,
    t_variable,
)
from cqlab.errors import (
    ClassMembershipError,
    DegenerateStateError,
    DimensionMismatchError,
    OrderError,
)
from cqlab.experiments import ExperimentConfig, alpha_sweep, analytic_average
from cqlab.functionals import (
    CosQuadMinusOne,
    EvenPolynomial,
    Quadratic,
    SinQuad,
    SymmetricForm,
)
from cqlab.gaussian import GaussianState, draw_chunked, pure_state_measure
from cqlab.hilbert import outer_product, symmetric_from_entries


def test_t_state_maximally_mixed():
    n, alpha = 4, 0.12
    rho = GaussianState(np.eye(n) * (alpha / n))
    d = t_state(rho, alpha)
    assert np.allclose(d.matrix, np.eye(n) / n, atol=1e-15)


def test_t_state_pure_state_recovers_projector():
    psi = np.array([0.6, 0.8])
    alpha = 0.05
    d = t_state(pure_state_measure(psi, alpha), alpha)
    assert np.allclose(d.matrix, outer_product(psi), atol=1e-14)


def test_t_state_componentwise_division():
    d = t_state(GaussianState(np.diag([0.06, 0.04])), 0.1)
    assert np.allclose(d.matrix, np.diag([0.6, 0.4]), atol=1e-15)


def test_t_state_rejects_wrong_dispersion():
    rho = GaussianState(np.diag([0.06, 0.04]))
    with pytest.raises(ClassMembershipError):
        t_state(rho, 0.2)


def test_t_state_rejects_zero_covariance():
    rho = GaussianState(np.zeros((2, 2)))
    with pytest.raises(DegenerateStateError):
        t_state(rho, 0.1)


def test_t_state_injective_on_fixed_dispersion_class():
    alpha = 0.1
    r1 = GaussianState(np.diag([0.06, 0.04]))
    r2 = GaussianState(np.diag([0.05, 0.05]))
    d1 = t_state(r1, alpha)
    d2 = t_state(r2, alpha)
    assert not np.array_equal(d1.matrix, d2.matrix)


def test_t_state_extended_unit_trace():
    rng = np.random.default_rng(1)
    for _ in range(10):
        m = rng.normal(size=(3, 3))
        rho = GaussianState(m @ m.T)
        d = t_state_extended(rho)
        assert abs(np.trace(d.matrix) - 1.0) <= 1e-12


def test_t_state_extended_not_injective():
    # dyadic rescaling of B scales trace exactly, so the normalized images
    # coincide bitwise
    b = np.diag([0.06, 0.04])
    d1 = t_state_extended(GaussianState(b))
    d2 = t_state_extended(GaussianState(4.0 * b))
    assert np.array_equal(d1.matrix, d2.matrix)


def test_t_state_extended_near_equal_dispersions():
    b = np.diag([0.06, 0.04])
    d1 = t_state_extended(GaussianState(b))
    d2 = t_state_extended(GaussianState(1.0000001 * b))
    assert np.allclose(d1.matrix, d2.matrix, atol=1e-12)


def test_t_state_extended_rejects_zero_dispersion():
    with pytest.raises(DegenerateStateError):
        t_state_extended(GaussianState(np.zeros((2, 2))))


def test_t_state_extended_non_gaussian_state():
    # oracle: sample covariance of a product-Laplace state approaches its
    # analytic diagonal, and the extended map is covariance over trace
    from cqlab.experiments import SecondMomentState

    v = np.array([0.02, 0.01, 0.03])
    state = SecondMomentState.product_laplace(v)
    d = t_state_extended(state)
    assert np.allclose(d.matrix, np.diag(v) / v.sum(), atol=1e-15)
    batch = draw_chunked(71, 200_000, state.fill, state.dim)
    x = batch.samples
    cov_hat = x.T @ x / batch.count
    band = 4.0 * np.sqrt(5.0 * np.outer(v, v) / batch.count)  # Laplace 4th moment 6 v^2
    assert np.all(np.abs(cov_hat - np.diag(v)) <= band + 1e-12)


def test_serialization_carries_order_tags():
    d = DensityOperator(np.eye(2) / 2.0)
    assert d.to_dict()["order"] == 2
    multiple = ObservableMultiple((
        SymmetricForm.from_matrix(np.eye(2)),
        SymmetricForm.from_quadratic_power(np.eye(2), 2, 0.5),
    ))
    doc = multiple.to_dict()
    assert doc["orders"] == [2, 4]
    assert doc["components"][1]["kind"] == "pairing"
    assert doc["components"][1]["order"] == 4


def test_t_variable_quadratic_returns_operator_exactly():
    rng = np.random.default_rng(2)
    a = symmetric_from_entries(rng.normal(size=(3, 3)))
    assert np.array_equal(t_variable(Quadratic(a)), a)


def test_t_variable_sin_equals_quadratic_image():
    rng = np.random.default_rng(3)
    a = symmetric_from_entries(rng.normal(size=(3, 3)))
    assert np.array_equal(t_variable(SinQuad(a)), t_variable(Quadratic(a)))


def test_t_variable_cos_minus_one_is_zero():
    a = symmetric_from_entries([[0.3, 0.1], [0.1, 0.5]])
    assert np.array_equal(t_variable(CosQuadMinusOne(a)), np.zeros((2, 2)))


def test_t_variable_linear_on_polynomial_sums():
    rng = np.random.default_rng(4)
    q1 = symmetric_from_entries(rng.normal(size=(3, 3)))
    q2 = symmetric_from_entries(rng.normal(size=(3, 3)))
    f1 = EvenPolynomial({2: SymmetricForm.from_matrix(q1)})
    f2 = EvenPolynomial({2: SymmetricForm.from_matrix(q2)})
    fsum = EvenPolynomial({2: SymmetricForm.from_matrix(q1 + q2)})
    assert np.allclose(t_variable(fsum), t_variable(f1) + t_variable(f2), atol=1e-14)
    fscaled = EvenPolynomial({2: SymmetricForm.from_matrix(2.5 * q1)})
    assert np.allclose(t_variable(fscaled), 2.5 * t_variable(f1), atol=1e-14)


def test_quantum_average_pure_state():
    psi = np.array([0.6, 0.8])
    a = symmetric_from_entries([[2.0, 1.0], [1.0, -1.0]])
    d = DensityOperator(outer_product(psi))
    assert quantum_average(d, a) == pytest.approx(float(psi @ a @ psi), rel=1e-12)


def test_quantum_average_identity_is_one():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(3, 3))
    b = m @ m.T
    d = DensityOperator(b / np.trace(b))
    assert quantum_average(d, np.eye(3)) == pytest.approx(1.0, rel=1e-12)


def test_quantum_average_maximally_mixed_diagonal():
    d = DensityOperator(np.eye(4) / 4.0)
    a = np.diag([1.0, 2.0, 3.0, 4.0])
    assert quantum_average(d, a) == pytest.approx(2.5, rel=1e-12)


@pytest.mark.parametrize("a", [np.eye(3), np.ones(4), np.ones((4, 4, 1))])
def test_quantum_average_rejects_wrong_shape(a):
    with pytest.raises(DimensionMismatchError):
        quantum_average(DensityOperator(np.eye(4) / 4.0), a)


def test_t2n_order_one_reduces_to_t_variable():
    rng = np.random.default_rng(6)
    a = symmetric_from_entries(rng.normal(size=(2, 2)))
    multiple = t2n_variable(Quadratic(a), 1, 0.1)
    assert len(multiple.forms) == 1
    assert np.allclose(multiple.forms[0].dense(),
                       t_variable(Quadratic(a)), atol=1e-15)


def test_t2n_cos_family_components():
    a = 0.7
    alpha = 0.05
    multiple = t2n_variable(CosQuadMinusOne([[a]]), 2, alpha)
    assert multiple.forms[0].is_zero
    # A_4 = (alpha/4!) f''''(0), a 1-d tensor with entry (alpha/24)(-12 a^2)
    a4 = multiple.forms[1].dense()[0, 0, 0, 0]
    assert a4 == pytest.approx(alpha / 24.0 * (-12.0 * a * a), rel=1e-12)


def test_t2n_even_polynomial_bookkeeping():
    # oracle: f^(2k)(0) = (2k)! sym(Q_2k), so A_2 = sym(Q_2), A_4 = alpha sym(Q_4)
    rng = np.random.default_rng(7)
    q2 = symmetric_from_entries(rng.normal(size=(2, 2)))
    q4 = SymmetricForm.from_quadratic_power(symmetric_from_entries(rng.normal(size=(2, 2))), 2, 1.0)
    f = EvenPolynomial({2: SymmetricForm.from_matrix(q2), 4: q4})
    alpha = 1.0
    multiple = t2n_variable(f, 2, alpha)
    assert np.allclose(multiple.forms[0].dense(), q2, atol=1e-14)
    assert np.allclose(multiple.forms[1].dense(), q4.dense(), rtol=1e-12)


def test_generalized_average_single_component_is_quantum_average():
    rng = np.random.default_rng(8)
    a = symmetric_from_entries(rng.normal(size=(3, 3)))
    m = rng.normal(size=(3, 3))
    b = m @ m.T
    d = DensityOperator(b / np.trace(b))
    multiple = ObservableMultiple((SymmetricForm.from_matrix(a),))
    assert generalized_average(d, multiple) == pytest.approx(
        quantum_average(d, a), rel=1e-12)


def test_generalized_average_one_dimensional_quartic():
    # oracle: E c psi^4 = 3 c alpha^2 for psi ~ N(0, alpha); route it through
    # the order-4 observable and confirm alpha * average reproduces it
    c, alpha = 0.8, 0.3
    f = EvenPolynomial({4: SymmetricForm.from_dense(np.full((1, 1, 1, 1), c))})
    rho = GaussianState(np.array([[alpha]]))
    d = t_state(rho, alpha)
    avg = generalized_average(d, t2n_variable(f, 2, alpha))
    assert alpha * avg == pytest.approx(3.0 * c * alpha * alpha, rel=1e-12)


def test_generalized_average_cos_quad_order_eight():
    # the order-8 component is a factored form, contracted in closed form;
    # Taylor data stop where (2n)! leaves the double range, so n = 86 is refused
    rng = np.random.default_rng(12)
    alpha = 0.3
    m = rng.normal(size=(3, 3))
    rho = GaussianState(m @ m.T * (alpha / np.trace(m @ m.T)))
    f = CosQuadMinusOne(symmetric_from_entries(rng.normal(size=(3, 3))))
    generalized = alpha * generalized_average(t_state(rho, alpha), t2n_variable(f, 4, alpha))
    assert generalized == pytest.approx(analytic_average(f, rho, 8), rel=1e-12)
    with pytest.raises(OrderError):
        t2n_variable(f, 86, alpha)


# g^(k)(0) for k = 0, 1, 2, 3 (mod 4)
_G_DERIVATIVES = {SinQuad: (0, 1, 0, -1), CosQuadMinusOne: (1, 0, -1, 0)}


# alpha_c = 1/(2a) = 0.714: at 0.6 and 0.7 (0.84 and 0.98 of it) the order-170
# term still matters while alpha^84 / 170! is below the smallest double
@pytest.mark.parametrize("alpha, rtol", [(0.3, 1e-15), (0.6, 1e-15), (0.7, 1e-15), (2.0, 4e-15)])
@pytest.mark.parametrize("family", list(_G_DERIVATIVES), ids=lambda c: c.__name__)
def test_generalized_average_matches_the_exact_series_to_order_170(family, alpha, rtol):
    # at dim 1, E (a psi^2)^k = (a alpha)^k (2k-1)!! under N(0, alpha), so the
    # order-2n model of g(a psi^2) is sum_(k<=n) g^(k)(0)/k! (a alpha)^k (2k-1)!!,
    # summed here in exact rationals of the same doubles a and alpha.  At
    # alpha = 2, past alpha_c = 1/(2a), each partial sum is dominated by its
    # last term, so every order's contraction shows, to a few ulps of it
    a = 0.7
    f, rho = family([[a]]), GaussianState(np.array([[alpha]]))
    d = t_state(rho, alpha)
    x = Fraction(a) * Fraction(alpha)
    exact, double_fact = Fraction(0), 1
    for n in range(1, 86):
        double_fact *= 2 * n - 1
        exact += Fraction(_G_DERIVATIVES[family][n % 4], math.factorial(n)) * x ** n * double_fact
        got = alpha * generalized_average(d, t2n_variable(f, n, alpha))
        assert abs(Fraction(got) - exact) <= Fraction(rtol) * abs(exact), n


@pytest.mark.parametrize("family", list(_G_DERIVATIVES), ids=lambda c: c.__name__)
def test_order_170_model_matches_the_closed_form_inside_the_radius(family):
    # the model is a power series in alpha with radius alpha_c = 1/(2 max |mu|),
    # mu the eigenvalues of D A; at alpha = alpha_c / 10 its order-170
    # truncation is the closed form to round-off: cumulants against the
    # characteristic function
    rng = np.random.default_rng(29)
    m = rng.normal(size=(3, 3))
    dmat = m @ m.T / np.trace(m @ m.T)
    f = family(symmetric_from_entries(rng.normal(size=(3, 3))))
    alpha = 0.1 / (2.0 * np.abs(np.linalg.eigvals(dmat @ f.operator)).max())
    rho = GaussianState(alpha * dmat)
    generalized = alpha * generalized_average(t_state(rho, alpha), t2n_variable(f, 85, alpha))
    [closed] = f.closed_form(rho)
    assert generalized == pytest.approx(closed, rel=1e-13, abs=0.0)


def test_observable_multiple_validates_orders():
    with pytest.raises(OrderError):
        ObservableMultiple((SymmetricForm.zero(4, 2),))


def test_variables_equivalent_quadratic_and_sine():
    rng = np.random.default_rng(9)
    a = symmetric_from_entries(rng.normal(size=(3, 3)))
    assert np.array_equal(t_variable(Quadratic(a)), t_variable(SinQuad(a)))


def test_variables_not_equivalent_under_scaling():
    a = symmetric_from_entries([[1.0, 0.0], [0.0, 2.0]])
    assert not np.allclose(t_variable(Quadratic(a)), t_variable(Quadratic(2.0 * a)))


def test_cos_equivalent_to_zero_variable():
    a = symmetric_from_entries([[0.4, 0.2], [0.2, 0.1]])
    assert np.array_equal(t_variable(CosQuadMinusOne(a)), t_variable(Quadratic(np.zeros((2, 2)))))


def test_equivalent_variables_share_all_quantum_predictions():
    rng = np.random.default_rng(10)
    a = symmetric_from_entries(rng.normal(size=(3, 3)))
    f, g = Quadratic(a), SinQuad(a)
    for _ in range(5):
        m = rng.normal(size=(3, 3))
        b = m @ m.T
        d = DensityOperator(b / np.trace(b))
        assert quantum_average(d, t_variable(f)) == quantum_average(d, t_variable(g))


def test_density_operator_validation():
    with pytest.raises(ValueError):
        DensityOperator(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityOperator(np.diag([1.5, -0.5]))  # indefinite
    with pytest.raises(ValueError):  # a second-moment state is not checked on construction
        t_state_extended(SimpleNamespace(covariance=np.diag([1.5, -0.5]), dispersion=lambda: 1.0))


def test_t_state_reuses_the_checked_spectrum(monkeypatch):
    calls = dict.fromkeys(["eigvalsh", "eigh", "t_state", "closed_form_average"], 0)
    for module, name in [(np.linalg, "eigvalsh"), (np.linalg, "eigh"),
                         (experiments, "t_state"), (experiments, "closed_form_average")]:
        def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    path = Path(__file__).resolve().parent.parent / "configs" / "cos_sweep.json"
    cfg = ExperimentConfig.from_json(json.loads(path.read_text(encoding="utf-8")))
    alpha_sweep(cfg)
    # the whole grid reads one state: one eigh as it is built, one t_state,
    # which eigendecomposes nothing, and one closed-form call at every ratio,
    # whose cos closed form takes one eigvalsh
    assert len(cfg.alpha_grid) == 5
    assert calls == {"eigvalsh": 1, "eigh": 1, "t_state": 1, "closed_form_average": 1}


def test_map_outputs_pass_density_invariants():
    rng = np.random.default_rng(11)
    alpha = 0.07
    for _ in range(20):
        m = rng.normal(size=(4, 4))
        b = m @ m.T
        b *= alpha / np.trace(b)
        d = t_state(GaussianState(b), alpha)
        vals = np.linalg.eigvalsh(d.matrix)
        assert abs(np.trace(d.matrix) - 1.0) <= 1e-9
        assert vals.min() >= -1e-12
