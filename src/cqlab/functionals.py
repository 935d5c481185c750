"""Classical field variables, their Taylor data at the vacuum, and the
symmetric forms that hold it.

Every built-in family is even in psi and vanishes at zero.  Taylor
coefficients are supplied analytically as symmetric k-linear forms, not by
numeric differentiation: the correspondence maps need f''(0) and f''''(0)
exactly.

Forms induced by powers of a quadratic form, e.g. (A psi, psi)^m, are kept
in a factored pairing representation and densified only on demand.  An
order-2 form is always such a form, with one pair: one symmetric matrix.
Which entries of a dense tensor are one coefficient is said once, by the
orbit map `_orbits`: symmetrization, densification and the packed weights
of dense evaluation all read it.
Only this module knows how a form is stored, so form contraction and
Gaussian moment forms live here, and each variable integrates its own terms.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from functools import cached_property, lru_cache, reduce

import numpy as np

from .errors import DimensionMismatchError, OrderError, SizeError
from .hilbert import as_vector, require_symmetric, symmetric_from_entries, trace_product

# The one order cap: every enumeration (dense tensors, orbit maps and sums
# over explicit matchings) stops at order 6.  Factored forms contract in
# closed form at any order, so Taylor data stop only where k! leaves the
# double range (`Functional._check_order`).
MAX_DENSE_ORDER = 6
MAX_DENSE_SIZE = 20_000_000  # entries of a dense tensor, and of one eval_diag_batch product
_DIAG_BLOCK = 2048  # most rows per contraction pass of a dense eval_diag_batch


def double_factorial(m: int) -> int:
    """(m)!! for odd m >= -1, i.e. 1*3*5*...*m."""
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


@lru_cache(maxsize=None)
def perfect_matchings(k: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All perfect matchings of {0, ..., 2k-1}, lexicographically ordered.

    Each matching pairs the smallest free index first, so the list for k=2 is
    ((0,1),(2,3)), ((0,2),(1,3)), ((0,3),(1,2)).  There are (2k-1)!! of them.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    def rec(free: tuple[int, ...]):
        if not free:
            yield ()
            return
        a = free[0]
        rest = free[1:]
        for i, b in enumerate(rest):
            for tail in rec(rest[:i] + rest[i + 1:]):
                yield ((a, b),) + tail

    return tuple(rec(tuple(range(2 * k))))


def require_dense_size(order: int, dim: int) -> None:
    """Raise SizeError unless a dense tensor of this order on R^dim is within
    both dense caps."""
    if order > MAX_DENSE_ORDER:
        raise SizeError(f"dense forms are capped at order {MAX_DENSE_ORDER}")
    if dim ** order > MAX_DENSE_SIZE:
        raise SizeError(f"dense tensor of order {order} at dim {dim} is too large")


def quadratic_form_rows(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(A x_p, x_p) for every row x_p of x, shape (N,): one GEMM, then a
    row-wise dot product."""
    return np.einsum("pi,pi->p", x @ a, x)


def _orbits(dim: int, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rank, sizes, tuples) for the orbits of the dim^order index tuples
    under reordering.  rank[p] is the colex rank (by last index, then the
    same way on the rest) of the p-th tuple in C order once sorted,
    i_0 <= i_1 <= ...: sum_j C(i_j + j, j + 1).  Orbit m holds sizes[m]
    tuples; tuples[:, m] is its sorted one, read off m from the last index."""
    comb = np.array([[math.comb(i + j, j + 1) for i in range(dim)] for j in range(order)],
                    dtype=np.intp)
    idx = np.indices((dim,) * order, dtype=np.int32).reshape(order, dim ** order)
    idx.sort(axis=0)
    rank = np.zeros(dim ** order, dtype=np.intp)
    for c, row in zip(comb, idx):
        rank += c[row]
    sizes = np.bincount(rank)
    tuples, left = np.empty((order, sizes.size), dtype=np.intp), np.arange(sizes.size)
    for j in reversed(range(order)):
        tuples[j] = np.searchsorted(comb[j], left, side="right") - 1
        left -= comb[j, tuples[j]]
    return rank, sizes, tuples


def _monomial_rows(xt: np.ndarray, degree: int) -> list[np.ndarray]:
    """[y_0, ..., y_degree] for the columns of xt, shape (dim, rows): y_j
    holds the degree-j monomials, row m the product over orbit m's sorted
    tuple in `_orbits(dim, j)`.  In colex order the degree-(j-1) tuples
    whose last index is at most i lead, so y_j stacks those rows of y_(j-1)
    times row i of xt."""
    ys = [np.ones((1, xt.shape[1])), xt][:degree + 1]
    for j in range(2, degree + 1):
        ys.append(np.concatenate([ys[-1][:math.comb(i + j - 1, j - 1)] * xt[i]
                                  for i in range(xt.shape[0])]))
    return ys


def symmetrize_tensor(t: np.ndarray) -> np.ndarray:
    """Average a tensor over all axis permutations: each entry becomes the
    mean of its `_orbits` orbit, so the output is bitwise
    permutation-invariant and symmetrization is exactly idempotent;
    already-symmetric input is returned unchanged."""
    if all(np.array_equal(t, np.swapaxes(t, i, i + 1)) for i in range(t.ndim - 1)):
        return t
    rank, sizes, _ = _orbits(t.shape[0], t.ndim)
    return (np.bincount(rank, t.ravel()) / sizes)[rank].reshape(t.shape)


class SymmetricForm:
    """Symmetric k-linear form on R^n.

    kind == "dense":   explicit tensor with k axes, k != 2.
    kind == "pairing": coeff * sum over perfect matchings of prod (z_a, M z_b),
                       order 2m; this is coeff*(2m-1)!! * sym(M tensor-power m).
                       Every nonzero order-2 form is one: coeff * (z_1, M z_2).
    kind == "zero":    identically zero at any order.
    """

    def __init__(self, kind: str, order: int, dim: int, tensor=None,
                 matrix=None, npairs: int = 0, coeff: float = 0.0):
        self.kind = kind
        self.order = order
        self.dim = dim
        self.tensor = tensor
        self.matrix = matrix
        self.npairs = npairs
        self.coeff = coeff

    @classmethod
    def zero(cls, order: int, dim: int) -> "SymmetricForm":
        return cls("zero", order, dim)

    @classmethod
    def from_dense(cls, tensor) -> "SymmetricForm":
        t = np.asarray(tensor, dtype=np.float64)
        if t.ndim < 1:
            raise OrderError("a form needs at least one axis")
        dims = set(t.shape)
        if len(dims) != 1:
            raise DimensionMismatchError(f"tensor axes disagree: shape {t.shape}")
        require_dense_size(t.ndim, t.shape[0])
        if t.ndim == 2:
            return cls.from_matrix(t)
        return cls("dense", t.ndim, t.shape[0], tensor=symmetrize_tensor(t))

    @classmethod
    def from_matrix(cls, m) -> "SymmetricForm":
        return cls.from_quadratic_power(m, 1, 1.0)

    @classmethod
    def from_quadratic_power(cls, m, power: int, scale: float) -> "SymmetricForm":
        """The symmetric form whose diagonal is scale * ((M psi, psi))^power."""
        mm = symmetric_from_entries(m)
        coeff = scale / double_factorial(2 * power - 1)
        return cls("pairing", 2 * power, mm.shape[0], matrix=mm, npairs=power, coeff=coeff)

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero" or (self.kind == "pairing" and self.coeff == 0.0)

    def scaled(self, c: float) -> "SymmetricForm":
        if self.kind == "zero":
            return self
        if self.kind == "pairing":
            return SymmetricForm("pairing", self.order, self.dim, matrix=self.matrix,
                                 npairs=self.npairs, coeff=self.coeff * c)
        return SymmetricForm("dense", self.order, self.dim, tensor=self.tensor * c)

    def pullback(self, fmat: np.ndarray) -> "SymmetricForm":
        """The form (z_1, ..., z_k) -> form(F z_1, ..., F z_k) on R^r, for a
        dim x r matrix F: a pairing form's matrix becomes F^T M F, and a
        dense tensor is contracted with F on each axis."""
        rank = fmat.shape[1]
        if self.kind == "zero" or rank == 0:  # every form on R^0 is zero
            return SymmetricForm.zero(self.order, rank)
        if self.kind == "pairing":
            return SymmetricForm("pairing", self.order, rank,
                                 matrix=symmetric_from_entries(fmat.T @ self.matrix @ fmat),
                                 npairs=self.npairs, coeff=self.coeff)
        t = self.tensor
        for _ in range(self.order):  # contract the leading axis, append the new one last
            t = np.tensordot(t, fmat, axes=([0], [0]))
        return SymmetricForm.from_dense(t)

    def __call__(self, *args) -> float:
        vs = [as_vector(a, self.dim) for a in args]
        if len(vs) != self.order:
            raise OrderError(f"form of order {self.order} got {len(vs)} arguments")
        if self.kind == "zero":
            return 0.0
        if self.kind == "pairing":
            if self.order > MAX_DENSE_ORDER:
                raise SizeError(f"matching sums are capped at order {MAX_DENSE_ORDER}")
            z = np.stack(vs)
            gram = z @ self.matrix @ z.T
            total = 0.0
            for matching in perfect_matchings(self.npairs):
                term = 1.0
                for a, b in matching:
                    term *= gram[a, b]
                total += term
            return float(self.coeff * total)
        cur = self.tensor
        for v in vs:
            cur = np.tensordot(cur, v, axes=([0], [0]))
        return float(cur)

    def eval_diag_batch(self, x: np.ndarray) -> np.ndarray:
        """Diagonal values form(x_p, ..., x_p) for each row x_p of x, shape (N,).

        A dense form is a homogeneous polynomial, so it needs only the
        C(dim + k - 1, k) monomials of a row: with y_j the degree-j
        monomials of a block of rows laid out (monomials, rows), its value
        is the column sum of y_b * (W^T y_a), W from `_packed_weights`.
        A pairing form is c (2m-1)!! (M x_p, x_p)^m."""
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise DimensionMismatchError(f"expected (N, {self.dim}) samples, got {x.shape}")
        if self.kind == "zero":
            return np.zeros(x.shape[0])
        if self.kind == "pairing":
            q = quadratic_form_rows(x, self.matrix)
            return self.coeff * double_factorial(2 * self.npairs - 1) * q ** self.npairs
        # the largest array of a pass is (n_b, rows), held to MAX_DENSE_SIZE entries
        a = self.order // 2
        wt = self._packed_weights
        out = np.empty(x.shape[0])
        block = max(1, min(_DIAG_BLOCK, MAX_DENSE_SIZE // wt.shape[0]))
        for start in range(0, x.shape[0], block):
            ys = _monomial_rows(np.ascontiguousarray(x[start:start + block].T), self.order - a)
            out[start:start + block] = np.einsum("bp,bp->p", ys[-1], wt @ ys[a])
        return out

    @cached_property
    def _packed_weights(self) -> np.ndarray:
        """W^T of a dense form of order k = a + b, a = k // 2, shape (n_b, n_a):
        W[A, B] = T[A, B] m_A m_B over the orbits A of `_orbits(dim, a)` and
        B of `_orbits(dim, b)`, with m_A the size of orbit A.  Every stored
        dense tensor is exactly symmetric, so T at the joined tuple (A, B)
        is its entry at the sorted one."""
        a = self.order // 2
        _, wb, ib = _orbits(self.dim, self.order - a)
        _, wa, ia = _orbits(self.dim, a)
        return self.tensor[tuple(ib[:, :, None]) + tuple(ia)] * np.multiply.outer(wb, wa)

    def dense(self) -> np.ndarray:
        """The form as a dense tensor.  A pairing form's is
        coeff (2m-1)!! sym(M^(x)m), its sum over matchings; calling the form
        sums the matchings themselves, so the two check each other."""
        require_dense_size(self.order, self.dim)
        if self.kind == "zero":
            return np.zeros((self.dim,) * self.order)
        if self.kind == "dense":
            return self.tensor
        power = reduce(np.multiply.outer, [self.matrix] * self.npairs)
        return self.coeff * double_factorial(self.order - 1) * symmetrize_tensor(power)

    def to_dict(self) -> dict:
        """JSON form: order, dim and kind, plus the stored data unless it is large."""
        out: dict = {"order": self.order, "dim": self.dim, "kind": self.kind}
        if self.kind == "pairing":
            out["coefficient"] = float(self.coeff)
            out["matrix"] = [[float(x) for x in row] for row in self.matrix]
        elif self.kind == "dense" and self.dim ** self.order <= 4096:
            out["entries"] = self.tensor.tolist()
        return out


def moment_form(d, order: int) -> SymmetricForm:
    """Moment form of the Gaussian measure with covariance D at the given even order.

    Even moments of a zero-mean Gaussian measure are sums over perfect
    matchings of covariance contractions; odd moments vanish.
    """
    dm = require_symmetric(d)
    if order < 2 or order % 2 != 0:
        raise OrderError(f"moment forms exist at even orders >= 2, got {order}")
    # sum over matchings of prod (D z_a, z_b) == (2k-1)!! sym(D^(x) k)
    return SymmetricForm("pairing", order, dm.shape[0], matrix=dm,
                         npairs=order // 2, coeff=1.0)


def _quadratic_form_moment(d: np.ndarray, m: np.ndarray, k: int) -> float:
    """E[(M psi, psi)^k] for psi ~ N(0, D), from the quadratic-form cumulants
    kappa_l = 2^(l-1) (l-1)! Tr((DM)^l) (Mathai & Provost, Quadratic Forms in
    Random Variables, 1992) by the moment-cumulant recursion
    m_n = sum_{j=1..n} C(n-1, j-1) kappa_j m_(n-j), m_0 = 1.  Both sides are
    polynomials in the entries of D, so this holds for any symmetric D."""
    dm = d @ m
    powers = [dm]
    for _ in range(k - 1):
        powers.append(powers[-1] @ dm)
    # kappas[l] is kappa_(l+1)
    kappas = [2 ** l * math.factorial(l) * float(np.trace(p)) for l, p in enumerate(powers)]
    moments = [1.0]
    for n in range(1, k + 1):
        moments.append(sum(math.comb(n - 1, j - 1) * kappas[j - 1] * moments[n - j]
                           for j in range(1, n + 1)))
    return moments[k]


def _contract_dense_with_pairing(dense: np.ndarray, matrix: np.ndarray, npairs: int,
                                 coeff: float) -> float:
    # a dense form is exactly symmetric, so all (2k-1)!! matchings contract
    # to the value of the first one, (0,1)(2,3)...
    pairs = [x for i in range(0, 2 * npairs, 2) for x in (matrix, [i, i + 1])]
    value = float(np.einsum(dense, range(2 * npairs), *pairs, []))
    return coeff * double_factorial(2 * npairs - 1) * value


def trace_forms(bform: SymmetricForm, aform: SymmetricForm) -> float:
    """Generalized trace: sum over all basis tuples of B(e_j1,..) * A(e_j1,..).

    The value is basis independent.  Two pairing forms contract in closed
    form at any order, with no dense tensor and no sum over matchings: the
    moment form of D against the pairing form of M^(x)k is
    (2k-1)!! E[(M psi, psi)^k], psi ~ N(0, D), which at order 2 is Tr(DM).
    """
    if bform.order != aform.order:
        raise OrderError(f"order mismatch: {bform.order} vs {aform.order}")
    if bform.dim != aform.dim:
        raise DimensionMismatchError(f"dimension mismatch: {bform.dim} vs {aform.dim}")
    if bform.is_zero or aform.is_zero:
        return 0.0
    if bform.kind == "pairing" and aform.kind == "pairing":
        k = bform.npairs
        return (bform.coeff * aform.coeff * double_factorial(2 * k - 1)
                * _quadratic_form_moment(bform.matrix, aform.matrix, k))
    if bform.kind == "pairing":
        return _contract_dense_with_pairing(aform.dense(), bform.matrix, bform.npairs, bform.coeff)
    if aform.kind == "pairing":
        return _contract_dense_with_pairing(bform.dense(), aform.matrix, aform.npairs, aform.coeff)
    return float(np.sum(bform.dense() * aform.dense()))


class Functional:
    """A classical variable f with f(0) = 0, even in psi, evaluated on batches
    of rows only: `eval_batch`, `taylor_form`, `closed_form`, `pullback`."""

    dim: int

    def eval_batch(self, x: np.ndarray, ratios: Sequence[float] = (1.0,)) -> np.ndarray:
        """f(sqrt(r_i) x_p) at every row x_p of x and dispersion ratio r_i,
        shape (N, k), from one contraction of x: every family is
        g((A psi, psi)) or an even polynomial, so scaling psi by sqrt(r)
        scales each order-2j term by r^j.
        """
        raise NotImplementedError

    def taylor_form(self, k: int) -> SymmetricForm:
        """Exact k-th Taylor coefficient f^(k)(0) as a symmetric k-form."""
        raise NotImplementedError

    def closed_form(self, rho, ratios: Sequence[float] = (1.0,)) -> list[float]:
        """Exact averages of f under r_i B, one per dispersion ratio r_i, for
        the Gaussian state rho of covariance B, from one factorization of rho."""
        raise NotImplementedError

    def pullback(self, fmat: np.ndarray) -> "Functional":
        """f o F on R^r, for a dim x r matrix F: the variable z -> f(F z), of
        the same family.  Its `eval_batch` on rows z equals this one's on
        the rows z F^T up to rounding, at every ratio."""
        raise NotImplementedError

    def _check_order(self, k: int) -> None:
        if k < 1:
            raise OrderError(f"Taylor order must be >= 1, got {k}")
        if math.lgamma(k + 1) > math.log(sys.float_info.max):  # k! is not a double: k > 170
            raise OrderError(f"Taylor order {k} is out of range: {k}! overflows a double")


class QuadFormFunctional(Functional):
    """f(psi) = g((A psi, psi)) for an entire g with g(0) = 0.

    A subclass is built from its operator alone (`pullback` builds the
    pulled-back variable so) and describes g by two class attributes and one
    method:

    - ``g(q)``: g applied elementwise to a float or an array;
    - ``g_derivative(m)``: the integer g^(m)(0) for m >= 1, so the Maclaurin
      coefficient is c_m = g^(m)(0) / m! and the order-2m Taylor form is
      c_m (2m)! times the pairing form of A^(x)m;
    - ``closed_form(rho, ratios)``: the exact average of g((A psi, psi))
      under r_i B at each ratio r_i, for the Gaussian state rho of covariance B.
    """

    def __init__(self, a):
        self.operator = symmetric_from_entries(a)
        self.dim = self.operator.shape[0]

    def eval_batch(self, x: np.ndarray, ratios: Sequence[float] = (1.0,)) -> np.ndarray:
        return self.g(np.multiply.outer(quadratic_form_rows(x, self.operator), ratios))

    def pullback(self, fmat: np.ndarray) -> "QuadFormFunctional":
        return type(self)(fmat.T @ self.operator @ fmat)  # the constructor symmetrizes

    def taylor_form(self, k: int) -> SymmetricForm:
        self._check_order(k)
        m, odd = divmod(k, 2)
        derivative = 0 if odd else self.g_derivative(m)
        if derivative == 0:
            return SymmetricForm.zero(k, self.dim)
        # c_m (2m)! = g^(m)(0) (2m)! / m!, exact in integer arithmetic
        scale = float(derivative * (math.factorial(k) // math.factorial(m)))
        return SymmetricForm.from_quadratic_power(self.operator, m, scale)


def quadratic_form_characteristic(rho, a):
    """r -> (x, y) with E exp(i (A psi, psi)) = e^(x + i y) under the Gaussian
    state of covariance r B.  That average is prod_j (1 - 2 i r mu_j)^(-1/2),
    so x = -1/4 sum log1p(4 r^2 mu_j^2) and y = 1/2 sum atan(2 r mu_j), with
    mu_j the eigenvalues of F_a^T A F_a and F_a = `rho.active_factor`: one
    eigvalsh serves every ratio r.  No complex power is taken, so the
    averages built from x and y keep their relative accuracy as r -> 0."""
    fmat = rho.active_factor
    m = fmat.T @ a @ fmat
    if not np.all(np.isfinite(m)):  # eigvalsh may not converge; NaN fails the caller's gate
        return lambda r: (math.nan, math.nan)
    mu = np.linalg.eigvalsh(m)

    def xy(r: float) -> tuple[float, float]:
        with np.errstate(over="ignore"):  # 4 (r mu)^2 = inf gives x = -inf, the limit
            t = 2.0 * (r * mu)
            return -0.25 * float(np.sum(np.log1p(t * t))), 0.5 * float(np.sum(np.arctan(t)))
    return xy


class Quadratic(QuadFormFunctional):
    """f(psi) = (A psi, psi)."""

    g = staticmethod(lambda q: q)
    g_derivative = staticmethod(lambda m: int(m == 1))

    def closed_form(self, rho, ratios: Sequence[float] = (1.0,)) -> list[float]:
        trace = trace_product(rho.covariance, self.operator)
        return [r * trace for r in ratios]


class SinQuad(QuadFormFunctional):
    """f(psi) = sin((A psi, psi))."""

    g = staticmethod(np.sin)
    g_derivative = staticmethod(lambda m: (0, 1, 0, -1)[m % 4])

    def closed_form(self, rho, ratios: Sequence[float] = (1.0,)) -> list[float]:
        phi = quadratic_form_characteristic(rho, self.operator)
        return [math.exp(x) * math.sin(y) for x, y in map(phi, ratios)]


class CosQuadMinusOne(QuadFormFunctional):
    """f(psi) = cos((A psi, psi)) - 1, computed as -2 sin^2(q / 2) and
    e^x cos y - 1 = expm1(x) cos y - 2 sin^2(y / 2), with no cancellation."""

    g = staticmethod(lambda q: -2.0 * np.sin(0.5 * q) ** 2)
    g_derivative = staticmethod(lambda m: (1, 0, -1, 0)[m % 4])

    def closed_form(self, rho, ratios: Sequence[float] = (1.0,)) -> list[float]:
        phi = quadratic_form_characteristic(rho, self.operator)
        return [math.expm1(x) * math.cos(y) - 2.0 * math.sin(0.5 * y) ** 2
                for x, y in map(phi, ratios)]


class EvenPolynomial(Functional):
    """f(psi) = sum_j Q_2j(psi, ..., psi) over even orders 2j."""

    def __init__(self, terms: dict[int, SymmetricForm]):
        if not terms:
            raise ValueError("an even polynomial needs at least one term")
        self.terms: dict[int, SymmetricForm] = {}
        dims = set()
        for order, form in sorted(terms.items()):
            if order < 2 or order % 2 != 0:
                raise OrderError(f"even polynomial terms need even order >= 2, got {order}")
            if form.order != order:
                raise OrderError(f"term labelled {order} has order {form.order}")
            self.terms[order] = form
            dims.add(form.dim)
        if len(dims) != 1:
            raise DimensionMismatchError(f"terms live on different dimensions: {sorted(dims)}")
        self.dim = dims.pop()

    def eval_batch(self, x: np.ndarray, ratios: Sequence[float] = (1.0,)) -> np.ndarray:
        r = np.asarray(ratios, dtype=np.float64)
        out = np.zeros((x.shape[0], r.size))
        for order, q in self.terms.items():
            out += np.multiply.outer(q.eval_diag_batch(x), r ** (order // 2))
        return out

    def pullback(self, fmat: np.ndarray) -> "EvenPolynomial":
        return EvenPolynomial({order: q.pullback(fmat) for order, q in self.terms.items()})

    def taylor_form(self, k: int) -> SymmetricForm:
        self._check_order(k)
        if k in self.terms:
            return self.terms[k].scaled(float(math.factorial(k)))
        return SymmetricForm.zero(k, self.dim)

    def closed_form(self, rho, ratios: Sequence[float] = (1.0,)) -> list[float]:
        # each term is contracted once; the order-2j term under r B is r^j times its value
        terms = [(order // 2, trace_forms(moment_form(rho.covariance, order), q))
                 for order, q in self.terms.items()]
        return [float(sum(r ** j * value for j, value in terms)) for r in ratios]


class ScaledFunctional(Functional):
    """c * f, used for measurement-gain amplification."""

    def __init__(self, base: Functional, factor: float):
        if isinstance(base, ScaledFunctional):
            factor = factor * base.factor
            base = base.base
        self.base = base
        self.factor = factor
        self.dim = base.dim

    def eval_batch(self, x: np.ndarray, ratios: Sequence[float] = (1.0,)) -> np.ndarray:
        return self.factor * self.base.eval_batch(x, ratios)

    def pullback(self, fmat: np.ndarray) -> "ScaledFunctional":
        return ScaledFunctional(self.base.pullback(fmat), self.factor)

    def taylor_form(self, k: int) -> SymmetricForm:
        return self.base.taylor_form(k).scaled(self.factor)

    def closed_form(self, rho, ratios: Sequence[float] = (1.0,)) -> list[float]:
        return [self.factor * v for v in self.base.closed_form(rho, ratios)]


def holds_dense_term(f: Functional) -> bool:
    """Whether f is, or scales, an even polynomial with a dense form term.
    Such a variable's `pullback` contracts the whole tensor on every axis
    and builds a new form, whose evaluation packs its own weights: at order
    4 and dim 64 that is a 128 MiB tensor and a (2080, 2080) weight matrix
    per pullback, where a quadratic-form family or a pairing form pulls
    back one r x r matrix."""
    if isinstance(f, ScaledFunctional):  # which never wraps another one
        f = f.base
    return isinstance(f, EvenPolynomial) and any(q.kind == "dense" for q in f.terms.values())


def amplify(f: Functional, alpha: float) -> Functional:
    """Gain form f_alpha = f / alpha of a variable."""
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    return ScaledFunctional(f, 1.0 / alpha)

