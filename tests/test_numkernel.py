import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from odeident import (
    DimensionError,
    DomainError,
    RangeError,
    eigenvalues,
    least_squares,
    mat_exp,
    numerical_rank,
    singular_values,
    sylvester_matrix,
    sylvester_resultant,
)
from odeident.config import DEFAULTS
from odeident.numkernel import _PADE_B, as_square, real_part


class TestMatExp:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 4))
        assert np.array_equal(mat_exp(a, 0.0), np.eye(4))

    def test_rotation_closed_form(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        expected = np.array([[math.cos(1.0), math.sin(1.0)],
                             [-math.sin(1.0), math.cos(1.0)]])
        assert np.abs(mat_exp(a, 1.0) - expected).max() < 1e-14

    def test_diagonal(self):
        got = mat_exp(np.diag([1.0, -2.5]), 1.0)
        assert np.allclose(np.diag(got), [math.e, math.exp(-2.5)], rtol=1e-13)
        assert got[0, 1] == got[1, 0] == 0.0

    def test_against_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            a = rng.normal(size=(n, n)) * rng.uniform(0.1, 6.0)
            ref = scipy.linalg.expm(a)
            got = mat_exp(a)
            assert np.abs(got - ref).max() <= 1e-11 * max(1.0, np.abs(ref).max())

    def test_commuting_product_property(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a = rng.normal(size=(n, n))
            a *= 1.5 / max(np.linalg.norm(a, 2), 1e-9)
            c = rng.normal(size=3) * 0.5
            b = c[0] * np.eye(n) + c[1] * a + c[2] * a @ a
            lhs = mat_exp(a) @ mat_exp(b)
            rhs = mat_exp(a + b)
            assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(rhs).max())

    def test_diagonalizable_reconstruction(self):
        rng = np.random.default_rng(13)
        done = 0
        while done < 15:
            n = int(rng.integers(2, 6))
            p = rng.normal(size=(n, n))
            if np.linalg.cond(p) >= 100.0:
                continue
            d = rng.uniform(-2.0, 2.0, size=n)
            a = p @ np.diag(d) @ np.linalg.inv(p)
            expected = p @ np.diag(np.exp(d)) @ np.linalg.inv(p)
            got = mat_exp(a, 1.0)
            assert np.abs(got - expected).max() <= 1e-8 * max(1.0, np.abs(expected).max())
            done += 1

    def test_accuracy_at_norm_fifty(self):
        # contract edge: ||tA|| = 50
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        got = mat_exp(a, 50.0)
        expected = np.array([[math.cos(50.0), math.sin(50.0)],
                             [-math.sin(50.0), math.cos(50.0)]])
        assert np.abs(got - expected).max() <= 1e-12

    def test_non_square_raises(self):
        with pytest.raises(DimensionError):
            mat_exp(np.ones((2, 3)))

    @pytest.mark.parametrize("shape", [(3,), (4, 2, 3), (0, 0), (2, 0, 0)])
    def test_stack_of_non_square_raises(self, shape):
        with pytest.raises(DimensionError):
            mat_exp(np.ones(shape))

    def test_complex_or_non_finite_lane_rejected(self):
        stack = np.zeros((3, 2, 2))
        stack[2, 1, 0] = np.inf
        with pytest.raises(DimensionError, match="non-finite"):
            mat_exp(stack)
        with pytest.raises(DimensionError, match="real"):
            mat_exp(np.zeros((3, 2, 2), dtype=complex))

    def test_overflowing_lane_raises_range_error(self):
        stack = np.stack([np.eye(2), np.diag([1000.0, 1.0])])
        with pytest.raises(RangeError):
            mat_exp(stack, 1.0)

    @pytest.mark.parametrize("n", [1, 3])
    def test_empty_stack_is_empty(self, n):
        got = mat_exp(np.zeros((0, n, n)), 0.5)
        assert got.shape == (0, n, n)

    def test_overflow_raises_range_error(self):
        with pytest.raises(RangeError):
            mat_exp(np.diag([1000.0, 1000.0]), 1.0)

    def test_nan_rejected(self):
        with pytest.raises(DimensionError):
            mat_exp(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry_at_zero_time_is_a_dimension_error(self, entry):
        # 0 * inf is NaN, not a RuntimeWarning (an error under this suite's
        # filter): the entries are tested once a lane's norm is not finite
        stack = np.zeros((3, 2, 2))
        stack[1, 0, 1] = entry
        for a in (stack, stack[1]):
            with pytest.raises(DimensionError, match="non-finite"):
                mat_exp(a, 0.0)

    @pytest.mark.parametrize("a,t", [
        (np.array([[1e308, 0.0], [1e308, 0.0]]), 1.0),  # a column's 1-norm overflows
        (np.array([[1e300, 0.0], [0.0, 1.0]]), 1e10),   # t*A itself overflows
    ])
    def test_finite_matrix_beyond_the_float_range_is_a_range_error(self, a, t):
        with pytest.raises(RangeError, match="beyond the float range"):
            mat_exp(a, t)
        with pytest.raises(RangeError, match="beyond the float range"):
            mat_exp(np.stack([np.eye(2), a]), t)

    @pytest.mark.parametrize("dtype", [int, bool, np.float32])
    def test_other_real_dtypes_have_the_float64_calls_bits(self, dtype):
        rng = np.random.default_rng(5)
        stack = (rng.normal(size=(4, 3, 3)) * 3.0).astype(dtype)
        for a in (stack, stack[0]):
            assert mat_exp(a, 0.7).tobytes() == mat_exp(a.astype(float), 0.7).tobytes()

    def test_strided_view_has_its_contiguous_copys_bits(self):
        # n = 9: numpy sums a contiguous axis pairwise from 8 terms on
        rng = np.random.default_rng(9)
        base = rng.normal(size=(6, 9, 9)) * 10.0 ** rng.uniform(-2.0, 1.0, (6, 1, 1))
        for view in (base[::2], base[1].T, base.transpose(0, 2, 1), base[:, ::2, ::2]):
            assert not view.flags.c_contiguous
            assert mat_exp(view, 0.7).tobytes() \
                == mat_exp(np.ascontiguousarray(view), 0.7).tobytes()

    def test_input_is_never_written(self):
        rng = np.random.default_rng(3)
        stack = rng.normal(size=(4, 3, 3)) * 10.0 ** rng.uniform(-2.0, 1.0, (4, 1, 1))
        stack[0, 0, 0] = -0.0
        before = stack.tobytes()
        stack.flags.writeable = False  # a write would raise
        for a in (stack, stack[0], stack[::2]):
            mat_exp(a, 0.7)
        assert stack.tobytes() == before


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6), lanes=st.integers(0, 64))
def test_stacked_lanes_have_their_own_bits(seed, n, lanes):
    """Each lane of a stacked mat_exp has the bits of its own 2-D call, in any
    order and beside any neighbours. Per-lane scales from 1e-3 to 1e2 give
    the lanes different squaring counts; signed zeros must survive too."""
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(lanes, n, n)) * 10.0 ** rng.uniform(-3.0, 2.0, (lanes, 1, 1))
    stack[rng.random(stack.shape) < 0.2] *= -0.0
    got = mat_exp(stack, 0.7)
    assert got.shape == stack.shape
    for lane, lane_exp in zip(stack, got):
        assert lane_exp.tobytes() == mat_exp(lane, 0.7).tobytes()
    order = rng.permutation(lanes)
    assert mat_exp(stack[order], 0.7).tobytes() == got[order].tobytes()


def reference_mat_exp(stack: np.ndarray, t: float) -> np.ndarray:
    """mat_exp of a valid (B, n, n) stack with the [10/10] sums formed by the
    sequential loop: a running power, added term by term to u and v."""
    b = t * stack
    ratios = (np.abs(b).sum(axis=1).max(axis=1) / DEFAULTS.mat_exp_scaled_norm).tolist()
    s = np.array([0 if r <= 1.0 else math.ceil(math.log2(r)) for r in ratios], dtype=int)
    c = np.ldexp(b, -s[:, None, None])
    u = 0.0 + _PADE_B[1] * c
    v = 0.0 + _PADE_B[0] * np.eye(stack.shape[-1])
    power = c
    for j in range(2, len(_PADE_B)):
        power = power @ c
        if j % 2:
            u = u + _PADE_B[j] * power
        else:
            v = v + _PADE_B[j] * power
    f = np.linalg.solve(v - u, v + u)
    for r in range(int(s.max(initial=0))):
        live = s > r
        g = f[live]
        f[live] = g @ g
    return f


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8), lanes=st.integers(1, 16))
def test_pade_sums_have_the_sequential_loops_bits(seed, n, lanes):
    """mat_exp has the bits of the sequential Padé loop. Per-lane scales from
    1e-4 to 300 give the lanes different squaring counts; signed zeros must
    keep their bits through every product, sum and squaring."""
    rng = np.random.default_rng(seed)
    stack = rng.normal(size=(lanes, n, n)) * 10.0 ** rng.uniform(-4.0, math.log10(300.0),
                                                                 (lanes, 1, 1))
    stack[rng.random(stack.shape) < 0.2] *= -0.0
    assert mat_exp(stack, 0.7).tobytes() == reference_mat_exp(stack, 0.7).tobytes()


class TestEigenvalues:
    def test_rotation_pure_imaginary(self):
        res = eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert np.allclose(res.values, [-1j, 1j], atol=1e-15)
        assert not res.defective

    def test_diagonal_sorted(self):
        res = eigenvalues(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(res.values, [1.0, 2.0, 3.0])
        assert not res.defective

    def test_jordan_block_defective(self):
        res = eigenvalues(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert np.allclose(res.values, [1.0, 1.0])
        assert res.defective
        assert res.vectors is None

    def test_identity_not_defective(self):
        res = eigenvalues(np.eye(3))
        assert not res.defective
        assert np.linalg.cond(res.vectors) < 10.0

    def test_char_poly_consistency(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            a = rng.normal(size=(n, n)) * rng.uniform(0.2, 4.0)
            vals = eigenvalues(a).values
            char = np.poly(a)
            recon = np.poly(vals)
            scale = np.abs(char).max()
            assert np.abs(char - recon).max() <= 1e-8 * max(1.0, scale)

    def test_upper_triangular_exact_diagonal(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            a = np.triu(rng.uniform(-3.0, 3.0, size=(n, n)))
            vals = eigenvalues(a).values
            expected = np.sort_complex(a.diagonal().astype(complex))
            assert np.abs(np.sort_complex(vals) - expected).max() <= 1e-12 * max(
                1.0, np.abs(a).max()
            )

    def test_eigenvectors_satisfy_definition(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a = rng.normal(size=(n, n))
            res = eigenvalues(a)
            if res.defective:
                continue
            for i in range(n):
                v = res.vectors[:, i]
                assert np.linalg.norm(a @ v - res.values[i] * v) <= 1e-8 * max(
                    1.0, np.abs(res.values[i])
                )

    def test_dimension_cap(self):
        with pytest.raises(DimensionError):
            eigenvalues(np.eye(13))


class TestLeastSquares:
    def test_identity(self):
        res = least_squares(np.eye(3), [1.0, 2.0, 3.0])
        assert np.allclose(res.x, [1.0, 2.0, 3.0])
        assert res.residual < 1e-14
        assert res.rank == 3
        assert not res.rank_deficient

    def test_overdetermined_by_hand(self):
        # normal equations: 2x = 4
        res = least_squares(np.array([[1.0], [1.0]]), [1.0, 3.0])
        assert abs(res.x[0] - 2.0) < 1e-14
        assert abs(res.residual - math.sqrt(2.0)) < 1e-14

    def test_rank_deficient_minimum_norm(self):
        res = least_squares(np.array([[1.0, 1.0], [1.0, 1.0]]), [2.0, 2.0])
        assert res.rank == 1
        assert res.rank_deficient
        assert np.allclose(res.x, [1.0, 1.0], atol=1e-12)

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            m = int(rng.integers(3, 12))
            n = int(rng.integers(1, m + 1))
            a = rng.normal(size=(m, n))
            b = rng.normal(size=m)
            res = least_squares(a, b)
            grad = a.T @ (a @ res.x - b)
            bound = 1e-8 * np.linalg.norm(a) * max(np.linalg.norm(b), 1.0)
            assert np.linalg.norm(grad) <= bound

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            least_squares(np.eye(3), [1.0, 2.0])


class TestSingularValues:
    def test_identity(self):
        assert np.allclose(singular_values(np.eye(2)), [1.0, 1.0])

    def test_diagonal_rank(self):
        a = np.diag([3.0, 0.0])
        svals = singular_values(a)
        assert np.allclose(svals, [3.0, 0.0])
        assert numerical_rank(svals) == 1

    def test_rank_one_outer_product(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        svals = singular_values(a)
        assert abs(svals[0] - 5.0) < 1e-12
        assert svals[1] < 1e-14
        assert numerical_rank(svals) == 1

    def test_two_norm_matches_sigma1(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            a = rng.normal(size=(int(rng.integers(2, 9)), int(rng.integers(2, 9))))
            svals = singular_values(a)
            assert abs(svals[0] - np.linalg.norm(a, 2)) <= 1e-10 * svals[0]
            assert np.all(np.diff(svals) <= 0.0)

    def test_gram_squares(self):
        rng = np.random.default_rng(33)
        for _ in range(15):
            a = rng.normal(size=(6, 4))
            s_a = singular_values(a)
            s_g = singular_values(a.T @ a)
            assert np.abs(s_g - s_a ** 2).max() <= 1e-8 * max(1.0, s_a[0] ** 2)


class TestPolyAndResultant:
    """Polynomials are descending coefficient arrays, numpy's order."""

    def test_degree_and_trim(self):
        # leading zeros are dropped: 0 l^2 + l + 2 has degree 1
        assert sylvester_matrix([0.0, 1.0, 2.0], [1.0, 0.0, 1.0]).shape == (3, 3)
        assert sylvester_resultant([0.0, 0.0, 1.0, 2.0], [1.0, 0.0, 1.0]) == \
            sylvester_resultant([1.0, 2.0], [1.0, 0.0, 1.0])
        for zero in ([0.0, 0.0], [0.0], []):
            with pytest.raises(DomainError):
                sylvester_matrix(zero, [1.0, 1.0])
            with pytest.raises(DomainError):
                sylvester_matrix([1.0, 1.0], zero)

    def test_non_finite_rejected(self):
        for bad in ([1.0, math.nan], [math.inf, 1.0]):
            with pytest.raises(DomainError):
                sylvester_resultant(bad, [1.0, 1.0])

    def test_double_root_by_hand(self):
        p = np.array([1.0, -2.0, 1.0])  # (l-1)^2
        assert abs(sylvester_resultant(p, np.polyder(p))) < 1e-14

    def test_simple_roots_by_hand(self):
        p = np.array([1.0, 0.0, 1.0])  # l^2 + 1
        assert abs(sylvester_resultant(p, np.polyder(p)) - 4.0) < 1e-14

    def test_trace_determinant_closed_form(self):
        # resultant of the 2x2 characteristic polynomial against its
        # derivative is -( (a11-a22)^2 + 4 a12 a21 )
        rng = np.random.default_rng(41)
        for _ in range(50):
            a = rng.normal(size=(2, 2)) * 3.0
            tr = a[0, 0] + a[1, 1]
            det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
            p = np.array([1.0, -tr, det])
            res = sylvester_resultant(p, np.polyder(p))
            closed = -((a[0, 0] - a[1, 1]) ** 2 + 4.0 * a[0, 1] * a[1, 0])
            assert abs(res - closed) <= 1e-10 * max(1.0, abs(closed))

    def test_sylvester_layout(self):
        p = np.array([1.0, -2.0, 3.0])
        q = np.polyder(p)
        s = sylvester_matrix(p, q)
        assert s.shape == (3, 3)
        assert np.allclose(s[0], [1.0, -2.0, 3.0])   # p row, descending
        assert np.allclose(s[1], [2.0, -2.0, 0.0])   # q rows below
        assert np.allclose(s[2], [0.0, 2.0, -2.0])

    def test_planted_double_roots_vanish(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            deg = int(rng.integers(2, 5))
            roots = list(rng.uniform(-2.0, 2.0, size=deg - 1))
            roots.append(roots[0])  # plant the repeat
            p = np.poly(roots)
            res = sylvester_resultant(p, np.polyder(p))
            scale = max(1.0, np.abs(p).max())
            assert abs(res) <= 1e-8 * scale

    def test_separated_roots_nonzero(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            deg = int(rng.integers(2, 5))
            base = np.sort(rng.uniform(-2.0, 2.0, size=deg))
            roots = base + 0.5 * np.arange(deg)  # enforce gaps >= 0.5
            p = np.poly(roots)
            res = sylvester_resultant(p, np.polyder(p))
            scale = max(1.0, np.abs(p).max())
            assert abs(res) > 1e-8 * scale

    def test_constant_has_a_resultant(self):
        # a nonzero constant has degree 0: Res(p, c) = c^deg p, Res(c, q) = c^deg q;
        # numpy's det is exp(log|det|) with its sign, so 2^3 is within an ulp or two
        assert sylvester_resultant([1.0, -0.5], [1.0]) == 1.0
        q = np.poly([0.5, -1.0, 2.0])
        assert sylvester_resultant([2.0], q) == pytest.approx(8.0, rel=1e-15)
        assert sylvester_resultant(q, [2.0]) == pytest.approx(8.0, rel=1e-15)
        with pytest.raises(DomainError):
            sylvester_resultant([1.0, -0.5], [0.0])


class TestSerialization:
    def test_real_representable_round_trip(self):
        # complex storage of a real matrix keeps Im below 1e-12
        a = np.array([[1.5, -2.0], [0.25, 3.0]])
        vals, vecs = np.linalg.eig(a)
        recon = vecs @ np.diag(vals) @ np.linalg.inv(vecs)
        assert np.abs(recon.imag).max() < 1e-12
        assert np.abs(real_part(recon) - a).max() < 1e-12

    def test_as_square_validation(self):
        with pytest.raises(DimensionError):
            as_square([1.0, 2.0])
