import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ROTATION, rotation_handle, rotation_system, scalar_decay_system
from odeident import (
    DefectiveMatrixError,
    DimensionError,
    DomainError,
    MatrixLinear,
    ObservationMapHandle,
    RangeError,
    degeneracy_report,
    discriminant_closed_form,
    eigenvalues,
    full_rank_check,
    integrate,
    krylov_rank,
    log_branches,
    mat_exp,
    phi,
    exp_divided_difference_determinant,
)
from odeident import linearcase
from odeident.linearcase import characteristic_poly
from odeident.numkernel import sylvester_resultant

# the closed-form discriminant is this sign times the Sylvester resultant of (P, P')
CLOSED_FORM_SIGN = {2: -1.0, 3: 1.0}


def planted_double_matrix(rng, k):
    """Orthogonal similarity of a Jordan-ish block: exact repeated eigenvalue."""
    lam = rng.uniform(-2.0, 2.0)
    if k == 2:
        core = np.array([[lam, 1.0], [0.0, lam]])
    else:
        mu = lam + rng.uniform(0.5, 2.0)
        core = np.array([[lam, 1.0, 0.0], [0.0, lam, 0.0], [0.0, 0.0, mu]])
    q, _ = np.linalg.qr(rng.normal(size=(k, k)))
    return q @ core @ q.T


class TestPhiExact:
    """phi on a MatrixLinear handle is the closed form (e^{hA} x0, ..., e^{mhA} x0)."""

    def test_zero_matrix_repeats_x0(self):
        handle = ObservationMapHandle(sys=MatrixLinear(2), x0=[0.5, -1.0], h=0.7, m=3)
        got = phi(handle, np.zeros(4))
        assert np.array_equal(got, np.tile([0.5, -1.0], 3))

    def test_rotation_half_turn(self):
        handle = ObservationMapHandle(sys=MatrixLinear(2), x0=[1.0, 0.0], h=math.pi, m=1)
        got = phi(handle, MatrixLinear.pack(ROTATION))
        assert np.abs(got - np.array([-1.0, 0.0])).max() < 1e-13

    def test_scalar_decay_powers(self):
        handle = ObservationMapHandle(sys=MatrixLinear(1), x0=[1.0], h=1.0, m=3)
        got = phi(handle, [-1.0])
        assert np.abs(got - np.exp([-1.0, -2.0, -3.0])).max() < 1e-13

    def test_agrees_with_integrator_phi(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = rng.normal(size=(2, 2)) * 0.8
            x0 = rng.uniform(-1.0, 1.0, size=2)
            handle = ObservationMapHandle(sys=rotation_system(), x0=x0, h=0.4,
                                          m=4, tol=1e-11)
            exact = phi(handle, MatrixLinear.pack(a))
            numeric = integrate(handle, MatrixLinear.pack(a)).states.ravel()
            assert np.abs(exact - numeric).max() < 1e-9


class TestDiscriminants:
    @pytest.mark.parametrize("a", [
        np.diag([-1e200, -2e200]),       # the characteristic polynomial overflows
        np.diag([-1e200, -1.0]),         # it does not; both discriminants do
        np.diag([-1e150, -1.0, -2.0]),   # the k = 3 closed form's Python-float power
    ])
    def test_discriminant_beyond_float_range_is_a_range_error(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RangeError):
                degeneracy_report(a, np.ones(a.shape[0]), h=1.0)

    def test_jordan_block_closed_form_zero(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]])
        report = degeneracy_report(a, [1.0, 0.0], h=1.0)
        assert report.discriminant_closed == 0.0
        assert abs(report.discriminant) < 1e-12
        assert report.double_eigenvalue
        assert report.defective

    def test_identity3_closed_form_zero(self):
        # char poly (l-1)^3: a1=3, a2=3, a3=1 ->
        # 1*(108 - 162 + 27) + 9*(12 - 9) = 0
        report = degeneracy_report(np.eye(3), [1.0, 0.0, 0.0], h=1.0)
        assert report.discriminant_closed == 0.0
        assert abs(report.discriminant) < 1e-10
        assert report.double_eigenvalue
        assert not report.defective

    @pytest.mark.parametrize("k", [2, 3])
    def test_closed_form_matches_resultant_with_documented_sign(self, k):
        rng = np.random.default_rng(100 + k)
        sign = CLOSED_FORM_SIGN[k]
        for _ in range(1000):
            a = rng.normal(size=(k, k)) * rng.uniform(0.3, 3.0)
            p = characteristic_poly(a)
            res = sylvester_resultant(p, p.derivative())
            closed = discriminant_closed_form(a)
            scale = max(abs(res), abs(closed), 1e-12)
            assert abs(closed - sign * res) <= 1e-8 * scale

    @pytest.mark.parametrize("k", [2, 3])
    def test_planted_double_roots_vanish(self, k):
        rng = np.random.default_rng(200 + k)
        for _ in range(100):
            a = planted_double_matrix(rng, k)
            closed = discriminant_closed_form(a)
            scale = max(1.0, np.linalg.norm(a)) ** (2 * (k - 1) + (k - 2) * 2)
            assert abs(closed) <= 1e-8 * scale


def near_tie_symmetric(rng, k):
    """Orthogonal similarity of a diagonal whose entries form chains of
    near-ties: gaps from 1e-16 to 1e-6 times the spectral scale, across the
    clustering tolerance sqrt(eps) * ||A||."""
    scale = 10.0 ** rng.uniform(-1.0, 2.0)
    vals = [rng.uniform(-scale, scale)]
    for _ in range(k - 1):
        tie = rng.random() < 0.7
        gap = 10.0 ** rng.uniform(-16.0, -6.0) if tie else rng.uniform(0.1, 1.0)
        vals.append(vals[-1] + gap * scale)
    q, _ = np.linalg.qr(rng.normal(size=(k, k)))
    a = q @ np.diag(vals) @ q.T
    return 0.5 * (a + a.T)


def similar_jordan(rng, k):
    """V J V^-1 with one Jordan block of size 2..k, the other eigenvalues
    simple and at least 0.5 apart."""
    size = int(rng.integers(2, k + 1))
    lam = rng.uniform(-2.0, 2.0)
    others = lam + np.cumsum(rng.uniform(0.5, 1.5, size=k - size))
    j = np.diag(np.concatenate([np.full(size, lam), others]))
    j[np.arange(size - 1), np.arange(1, size)] = 1.0
    v = rng.normal(size=(k, k))
    return v @ j @ np.linalg.inv(v)


class TestOneRepeatedRule:
    """``eigenvalues`` alone decides when eigenvalues coincide; the report's
    flags and ``log_branches`` follow it."""

    @pytest.mark.parametrize("a", [
        np.diag([-1.0, -1.0 + 1e-8]),
        np.diag([2.0, 2.0 + 1e-8, 2.0 + 2e-8, 2.0 + 3e-8]),  # a chain wider than tol
    ])
    def test_near_tied_diagonal_is_repeated_not_defective(self, a):
        report = degeneracy_report(a, np.ones(a.shape[0]), h=1.0)
        assert report.double_eigenvalue and not report.defective
        with pytest.raises(DefectiveMatrixError, match="repeated"):
            log_branches(a, h=1.0)

    def test_split_jordan_block_is_repeated_and_defective(self):
        # rounding splits the double eigenvalue -1 by 3.9e-8
        rng = np.random.default_rng(0)
        v = rng.normal(size=(2, 2))
        a = v @ np.array([[-1.0, 1.0], [0.0, -1.0]]) @ np.linalg.inv(v)
        eig = eigenvalues(a)
        assert abs(eig.values[0] - eig.values[1]) > 1e-8
        assert eig.repeated and eig.defective
        assert degeneracy_report(a, [1.0, 0.3], h=1.0).double_eigenvalue

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(2, 6),
           symmetric=st.booleans())
    def test_flags_agree(self, seed, k, symmetric):
        rng = np.random.default_rng(seed)
        a = near_tie_symmetric(rng, k) if symmetric else similar_jordan(rng, k)
        h = 1.0 / max(1.0, np.linalg.norm(a, 2))  # keeps exp(hA)^(k-1) in range
        report = degeneracy_report(a, np.ones(k), h=h)
        assert not (symmetric and report.defective)
        assert report.double_eigenvalue or not report.defective
        try:
            # k_max = 0: the shifted branches of a near-Jordan matrix do not
            # share exp(hA) in floating point, and are not what this tests
            log_branches(a, h=h, k_max=0)
            refused = False
        except DefectiveMatrixError as exc:
            # a split Jordan block's eigenbasis can be too ill-conditioned to
            # build real generators from; that refusal is not the repeat rule's
            refused = "numerically defective" not in str(exc)
        assert refused == report.double_eigenvalue


def _branch_outcome(a, k_max):
    """The branches of log_branches(a, h=1), or its error's class and message."""
    try:
        result = log_branches(a, h=1.0, k_max=k_max)
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)
    return "ok", np.array(result.branches).tobytes(), result.k_vectors


def test_stacked_exp_check_agrees_with_one_branch_at_a_time(monkeypatch):
    """On the seeds 0..399 Jordan sweep (k = 2..6, h = 1, k_max 0, 2 and 6),
    checking the lattice with one stacked exponential gives the branches, or
    the error class and message, of exponentiating one branch at a time in
    shift order."""
    cases = [(similar_jordan(np.random.default_rng(seed), k), k_max)
             for seed in range(400) for k in range(2, 7) for k_max in (0, 2, 6)]
    stacked = [_branch_outcome(a, k_max) for a, k_max in cases]

    def one_at_a_time(a, t=1.0):
        if np.ndim(a) == 3:  # log_branches then exponentiates branch by branch
            raise RangeError("stack refused")
        return mat_exp(a, t)

    # DefectiveMatrixError comes before any exponential, so only the rest can differ
    exponentiated = [i for i, outcome in enumerate(stacked)
                     if outcome[0] != "DefectiveMatrixError"]
    monkeypatch.setattr(linearcase, "mat_exp", one_at_a_time)
    assert [_branch_outcome(*cases[i]) for i in exponentiated] == \
        [stacked[i] for i in exponentiated]
    # the sweep reaches every outcome: branches, a failed exp check, an
    # overflowing branch, and both kinds of defective input
    messages = [outcome[1] for outcome in stacked if outcome[0] != "ok"]
    assert len(messages) < len(stacked)
    for needle in ("fails exp check", "overflowed", "repeated", "numerically defective"):
        assert any(needle in message for message in messages)


class TestAliasing:
    def test_full_rotation_aliased(self):
        a = 2.0 * math.pi * ROTATION
        report = degeneracy_report(a, [1.0, 0.0], h=1.0)
        assert not report.in_set_A
        assert any(k == 2 for _, _, k in report.aliasing_pairs)
        # exp(h a) = I has a double eigenvalue
        assert np.abs(mat_exp(a, 1.0) - np.eye(2)).max() < 1e-12

    def test_unit_rotation_not_aliased(self):
        report = degeneracy_report(ROTATION, [1.0, 0.0], h=1.0)
        assert report.in_set_A
        assert report.aliasing_pairs == ()
        assert not report.double_eigenvalue

    def test_planted_gaps_found_exactly(self):
        # two rotation blocks with rates a and a + 2*pi*k/h alias with shift k
        rng = np.random.default_rng(17)
        for k_plant in (-8, -3, 1, 5, 8):
            h = rng.uniform(0.5, 2.0)
            base = rng.uniform(0.3, 0.9)
            other = base + 2.0 * math.pi * k_plant / h
            a = np.zeros((4, 4))
            a[:2, :2] = base * ROTATION
            a[2:, 2:] = other * ROTATION
            q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
            report = degeneracy_report(q @ a @ q.T, [1.0, 0.0, 0.0, 0.0], h=h)
            ks = sorted(abs(k) for _, _, k in report.aliasing_pairs)
            assert ks == [abs(k_plant), abs(k_plant)]
            assert not report.in_set_A


class TestSpacing:
    """A spacing h that is not positive and finite is refused up front, by name,
    before round() in the aliasing scan or mat_exp can see it."""

    @pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, 0.0])
    def test_degeneracy_report_refuses(self, h):
        with pytest.raises(DomainError, match="h must be positive and finite"):
            degeneracy_report(ROTATION, [1.0, 0.0], h=h)

    @pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, 0.0])
    def test_log_branches_refuses(self, h):
        with pytest.raises(DomainError, match="h must be positive and finite"):
            log_branches(ROTATION, h=h)


class TestKrylov:
    def test_eigenvector_x0_in_E(self):
        # C = exp(h A) = diag(1, 2) for A = diag(0, log 2), h = 1
        a = np.diag([0.0, math.log(2.0)])
        report = degeneracy_report(a, [1.0, 0.0], h=1.0)
        assert report.krylov_rank == 1
        assert report.x0_in_E

    def test_generic_x0_not_in_E(self):
        a = np.diag([0.0, math.log(2.0)])
        report = degeneracy_report(a, [1.0, 1.0], h=1.0)
        assert report.krylov_rank == 2
        assert not report.x0_in_E

    def test_planted_membership_batch(self):
        rng = np.random.default_rng(23)
        done = 0
        while done < 30:
            v = rng.normal(size=(3, 3))
            if np.linalg.cond(v) > 20.0:
                continue
            lams = np.sort(rng.uniform(-1.0, 1.0, size=3))
            if np.min(np.diff(lams)) < 0.4:
                continue
            a = v @ np.diag(lams) @ np.linalg.inv(v)
            c = mat_exp(a, 1.0)
            coeffs = rng.uniform(0.5, 1.5, size=3)
            inside = coeffs[0] * v[:, 0] + coeffs[1] * v[:, 1]  # span of 2 eigvecs
            outside = v @ coeffs                                # all three
            assert krylov_rank(c, inside) < 3
            assert krylov_rank(c, outside) == 3
            done += 1


class TestLogBranches:
    def test_rotation_branch_family(self):
        result = log_branches(ROTATION, h=1.0, k_max=2)
        assert len(result.branches) == 5
        assert result.k_vectors == ((-2,), (-1,), (0,), (1,), (2,))
        base_exp = mat_exp(ROTATION, 1.0)
        for branch, (k,) in zip(result.branches, result.k_vectors):
            w = 1.0 + 2.0 * math.pi * k
            expected = np.array([[0.0, w], [-w, 0.0]])
            assert np.abs(branch - expected).max() <= 1e-9
            assert np.abs(mat_exp(branch, 1.0) - base_exp).max() <= 1e-9

    def test_zero_shift_branch_is_alpha0(self):
        result = log_branches(ROTATION, h=1.0, k_max=2)
        assert np.array_equal(result.branches[result.k_vectors.index((0,))], ROTATION)

    def test_real_spectrum_single_branch(self):
        result = log_branches(np.diag([1.0, 2.0]), h=0.7, k_max=3)
        assert len(result.branches) == 1
        assert np.array_equal(result.branches[0], np.diag([1.0, 2.0]))

    def test_branches_pairwise_distinct(self):
        result = log_branches(ROTATION, h=0.3, k_max=2)
        for a, b in itertools.combinations(result.branches, 2):
            assert np.abs(a - b).max() > 1e-6

    def test_two_conjugate_pairs_product_family(self):
        a = np.zeros((4, 4))
        a[:2, :2] = 1.0 * ROTATION
        a[2:, 2:] = 2.3 * ROTATION
        result = log_branches(a, h=1.0, k_max=1)
        assert len(result.branches) == 9
        base_exp = mat_exp(a, 1.0)
        for branch in result.branches:
            assert np.abs(mat_exp(branch, 1.0) - base_exp).max() <= 1e-8

    def test_defective_rejected(self):
        with pytest.raises(DefectiveMatrixError):
            log_branches(np.array([[1.0, 1.0], [0.0, 1.0]]), h=1.0)

    def test_numerically_defective_eigenbasis_rejected(self):
        # a 3x3 Jordan block that rounding splits into simple eigenvalues: the
        # eigenbasis is too ill-conditioned to build a real generator from
        v = np.random.default_rng(0).normal(size=(3, 3))
        j = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1.0]])
        with pytest.raises(DefectiveMatrixError, match="numerically defective"):
            log_branches(v @ j @ np.linalg.inv(v), h=1.0)

    def test_lattice_is_exponentiated_in_one_call(self, monkeypatch):
        shapes = []

        def counting_mat_exp(a, t=1.0):
            shapes.append(np.shape(a))
            return mat_exp(a, t)

        monkeypatch.setattr(linearcase, "mat_exp", counting_mat_exp)
        a = np.zeros((4, 4))
        a[:2, :2] = 1.0 * ROTATION
        a[2:, 2:] = 2.3 * ROTATION
        result = log_branches(a, h=1.0, k_max=4)
        assert len(result.branches) == 81
        assert shapes == [(81, 4, 4)]

    def test_first_failing_branch_decides_the_error(self):
        # the shift (-2,) fails the exp check; a later lane overflows exp, which
        # must not turn the error into a RangeError
        v = np.random.default_rng(213).normal(size=(2, 2))
        a = v @ np.array([[-1.0, 1.0], [0.0, -1.0]]) @ np.linalg.inv(v)
        with pytest.raises(DomainError, match=r"branch for shifts \(-2,\) fails exp check"):
            log_branches(a, h=1.0, k_max=2)

    def test_repeated_eigenvalues_rejected(self):
        with pytest.raises(DefectiveMatrixError):
            log_branches(np.eye(2), h=1.0)

    def test_budget_guard(self):
        a = np.zeros((4, 4))
        a[:2, :2] = 1.0 * ROTATION
        a[2:, 2:] = 2.3 * ROTATION
        with pytest.raises(DomainError):
            log_branches(a, h=1.0, k_max=60)

    # 2.5 and nan failed in range() with a TypeError, and True was a count
    @pytest.mark.parametrize("value", [math.nan, 2.5, 2.0, True, -1])
    def test_k_max_must_be_an_integer(self, value):
        for a in (ROTATION, np.diag([1.0, 2.0])):  # the real spectrum returns early
            with pytest.raises(DomainError, match="k_max"):
                log_branches(a, h=1.0, k_max=value)
        # a numpy integer is a count
        result = log_branches(ROTATION, h=1.0, k_max=np.int64(1))
        assert len(result.branches) == 3 and type(result.k_range) is int


class TestExpDividedDifferenceDeterminant:
    def test_two_point_hand_value(self):
        numeric, closed = exp_divided_difference_determinant([0.0, math.log(2.0)])
        # matrix [[1, 1/log2], [1, 3/log2]] has determinant 2/log2
        expected = 2.0 / math.log(2.0)
        assert abs(numeric - expected) < 1e-12
        assert abs(closed - expected) < 1e-12

    def test_coincident_values_rejected(self):
        with pytest.raises(DomainError):
            exp_divided_difference_determinant([1.0, 1.0, 2.0])
        with pytest.raises(DomainError):
            exp_divided_difference_determinant([0.5])

    @pytest.mark.parametrize("lam", [[400.0, 1.0], [-1.0, 1000.0], [360.0, 361.0, 2.0]])
    def test_overflow_is_a_range_error(self, lam):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RangeError):
                exp_divided_difference_determinant(lam)

    def test_random_tuples_agree_and_are_nonzero(self):
        rng = np.random.default_rng(77)
        done = 0
        while done < 100:
            n = int(rng.integers(2, 7))
            lam = rng.uniform(-1.0, 1.0, size=n) + 1j * rng.uniform(-1.0, 1.0, size=n)
            if min(abs(lam[i] - lam[j])
                   for i in range(n) for j in range(i + 1, n)) < 0.3:
                continue
            numeric, closed = exp_divided_difference_determinant(lam)
            assert abs(numeric - closed) <= 1e-6 * abs(numeric)
            assert abs(numeric) > 1e-10
            done += 1


class TestFullRankCheck:
    def test_rotation_generic_x0_full(self):
        report = full_rank_check(rotation_handle(), ROTATION)
        assert report.full
        assert report.rank == 4
        assert report.sigma_min > 0.0

    def test_zero_x0_rank_zero(self):
        report = full_rank_check(rotation_handle(x0=(0.0, 0.0)), ROTATION)
        assert report.rank == 0
        assert not report.full

    def test_eigenvector_x0_rank_deficient(self):
        report = full_rank_check(rotation_handle(x0=(1.0, 0.0)), np.diag([1.0, 2.0]))
        assert report.rank < 4
        assert not report.full

    @pytest.mark.parametrize("tol", [1e-5, 1e-10])
    def test_aliased_pair_loses_rank_at_any_tol(self, tol):
        # eigenvalues -0.2 +- pi i differ by 2 pi i / h: D exp(hA) has a 2-dim
        # kernel, which an integrated Jacobian hid behind its error at tol
        a = np.array([[-0.2, math.pi], [-math.pi, -0.2]])
        report = full_rank_check(rotation_handle(h=1.0, m=4, tol=tol, x0=(1.0, 0.5)), a)
        assert report.rank == 2
        assert not report.full

    def test_too_few_samples_rejected(self):
        with pytest.raises(DimensionError):
            full_rank_check(rotation_handle(m=1), ROTATION)

    def test_handle_of_another_species_rejected(self):
        handle = ObservationMapHandle(sys=scalar_decay_system(), x0=[1.0], h=0.3, m=6)
        with pytest.raises(DomainError, match="matrix_linear"):
            full_rank_check(handle, [-0.5])

