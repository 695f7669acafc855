import ast
import math
import os
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from spangle import Field, linalg
from spangle.angles import grassmann_angle
from spangle.linalg import (
    COMPARE_TOL,
    QR_ROUTE_MIN,
    RANK_REL_TOL,
    ZERO_ANGLE_COS_BAND,
    _det,
    _eigvalsh,
    _norm,
    _norm_within_compare_tol,
    _qr,
    _slogdet,
    _svd,
    angle_from_cosine,
    arccos_clamped,
    as_field_array,
    clamped_products,
    det,
    orthonormalize_columns,
    principal_phase,
    stack_columns,
)
from spangle.sampling import gaussian_matrix, random_unitary
from spangle.subspace import Subspace, from_spanning


def test_tolerance_ordering():
    assert 0.0 < RANK_REL_TOL < COMPARE_TOL < 1.0


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_relation_test_is_the_2_norm_against_compare_tol(field, svd_calls):
    """The relation test agrees with the largest singular value, and takes
    it only when the Frobenius norm and the largest column norm fall on
    either side of COMPARE_TOL."""
    rng = np.random.default_rng(11)
    cases = [
        (np.zeros((4, 0)), True, 0),
        (np.zeros((0, 3)), True, 0),
        (9e-10 * np.eye(2), True, 1),  # Frobenius 1.27e-9, columns 9e-10
        (7e-10 * np.ones((2, 2)), False, 1),  # 2-norm 1.4e-9, columns 9.9e-10
        (1.1e-9 * np.eye(3)[:, :1], False, 0),
        (1e-9 * random_unitary(rng, 3, field)[:, :2] * 0.5, True, 0),
    ]
    for M, within, svds in cases:
        svd_calls.clear()
        assert _norm_within_compare_tol(M.astype(field.dtype)) is within
        assert len(svd_calls) == svds
    for scale in np.geomspace(3e-10, 3e-9, 40):
        M = scale * gaussian_matrix(rng, 5, 3, field)
        assert _norm_within_compare_tol(M) is bool(np.linalg.svd(M, compute_uv=False)[0] <= COMPARE_TOL)


# Every gufunc of numpy.linalg._umath_linalg that spangle.linalg calls.
GUFUNCS = ("svd", "svd_s", "svd_f", "qr_r_raw", "qr_reduced", "det", "slogdet", "eigvalsh_lo")


def _same_bits(ours, theirs) -> None:
    """Equal types, dtypes, shapes and bytes, output by output."""
    ours, theirs = (x if isinstance(x, tuple) else (x,) for x in (ours, theirs))
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        assert type(a) is type(b)
        a, b = np.asarray(a), np.asarray(b)
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


class TestRawEntries:
    """``linalg._qr``, ``_det``, ``_slogdet``, ``_eigvalsh`` and ``_norm``
    call numpy's gufuncs, or repeat its norm formula, without the wrapper:
    every output must be numpy's, bit for bit."""

    # Tall, wide and square matrices, 1 x 1 and empty ones, a stack, and
    # views that are not C-ordered.
    QR_SHAPES = [(8, 4), (4, 8), (8, 8), (1, 1), (0, 0), (4, 0), (0, 3), (3, 6, 2)]
    SQUARE_SHAPES = [(0, 0), (1, 1), (2, 2), (5, 5), (8, 8), (4, 0, 0), (70, 3, 3), (6, 4, 2, 2)]
    NORM_SHAPES = [(0,), (1,), (8,), (256,), (0, 3), (3, 0), (1, 1), (8, 4), (4, 8), (16, 16)]

    @staticmethod
    def _matrix(shape, field, seed=0):
        return gaussian_matrix(np.random.default_rng([seed, *shape]), math.prod(shape), 1, field).reshape(shape)

    @staticmethod
    def _views(M):
        """M, its transpose (Fortran-ordered) and a strided slice of it."""
        return [M, M.swapaxes(-1, -2), M[..., ::2, ::2]]

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    @pytest.mark.parametrize("shape", QR_SHAPES)
    def test_qr(self, field, shape):
        """``_qr(M)`` is (Q, F): Q is numpy's reduced Q, C-ordered, and the
        upper triangle of F's first k = min(m, n) rows is numpy's R; F is
        column-major when M is."""
        for M in self._views(self._matrix(shape, field)):
            before, k = M.copy(), min(M.shape[-2:])
            Q, F = _qr(M)
            Q_numpy, R_numpy = np.linalg.qr(M)
            _same_bits(Q, Q_numpy)
            assert Q.flags.c_contiguous
            _same_bits(np.triu(F[..., :k, :]), R_numpy)
            assert F.shape == M.shape and F.flags.f_contiguous == M.flags.f_contiguous
            assert M.tobytes() == before.tobytes()  # the input is not overwritten

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    @pytest.mark.parametrize("n", [1, 4, 16, 64])
    def test_random_unitary_is_numpys_phase_corrected_q(self, field, n):
        """``random_unitary`` reads R's diagonal off ``_qr``'s factored
        matrix: bit for bit numpy's Q times the phases of numpy's R
        diagonal, from the same draw."""
        Q, R = np.linalg.qr(gaussian_matrix(np.random.default_rng(n), n, n, field))
        d = np.diagonal(R)
        _same_bits(random_unitary(np.random.default_rng(n), n, field), Q * (d / np.abs(d)))

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    @pytest.mark.parametrize("shape", SQUARE_SHAPES)
    def test_det_and_slogdet(self, field, shape):
        for M in self._views(self._matrix(shape, field)):
            _same_bits(_det(M), np.linalg.det(M))
            _same_bits(_slogdet(M), tuple(np.linalg.slogdet(M)))

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_singular_det_and_slogdet(self, field):
        """A singular matrix: det 0 and slogdet (0, -inf), as numpy gives."""
        M = self._matrix((4, 3), field)
        M = M @ M.conj().T  # rank 3 of 4
        M[:, -1] = M[:, 0]
        _same_bits(_det(M), np.linalg.det(M))
        _same_bits(_slogdet(M), tuple(np.linalg.slogdet(M)))

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 8])
    def test_eigvalsh(self, field, n):
        M = self._matrix((n, n), field)
        H = (M + M.conj().T) / 2.0
        for view in (H, H.T):
            _same_bits(_eigvalsh(view), np.linalg.eigvalsh(view))

    def test_eigvalsh_nan_result_raises(self, monkeypatch):
        """numpy's gufunc fills the eigenvalues of a failed call with NaN."""
        gufuncs = {name: getattr(linalg._umath_linalg, name) for name in GUFUNCS}

        def failing(M, signature):
            w = gufuncs["eigvalsh_lo"](M, signature=signature)
            w[...] = np.nan
            return w

        monkeypatch.setattr(linalg, "_umath_linalg", types.SimpleNamespace(**{**gufuncs, "eigvalsh_lo": failing}))
        with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
            _eigvalsh(np.eye(3))

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    @pytest.mark.parametrize("shape", NORM_SHAPES)
    def test_norm(self, field, shape):
        for x in self._views(self._matrix(shape, field)) if len(shape) == 2 else [self._matrix(shape, field)]:
            _same_bits(_norm(x), np.linalg.norm(x))
            _same_bits(_norm(x, axis=0), np.linalg.norm(x, axis=0))

    def test_norm_of_a_real_view_of_complex(self):
        """Real parts of a complex array, a strided float64 view."""
        z = self._matrix((6, 5), Field.COMPLEX)
        for x in (z.real, z.imag, z.real.T):
            _same_bits(_norm(x), np.linalg.norm(x))
            _same_bits(_norm(x, axis=0), np.linalg.norm(x, axis=0))


class TestSvdEntry:
    """``linalg._svd`` calls numpy's SVD gufuncs directly: every output
    must be ``np.linalg.svd``'s, bit for bit, and a failed call must still
    raise LinAlgError."""

    # Tall, wide, square, 1 x 1 and empty matrices, then stacks of one and
    # two batch axes: (m, q, k) is the shape of the products of
    # metrics.sampled_directed_hausdorff's frames with the cross-Gram.
    SHAPES = [(8, 4), (4, 2), (3, 7), (5, 5), (1, 1), (4, 0), (0, 3), (6, 5, 3), (6, 4, 4, 2), (6, 3, 2)]

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_numpy_bit_for_bit(self, field, shape):
        rng = np.random.default_rng(sum(shape))
        M = gaussian_matrix(rng, math.prod(shape), 1, field).reshape(shape)
        cases = [{"compute_uv": False}, {"full_matrices": False}, {"full_matrices": True}]
        for kwargs in cases:
            ours, theirs = _svd(M, **kwargs), np.linalg.svd(M, **kwargs)
            if not kwargs.get("compute_uv", True):
                ours, theirs = (ours,), (theirs,)
            assert len(ours) == len(theirs)
            for a, b in zip(ours, theirs):
                assert (a.dtype, a.shape) == (b.dtype, b.shape)
                assert a.tobytes() == b.tobytes()

    def test_a_slice_matches_numpy(self):
        """A strided view goes to the gufunc as numpy passes it."""
        M = np.random.default_rng(3).standard_normal((2, 9, 6))[0, ::2, 1::2]
        assert _svd(M, compute_uv=False).tobytes() == np.linalg.svd(M, compute_uv=False).tobytes()

    @pytest.mark.parametrize("name, kwargs", [
        ("svd", {"compute_uv": False}),
        ("svd_s", {"full_matrices": False}),
        ("svd_f", {"full_matrices": True}),
    ])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_nan_result_raises(self, monkeypatch, name, kwargs, stacked):
        """numpy's gufunc fills the outputs of a failed matrix with NaN;
        one failed matrix of a stack fails the call."""
        gufuncs = {other: getattr(linalg._umath_linalg, other) for other in ("svd", "svd_s", "svd_f")}

        def failing(M, signature):
            out = gufuncs[name](M, signature=signature)
            for a in out if isinstance(out, tuple) else (out,):
                a[-1 if stacked else ...] = np.nan
            return out

        monkeypatch.setattr(linalg, "_umath_linalg", types.SimpleNamespace(**{**gufuncs, name: failing}))
        M = np.random.default_rng(5).standard_normal((3, 4, 2) if stacked else (4, 2))
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            _svd(M, **kwargs)

    def test_missing_gufunc_fails_the_import(self):
        """A numpy without one of the private gufuncs fails ``import
        spangle.linalg`` with an ImportError that names the gufunc and the
        numpy versions spangle is tested on: each gufunc the module calls
        is deleted in turn, in one child process."""
        code = (
            "import importlib, sys\n"
            "from numpy.linalg import _umath_linalg\n"
            f"for name in {GUFUNCS!r}:\n"
            "    saved = getattr(_umath_linalg, name)\n"
            "    delattr(_umath_linalg, name)\n"
            "    for module in [m for m in sys.modules if m.startswith('spangle')]:\n"
            "        del sys.modules[module]\n"
            "    try:\n"
            "        importlib.import_module('spangle.linalg')\n"
            "        print('imported without', name)\n"
            "    except ImportError as exc:\n"
            "        print(exc)\n"
            "    setattr(_umath_linalg, name, saved)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(linalg.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        assert len(lines) == len(GUFUNCS)
        for name, line in zip(GUFUNCS, lines):
            assert f"numpy.linalg._umath_linalg.{name}," in line
            assert "tested on numpy 2.0 and 2.4" in line

    def test_the_import_check_names_every_gufunc_called(self):
        """The gufuncs the import checks are those ``linalg`` calls."""
        tree = ast.parse(Path(linalg.__file__).read_text())
        called = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "_umath_linalg"
        }
        assert called == set(GUFUNCS) == set(linalg._GUFUNCS)

    def test_no_module_calls_numpy_svd(self):
        """Every SVD in the package goes through the entry: no module calls
        or imports ``numpy.linalg.svd``, and only ``linalg`` reaches numpy's
        gufuncs."""
        src = Path(linalg.__file__).parent
        offenders = []
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                numpy_svd = isinstance(node, ast.Attribute) and node.attr == "svd"
                if numpy_svd and getattr(node.value, "attr", None) == "linalg":
                    offenders.append(f"{path.name}:{node.lineno}")
                elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                    names = {alias.name for alias in node.names}
                    if "svd" in names or ("_umath_linalg" in names and path.name != "linalg.py"):
                        offenders.append(f"{path.name}:{node.lineno}")
                elif isinstance(node, ast.Name) and node.id == "_umath_linalg" and path.name != "linalg.py":
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []


class TestOrthonormalize:
    """Orthonormalization with its rank cut (``linalg.orthonormalize_columns``),
    reached through ``from_spanning``, which validates the vectors first."""

    def test_already_orthonormal(self):
        V = from_spanning([[1, 0, 0], [0, 1, 0]], Field.REAL)
        assert V.dim == 2
        np.testing.assert_allclose(V.basis.T @ V.basis, np.eye(2), atol=1e-12)

    def test_duplicate_direction_collapses(self):
        V = from_spanning([[1, 0, 1, 0], [2, 0, 2, 0]], Field.REAL)
        assert V.dim == 1
        expected = np.array([1, 0, 1, 0]) / np.sqrt(2)
        # column is the direction up to sign
        q = V.basis[:, 0]
        assert min(np.linalg.norm(q - expected), np.linalg.norm(q + expected)) < 1e-12

    def test_independent_pair_gives_orthonormal_q(self):
        V = from_spanning([[1, 0, 1, 0], [0, 1, 0, 1]], Field.REAL)
        assert V.dim == 2
        np.testing.assert_allclose(V.basis.conj().T @ V.basis, np.eye(2), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            from_spanning([[1, 0], [1, 0, 0]], Field.REAL)

    def test_complex_data_under_real_tag(self):
        with pytest.raises(ValueError, match="REAL"):
            from_spanning([[1j, 0]], Field.REAL)

    @pytest.mark.parametrize(
        "field, bad",
        [(f, x) for f in (Field.REAL, Field.COMPLEX) for x in (math.nan, math.inf, -math.inf)]
        + [(Field.COMPLEX, complex(0, math.inf))],
    )
    def test_non_finite_entries_rejected(self, field, bad):
        with pytest.raises(ValueError, match="finite"):
            from_spanning([[1, 0, 0], [0, bad, 0]], field)

    def test_idempotent_on_own_output(self, rng):
        for field in (Field.REAL, Field.COMPLEX):
            M = gaussian_matrix(rng, 7, 4, field)
            V1 = from_spanning([M[:, j] for j in range(4)], field)
            V2 = from_spanning([V1.basis[:, j] for j in range(V1.dim)], field)
            assert V1.dim == V2.dim == 4
            # same span: projectors agree
            np.testing.assert_allclose(
                V1.basis @ V1.basis.conj().T, V2.basis @ V2.basis.conj().T, atol=1e-11
            )


def _svd_route(M):
    """The SVD route of ``orthonormalize_columns``, kept here as the
    reference: the leading left singular vectors above the rank cut."""
    if min(M.shape) == 0:
        return M[:, :0].copy(), 0
    U, sigma, _ = np.linalg.svd(M, full_matrices=False)
    rank = int(np.count_nonzero(sigma > RANK_REL_TOL * float(sigma[0]) * max(M.shape)))
    return np.ascontiguousarray(U[:, :rank]), rank


def _deficient(rng, n, p, rank, field):
    """p vectors in n dimensions spanning a rank-dimensional subspace: rank
    Gaussian vectors and p - rank combinations of them, shuffled."""
    A = gaussian_matrix(rng, n, rank, field)
    M = np.hstack([A, A @ gaussian_matrix(rng, rank, p - rank, field)])
    return M[:, rng.permutation(p)]


def _planted(rng, n, p, field, factor):
    """An (n, p) matrix with singular values spread over [0.5, 1] and the
    smallest planted at ``factor`` times the rank cut."""
    k = min(n, p)
    sigma = np.linspace(1.0, 0.5, k)
    sigma[-1] = factor * RANK_REL_TOL * sigma[0] * max(n, p)
    U = random_unitary(rng, n, field)[:, :k]
    return (U * sigma) @ random_unitary(rng, p, field)[:, :k].conj().T


def _route_cases(rng, m, field):
    """(label, matrix) cases with min(shape) == m: tall, wide, shuffled
    rank-deficient tall and wide, and a singular value planted just above
    and just below the rank cut."""
    yield "tall", gaussian_matrix(rng, m + 7, m, field)
    yield "wide", gaussian_matrix(rng, m, m + 9, field)
    yield "deficient tall", _deficient(rng, m + 7, m, m - 3, field)
    yield "deficient wide", _deficient(rng, m, m + 9, m - 2, field)
    yield "planted above", _planted(rng, m + 5, m, field, 1 + 1e-3)
    yield "planted below", _planted(rng, m + 5, m, field, 1 - 1e-3)


def _expected_rank(label, m):
    return {"deficient tall": m - 3, "deficient wide": m - 2, "planted below": m - 1}.get(label, m)


class TestOrthonormalizeRoutes:
    """Below QR_ROUTE_MIN the SVD route gives the reference's bits; from it
    on, the QR route gives the same rank and span."""

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    @pytest.mark.parametrize("m", [15, 16, 17, 64, 256])
    def test_same_rank_and_span_as_the_svd_route(self, field, m):
        rng = np.random.default_rng(m)
        for label, M in _route_cases(rng, m, field):
            Q = orthonormalize_columns(M)
            rank = Q.shape[1]
            ref, ref_rank = _svd_route(M)
            assert rank == ref_rank == _expected_rank(label, m), label
            assert Q.shape == (M.shape[0], rank) and Q.dtype == field.dtype
            gap = np.abs(Q @ Q.conj().T - ref @ ref.conj().T).max()
            if label == "planted above":
                # The planted direction is fixed by M only to about
                # eps ||M|| / sigma_min (its rounding moves it that far);
                # the other directions are compared at full precision.
                sigma_min = np.linalg.svd(M, compute_uv=False)[-1]
                assert gap <= np.finfo(np.float64).eps / sigma_min, (label, gap)
                lead = ref[:, :-1]
                gap = np.abs(lead - Q @ (Q.conj().T @ lead)).max()
            assert gap <= 1e-12, (label, gap)
            Subspace(M.shape[0], field, Q)  # passes the public orthonormality check

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_svd_route_bits_below_the_threshold(self, field):
        rng = np.random.default_rng(7)
        for m in range(3, QR_ROUTE_MIN):
            for label, M in _route_cases(rng, m, field):
                Q = orthonormalize_columns(M)
                rank = Q.shape[1]
                ref, ref_rank = _svd_route(M)
                assert rank == ref_rank and Q.shape == ref.shape, (m, label)
                assert Q.tobytes() == ref.tobytes(), (m, label)

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    @pytest.mark.parametrize("shape", [(16, 16), (40, 16), (16, 30)])
    def test_full_rank_basis_is_the_q_factor(self, field, shape):
        M = gaussian_matrix(np.random.default_rng(3), *shape, field)
        Q = orthonormalize_columns(M)
        rank = Q.shape[1]
        assert rank == min(shape)
        assert Q.tobytes() == np.linalg.qr(M)[0].tobytes()

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_small_full_rank_basis_is_the_svd_factor(self, field):
        """Below QR_ROUTE_MIN a full-rank list's basis is the SVD's own U:
        C-ordered, and read-only once a subspace owns it."""
        vectors = list(gaussian_matrix(np.random.default_rng(4), 8, 4, field).T)
        M = stack_columns(vectors, field)
        assert orthonormalize_columns(M).tobytes() == _svd(M, full_matrices=False)[0].tobytes()
        basis = from_spanning(vectors, field).basis
        assert basis.flags.c_contiguous and not basis.flags.writeable
        with pytest.raises(ValueError):
            basis[0, 0] = 0.0

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_small_diagonal_entry_of_r_takes_one_svd(self, field, svd_calls):
        """A tall list whose R has a diagonal entry at or below the rank cut
        is rank-deficient (sigma_min(R) <= min |r_kk|): the certificate
        refuses it, and one SVD of R gives both the rank and the vectors."""
        M = _deficient(np.random.default_rng(5), 40, 20, 17, field)
        diagonal = np.abs(np.diagonal(np.linalg.qr(M)[1]))
        assert diagonal.min() <= RANK_REL_TOL * diagonal.max() * 40
        svd_calls.clear()
        Q = orthonormalize_columns(M)
        assert Q.shape == (40, 17)
        assert svd_calls == [(20, 20)] and svd_calls.vectors == [True]

    def test_kahan_list_ranks_on_the_singular_values(self, kahan_vectors, svd_calls):
        """A perturbed Kahan R has no diagonal entry near the cut, yet the
        certificate refuses it, and one SVD of R gives its rank and basis."""
        svd_calls.clear()
        Q = orthonormalize_columns(stack_columns(kahan_vectors, Field.REAL))
        assert Q.shape == (60, 59)
        assert svd_calls == [(60, 60)] and svd_calls.vectors == [True]

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_generic_list_takes_no_svd(self, field, svd_calls):
        M = gaussian_matrix(np.random.default_rng(9), 256, 128, field)
        svd_calls.clear()
        Q = orthonormalize_columns(M)
        assert svd_calls == []
        assert Q.tobytes() == np.linalg.qr(M)[0].tobytes()


class TestColumnScales:
    """A list that ranks below full is ranked again with its columns scaled
    apart when their largest moduli spread by more than SCALE_SPREAD."""

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_a_long_column_hides_no_short_one(self, field):
        W = from_spanning([[1e12, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], field)
        assert W.dim == 3
        assert grassmann_angle(from_spanning([[0, 1, 0, 0]], field), W) == 0.0

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_any_finite_scale_is_scaled_exactly(self, field):
        """Columns at 1e300 and 1e-300, and one below the normal range, are
        each brought to [0.5, 1) by a power of two, with no overflow."""
        W = from_spanning([[1e300, 1e300, 0], [1e-300, 0, 0], [0, 0, 1e-310]], field)
        assert W.dim == 3

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_the_qr_route_is_scaled_too(self, field, svd_calls):
        M = gaussian_matrix(np.random.default_rng(6), 40, 20, field)
        M[:, 0] *= 1e14
        assert _svd_route(M)[1] < 20
        svd_calls.clear()
        assert orthonormalize_columns(M).shape == (40, 20)
        assert len(svd_calls) == 1  # the scaled list is certified full

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_a_spread_within_the_bound_is_ranked_as_given(self, field):
        """Columns 2**9 apart keep the rank of the list as given; 2**12
        apart, the same directions are ranked scaled."""
        base = np.array([[1.0, 1.0], [0.0, 1e-10], [0.0, 0.0]])
        for factor, rank in [(2.0**9, 1), (2.0**12, 2)]:
            M = as_field_array(base * [factor, 1.0], field)
            assert orthonormalize_columns(M).shape[1] == rank, factor

    def test_dependent_columns_stay_dependent(self):
        """Scaling apart moves no direction: a list whose scaled columns are
        dependent still ranks below full."""
        assert from_spanning([[1e12, 2e12, 0], [1e-3, 2e-3, 0], [0, 0, 1]], Field.REAL).dim == 2


class TestFullRankCertificate:
    """``linalg._full_rank_certified`` proves full rank by one Cholesky
    factorization of R R* less a margin; whatever it decides, the rank is
    the one the singular values give, and a full-rank basis is Q."""

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    @pytest.mark.parametrize("m", [16, 64, 256])
    def test_planted_smallest_singular_value(self, field, m):
        rng = np.random.default_rng(m)
        for shape in [(m + m // 4, m), (m, m), (m, m + m // 4)]:
            cut = RANK_REL_TOL * max(shape)
            near_margin = math.sqrt(max(shape) * linalg._EPS) / cut  # sqrt(max(shape) eps) sigma_max
            for factor in [1e-3, 1, 1e3, 1e6, near_margin, 10 * near_margin, 100 * near_margin]:
                label = (shape, factor)
                M = _planted(rng, *shape, field, factor)
                Q_M, R = np.linalg.qr(M)
                certified = linalg._full_rank_certified(R, shape)
                sigma_R = np.linalg.svd(R, compute_uv=False)
                if certified:
                    # What the certificate proves: sigma_min(R)^2 >= s / 2.
                    margin = 4 * (max(shape) + 2) * linalg._EPS * np.sum(sigma_R**2)
                    assert sigma_R[-1] ** 2 >= 0.99 * margin, label
                Q = orthonormalize_columns(M)
                rank = Q.shape[1]
                if factor == 1:
                    # Planted on the cut, the SVDs of M and of R fall on
                    # either side of it by rounding alone: the rank is R's.
                    assert not certified
                    assert rank == int(np.count_nonzero(sigma_R > cut * sigma_R[0])), label
                else:
                    assert rank == _svd_route(M)[1] == m - (factor < 1), label
                if rank == m:
                    assert Q.tobytes() == Q_M.tobytes(), label
            assert certified  # 100 * near_margin is proven full

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    @pytest.mark.parametrize("scale", [1e-150, 1e150])
    @pytest.mark.parametrize("shape, rank", [((40, 20), 20), ((40, 20), 17), ((16, 30), 16), ((16, 30), 13)])
    def test_extreme_scales_take_the_svd(self, field, scale, shape, rank, svd_calls):
        """||R||_F^2 outside [1e-280, 1e280] is refused unfactored, and the
        one SVD of R still ranks the list."""
        rng = np.random.default_rng(rank)
        M = scale * _deficient(rng, *shape, rank, field)
        svd_calls.clear()
        Q = orthonormalize_columns(M)
        assert svd_calls == [(min(shape), shape[1])] and svd_calls.vectors == [True]
        assert Q.shape[1] == _svd_route(M)[1] == rank
        if rank == min(shape):
            assert Q.tobytes() == np.linalg.qr(M)[0].tobytes()


class TestStackColumns:
    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_columns_in_column_major_order(self, field):
        """Mixed ints, floats, arrays and (under REAL, zero-imaginary)
        complex vectors stack as the columns of one column-major matrix,
        whose values are those of the vectors bit for bit."""
        vectors = [[1, 2, 3], np.array([0.5, -1.0, 2.0]), np.array([1 + 0j, 0j, 4 + 0j])]
        M = stack_columns(vectors, field)
        expected = np.column_stack([as_field_array(v, field) for v in vectors])
        assert M.dtype == field.dtype and M.flags.f_contiguous
        assert np.ascontiguousarray(M).tobytes() == expected.tobytes()

    def test_empty_and_mismatched(self):
        assert stack_columns([], Field.COMPLEX, ambient_dim=3).shape == (3, 0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            stack_columns([[1, 2], [1, 2, 3]], Field.REAL)
        with pytest.raises(ValueError, match="complex entries"):
            stack_columns([[1, 2j]], Field.REAL)

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_every_container_gives_the_same_matrix(self, rng, field):
        """A list of arrays, of lists or of tuples, a tuple, an array and
        an iterator of the same rows give one column-major matrix, the
        rows' values bit for bit, that shares no memory with the caller's
        arrays; an empty array of rows with ambient_dim gives the empty one."""
        rows = gaussian_matrix(rng, 3, 5, field)
        for vectors in (list(rows), [list(r) for r in rows], [tuple(r) for r in rows], tuple(rows), rows, iter(rows)):
            M = stack_columns(vectors, field, ambient_dim=5)
            assert M.shape == (5, 3) and M.dtype == field.dtype and M.flags.f_contiguous
            assert M.T.tobytes() == rows.tobytes()
            assert not np.shares_memory(M, rows)
        assert stack_columns(np.zeros((0, 5)), field, ambient_dim=4).shape == (4, 0)

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_a_later_write_to_the_rows_changes_nothing(self, rng, field):
        """The matrix and the subspace spanned from a caller's 2-D array
        keep their bits when the caller then writes to that array."""
        rows = gaussian_matrix(rng, 3, 5, field)
        M = stack_columns(rows, field)
        V = from_spanning(rows, field)
        matrix, basis = M.tobytes(), V.basis.tobytes()
        rows[...] = 0
        assert M.tobytes() == matrix and V.basis.tobytes() == basis

    @pytest.mark.filterwarnings("ignore::PendingDeprecationWarning")
    def test_matrix_subclass_rows_are_not_vectors(self):
        """The rows of an np.matrix are themselves 2-D, as before."""
        with pytest.raises(ValueError, match="one-dimensional"):
            stack_columns(np.matrix([[1.0, 2.0], [3.0, 4.0]]), Field.REAL, ambient_dim=1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            stack_columns(np.matrix([[1.0, 2.0], [3.0, 4.0]]), Field.REAL, ambient_dim=2)


def _layouts(M):
    """M's values as a C-ordered, an F-ordered and a strided matrix (a view
    into a larger array, contiguous in neither order)."""
    strided = np.zeros((2 * M.shape[0], 3 * M.shape[1]), dtype=M.dtype)
    strided[1::2, ::3] = M
    strided = strided[1::2, ::3]
    assert not strided.flags.c_contiguous and not strided.flags.f_contiguous
    return np.ascontiguousarray(M), np.asfortranarray(M), strided


def _route_case(route, tall, field):
    """A spanning matrix for one route of ``orthonormalize_columns``, tall
    or wide, with the basis width and the SVD shapes that route gives it:
    the list's own below QR_ROUTE_MIN, none for a certified QR, and R's
    when the certificate fails (a scaled list is then certified on its
    second pass)."""
    rng = np.random.default_rng([tall, 17])
    n, p = (8, 3) if route == "svd" else (40, 20)
    if not tall:
        n, p = p, n
    if route == "svd":
        return gaussian_matrix(rng, n, p, field), min(n, p), [(n, p)]
    if route == "certified":
        return gaussian_matrix(rng, n, p, field), min(n, p), []
    if route == "deficient":
        return _deficient(rng, n, p, 12, field), 12, [(min(n, p), p)]
    M = gaussian_matrix(rng, n, p, field)
    M[:, 0] *= 1e14  # ranks 1 as given, full once scaled apart
    assert _svd_route(M)[1] < min(n, p)
    return M, min(n, p), [(min(n, p), p)]


class TestLayoutInvariance:
    """A spanning matrix reaches LAPACK in whatever layout it comes in, and
    every LAPACK gufunc reads it through its own column-major copy: the same
    values as a C-ordered, an F-ordered or a strided matrix give one basis,
    bit for bit, on each route of ``orthonormalize_columns``."""

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    @pytest.mark.parametrize("tall", [True, False], ids=["tall", "wide"])
    @pytest.mark.parametrize("route", ["svd", "certified", "deficient", "scaled"])
    def test_every_layout_gives_one_basis(self, svd_calls, route, tall, field):
        M, width, svd_shapes = _route_case(route, tall, field)
        bases = []
        for X in _layouts(M):
            svd_calls.clear()
            bases.append(orthonormalize_columns(X))
            assert list(svd_calls) == svd_shapes
        assert bases[0].shape == (M.shape[0], width) and bases[0].flags.c_contiguous
        assert all(Q.shape == bases[0].shape and Q.tobytes() == bases[0].tobytes() for Q in bases[1:])


class TestDet:
    def test_identity(self):
        assert det(np.eye(3)) == pytest.approx(1.0)

    def test_permutation(self):
        assert det(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(-1.0)

    def test_two_by_two_cofactor_oracle(self):
        M = np.array([[2.0, 4.0], [4.0, 10.0]])
        assert det(M) == pytest.approx(2.0 * 10.0 - 4.0 * 4.0)

    def test_size_zero_and_one(self):
        assert det(np.zeros((0, 0))) == 1.0
        assert det(np.array([[7.5]])) == 7.5

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            det(np.zeros((2, 3)))

    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_multiplicativity(self, field, rng):
        for _ in range(20):
            n = int(rng.integers(1, 9))
            A = gaussian_matrix(rng, n, n, field)
            B = gaussian_matrix(rng, n, n, field)
            lhs = det(A @ B)
            rhs = det(A) * det(B)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


class TestSmallHelpers:
    def test_arccos_clamps_overshoot(self):
        assert arccos_clamped(1.0 + 1e-14) == 0.0
        assert arccos_clamped(-0.5) == math.pi / 2  # clamped up to 0

    def test_clamped_product_log_space(self):
        vals = np.full(40, 0.5)
        assert clamped_products(vals) == pytest.approx(0.5**40, rel=1e-12)
        assert clamped_products(np.zeros(3)) == 0.0
        assert clamped_products(np.zeros(0)) == 1.0

    def test_clamped_products_within_k_ulps_of_exact(self):
        """A product of k factors in [0, 1] is within k * 2**-53 relative
        error of the exact rational product, long vectors included."""
        rng = np.random.default_rng(2024)
        for _ in range(800):
            k = int(rng.integers(21, 129))
            vals = rng.uniform(0.05, 1.0, size=k)
            exact = math.prod(Fraction(float(x)) for x in vals)
            err = abs(Fraction(clamped_products(vals)) - exact) / exact
            assert err <= Fraction(k, 2**53), (k, float(err))

    @pytest.mark.parametrize("k", [0, 1, 20, 21, 40, 128])
    def test_clamped_products_rows_match_vector_call(self, k):
        """Each row of a stack gives the 1-D call's bits, for short and
        long rows alike; a row holding a 0 gives 0.0."""
        rng = np.random.default_rng(k)
        stack = rng.uniform(0.9, 1.05, size=(2, 3, k))  # some factors above 1, clamped
        if k:
            stack[0, 1, k // 2] = 0.0
            stack[1, 2, -1] = -1e-300
        products = clamped_products(stack)
        assert products.shape == (2, 3)
        for index in np.ndindex(2, 3):
            one = clamped_products(stack[index])
            assert type(one) is float
            assert one == products[index]
        if k:
            assert products[0, 1] == 0.0 and products[1, 2] == 0.0
        else:
            assert (products == 1.0).all()

    def test_zero_angle_band_in_cosine_or_squared_cosine(self):
        """The Gram routes take the angle of sqrt(cos^2): the band test on
        the square root agrees with the squared band on every double within
        3000 ulps of it."""
        band_sq = ZERO_ANGLE_COS_BAND**2
        xs = [band_sq]
        below = above = band_sq
        for _ in range(3000):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, 2.0)
            xs += [below, above]
        for x in xs:
            assert (angle_from_cosine(math.sqrt(x)) == 0.0) is (x >= band_sq)
        assert angle_from_cosine(ZERO_ANGLE_COS_BAND) == 0.0
        assert angle_from_cosine(math.nextafter(ZERO_ANGLE_COS_BAND, 0.0)) > 0.0
        assert angle_from_cosine(1.0 + 1e-14) == 0.0
        assert angle_from_cosine(-0.5) == math.pi / 2

    def test_principal_phase_range(self):
        assert principal_phase(complex(-1.0, -0.0)) == math.pi
        assert principal_phase(complex(-1.0, 0.0)) == math.pi
        assert principal_phase(1j) == pytest.approx(math.pi / 2)
