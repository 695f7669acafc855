import inspect
import sys

import numpy as np
import pytest

import spangle
from spangle import exterior, verify


class TestSuiteHarness:
    def test_all_suites_pass_small(self):
        reports = verify.run_suites("all", seed=11, trials=25, dim_max=5)
        assert len(reports) == 5
        for r in reports:
            assert r.passed, [c.name for c in r.checks if not c.passed]

    @pytest.mark.parametrize("suite", verify.SUITE_NAMES)
    def test_zero_trials_vacuous(self, suite):
        reports = verify.run_suites(suite, seed=1, trials=0, dim_max=4)
        (report,) = reports
        assert report.passed
        assert all(c.trials == 0 for c in report.checks)
        assert all("0 trials" in c.note for c in report.checks)
        declared = verify.CHECKS[suite]
        assert [c.name for c in report.checks] == list(declared)
        assert all(c.tolerance == declared[c.name] for c in report.checks)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            verify.run_suites("nope", seed=1, trials=5, dim_max=4)

    def test_reports_serialize(self):
        (report,) = verify.run_suites("bounds", seed=3, trials=5, dim_max=4)
        d = report.as_dict()
        assert d["suite"] == "bounds"
        assert isinstance(d["checks"], list) and d["checks"]
        assert {"name", "trials", "max_residual", "tolerance", "passed"} <= set(
            d["checks"][0]
        )


# Per-check trial counts of run_suites("all", seed, 5, 8), in CHECKS order.
# They follow from the sequence of random draws and from branch decisions
# with wide margins, not from the last digits of any residual.
DRAW_ORDER_TRIALS = {
    42: {
        "pythagorean": (10, 10, 5, 10, 10, 10, 10, 10, 7, 7, 3),
        "oriented": (10, 10, 10, 10),
        "metric-axioms": (10, 10, 8, 8, 6, 1, 10, 10, 10, 10, 10),
        "oracle-equivalence": (10, 10, 10, 10, 10, 2, 2, 10, 10, 4, 5, 5, 5),
        "bounds": (10, 10, 10, 10, 3, 10, 10, 10, 5, 2, 2, 5),
    },
    43: {
        "pythagorean": (10, 10, 7, 10, 10, 10, 10, 10, 9, 9, 2),
        "oriented": (10, 10, 10, 10),
        "metric-axioms": (10, 10, 7, 9, 8, 0, 10, 10, 10, 10, 10),
        "oracle-equivalence": (10, 10, 10, 10, 10, 2, 2, 10, 10, 4, 5, 5, 5),
        "bounds": (10, 10, 10, 10, 2, 10, 10, 10, 6, 0, 0, 5),
    },
}


@pytest.mark.parametrize("seed", sorted(DRAW_ORDER_TRIALS))
def test_seeded_draw_order_is_pinned(seed):
    """A seed reproduces the suites' draws: the trials each check reached
    match the table recorded for that seed."""
    reports = verify.run_suites("all", seed, 5, 8)
    assert {r.suite: tuple(c.trials for c in r.checks) for r in reports} == DRAW_ORDER_TRIALS[seed]


# Exported functions the verify suites never call, each with its reason.
# An alias counts through the function it names (``hausdorff`` and
# ``max_symmetrized_angle`` through fubini_study).  Wiring one in takes it off this list.
UNREACHED_BY_VERIFY = {
    "angle_from_complement": "not yet checked against the angle with complement(V)",
    "angle_report": "what `spangle angle` prints; its fields are not yet checked against their own routes",
    "angular_range": "not yet checked against the principal angles",
    "classify_triangle_equality": "its witness is not yet checked to reach equality",
    "from_basis_matrix": "the entry for a user's basis; verify builds its bases itself",
    "full_space": "the complement of {0}; verify takes complements of nonzero subspaces only",
    "geodesic_point": "verify takes the geodesic through the private _geodesic, once per pair",
    "min_symmetrized_angle": "not yet checked against the two directed angles",
    "project_vector": "not yet checked",
    "projection_factor": "not yet checked against cos theta (real) or cos^2 theta (complex)",
    "vector_angles": "not yet checked against the spectrum of two lines",
}


def test_verify_reaches_the_public_functions():
    """Every function in spangle.__all__ is called by the verify suites or
    is listed, with its reason, in UNREACHED_BY_VERIFY; a listed one that
    verify starts to call must leave the list."""
    functions = [f for f in (getattr(spangle, name) for name in spangle.__all__) if inspect.isfunction(f)]
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        verify.run_suites("all", 42, 20, 8)
    finally:
        sys.setprofile(previous)
    unreached = {f.__name__ for f in functions if f.__code__ not in called}
    assert unreached == set(UNREACHED_BY_VERIFY)


class TestMutationSmoke:
    """Injected parity bugs in the reordering-sign machinery must surface
    as oracle-equivalence failures.  (A sign factor depending only on the
    grades is invisible to norm-based oracles; the detectable bugs are
    the mask-dependent ones, i.e. genuine parity mistakes.)"""

    def test_index_dependent_sign_bug_breaks_oracle_equivalence(self, monkeypatch):
        original = exterior.shuffle_sign

        def broken(mask_a, mask_b):
            # miscounts transpositions whenever the first index set
            # contains the lowest basis direction (elementwise, as the
            # kernels call it on arrays of masks)
            s = original(mask_a, mask_b)
            return np.where(mask_a & 1, -s, s)

        monkeypatch.setattr(exterior, "shuffle_sign", broken)
        report = verify.run_oracle_equivalence(seed=5, trials=40, dim_max=5)
        assert not report.passed

    def test_both_products_reach_the_patched_sign(self, monkeypatch):
        """The smoke tests patch ``exterior.shuffle_sign``: both kernels
        must look it up at call time, so the mutation reaches them."""
        calls = []
        original = exterior.shuffle_sign

        def counting(mask_a, mask_b):
            calls.append(len(mask_a))
            return original(mask_a, mask_b)

        monkeypatch.setattr(exterior, "shuffle_sign", counting)
        line = exterior.Multivector(2, spangle.Field.REAL, np.array([0.0, 1.0, 0.0, 0.0]))
        plane = exterior.Multivector(2, spangle.Field.REAL, np.array([0.0, 0.0, 0.0, 1.0]))
        other = exterior.Multivector(2, spangle.Field.REAL, np.array([0.0, 0.0, 1.0, 0.0]))
        assert exterior.wedge(line, other).coeffs[3] == 1.0
        assert calls == [1]
        assert exterior.contract(other, plane).coeffs[1] == -1.0
        assert calls == [1, 1]

    def test_sign_flatten_breaks_oracle_equivalence(self, monkeypatch):
        monkeypatch.setattr(exterior, "shuffle_sign", lambda a, b: 1)
        report = verify.run_oracle_equivalence(seed=5, trials=40, dim_max=5)
        assert not report.passed
