"""Command-line front end.

Commands: ``angle``, ``principal``, ``random``, ``verify``, ``geodesic``.
Subspaces travel as the JSON documents described in :mod:`spangle.io`.
Output is JSON on every exit path; angles are serialized in radians with
15 significant digits unless ``--degrees`` is given (presentation only).
Exit codes: 0 success, 1 failed verification, 2 parse/validation error.

Each command imports the modules it computes with once its input has
passed the checks, so a process loads only its own command's: ``angle``
loads ``principal`` and ``angles``, ``principal`` only ``principal``,
``random`` only ``sampling``.  The process entry :func:`run` freezes the
collector's objects before exit, so the interpreter's final collection
does not walk numpy, click and the package again.
"""

from __future__ import annotations

import gc
import math
import sys

import click
import numpy as np

from ._suites import DIM_MAX_LIMIT, HAUSDORFF_DIM_CAP, ORACLE_DIM_CAP, ORIENTED_DIM_CAP, REALIFIED_DIM_CAP, SUITE_NAMES
from .io import (
    MAX_ENTRIES,
    SubspaceDocumentError,
    _sigdigits as _sig,
    dump_json,
    load_subspace_file,
    subspace_document,
    write_subspace_file,
)
from .linalg import Field


def _fail(field_name: str, message: str) -> None:
    click.echo(dump_json({"error": message, "field": field_name}), nl=False)
    sys.exit(2)


def _angle_out(x: float, degrees: bool) -> float:
    return _sig(math.degrees(x) if degrees else x)


def _load(path: str, side: str):
    try:
        return load_subspace_file(path)
    except SubspaceDocumentError as exc:
        _fail(f"{side}:{exc.field_name}", str(exc))
    except OSError as exc:
        _fail(side, f"cannot read {path}: {exc}")


def _load_pair(left: str, right: str):
    """``(V, Mv, W, Mw)`` from the two files of a pair command, Mv and Mw
    their vectors as columns; the files must share field and ambient dimension."""
    V, Mv = _load(left, "left")
    W, Mw = _load(right, "right")
    if V.field is not W.field:
        _fail("field", f"field mismatch: {V.field.value} vs {W.field.value}")
    if V.ambient_dim != W.ambient_dim:
        _fail("ambient_dim", f"ambient dimension mismatch: {V.ambient_dim} vs {W.ambient_dim}")
    return V, Mv, W, Mw


def _emit(V, out_path: str | None, **summary) -> None:
    """Print V's document, or write it to ``out_path`` and print the
    summary with the path."""
    if out_path is None:
        click.echo(dump_json(subspace_document(V)), nl=False)
        return
    try:
        write_subspace_file(out_path, V)
    except OSError as exc:
        _fail("out", f"cannot write {out_path}: {exc}")
    click.echo(dump_json({"out": out_path, **summary}), nl=False)


def _pair_header(V, W, degrees: bool) -> dict:
    """What every pair report starts with: the pair's shape and its
    principal angles."""
    from .principal import principal_angles

    return {
        "ambient_dim": V.ambient_dim,
        "field": V.field.value,
        "units": "degrees" if degrees else "radians",
        "dim_left": V.dim,
        "dim_right": W.dim,
        "principal_angles": [_angle_out(a, degrees) for a in principal_angles(V, W)],
    }


def _check_seed(seed: int) -> None:
    if seed < 0:
        _fail("seed", "seed must be nonnegative")


def _usage_field(exc: click.UsageError) -> str:
    """The option or argument a usage error is about, as the other
    failures name it (``dim-max``, ``ambient_dim``), else ``usage``."""
    param = getattr(exc, "param", None)
    if param is not None:
        return param.opts[0].lstrip("-")
    option = getattr(exc, "option_name", None)
    return option.lstrip("-") if option else "usage"


class _Group(click.Group):
    """The command group, with click's own usage errors (an unknown
    command or option, a bad or missing value) written as the JSON error
    of every other failure.  A bare ``spangle`` still prints the help."""

    # How click 8.2 and later show the help of a bare group; earlier
    # versions exit with it and raise no usage error.
    _HELP_ERRORS = getattr(click.exceptions, "NoArgsIsHelpError", ())

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except self._HELP_ERRORS:
            raise
        except click.UsageError as exc:
            _fail(_usage_field(exc), exc.format_message())

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            _fail(_usage_field(exc), exc.format_message())


@click.group(cls=_Group)
def main() -> None:
    """Angles, metrics and verification suites for real/complex subspaces."""


@main.command("angle")
@click.argument("left", type=click.Path())
@click.argument("right", type=click.Path())
@click.option("--degrees", is_flag=True, help="format angles in degrees")
@click.option("--oriented", "oriented_flag", is_flag=True, help="include the oriented angle (equal dimensions)")
def cmd_angle(left: str, right: str, degrees: bool, oriented_flag: bool) -> None:
    """Full angle report for a pair of subspace files."""
    V, Mv, W, Mw = _load_pair(left, right)
    from .angles import _oriented, angle_report, grassmann_angle, oriented_angle

    report = angle_report(V, W)
    out = {
        **_pair_header(V, W, degrees),
        "theta_left_right": _angle_out(report.theta, degrees),
        "theta_right_left": _angle_out(grassmann_angle(W, V), degrees),
        "theta_perp": _angle_out(report.theta_perp, degrees),
        "theta_min_sym": _angle_out(report.theta_min_sym, degrees),
        "theta_max_sym": _angle_out(report.theta_max_sym, degrees),
        "projection_factor": _sig(report.projection_factor),
        # The Fubini-Study distance is the max-symmetrized angle.
        "fubini_study": _angle_out(report.theta_max_sym, degrees),
    }
    if oriented_flag:
        if V.dim != W.dim:
            _fail("vectors", "oriented angles require equal dimensions")
        try:
            oa = oriented_angle(_oriented(V, Mv), _oriented(W, Mw))
        except ValueError as exc:
            _fail("vectors", f"orientation needs independent vectors: {exc}")
        cz = complex(oa.cos_value)
        out["oriented"] = {
            "magnitude": _angle_out(oa.magnitude, degrees),
            "phase": None if oa.phase is None else _angle_out(oa.phase, degrees),
            "cos_value": [_sig(cz.real), _sig(cz.imag)],
        }
    click.echo(dump_json(out), nl=False)


@main.command("principal")
@click.argument("left", type=click.Path())
@click.argument("right", type=click.Path())
@click.option("--degrees", is_flag=True, help="format angles in degrees")
def cmd_principal(left: str, right: str, degrees: bool) -> None:
    """Principal angles of a pair of subspace files."""
    V, _, W, _ = _load_pair(left, right)
    click.echo(dump_json(_pair_header(V, W, degrees)), nl=False)


@main.command("random")
@click.argument("ambient_dim", type=int)
@click.argument("dim", type=int)
@click.option("--field", "field_name", type=click.Choice(["real", "complex"]), default="real")
@click.option("--seed", type=int, default=0, help="nonnegative RNG seed (reproducible output)")
@click.option("--out", "out_path", type=click.Path(), default=None, help="write to a file instead of stdout")
def cmd_random(ambient_dim: int, dim: int, field_name: str, seed: int, out_path: str | None) -> None:
    """Write a Haar-uniform random subspace document.  AMBIENT_DIM times
    max(DIM, 1) may be at most 4194304 (2**22); a larger request exits 2
    before anything is drawn."""
    if not 0 <= dim <= ambient_dim:
        _fail("dim", f"need 0 <= dim <= ambient_dim, got dim={dim}, ambient_dim={ambient_dim}")
    # The Gaussian drawn is ambient_dim x dim, bounded as documents are.
    if ambient_dim * max(dim, 1) > MAX_ENTRIES:
        _fail("dim", f"need ambient_dim * max(dim, 1) <= {MAX_ENTRIES}, got {ambient_dim} * {max(dim, 1)}")
    _check_seed(seed)
    from .sampling import haar_subspace

    field = Field.COMPLEX if field_name == "complex" else Field.REAL
    rng = np.random.default_rng(seed)
    _emit(haar_subspace(rng, ambient_dim, dim, field), out_path, ambient_dim=ambient_dim, dim=dim)


@main.command("verify")
@click.option("--suite", default="all", help=f"one of: {', '.join(SUITE_NAMES)}, all")
@click.option(
    "--dim-max",
    type=int,
    default=6,
    help=f"largest ambient dimension drawn, 2..{DIM_MAX_LIMIT}; the oriented suite caps it at {ORIENTED_DIM_CAP}, "
    f"the Hausdorff loop at {HAUSDORFF_DIM_CAP}, the exhaustive oracle schedule at {ORACLE_DIM_CAP}, "
    f"the realified loop at {REALIFIED_DIM_CAP}",
)
@click.option("--trials", type=int, default=200)
@click.option("--seed", type=int, default=42, help="nonnegative RNG seed")
def cmd_verify(suite: str, dim_max: int, trials: int, seed: int) -> None:
    """Run the randomized verification suites; exit 0 iff all pass."""
    if suite != "all" and suite not in SUITE_NAMES:
        _fail("suite", f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)} or 'all'")
    if trials < 0:
        _fail("trials", "trials must be nonnegative")
    if not 2 <= dim_max <= DIM_MAX_LIMIT:
        _fail("dim-max", f"dim-max must be between 2 and {DIM_MAX_LIMIT}")
    _check_seed(seed)
    from .verify import run_suites  # the verify stack loads only for this command

    reports = run_suites(suite, seed=seed, trials=trials, dim_max=dim_max)
    passed = all(r.passed for r in reports)
    out = {
        "suite": suite,
        "seed": seed,
        "trials": trials,
        "dim_max": dim_max,
        "passed": passed,
        "suites": [r.as_dict() for r in reports],
    }
    if trials == 0:
        out["note"] = "0 trials: all checks vacuously pass"
    click.echo(dump_json(out), nl=False)
    sys.exit(0 if passed else 1)


@main.command("geodesic")
@click.argument("left", type=click.Path())
@click.argument("right", type=click.Path())
@click.option("--t", "t_param", type=float, required=True, help="arc-length parameter in radians")
@click.option("--phase", type=float, default=None, help="geodesic phase (complex field)")
@click.option("--out", "out_path", type=click.Path(), default=None)
def cmd_geodesic(left: str, right: str, t_param: float, phase: float | None, out_path: str | None) -> None:
    """Point on the geodesic between two codimension-1-intersecting subspaces."""
    for name, value in (("t", t_param), ("phase", phase)):
        if value is not None and not math.isfinite(value):
            _fail(name, f"{name} must be finite")
    U, _, W, _ = _load_pair(left, right)
    from .metrics import geodesic_point

    try:
        V = geodesic_point(U, W, t_param, phase=phase)
    except ValueError as exc:
        _fail("vectors", str(exc))
    _emit(V, out_path)


def run() -> None:
    """The process entry (``python -m spangle.cli`` and the ``spangle``
    script): :func:`main`, then the collector's objects are frozen, so
    that the interpreter's exit does not walk them in a last collection.
    Output is flushed and files are closed by then."""
    try:
        main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
