import json
import math
import warnings

import numpy as np
import pytest

from ctrlkit import certificates
from ctrlkit.certificates import (
    KalmanReduction,
    LarcReport,
    LinearRealization,
    NotLinearReport,
    kalman_rank,
    kalman_reduce_3to2,
    larc,
    linear_of,
    matrix_rank,
    save_larc_report,
)
from ctrlkit.dsl import parse, to_affine
from ctrlkit.expr import EvalError, probe_block
from ctrlkit.fields import eval_vf, lie_bracket
from ctrlkit.transform import extend


def affine_of(text: str):
    return to_affine(parse(text))


# --- linear extraction -----------------------------------------------------

def test_linear_of_recovers_matrices():
    aff = affine_of(
        "system lin\nstates x1 x2\ninputs u\n"
        "dx1 = x2\ndx2 = -2*x1 + 3*x2 + u\n"
    )
    real = linear_of(aff)
    assert isinstance(real, LinearRealization)
    assert np.allclose(real.a, [[0.0, 1.0], [-2.0, 3.0]])
    assert np.allclose(real.b, [[0.0], [1.0]])


def test_linear_of_two_inputs():
    aff = affine_of(
        "system mimo\nstates x1 x2\ninputs u v\n"
        "dx1 = x2 + 2*u\ndx2 = x1 - v\n"
    )
    real = linear_of(aff)
    assert np.allclose(real.a, [[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(real.b, [[2.0, 0.0], [0.0, -1.0]])


def test_linear_of_flags_constant_offset():
    aff = affine_of("system off\nstates x1\ninputs u\ndx1 = x1 + 1 + u\n")
    rep = linear_of(aff)
    assert isinstance(rep, NotLinearReport)
    assert "offset" in rep.reason
    assert rep.where == "dx1"
    assert "off" in str(rep)


def test_linear_of_flags_nonlinear_drift():
    aff = affine_of("system nl\nstates x1 x2\ninputs u\ndx1 = x2\ndx2 = x1^2 + u\n")
    rep = linear_of(aff)
    assert isinstance(rep, NotLinearReport)
    assert "not linear" in rep.reason
    assert rep.where == "dx2"


def test_linear_of_flags_drift_undefined_at_origin():
    aff = affine_of("system recip\nstates x1 x2\ninputs u\ndx1 = 1/x1 + x2\ndx2 = u\n")
    rep = linear_of(aff)
    assert isinstance(rep, NotLinearReport)
    assert "not linear" in rep.reason
    assert rep.where == "dx1"


def test_linear_of_names_the_first_row_undefined_at_origin():
    # row 1 is defined, the undefined entry sits in row 2, column 2
    aff = affine_of("system late\nstates x1 x2 x3\ninputs u\ndx1 = x1 + x2\ndx2 = x1 + 1/x2\ndx3 = u\n")
    rep = linear_of(aff)
    assert isinstance(rep, NotLinearReport)
    assert "not linear" in rep.reason
    assert rep.where == "dx2"


def test_linear_of_flags_state_dependent_channel():
    aff = affine_of("system bil\nstates x1\ninputs u\ndx1 = x1*u\n")
    rep = linear_of(aff)
    assert isinstance(rep, NotLinearReport)
    assert "channel" in rep.reason
    assert "u" in rep.where


# --- ranks -----------------------------------------------------------------

def test_matrix_rank_edges():
    assert matrix_rank(np.zeros((0, 3))) == 0
    assert matrix_rank(np.zeros((3, 3))) == 0
    assert matrix_rank(np.eye(3)) == 3
    # relative threshold: a tiny but clean second direction still counts
    assert matrix_rank(np.diag([1.0, 1e-6])) == 2
    assert matrix_rank(np.diag([1.0, 1e-12])) == 1


def test_kalman_rank_chain_and_deficient():
    a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    b = np.array([0.0, 0.0, 1.0])
    assert kalman_rank(a, b) == 3
    assert kalman_rank(np.zeros((3, 3)), b) == 1
    # b stuck in an invariant plane
    a2 = np.diag([1.0, 2.0, 3.0])
    assert kalman_rank(a2, np.array([1.0, 1.0, 0.0])) == 2
    with pytest.raises(ValueError):
        kalman_rank(np.zeros((2, 3)), b)
    with pytest.raises(ValueError):
        kalman_rank(np.zeros((3, 3)), np.zeros(2))


def test_kalman_rank_accepts_matrix_b():
    a = np.zeros((2, 2))
    assert kalman_rank(a, np.eye(2)) == 2


# --- 3-to-2 reduction criterion --------------------------------------------

def test_reduce_3to2_degenerate_when_third_state_decoupled():
    a = np.array([[1.0, 2.0, 0.0], [3.0, 4.0, 0.0], [0.0, 0.0, 5.0]])
    red = kalman_reduce_3to2(a)
    assert red.degenerate
    assert not red.controllable
    assert red.abar is None


def test_reduce_3to2_chain_is_controllable():
    a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    red = kalman_reduce_3to2(a)
    assert not red.degenerate
    assert red.controllable
    assert red.abar.shape == (2, 2)


def test_reduce_3to2_matches_full_kalman_golden():
    a = np.array([[2.0, 0.0, 1.0], [0.0, 3.0, 1.0], [0.0, 0.0, 1.0]])
    red = kalman_reduce_3to2(a)
    assert red.controllable
    assert np.allclose(red.abar, [[2.5, -0.5], [-0.5, 2.5]])
    assert kalman_rank(a, np.array([0.0, 0.0, 1.0])) == 3


def test_reduce_3to2_rejects_wrong_shape():
    with pytest.raises(ValueError):
        kalman_reduce_3to2(np.zeros((2, 2)))


def test_reduce_3to2_agrees_with_kalman_on_random_sweep():
    """Criterion on the reduced 2x2 block iff the 3x3 pair (A, e3) passes
    the rank test.  Smaller sibling of the acceptance sweep."""
    rng = np.random.default_rng(7)
    b = np.array([0.0, 0.0, 1.0])
    for _ in range(300):
        a = rng.uniform(-1.0, 1.0, size=(3, 3))
        red = kalman_reduce_3to2(a)
        assert red.controllable == (kalman_rank(a, b) == 3)


# --- bracket rank certificates ---------------------------------------------

def test_larc_chain_reaches_full_rank_at_origin(chain5):
    rep = larc(to_affine(chain5), np.zeros(5), 4)
    assert rep.rank == 5
    assert rep.full_rank
    assert not rep.truncated
    assert rep.formations == ("f", "g1", "[f,g1]", "[f,[f,g1]]", "[f,[f,[f,g1]]]")


def test_larc_chain_shallow_depth_is_not_full(chain5):
    rep = larc(to_affine(chain5), np.zeros(5), 2)
    assert rep.rank == 3
    assert not rep.full_rank


def test_larc_extension_full_at_generic_point(cubic):
    aff = to_affine(extend(cubic).extended)
    rep = larc(aff, [0.4, 0.3, 0.6, 0.5], 3)
    assert rep.rank == 4
    assert rep.full_rank


def test_larc_extension_degenerate_at_origin(cubic):
    # the cubes kill every direction into x2 up to depth 4 at zero
    aff = to_affine(extend(cubic).extended)
    rep = larc(aff, np.zeros(4), 4)
    assert rep.rank == 3
    assert not rep.full_rank


def test_larc_matches_kalman_for_linear_systems():
    controllable = affine_of(
        "system lin\nstates x1 x2\ninputs u\ndx1 = x2\ndx2 = -2*x1 + 3*x2 + u\n"
    )
    assert larc(controllable, np.zeros(2), 2).rank == 2
    deficient = affine_of(
        "system dec\nstates x1 x2\ninputs u\ndx1 = x1 + u\ndx2 = 2*x2\n"
    )
    assert larc(deficient, np.zeros(2), 3).rank == 1


def test_larc_truncates_on_tiny_budget(chain5):
    rep = larc(to_affine(chain5), np.zeros(5), 4, node_budget=10)
    assert rep.truncated
    assert rep.rank < 5


def test_larc_validates_inputs(chain5):
    aff = to_affine(chain5)
    with pytest.raises(ValueError):
        larc(aff, np.zeros(5), 0)
    with pytest.raises(ValueError):
        larc(aff, np.zeros(4), 2)


def test_larc_report_json_round_trip(tmp_path, chain5):
    rep = larc(to_affine(chain5), np.zeros(5), 3)
    data = rep.to_json()
    assert data["certifies"] == "accessibility"
    assert data["rank"] == rep.rank
    assert data["brackets"] == list(rep.formations)
    assert data["point"] == [0.0] * 5
    path = tmp_path / "larc.json"
    save_larc_report(rep, str(path))
    assert json.loads(path.read_text()) == data


def test_larc_leaves_out_span_probes_where_a_field_has_no_value():
    # exp(x1^400) overflows for |x1| > 1.0166 and sin(inf) has no value:
    # 4 of the 8 span probes evaluate g1, and those alone decide the span
    aff = affine_of("system dom\nstates x1\ninputs u\ndx1 = sin(exp(x1^400)) * u\n")
    probes = probe_block(1, certificates._SPAN_PROBES, certificates._SPAN_SEED)
    values = certificates._probe_values(aff.channels[0], probes)
    assert np.isfinite(values).all(axis=1).sum() == 4
    assert eval_vf(aff.channels[0], [0.5])[0] == math.sin(1.0)
    rep = larc(aff, [0.5], 4)
    assert rep.rank == 1 and rep.full_rank


def test_larc_raises_when_no_span_probe_evaluates():
    aff = affine_of("system dom\nstates x1\ninputs u\ndx1 = sin(exp(x1^2 + 1000)) * u\n")
    with pytest.raises(EvalError, match="span probe"):
        larc(aff, [0.5], 2)


def test_larc_leaves_out_a_candidate_with_no_value_at_any_span_probe():
    # [f,[f,g1]] is about 1e600 at every probe, so it has no finite value
    # where f and g1 have one; it used to fail the whole check
    aff = affine_of("system big\nstates x\ninputs u\ndx = 1e300*x^3 + u\n")
    rep = larc(aff, [1.5], 4)
    assert "[f,[f,g1]]" not in rep.formations
    assert rep.formations[:3] == ("f", "g1", "[f,g1]")
    assert rep.rank == 1 and rep.full_rank


def test_larc_span_test_survives_huge_finite_probe_values():
    # x^-400 is finite but near 1e300 at some span probes: squaring it in
    # np.linalg.norm overflowed, and [f,g1] was dropped as in the span of
    # f and g1 against an infinite norm
    aff = affine_of("system ov\nstates x\ninputs u\ndx = x^-400 + u\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = larc(aff, [1.5], 4)
    assert rep.formations == ("f", "g1", "[f,g1]")
    assert rep.rank == 1 and rep.full_rank


def _count_probes(monkeypatch) -> list:
    """The fields `larc` evaluates at the span probes, in order."""
    probed = []
    probe_values = certificates._probe_values
    monkeypatch.setattr(certificates, "_probe_values", lambda f, probes: probed.append(f) or probe_values(f, probes))
    return probed


def test_larc_raises_at_a_zero_bracket_when_no_span_probe_evaluates(monkeypatch):
    # the drift has no value at any span probe, and [f,g1] simplifies to
    # zero: the check raises at that candidate, without probing it
    aff = affine_of("system flat\nstates x1 x2\ninputs u\ndx1 = u\ndx2 = sin(exp(x2^2 + 1000))\n")
    probed = _count_probes(monkeypatch)
    with pytest.raises(EvalError, match="no span probe evaluates all of 2 kept fields"):
        larc(aff, [0.5, 0.5], 3)
    assert probed == [aff.drift, aff.channels[0]]


# f = 0 and g1 = (1, 0, 0), g2 = (0, 1, x1) take 9 nodes; [f,g1] and [f,g2]
# are zero, of 3 nodes each, and [g1,g2] = (0, 0, 1) comes after them
HEIS_TEXT = "system heis\nstates x1 x2 x3\ninputs u1 u2\ndx1 = u1\ndx2 = u2\ndx3 = x1*u2\n"


@pytest.mark.parametrize(
    "budget, truncated, kept",
    [(11, True, 3), (12, True, 3), (14, True, 3), (15, True, 3), (17, True, 3), (18, False, 4)],
)
def test_zero_brackets_count_against_the_node_budget(monkeypatch, budget, truncated, kept):
    aff = affine_of(HEIS_TEXT)
    probed = _count_probes(monkeypatch)
    rep = larc(aff, [0.0, 0.0, 0.0], 2, node_budget=budget)
    assert rep.truncated is truncated
    assert rep.formations == ("f", "g1", "g2", "[g1,g2]")[:kept]
    assert rep.rank == kept - 1  # f is zero
    # the zero brackets are left out unprobed; [g1,g2] is probed once reached
    assert [f.components for f in probed[3:]] == [lie_bracket(aff.channels[0], aff.channels[1]).components][:kept - 3]


def test_larc_leaves_out_the_probes_where_a_kept_bracket_is_not_finite():
    # exp(500 x2) overflows at one span probe; the kept [g1,[f,g1]] grows
    # as exp(500 (2 x1 + x2)) and overflows at two more, where f and g1
    # are finite.  Those probes leave every later span test, which would
    # otherwise hand lstsq an infinite basis
    aff = affine_of("system ex\nstates x1 x2\ninputs u\ndx1 = exp(500*x2)\ndx2 = exp(500*x1) * u\n")
    probes = probe_block(2, certificates._SPAN_PROBES, certificates._SPAN_SEED)
    gfg = lie_bracket(aff.channels[0], lie_bracket(aff.drift, aff.channels[0]))
    finite = [np.isfinite(certificates._probe_values(f, probes)).all(axis=1).sum() for f in (aff.drift, gfg)]
    assert finite == [7, 5]
    rep = larc(aff, [0.1, 0.2], 4)
    assert rep.formations[:5] == ("f", "g1", "[f,g1]", "[f,[f,g1]]", "[g1,[f,g1]]")
    assert len(rep.formations) == 11 and not rep.truncated
