"""Integrator extension and reduction, with certificate replay."""

import json
from dataclasses import replace

import pytest

from ctrlkit.dsl import NotAffineReport, parse, to_affine
from ctrlkit.expr import InputVar, Mul, Sin, StateVar
from ctrlkit.transform import (
    _unstrip,
    certificate_from_json,
    certificate_to_json,
    extend,
    extension_to_json,
    load_certificate,
    reduce_integrator,
    save_certificate,
    strippable_states,
    verify_roundtrip,
)
from conftest import chain_text


def test_extend_heading(heading):
    rec = extend(heading)
    assert rec.extended.states == ("x1", "x2", "y_v")
    assert rec.extended.inputs == ("v_v",)
    assert rec.extended.rhs[0] == Sin(StateVar(2))
    assert rec.extended.rhs[2] == InputVar(0)
    assert rec.mapping == (("y_v", "v"),)
    assert rec.original is heading


def test_extend_cubic_matches_published_form(cubic):
    target = parse(
        "system target\n"
        "states x1 x2 x3 x4\n"
        "inputs v\n"
        "dx1 = x4\n"
        "dx2 = x3^3\n"
        "dx3 = x4^3\n"
        "dx4 = v\n"
    )
    rec = extend(cubic)
    assert rec.extended.structurally_equal(target)
    aff = to_affine(rec.extended)
    assert not isinstance(aff, NotAffineReport)


def test_extend_requires_inputs():
    auto = parse("system auto\nstates x\ndx = -x\n")
    with pytest.raises(ValueError):
        extend(auto)


def test_extend_two_inputs():
    s = parse("system two\nstates x\ninputs a b\ndx = a * b\n")
    rec = extend(s)
    assert rec.extended.states == ("x", "y_a", "y_b")
    assert rec.extended.inputs == ("v_a", "v_b")
    assert rec.extended.rhs[1] == InputVar(0)
    assert rec.extended.rhs[2] == InputVar(1)


def test_extend_name_collision_gets_underscored():
    s = parse("system clash\nstates x y_u\ninputs u\ndx = u\ndy_u = x\n")
    rec = extend(s)
    assert rec.new_states == ("y_u_",)


def test_chain5_reduces_in_three_steps_to_heading(chain5, heading):
    cert = reduce_integrator(chain5)
    assert cert.count == 3
    assert [s.state for s in cert.steps] == ["x5", "x4", "x3"]
    assert cert.reduced.structurally_equal(heading)
    assert verify_roundtrip(cert)


def test_chain5_reextension_reproduces_input(chain5):
    cert = reduce_integrator(chain5)
    sys_ = cert.reduced
    for _ in range(cert.count):
        sys_ = extend(sys_).extended
    assert sys_.structurally_equal(chain5)


def test_reduce_fixed_point(heading):
    cert = reduce_integrator(heading)
    assert cert.count == 0
    assert cert.reduced is heading
    assert verify_roundtrip(cert)


def test_reduce_then_extend_left_inverse_on_irreducible(heading, cubic):
    bilinear = parse("system b\nstates x1 x2\ninputs u\ndx1 = x2 * u\ndx2 = -x1\n")
    for s in (heading, cubic, bilinear):
        assert reduce_integrator(s).count == 0  # irreducible
        cert = reduce_integrator(extend(s).extended)
        assert cert.count == s.m
        assert cert.reduced.structurally_equal(s)


@pytest.mark.parametrize(
    "rhs,strips",
    [
        ("u", True),
        ("-u", True),
        ("2 * u", True),
        ("u * 3", True),
        ("u / 2", True),
        ("0 - -u", True),
        ("-2 * u", True),
        ("u / -4", True),
        ("u + 1", False),
        ("u^2", False),
        ("0 * u", False),
        ("x1 * u", False),
    ],
)
def test_scaled_input_patterns(rhs, strips):
    s = parse(f"system p\nstates x1 x2\ninputs u\ndx1 = sin(x2)\ndx2 = {rhs}\n")
    cert = reduce_integrator(s)
    assert (cert.count == 1) == strips
    if strips:
        assert cert.reduced.n == 1
        assert verify_roundtrip(cert)


def test_input_used_elsewhere_blocks_strip():
    s = parse("system p\nstates x1 x2\ninputs u\ndx1 = x2 + u\ndx2 = u\n")
    assert strippable_states(s) == []
    assert reduce_integrator(s).count == 0


def test_strip_only_the_free_integrator():
    # x3 is a pure integrator of u2; u1 is consumed nonlinearly
    s = parse(
        "system p\nstates x1 x2 x3\ninputs u1 u2\n"
        "dx1 = sin(u1) + x3\ndx2 = x3\ndx3 = u2\n"
    )
    cert = reduce_integrator(s)
    assert cert.count == 1
    assert cert.steps[0].state == "x3"
    assert cert.steps[0].input == "u2"
    assert cert.reduced.n == 2 and cert.reduced.m == 2
    assert verify_roundtrip(cert)


def test_certificate_json_round_trip(chain5):
    cert = reduce_integrator(chain5)
    data = certificate_to_json(cert)
    again = certificate_from_json(data)
    assert again.count == cert.count
    assert again.reduced.structurally_equal(cert.reduced, match_names=True)
    assert verify_roundtrip(again)


def test_certificate_save_load(tmp_path, chain5):
    cert = reduce_integrator(chain5)
    p = tmp_path / "cert.json"
    save_certificate(cert, str(p))
    again = load_certificate(str(p))
    assert verify_roundtrip(again)
    assert again.original.structurally_equal(chain5, match_names=True)


def test_tampered_certificate_fails_replay(chain5):
    cert = reduce_integrator(chain5)
    bad_step = replace(cert.steps[0], equation="0")
    bad = replace(cert, steps=(bad_step,) + cert.steps[1:])
    assert not verify_roundtrip(bad)
    bad2 = replace(cert, steps=(replace(cert.steps[1], scale=7.0),) + cert.steps[:1])
    assert not verify_roundtrip(bad2)


def _tamper(**change):
    def run(cert, tmp_path):
        _unstrip(cert.reduced, replace(cert.steps[-1], **change))
    return run


def _load(edit):
    def run(cert, tmp_path):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(edit(certificate_to_json(cert))))
        load_certificate(str(path))
    return run


@pytest.mark.parametrize("case", [
    _tamper(input_index=5),
    _tamper(promoted="w"),
    _tamper(state_index=9),
    _load(lambda good: [good]),
    _load(lambda good: {k: v for k, v in good.items() if k != "steps"}),
    _load(lambda good: {**good, "steps": [{"bogus": 1}]}),
    _load(lambda good: {**good, "reduced": "system ?"}),
], ids=["input index", "promoted input", "state index", "not an object", "no steps", "bad step", "bad system"])
def test_tampered_or_malformed_certificate_raises_value_error(chain5, tmp_path, case):
    cert = reduce_integrator(chain5)
    _tamper()(cert, tmp_path)
    _load(lambda good: good)(cert, tmp_path)
    with pytest.raises(ValueError):
        case(cert, tmp_path)


@pytest.mark.parametrize("states, rhs", [
    ("z x2 x3", "dz = u\ndx2 = x3\ndx3 = z*x2"),
    ("x1 z x3", "dx1 = x3\ndz = u\ndx3 = z*x1"),
], ids=["first", "middle"])
def test_strip_renumbers_the_states_after_the_stripped_one(states, rhs):
    cert = reduce_integrator(parse(f"system p\nstates {states}\ninputs u\n{rhs}\n"))
    assert cert.count == 1 and cert.steps[0].state == "z"
    # the states after z move down one index; z itself becomes the input
    assert cert.reduced.rhs == (StateVar(1), Mul(InputVar(0), StateVar(0)))
    assert verify_roundtrip(cert)


def test_deeper_chain_counts(cubic):
    # an n-state chain carries n-2 strippable integrators above the heading
    for n in (4, 6, 8):
        sys_ = parse(chain_text(n))
        cert = reduce_integrator(sys_)
        assert cert.count == n - 2
        assert cert.reduced.n == 2
    # extension depth stacks too
    rec1 = extend(cubic)
    rec2 = extend(rec1.extended)
    assert rec2.extended.n == cubic.n + 2
    back = reduce_integrator(rec2.extended)
    assert back.count == 2
    assert back.reduced.structurally_equal(cubic)


def test_extension_record_json(cubic):
    rec = extend(cubic)
    data = extension_to_json(rec)
    assert data["mapping"] == [{"input": "u", "state": "y_u", "rate_input": "v_u"}]
    assert parse(data["extended"]).structurally_equal(rec.extended, match_names=True)
    assert parse(data["original"]).structurally_equal(cubic, match_names=True)
