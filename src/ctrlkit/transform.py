"""Integrator extension and its inverse reduction, with verifiable
certificates.

Extension turns every input into a new chained state driven by a fresh
rate input; reduction greedily strips states whose derivative is a bare
(possibly rescaled) input that appears nowhere else, promoting the
stripped state to an input.  Each reduction step records enough to
reconstruct the system it came from, so certificates can be replayed and
checked independently.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .dsl import (
    ControlSystem,
    parse,
    parse_expression,
    render_expression,
    serialize,
)
from .expr import (
    Constant,
    Div,
    Expr,
    InputVar,
    Mul,
    Neg,
    StateVar,
    references_input,
    simplify,
    subst,
)
from .records import BAD_RECORD, integer, read_json, write_json


def _unique(base: str, taken: set) -> str:
    """`base` with as many "_" appended as make it a name not in `taken`,
    to which it is added."""
    name = base
    while name in taken:
        name += "_"
    taken.add(name)
    return name


@dataclass(frozen=True)
class ExtensionRecord:
    """Result of one integrator extension: the two systems plus the
    correspondence new state <- original input."""

    original: ControlSystem
    extended: ControlSystem
    new_states: tuple[str, ...]
    new_inputs: tuple[str, ...]

    @property
    def mapping(self) -> tuple[tuple[str, str], ...]:
        return tuple(zip(self.new_states, self.original.inputs))


@dataclass(frozen=True)
class ReductionStep:
    """One strip: state `state` (whose rhs was `equation` = scale * input)
    became input `promoted`."""

    state: str
    state_index: int
    input: str
    input_index: int
    promoted: str
    scale: float
    equation: str
    before: str
    after: str

    def __post_init__(self):
        for name, cast in (("state_index", integer), ("input_index", integer), ("scale", float)):
            object.__setattr__(self, name, cast(getattr(self, name)))


@dataclass(frozen=True)
class ReductionCertificate:
    original: ControlSystem
    reduced: ControlSystem
    steps: tuple[ReductionStep, ...]

    @property
    def count(self) -> int:
        return len(self.steps)


def extend(sys: ControlSystem) -> ExtensionRecord:
    """Append one integrator per input; old inputs become states, fresh
    rate inputs drive them."""
    if sys.m == 0:
        raise ValueError(f"system {sys.name!r} has no inputs, nothing to extend")
    taken = set(sys.states) | set(sys.inputs)
    new_states = tuple(_unique(f"y_{u}", taken) for u in sys.inputs)
    new_inputs = tuple(_unique(f"v_{u}", taken) for u in sys.inputs)

    input_to_state = {i: StateVar(sys.n + i) for i in range(sys.m)}
    rhs = [subst(e, input_map=input_to_state) for e in sys.rhs]
    rhs.extend(InputVar(i) for i in range(sys.m))
    extended = ControlSystem(f"{sys.name}_ext", sys.states + new_states, new_inputs, tuple(rhs))
    return ExtensionRecord(sys, extended, new_states, new_inputs)


def _match_scaled_input(e: Expr) -> tuple[float, int] | None:
    """Recognize c * input with a nonzero constant c (c may be 1)."""
    match e:
        case InputVar(i):
            return 1.0, i
        case Neg(InputVar(i)):
            return -1.0, i
        case Mul(Constant(c), InputVar(i)) | Mul(InputVar(i), Constant(c)) if c != 0.0:
            return c, i
        case Div(InputVar(i), Constant(c)):
            return 1.0 / c, i
    return None


def strippable_states(sys: ControlSystem) -> list[tuple[int, float, int]]:
    """States eligible for one reduction step, as (state_index, scale,
    input_index), in declaration order."""
    out = []
    for z in range(sys.n):
        match = _match_scaled_input(simplify(sys.rhs[z]))
        if match is None:
            continue
        scale, j = match
        if any(references_input(sys.rhs[k], j) for k in range(sys.n) if k != z):
            continue
        out.append((z, scale, j))
    return out


def _strip_once(sys: ControlSystem, z: int, scale: float, j: int) -> tuple[ControlSystem, ReductionStep]:
    state_name = sys.states[z]
    input_name = sys.inputs[j]
    new_states = sys.states[:z] + sys.states[z + 1:]
    taken = set(new_states) | {s for k, s in enumerate(sys.inputs) if k != j}
    promoted = _unique(f"u_{state_name}", taken)
    new_inputs = sys.inputs[:j] + (promoted,) + sys.inputs[j + 1:]

    # the stripped state reads as its input, and the states after it move down one
    state_map = {idx: InputVar(j) if idx == z else StateVar(idx - 1) for idx in range(z, sys.n)}
    new_rhs = tuple(subst(e, state_map=state_map) for k, e in enumerate(sys.rhs) if k != z)
    after = ControlSystem(sys.name, new_states, new_inputs, new_rhs)
    step = ReductionStep(
        state=state_name,
        state_index=z,
        input=input_name,
        input_index=j,
        promoted=promoted,
        scale=scale,
        equation=render_expression(sys.rhs[z], sys.states, sys.inputs),
        before=serialize(sys),
        after=serialize(after),
    )
    return after, step


def reduce_integrator(sys: ControlSystem) -> ReductionCertificate:
    """Strip integrator states until none qualifies.  Ties are broken in
    favour of the latest-declared state, which makes the result the unique
    fixed point for chains produced by extend()."""
    current = sys
    steps: list[ReductionStep] = []
    while True:
        candidates = strippable_states(current)
        if not candidates:
            break
        z, scale, j = candidates[-1]
        current, step = _strip_once(current, z, scale, j)
        steps.append(step)
    return ReductionCertificate(sys, current, tuple(steps))


def _unstrip(sys: ControlSystem, step: ReductionStep) -> ControlSystem:
    """Invert one reduction step: re-insert the stripped state as an
    integrator driven by the recorded input."""
    if not (0 <= step.input_index < sys.m):
        raise ValueError("certificate input index out of range")
    if sys.inputs[step.input_index] != step.promoted:
        raise ValueError(
            f"certificate expects promoted input {step.promoted!r} at slot {step.input_index}"
        )
    if not (0 <= step.state_index <= sys.n):
        raise ValueError("certificate state index out of range")
    states = sys.states[:step.state_index] + (step.state,) + sys.states[step.state_index:]
    inputs = sys.inputs[:step.input_index] + (step.input,) + sys.inputs[step.input_index + 1:]
    state_map = {
        idx: StateVar(idx + 1) for idx in range(step.state_index, sys.n)
    }
    input_map = {step.input_index: StateVar(step.state_index)}
    rhs = [subst(e, state_map=state_map, input_map=input_map) for e in sys.rhs]
    equation = parse_expression(step.equation, states, inputs)
    rhs.insert(step.state_index, equation)
    return ControlSystem(sys.name, states, inputs, tuple(rhs))


def verify_roundtrip(cert: ReductionCertificate) -> bool:
    """Replay the certificate backwards: re-extending the reduced system
    step by step must land exactly on each recorded intermediate and
    finally on the original."""
    try:
        current = cert.reduced
        for step in reversed(cert.steps):
            if not current.structurally_equal(parse(step.after), match_names=True):
                return False
            current = _unstrip(current, step)
            if not current.structurally_equal(parse(step.before), match_names=True):
                return False
        return current.structurally_equal(cert.original, match_names=True)
    except (ValueError, TypeError, KeyError, IndexError):
        return False


# --- JSON forms ------------------------------------------------------------

def extension_to_json(record: ExtensionRecord) -> dict:
    return {
        "original": serialize(record.original),
        "extended": serialize(record.extended),
        "mapping": [
            {"input": u, "state": y, "rate_input": v}
            for (y, u), v in zip(record.mapping, record.new_inputs)
        ],
    }


def certificate_to_json(cert: ReductionCertificate) -> dict:
    return {
        "original": serialize(cert.original),
        "reduced": serialize(cert.reduced),
        "count": cert.count,
        "steps": [asdict(s) for s in cert.steps],
    }


def certificate_from_json(data: dict) -> ReductionCertificate:
    try:
        steps = tuple(ReductionStep(**s) for s in data["steps"])
        return ReductionCertificate(parse(data["original"]), parse(data["reduced"]), steps)
    except BAD_RECORD as exc:
        raise ValueError(f"malformed reduction certificate: {exc}") from exc


def save_certificate(cert: ReductionCertificate, path: str):
    write_json(path, certificate_to_json(cert))


def load_certificate(path: str) -> ReductionCertificate:
    data = read_json(path)
    if not isinstance(data, dict):
        raise ValueError("certificate must be a JSON object")
    return certificate_from_json(data)
