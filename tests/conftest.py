import pytest

from ctrlkit import parse


HEADING_TEXT = """system heading
states x1 x2
inputs v
dx1 = sin(v)
dx2 = cos(v)
"""

CUBIC_TEXT = """system cubic
states x1 x2 x3
inputs u
dx1 = u
dx2 = x3^3
dx3 = u^3
"""


@pytest.fixture
def heading():
    return parse(HEADING_TEXT)


@pytest.fixture
def cubic():
    return parse(CUBIC_TEXT)


def chain_text(n: int) -> str:
    """Planar path system with an n-3 deep integrator chain on the
    heading: dx1=sin(x3), dx2=cos(x3), dx3=x4, ..., dxn=u."""
    if n < 3:
        raise ValueError("need n >= 3")
    lines = [f"system chain{n}", "states " + " ".join(f"x{i}" for i in range(1, n + 1)), "inputs u"]
    lines.append("dx1 = sin(x3)")
    lines.append("dx2 = cos(x3)")
    for i in range(3, n):
        lines.append(f"dx{i} = x{i + 1}")
    lines.append(f"dx{n} = u")
    return "\n".join(lines) + "\n"


@pytest.fixture
def chain5():
    return parse(chain_text(5))


def iter_nodes(e):
    """Every node of an expression tree, root first."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


def per_substep(visit):
    """A block visit for `flows.rk4_rows` that calls visit(k, x) once per
    substep k of the block, with that substep's states x (rows, n)."""

    def block(k, xs):
        for j in range(xs.shape[1]):
            visit(k + j, xs[:, j].T)

    return block
