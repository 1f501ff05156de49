"""numpy's random streams `np.random.default_rng([seed, i])` for many
rows i at once, with numpy's exact bits: SeedSequence's hash and PCG64's
step and output over uint64 arrays, and the tables of numpy's
exponential ziggurat, read from the installed numpy on the first draw
through the public `PCG64.state`, not at import.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and the
# multiplier of its PCG64
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_PCG_INV = pow(_PCG_MULT, -1, 1 << 128)
_POOL = 4
_LOW, _S32 = np.uint64(_MASK32), np.uint64(32)
# the multiplier's 64-bit halves, and the 32-bit limbs of its low half
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & (1 << 64) - 1)
_M0, _M1 = np.uint64(_PCG_MULT & _MASK32), np.uint64(_PCG_MULT >> 32 & _MASK32)


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays: each call advances the
    hash constant, starting from `const`."""

    def hash_words(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hash_words


def _mix(x, y):
    value = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return value ^ (value >> np.uint32(16))


def _seed_words(seed: int, index: np.ndarray) -> list[np.ndarray]:
    """`SeedSequence([seed, i]).generate_state(4, np.uint64)` for every
    i of `index`, each below 2^32, as four uint64 arrays: numpy's uint32
    arithmetic over all rows at once."""
    # the seed's 32-bit words, low first (one word for 0), then i's one word
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.full(len(index), w, dtype=np.uint32) for w in words] + [index.astype(np.uint32)]
    entropy += [np.zeros(len(index), dtype=np.uint32)] * (_POOL - len(entropy))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    final = _hasher(_INIT_B, _MULT_B)
    out = [final(pool[j % _POOL]).astype(np.uint64) for j in range(2 * _POOL)]
    # little-endian pairs of 32-bit words
    return [out[2 * j] | (out[2 * j + 1] << np.uint64(32)) for j in range(_POOL)]


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, state * mult + inc mod 2^128, of the states
    hi * 2^64 + lo held in two uint64 arrays: the full product of the low
    halves comes from four products of 32-bit limbs, and the rest of the
    step wraps mod 2^64."""
    l0, l1 = lo & _LOW, lo >> _S32
    p00, p01, p10 = l0 * _M0, l0 * _M1, l1 * _M0
    mid = (p00 >> _S32) + (p01 & _LOW) + (p10 & _LOW)
    new_lo = (mid << _S32 | p00 & _LOW) + inc_lo
    carries = (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32) + (new_lo < inc_lo)
    return l1 * _M1 + carries + hi * _MULT_LO + lo * _MULT_HI + inc_hi, new_lo


def _xsl_rr(hi, lo) -> np.ndarray:
    """PCG64's output of the states hi * 2^64 + lo: the xor of the two
    halves, rotated right by the top 6 bits."""
    value, turn = hi ^ lo, hi >> np.uint64(58)
    return value >> turn | value << (np.uint64(64) - turn & np.uint64(63))


def _pcg64(state: int, inc: int) -> dict:
    """The `PCG64.state` of a 128-bit state and increment."""
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}


def _first_slow(slow, guess: int) -> int:
    """The least ri below 2^53 with slow(ri), 2^53 if none, for a slow()
    that holds from some ri on: steps out from `guess` by doubling steps
    until the answer is bracketed, then bisects."""
    fast, slow_at = -1, 1 << 53  # slow() fails at `fast` and holds at `slow_at`
    step, ri = 1, min(max(guess, 0), slow_at - 1)
    while slow_at - fast > 1:
        if slow(ri):
            slow_at, ri = ri, ri - step
        else:
            fast, ri = ri, ri + step
        step *= 2
        if not fast < ri < slow_at:
            ri = (fast + slow_at) // 2
    return slow_at


@cache
def ziggurat() -> tuple[np.ndarray, np.ndarray]:
    """The tables (we, ke) of the installed numpy's exponential ziggurat:
    a draw whose first word u has ri = u >> 11 and layer idx = u >> 3 &
    255 returns ri * we[idx] from that one word while ri < ke[idx], and
    reads more words otherwise.  Read once, on the first draw, through
    the public PCG64 state."""
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)

    def draw(ri: int, idx: int):
        """An exponential whose first two words are ri << 11 | idx << 3 and
        1, and whether it read the second: the state before a word w under
        increment inc is (w - inc) / mult, and the state 1 outputs 1."""
        word = ri << 11 | idx << 3
        inc = (1 - word * _PCG_MULT) & _MASK128
        bits.state = _pcg64((word - inc) * _PCG_INV & _MASK128, inc)
        return gen.standard_exponential(), bits.random_raw() != 1

    # draw(1, idx) returns 1 * we[idx]: layer 0 takes the fast path at
    # ri = 1, and the slow path of every other layer reads the word 1 as a
    # next_double of 0 and accepts so small an x
    we = [draw(1, idx)[0] for idx in range(256)]
    # the guess is within 2 of numpy 2.4's ke[idx] in every layer but 1;
    # layer 0 pairs with the top layer, we[-1]
    ke = [_first_slow(lambda ri: draw(ri, idx)[1], 2 * int(we[idx - 1] / we[idx] * 2 ** 52)) for idx in range(256)]
    we, ke = np.array(we), np.array(ke, dtype=np.uint64)
    we.flags.writeable = ke.flags.writeable = False  # every draw shares them
    return we, ke


def draw_rows(seed: int, first: int, count: int, exponentials: int, uniforms: int):
    """What `np.random.default_rng([seed, i])` draws as
    `standard_exponential(exponentials)` and then `random(uniforms)`, as
    two arrays of `count` rows, for i = first ... first + count - 1, each
    below 2^32.  Every row's PCG64 is seeded as numpy seeds it and stepped
    as uint64 arrays, and its words become values as `random` and the fast
    path of the ziggurat make them.  A row with an exponential off the
    fast path draws again from a reused Generator set to its seeded state."""
    we, ke = ziggurat()
    s_hi, s_lo, q_hi, q_lo = _seed_words(seed, np.arange(first, first + count))
    # pcg64_srandom_r: inc = 2q + 1 and state = (s + inc) * mult + inc
    one = np.uint64(1)
    inc = (q_hi << one | q_lo >> np.uint64(63), q_lo << one | one)
    lo = s_lo + inc[1]
    start = _pcg_step(s_hi + inc[0] + (lo < inc[1]), lo, *inc)
    gam = np.empty((count, exponentials))
    raw = np.empty((count, uniforms))
    slow = np.zeros(count, dtype=bool)
    state = start
    # a row's words go to its exponentials first, then to its uniforms
    for k, column in enumerate([*gam.T, *raw.T]):
        state = _pcg_step(*state, *inc)
        word = _xsl_rr(*state)
        ri = word >> np.uint64(11)
        if k < exponentials:
            layer = (word >> np.uint64(3) & np.uint64(255)).astype(np.intp)
            np.multiply(ri, we[layer], out=column)
            slow |= ri >= ke[layer]
        else:
            np.multiply(ri, 2.0 ** -53, out=column)
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    for i, hi, lo, inc_hi, inc_lo in zip(np.flatnonzero(slow), *(half[slow].tolist() for half in start + inc)):
        bits.state = _pcg64(hi << 64 | lo, inc_hi << 64 | inc_lo)
        gen.standard_exponential(out=gam[i])
        gen.random(out=raw[i])
    return gam, raw
