"""numpy's default random stream without numpy.

random_stream(seed) yields, value for value, the doubles of
numpy.random.Generator(numpy.random.PCG64(seed)).random(). As in
numpy.random.SeedSequence, the seed's 32-bit words are hashed and mixed
into a pool of four words, and the pool is hashed out into the 128-bit
state and increment. Each draw takes one PCG64 step and keeps the top
53 bits of its XSL-RR output. Every sampled shot and every coin toss
draw from it, so no command imports numpy.random.
"""

from .errors import DomainError
from .numtheory import signed_decimal

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_pool(seed: int) -> list[int]:
    """SeedSequence(seed).pool: four 32-bit words."""
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(w) for w in (words + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    # words past the pool's four are mixed into every pool word
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def random_stream(seed: int):
    """Endless doubles in [0, 1), as numpy's PCG64 Generator draws them."""
    if seed < 0:
        raise DomainError(
            f"seed must be nonnegative, got {signed_decimal(seed)}")
    pool = _seed_pool(seed)
    # SeedSequence.generate_state(4, uint64): eight hashed 32-bit words,
    # paired low word first
    hash_const, halves = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        halves.append(value ^ value >> 16)
    s0, s1, i0, i1 = (lo | hi << 32 for lo, hi in zip(halves[::2],
                                                       halves[1::2]))
    # pcg64_srandom: an odd increment; from state 0, one step, add the
    # seed, one more step
    inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
    return _draws(state, inc)


def _draws(state: int, inc: int):
    while True:
        state = (state * _PCG_MULT + inc) & _MASK128
        folded = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        out = (folded >> rot | folded << (64 - rot)) & _MASK64
        yield (out >> 11) * 2.0 ** -53
