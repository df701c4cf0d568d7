"""numpy's default random stream without numpy.

random_stream(seed) yields, value for value, the doubles of
numpy.random.Generator(numpy.random.PCG64(seed)).random(). As in
numpy.random.SeedSequence, the seed's 32-bit words are hashed and mixed
into a pool of four words, and the pool is hashed out into the 128-bit
state and increment. The hash's running constants do not depend on the
seed, so the (xor, multiply) pairs of a seed of up to four words are
formed once, at import, and the loops apply them in place of numpy's
hashmix and mix helpers, with no call per word. Each draw takes one
PCG64 step and keeps the top 53 bits of its XSL-RR output. Every
sampled shot and every coin toss draw from it, so no command imports
numpy.random.
"""

from .errors import DomainError
from .numtheory import _check_integers, signed_decimal

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_keys(const: int, mult: int, count: int) -> list[tuple[int, int]]:
    """The (xor, multiply) pair of each of count hashmix calls.

    SeedSequence's hashmix xors its value with a running 32-bit
    constant, steps the constant by one multiply and multiplies the
    value by the new one, so the pairs are the same for every seed.
    """
    keys = []
    for _ in range(count):
        step = const * mult & _MASK32
        keys.append((const, step))
        const = step
    return keys


def _mix_pairs(sources: int) -> list[tuple[int, int]]:
    """(src, dst) of each mix: every pool word into the other three,
    then each word past the pool's four into all four."""
    return [(src, dst) for src in range(sources) for dst in range(4)
            if src != dst]


# a seed of at most four words makes 16 hashmix calls and 12 mixes
_POOL_KEYS = _hash_keys(0x43B0D7E5, 0x931E8875, 16)
_POOL_MIXES = _mix_pairs(4)
_STATE_KEYS = _hash_keys(0x8B51F9DD, 0x58F38DED, 8)


def _seed_pool(seed: int) -> list[int]:
    """SeedSequence(seed).pool: four 32-bit words."""
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    if len(words) <= 4:
        keys, mixes = _POOL_KEYS, _POOL_MIXES
    else:
        keys = _hash_keys(0x43B0D7E5, 0x931E8875, 4 * len(words))
        mixes = _mix_pairs(len(words))
    pool = []
    for word, (xor, mul) in zip((words + [0, 0, 0])[:4], keys):
        value = (word ^ xor) * mul & _MASK32
        pool.append(value ^ value >> 16)
    pool += words[4:]
    # mix(x, y) = (0xCA01F9DD * x - 0x4973F715 * y) mod 2**32, folded,
    # with y the hashed source word
    for (src, dst), (xor, mul) in zip(mixes, keys[4:]):
        value = (pool[src] ^ xor) * mul & _MASK32
        mixed = (0xCA01F9DD * pool[dst]
                 - 0x4973F715 * (value ^ value >> 16)) & _MASK32
        pool[dst] = mixed ^ mixed >> 16
    return pool[:4]


def random_stream(seed: int):
    """Endless doubles in [0, 1), as numpy's PCG64 Generator draws them."""
    _check_integers(seed=seed)
    if seed < 0:
        raise DomainError(
            f"seed must be nonnegative, got {signed_decimal(seed)}")
    pool = _seed_pool(seed)
    # SeedSequence.generate_state(4, uint64): the pool hashed twice over
    # into eight 32-bit words, paired low word first
    halves = []
    for word, (xor, mul) in zip(pool + pool, _STATE_KEYS):
        value = (word ^ xor) * mul & _MASK32
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
