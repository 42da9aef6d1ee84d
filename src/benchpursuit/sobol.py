"""Sobol low-discrepancy sequence in up to eight dimensions.

Direction numbers come from the standard published table of primitive
polynomials and initial odd integers for the first eight dimensions; the
first coordinate is the base-2 van der Corput sequence. Points are emitted
in Gray-code order, so point 0 is the origin and consecutive points differ
in a single direction integer.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

_N_BITS = 32
_SCALE = float(2**_N_BITS)

# Points 0 to 2^32 - 1 are distinct; with 32-bit direction integers point
# 2^32 + i would repeat point i.
MAX_POINTS = 1 << _N_BITS

# One row per dimension beyond the first:
# (polynomial degree s, interior coefficient bits a, initial odd m values).
_DIRECTIONS: tuple[tuple[int, int, tuple[int, ...]], ...] = (
    (1, 0, (1,)),
    (2, 1, (1, 3)),
    (3, 1, (1, 3, 1)),
    (3, 2, (1, 1, 1)),
    (4, 1, (1, 1, 3, 3)),
    (4, 4, (1, 3, 5, 13)),
    (5, 2, (1, 1, 5, 5, 17)),
)

MAX_DIMENSION = len(_DIRECTIONS) + 1


def _direction_integers(dim: int) -> np.ndarray:
    """Direction integers scaled to ``_N_BITS`` bits, shape (dim, 32)."""
    v = np.zeros((dim, _N_BITS), dtype=np.uint64)
    v[0] = [1 << (_N_BITS - c - 1) for c in range(_N_BITS)]
    for j in range(1, dim):
        s, a, m_init = _DIRECTIONS[j - 1]
        m = list(m_init)
        for c in range(s, _N_BITS):
            new = m[c - s] ^ (m[c - s] << s)
            for i in range(1, s):
                if (a >> (s - 1 - i)) & 1:
                    new ^= m[c - i] << i
            m.append(new)
        v[j] = [m[c] << (_N_BITS - c - 1) for c in range(_N_BITS)]
    return v


class SobolStream:
    """Stateful generator emitting the Sobol sequence for a fixed dimension.

    ``skip`` discards that many initial points; by default point 0 — the
    origin — is emitted first. The emitted sequence is a pure function of
    (dimension, skip), independent of how draws are batched.
    """

    def __init__(self, dimension: int, skip: int = 0):
        if not 1 <= dimension <= MAX_DIMENSION:
            raise ConfigError(f"dimension must be in [1, {MAX_DIMENSION}], got {dimension}")
        if skip < 0:
            raise ValueError("skip must be nonnegative")
        self.dimension = dimension
        self.skip = skip
        self.next_index = skip
        self._v = _direction_integers(dimension)

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` points, shape (n, dimension), advancing the stream.

        Point ``i`` is the XOR of the direction integers selected by the bits
        of gray(i) = i ^ (i >> 1), the closed form of the Gray-code update.
        """
        if n < 0:
            raise ValueError("n must be nonnegative")
        if self.next_index + n > MAX_POINTS:
            raise ValueError(f"Sobol points from index {MAX_POINTS} on repeat earlier ones")
        idx = np.arange(self.next_index, self.next_index + n, dtype=np.uint64)
        gray = idx ^ (idx >> np.uint64(1))
        x = np.zeros((n, self.dimension), dtype=np.uint64)
        for c in range(_N_BITS):
            bit = (gray >> np.uint64(c)) & np.uint64(1)
            x ^= bit[:, None] * self._v[None, :, c]
        self.next_index += n
        return x.astype(np.float64) / _SCALE

    def next(self) -> np.ndarray:
        """The next point of the sequence, shape (dimension,)."""
        return self.take(1)[0]
