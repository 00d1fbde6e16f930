"""Type-A root systems, theta subsets and isotropy summands.

A positive root of A_l is a contiguous sum alpha_i + ... + alpha_{j-1},
and it is stored as the matrix unit E_ij spanning its root space.  The
fixed enumeration orders roots by (height, row of the unit), which makes
alpha_1 come before alpha_2 and is what every Malcev presentation
downstream relies on.
"""

from dataclasses import dataclass, field
from itertools import accumulate, product

__all__ = [
    "Root",
    "RootSystem",
    "FlagSpec",
    "IsotropySummand",
    "UnsupportedSeriesError",
    "build_root_system",
    "complementary_positive_roots",
    "isotropy_summands",
    "three_summand_dims",
    "flag_dimension",
]


class UnsupportedSeriesError(ValueError):
    pass


@dataclass(frozen=True)
class Root:
    """The positive root of A_rank whose root space is spanned by E_(row, col)."""

    row: int
    col: int
    rank: int

    def __post_init__(self):
        if not 1 <= self.row < self.col <= self.rank + 1:
            raise ValueError(
                "E(%d,%d) is not a positive root of A_%d" % (self.row, self.col, self.rank)
            )

    @property
    def coeffs(self):
        """Simple-root coefficients: 1 on alpha_row .. alpha_(col-1)."""
        return tuple(int(self.row <= k < self.col) for k in range(1, self.rank + 1))

    @property
    def height(self):
        return self.col - self.row

    def matrix_unit(self):
        """(row, col) of the matrix unit spanning this root space."""
        return self.row, self.col


@dataclass(frozen=True)
class RootSystem:
    series: str
    rank: int
    positive_roots: tuple


@dataclass(frozen=True)
class FlagSpec:
    """A flag manifold G/P given by the series, rank and Theta subset."""

    series: str
    rank: int
    theta: tuple = ()

    def __post_init__(self):
        if self.series != "A":
            raise UnsupportedSeriesError("only series A is supported, got %r" % self.series)
        if not all(type(k) is int for k in (self.rank, *self.theta)):
            raise TypeError("rank %r and theta %r must be integers" % (self.rank, self.theta))
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        theta = tuple(sorted(set(self.theta)))
        if any(not 1 <= t <= self.rank for t in theta):
            raise ValueError("theta %r outside 1..%d" % (self.theta, self.rank))
        object.__setattr__(self, "theta", theta)

    @classmethod
    def from_json(cls, obj):
        return cls(obj["series"], obj["rank"], tuple(obj.get("theta", ())))

    def to_json(self):
        return {"series": self.series, "rank": self.rank, "theta": list(self.theta)}


@dataclass
class IsotropySummand:
    """Complementary roots sharing one coefficient signature over Sigma\\Theta."""

    signature: tuple
    roots: list = field(default_factory=list)

    @property
    def dim(self):
        return len(self.roots)


def build_root_system(series, rank):
    """All positive roots of A_rank in the fixed order: by height, then by row.

    Examples::

        >>> [r.coeffs for r in build_root_system("A", 2).positive_roots]
        [(1, 0), (0, 1), (1, 1)]
    """
    if series != "A":
        raise UnsupportedSeriesError("only series A is supported, got %r" % series)
    if rank < 1:
        raise ValueError("rank must be >= 1")
    roots = tuple(
        Root(row, row + height, rank)
        for height in range(1, rank + 1)
        for row in range(1, rank + 2 - height)
    )
    return RootSystem(series, rank, roots)


def block_sizes(rank, theta):
    """Sizes of the Levi blocks of theta, top to bottom.

    Each alpha_k outside theta cuts the rows 1..rank+1 after row k.
    """
    theta = set(theta)
    cuts = [0] + [k for k in range(1, rank + 1) if k not in theta] + [rank + 1]
    return tuple(b - a for a, b in zip(cuts, cuts[1:]))


def theta_of_blocks(blocks):
    """The theta of rank sum(blocks) - 1 with these Levi blocks: (2, 1, 3)
    gives (1, 4, 5).  The inverse of block_sizes."""
    cuts = set(accumulate(blocks[:-1]))
    return tuple(k for k in range(1, sum(blocks)) if k not in cuts)


def _summands(rank, theta):
    """The isotropy summands of A_rank and theta, one per pair of blocks p < q."""
    sizes = block_sizes(rank, theta)
    first = list(accumulate(sizes, initial=1))
    summands = []
    for gap in range(1, len(sizes)):
        for p, q in zip(range(len(sizes)), range(gap, len(sizes))):
            units = product(range(first[p], first[p + 1]), range(first[q], first[q + 1]))
            roots = [Root(i, j, rank) for i, j in sorted(units, key=lambda u: (u[1] - u[0], u[0]))]
            signature = tuple(int(p <= t < q) for t in range(len(sizes) - 1))
            summands.append(IsotropySummand(signature, roots))
    return summands


def complementary_positive_roots(rs, theta):
    """Positive roots with some coefficient outside theta, in root order."""
    roots = [r for s in _summands(rs.rank, theta) for r in s.roots]
    return sorted(roots, key=lambda r: (r.height, r.row))


def isotropy_summands(rs, theta):
    """Partition of the complementary roots by signature.

    A complementary root is a matrix unit E_ij with row i in Levi block p
    and column j in a later block q, and its signature is 1 on the cuts
    between them; each summand is built from its two blocks, so the cost
    is its roots times the rank, and no other positive root is visited.

    Summands are ordered by (signature height, lexicographically largest
    first), matching the root order convention, so for two free simple
    roots the signatures come out (1,0), (0,1), (1,1).  Inside a summand
    the roots keep root order: by height, then by row.

    Examples::

        >>> summands = isotropy_summands(build_root_system("A", 3), (2,))
        >>> [s.signature for s in summands]
        [(1, 0), (0, 1), (1, 1)]
        >>> [[r.coeffs for r in s.roots] for s in summands]
        [[(1, 0, 0), (1, 1, 0)], [(0, 0, 1), (0, 1, 1)], [(1, 1, 1)]]
    """
    return _summands(rs.rank, theta)


def three_summand_dims(l, m, n):
    """Summand dimensions for Theta = Sigma minus {alpha_l, alpha_{l+m}}."""
    if min(l, m, n) < 1:
        raise ValueError("block sizes must be >= 1")
    return l * m, m * n, l * n


def flag_dimension(spec):
    """Complex dimension of G/P, i.e. the number of complementary roots.

    With Levi blocks of sizes b this is ((rank+1)**2 - sum b**2) / 2, the
    entries above the block diagonal.
    """
    sizes = block_sizes(spec.rank, spec.theta)
    return ((spec.rank + 1) ** 2 - sum(b * b for b in sizes)) // 2
