"""Type-A root systems, theta subsets and isotropy summands.

A positive root of A_l is a contiguous sum alpha_i + ... + alpha_{j-1},
and it is stored as the matrix unit E_ij spanning its root space.  The
fixed enumeration orders roots by (height, row of the unit), which makes
alpha_1 come before alpha_2 and is what every Malcev presentation
downstream relies on.

``FlagSpec.blocks`` is the one source of Levi blocks, so every reader of a
theta rejects what ``FlagSpec`` rejects.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate

from ._kernel import integer, integers

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
        row, col, rank = integers((self.row, self.col, self.rank), "row, col and rank")
        vars(self).update(row=row, col=col, rank=rank)
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
    """A checked series and rank; the positive roots are built on first read."""

    series: str
    rank: int

    def __post_init__(self):
        # the series and rank rules, in FlagSpec's order, and its plain rank
        object.__setattr__(self, "rank", FlagSpec(self.series, self.rank).rank)

    @cached_property
    def positive_roots(self):
        return tuple(
            Root(row, row + height, self.rank)
            for height in range(1, self.rank + 1)
            for row in range(1, self.rank + 2 - height)
        )


@dataclass(frozen=True)
class FlagSpec:
    """A flag manifold G/P given by the series, rank and Theta subset."""

    series: str
    rank: int
    theta: tuple = ()

    def __post_init__(self):
        if self.series != "A":
            raise UnsupportedSeriesError("only series A is supported, got %r" % self.series)
        rank = integer(self.rank, "rank")
        theta = integers(self.theta, "theta")
        if rank < 1:
            raise ValueError("rank must be >= 1")
        if any(not 1 <= t <= rank for t in theta):
            raise ValueError("theta %r outside 1..%d" % (theta, rank))
        vars(self).update(rank=rank, theta=tuple(sorted(set(theta))))

    @property
    def blocks(self):
        """Sizes of the Levi blocks of theta, top to bottom: each alpha_k
        outside theta cuts the rows 1..rank+1 after row k."""
        cuts = [0, *(k for k in range(1, self.rank + 1) if k not in self.theta), self.rank + 1]
        return tuple(b - a for a, b in zip(cuts, cuts[1:]))

    @classmethod
    def from_json(cls, obj):
        return cls(obj["series"], obj["rank"], obj.get("theta", ()))

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
    """The root system of A_rank, its positive roots by height, then by row.

    Examples::

        >>> [r.coeffs for r in build_root_system("A", 2).positive_roots]
        [(1, 0), (0, 1), (1, 1)]
    """
    return RootSystem(series, rank)


def theta_of_blocks(blocks):
    """The theta of rank sum(blocks) - 1 with these Levi blocks: (2, 1, 3)
    gives (1, 4, 5).  The inverse of FlagSpec.blocks."""
    cuts = set(accumulate(blocks[:-1]))
    return tuple(k for k in range(1, sum(blocks)) if k not in cuts)


def _summand_units(blocks):
    """(p, q, units) for each isotropy summand of the Levi blocks ``blocks``,
    in summand order: by gap q - p, then by p.  ``units`` are the matrix
    units (i, j) with row i in block p and column j in block q, in root
    order (by height j - i, then by row).  This is the summand-then-root
    order of every flag nilradical's slots, read off the blocks alone.
    """
    first = list(accumulate(blocks, initial=1))
    k = len(blocks)
    for gap in range(1, k):
        for p in range(k - gap):
            rows, cols = first[p], first[p + gap]
            row_end, col_end = first[p + 1], first[p + gap + 1]
            units = [
                (i, i + h)
                for h in range(cols - row_end + 1, col_end - rows)
                for i in range(max(rows, cols - h), min(row_end, col_end - h))
            ]
            yield p, p + gap, units


def _gap_dim(b, gap):
    """a(gap) of the flag nilradical with Levi block sizes b (``nilradical`` docstring)."""
    return sum(b[p] * b[q] for p in range(len(b)) for q in range(p + gap, len(b)))


def _block_series(b, lower):
    """``tduality._bracket_series`` read off the Levi block sizes b."""
    dims, gap = [], 2
    while not dims or dims[-1]:
        dims.append(_gap_dim(b, gap))
        gap = gap + 1 if lower else 2 * gap
    return tuple(dims)


def complementary_positive_roots(rs, theta):
    """Positive roots with some coefficient outside theta, in root order:
    those whose unit E_ij crosses a cut, some alpha_k with i <= k < j not
    in theta."""
    theta = set(FlagSpec(rs.series, rs.rank, theta).theta)
    return [r for r in rs.positive_roots if not theta.issuperset(range(r.row, r.col))]


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
    sizes = FlagSpec(rs.series, rs.rank, theta).blocks
    return [
        IsotropySummand(
            tuple(int(p <= t < q) for t in range(len(sizes) - 1)),
            [Root(i, j, rs.rank) for i, j in units],
        )
        for p, q, units in _summand_units(sizes)
    ]


def three_summand_dims(l, m, n):
    """Summand dimensions for Theta = Sigma minus {alpha_l, alpha_{l+m}}."""
    l, m, n = integers((l, m, n), "block sizes")
    if min(l, m, n) < 1:
        raise ValueError("block sizes must be >= 1")
    return l * m, m * n, l * n


def flag_dimension(spec):
    """Complex dimension of G/P, i.e. the number of complementary roots."""
    return _gap_dim(spec.blocks, 1)
