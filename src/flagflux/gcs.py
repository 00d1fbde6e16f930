"""Per-root 4x4 blocks on (y, x, y*, x*) and their transport.

Each complementary root contributes a rank-4 slice of T + T* spanned by
the two real root directions and their duals.  A block is an endomorphism
squaring to -1 and compatible with the split pairing; transport across
the correspondence conjugates by the involution that swaps x with x*.
All entries stay exact rationals.
"""

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "GcsBlock",
    "TransportedBlock",
    "IntegrabilityReport",
    "complex_matrix",
    "noncomplex_matrix",
    "phi_matrix",
    "split_pairing",
    "make_block",
    "block_from_json",
    "phi_conjugate",
    "classify_block",
    "integrability_necessary",
    "mat_mul",
    "mat_neg",
    "mat_eq",
    "identity_matrix",
]


def _rat(value):
    if isinstance(value, bool):
        raise TypeError("expected an exact rational, got a bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise TypeError("expected an exact rational, got %r" % (value,))


def identity_matrix(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n = len(a)
    k = len(b)
    m = len(b[0])
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
        for i in range(n)
    ]


def mat_neg(a):
    return [[-v for v in row] for row in a]


def mat_eq(a, b):
    if len(a) != len(b):
        return False
    return all(ra == rb for ra, rb in zip(a, b))


def complex_matrix(sign):
    """The two complex-type blocks; sign picks the orientation."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    s = Fraction(sign)
    z = Fraction(0)
    return [
        [z, -s, z, z],
        [s, z, z, z],
        [z, z, z, -s],
        [z, z, s, z],
    ]


def noncomplex_matrix(a, x, y):
    """The family with a**2 - x*y = -1; a=0, x=y=1 is the symplectic point."""
    a = _rat(a)
    x = _rat(x)
    y = _rat(y)
    z = Fraction(0)
    return [
        [a, z, z, -x],
        [z, a, x, z],
        [z, -y, -a, z],
        [y, z, z, -a],
    ]


def phi_matrix(t, m):
    """Transport involution on t shared slots and m dualized slots.

    Block form on (y, x, y*, x*) with y of size t and x of size m:
    identity on y, x goes to -x*, y* stays, x* goes to -x.  Squares to
    the identity; the two minus signs cancel in the split pairing, so
    phi is orthogonal for it.
    """
    if t < 0 or m < 0 or t + m == 0:
        raise ValueError("need t, m >= 0 with t + m > 0")
    n = 2 * (t + m)
    phi = [[Fraction(0)] * n for _ in range(n)]
    for i in range(t):
        phi[i][i] = Fraction(1)
        phi[t + m + i][t + m + i] = Fraction(1)
    for j in range(m):
        phi[t + j][n - m + j] = Fraction(-1)
        phi[n - m + j][t + j] = Fraction(-1)
    return phi


def split_pairing(n):
    """The natural pairing of T with T* in the (vectors, covectors) split."""
    half = Fraction(1, 2)
    g = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        g[i][n + i] = half
        g[n + i][i] = half
    return g


@dataclass(frozen=True)
class GcsBlock:
    kind: str
    matrix: tuple
    params: tuple

    def to_json(self):
        if self.kind == "complex":
            return {"kind": "complex", "sign": int(self.params[0])}
        return {
            "kind": "noncomplex",
            "a": str(self.params[0]),
            "x": str(self.params[1]),
            "y": str(self.params[2]),
        }


def _freeze(m):
    return tuple(tuple(row) for row in m)


def _thaw(m):
    return [list(row) for row in m]


def make_block(kind, **params):
    """Build a validated block; rejects parameters off the a**2-xy=-1 sheet.

    A parameter of the wrong type (a sign that is not an int, a bool
    anywhere, text that is not a rational) or one the kind does not take is
    a TypeError; a value off the sheet, or a sign other than +1 or -1, is a
    ValueError.
    """
    if kind == "complex":
        sign = params.pop("sign", 1)
        if params:
            raise TypeError("unexpected parameters: %s" % sorted(params))
        if not isinstance(sign, int) or isinstance(sign, bool):
            raise TypeError("sign must be the integer 1 or -1, got %r" % (sign,))
        m = complex_matrix(sign)
        return GcsBlock("complex", _freeze(m), (sign,))
    if kind == "noncomplex":
        a = _rat(params.pop("a"))
        x = _rat(params.pop("x"))
        y = _rat(params.pop("y"))
        if params:
            raise TypeError("unexpected parameters: %s" % sorted(params))
        if a * a - x * y != -1:
            raise ValueError("need a**2 - x*y = -1, got %s" % (a * a - x * y))
        m = noncomplex_matrix(a, x, y)
        return GcsBlock("noncomplex", _freeze(m), (a, x, y))
    raise ValueError("unknown block kind %r" % (kind,))


def block_from_json(data):
    """Inverse of ``GcsBlock.to_json``; TypeError when ``data`` is malformed.

    Malformed means not an object, an unknown kind, a missing parameter, a
    key the kind does not read, or a parameter of the wrong type or not a
    rational (a zero denominator included); a parameter off the a**2-xy=-1
    sheet is a ValueError, as in make_block.
    """
    if not isinstance(data, dict):
        raise TypeError("a block must be a JSON object, got %r" % (data,))
    kind = data.get("kind")
    if kind not in ("complex", "noncomplex"):
        raise TypeError("unknown block kind %r" % (kind,))
    params = {k: v for k, v in data.items() if k != "kind"}
    if kind == "noncomplex":
        missing = [k for k in ("a", "x", "y") if k not in data]
        if missing:
            needs = ", ".join(map(repr, missing))
            raise TypeError("a noncomplex block needs %s" % needs)
    return make_block(kind, **params)


@dataclass(frozen=True)
class TransportedBlock:
    matrix: tuple
    classification: str


def _matrix_of(block):
    if isinstance(block, (GcsBlock, TransportedBlock)):
        return _thaw(block.matrix)
    return [list(row) for row in block]


def phi_conjugate(block):
    """Transport one block across the correspondence: phi J phi.

    The slice is a single root, so phi is the 4x4 swap (t=1, m=1);
    phi is its own inverse.  Applying this twice returns the original
    matrix.
    """
    j = _matrix_of(block)
    phi = phi_matrix(1, 1)
    moved = mat_mul(phi, mat_mul(j, phi))
    return TransportedBlock(_freeze(moved), classify_block(moved))


def _is_zero_block(m, rows, cols):
    return all(m[i][j] == 0 for i in rows for j in cols)


def classify_block(matrix):
    """Name the type of a 4x4 block squaring to -1.

    complex:      [[A, 0], [0, -A^T]] in the 2+2 split
    symplectic:   block-antidiagonal [[0, B], [C, 0]]
    B-symplectic: symplectic twisted by a B-field, the a*I diagonal family
    other:        anything else
    """
    m = [list(row) for row in matrix]
    if len(m) != 4 or any(len(row) != 4 for row in m):
        raise ValueError("expected a 4x4 matrix")
    if not mat_eq(mat_mul(m, m), mat_neg(identity_matrix(4))):
        raise ValueError("block does not square to -1")
    top = range(2)
    bot = range(2, 4)
    b_zero = _is_zero_block(m, top, bot)
    c_zero = _is_zero_block(m, bot, top)
    if b_zero and c_zero:
        a = [[m[i][j] for j in range(2)] for i in range(2)]
        d = [[m[i][j] for j in range(2, 4)] for i in range(2, 4)]
        neg_at = [[-a[j][i] for j in range(2)] for i in range(2)]
        if mat_eq(d, neg_at):
            return "complex"
        return "other"
    a_zero = _is_zero_block(m, top, top)
    d_zero = _is_zero_block(m, bot, bot)
    if a_zero and d_zero:
        return "symplectic"
    a00 = m[0][0]
    diag_a = (
        m[0][1] == 0
        and m[1][0] == 0
        and m[1][1] == a00
        and m[2][2] == -a00
        and m[2][3] == 0
        and m[3][2] == 0
        and m[3][3] == -a00
        and a00 != 0
    )
    if diag_a:
        anti_b = m[0][2] == 0 and m[1][3] == 0 and m[0][3] == -m[1][2]
        anti_c = m[2][0] == 0 and m[3][1] == 0 and m[2][1] == -m[3][0]
        if anti_b and anti_c:
            return "B-symplectic"
    return "other"


@dataclass
class IntegrabilityReport:
    ok: bool
    component_types: list
    mixed_components: list

    def to_json(self):
        return {
            "ok": self.ok,
            "component_types": self.component_types,
            "mixed_components": self.mixed_components,
        }


def integrability_necessary(blocks, partition):
    """Uniform type within each isotropy component, a necessary condition.

    blocks is one block per complementary positive root, in summand
    order; partition is the summand list.  A B-field twist does not
    change the underlying type, so B-symplectic folds into symplectic.
    """
    total = sum(s.dim for s in partition)
    if total != len(blocks):
        raise ValueError(
            "partition covers %d roots but %d blocks given" % (total, len(blocks))
        )
    component_types = []
    mixed = []
    idx = 0
    for pos, summand in enumerate(partition):
        types = []
        for _ in range(summand.dim):
            t = classify_block(_matrix_of(blocks[idx]))
            types.append("symplectic" if t == "B-symplectic" else t)
            idx += 1
        component_types.append(types)
        if len(set(types)) > 1:
            mixed.append(pos)
    return IntegrabilityReport(not mixed, component_types, mixed)
