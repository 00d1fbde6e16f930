"""Per-root 4x4 blocks on (y, x, y*, x*) and their transport.

Each complementary root contributes a rank-4 slice of T + T* spanned by
the two real root directions and their duals.  A block is an endomorphism
squaring to -1 and compatible with the split pairing; transport across
the correspondence conjugates by the involution that swaps x with x*.
A block is named by its type (Gualtieri, "Generalized complex geometry",
Ann. of Math. 174 (2011)): written [[A, P], [Q, D]] on (V, V*), it is
orthogonal for the pairing when P and Q are skew and D = -A^T, and then
has type (dim V - rank P) / 2; full type is complex, and type 0 is
symplectic up to the B-field -P^{-1} A.  Every matrix built here is a
tuple of tuples of exact rationals, so ``==`` compares two of them: an
integral entry is an int, and only a non-integral one a Fraction, as in
the form kernel.  A function that reads a block also reads a raw matrix,
any sequence of rows.
"""

from dataclasses import dataclass
from fractions import Fraction

from ._kernel import _norm, exact, integer, integers, is_int
from ._linalg import rank

__all__ = [
    "GcsBlock",
    "TransportedBlock",
    "IntegrabilityReport",
    "complex_matrix",
    "noncomplex_matrix",
    "phi_matrix",
    "split_pairing",
    "make_block",
    "phi_conjugate",
    "classify_block",
    "integrability_necessary",
]


def _rat(value):
    """``_kernel.exact`` of value, text such as "-1/2" read as a Fraction first."""
    if isinstance(value, str):
        try:
            value = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise TypeError("expected an exact rational, got %r" % (value,)) from None
    return exact(value)


def identity_matrix(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(a, b):
    k = len(b)
    m = len(b[0])
    return tuple(
        tuple(_norm(sum(row[t] * b[t][j] for t in range(k))) for j in range(m))
        for row in a
    )


def mat_neg(a):
    return tuple(tuple(-v for v in row) for row in a)


def complex_matrix(sign):
    """The two complex-type blocks; sign picks the orientation."""
    s = integer(sign, "sign")
    if s not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return (
        (0, -s, 0, 0),
        (s, 0, 0, 0),
        (0, 0, 0, -s),
        (0, 0, s, 0),
    )


def noncomplex_matrix(a, x, y):
    """The family with a**2 - x*y = -1; a=0, x=y=1 is the symplectic point."""
    a = _rat(a)
    x = _rat(x)
    y = _rat(y)
    return (
        (a, 0, 0, -x),
        (0, a, x, 0),
        (0, -y, -a, 0),
        (y, 0, 0, -a),
    )


def phi_matrix(t, m):
    """Transport involution on t shared slots and m dualized slots.

    Block form on (y, x, y*, x*) with y of size t and x of size m:
    identity on y, x goes to -x*, y* stays, x* goes to -x.  Squares to
    the identity; the two minus signs cancel in the split pairing, so
    phi is orthogonal for it.
    """
    t, m = integers((t, m), "t and m")
    if t < 0 or m < 0 or t + m == 0:
        raise ValueError("need t, m >= 0 with t + m > 0")
    n = 2 * (t + m)
    phi = [[0] * n for _ in range(n)]
    for i in range(t):
        phi[i][i] = 1
        phi[t + m + i][t + m + i] = 1
    for j in range(m):
        phi[t + j][n - m + j] = -1
        phi[n - m + j][t + j] = -1
    return tuple(map(tuple, phi))


def split_pairing(n):
    """The natural pairing of T with T* in the (vectors, covectors) split."""
    n = integer(n, "n")
    if n < 0:
        raise ValueError("need n >= 0")
    half = Fraction(1, 2)
    # slot i pairs with its dual, slot i + n
    return tuple(
        tuple(half if abs(i - j) == n else 0 for j in range(2 * n)) for i in range(2 * n)
    )


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


def make_block(kind, **params):
    """Build a validated block; rejects parameters off the a**2-xy=-1 sheet.

    A missing parameter, one the kind does not take, or one of the wrong
    type (a sign that is not an int, a bool anywhere, text that is not a
    rational) is a TypeError; a value off the sheet, or a sign other than
    +1 or -1, is a ValueError.
    """
    if kind == "complex":
        sign = params.pop("sign", 1)
        if params:
            raise TypeError("unexpected parameters: %s" % sorted(params))
        if not is_int(sign):
            raise TypeError("sign must be the integer 1 or -1, got %r" % (sign,))
        return GcsBlock("complex", complex_matrix(sign), (int(sign),))
    if kind == "noncomplex":
        missing = [k for k in ("a", "x", "y") if k not in params]
        if missing:
            raise TypeError("a noncomplex block needs %s" % ", ".join(map(repr, missing)))
        a, x, y = (_rat(params.pop(k)) for k in ("a", "x", "y"))
        if params:
            raise TypeError("unexpected parameters: %s" % sorted(params))
        if a * a - x * y != -1:
            raise ValueError("need a**2 - x*y = -1, got %s" % (a * a - x * y))
        return GcsBlock("noncomplex", noncomplex_matrix(a, x, y), (a, x, y))
    raise ValueError("unknown block kind %r" % (kind,))


def block_from_json(data):
    """Inverse of ``GcsBlock.to_json``; TypeError when ``data`` is malformed.

    Malformed means not an object or an unknown kind; make_block checks
    the parameters, so a malformed one (a zero denominator included) is a
    TypeError and one off the a**2-xy=-1 sheet a ValueError.
    """
    if not isinstance(data, dict):
        raise TypeError("a block must be a JSON object, got %r" % (data,))
    kind = data.get("kind")
    if kind not in ("complex", "noncomplex"):
        raise TypeError("unknown block kind %r" % (kind,))
    return make_block(kind, **{k: v for k, v in data.items() if k != "kind"})


@dataclass(frozen=True)
class TransportedBlock:
    matrix: tuple
    classification: str


def phi_conjugate(block):
    """Transport a block or raw matrix across the correspondence: phi J phi.

    The slice is a single root, so phi is the 4x4 swap (t=1, m=1);
    phi is its own inverse.  Applying this twice returns the original
    matrix.
    """
    phi = phi_matrix(1, 1)
    moved = mat_mul(phi, mat_mul(getattr(block, "matrix", block), phi))
    return TransportedBlock(moved, classify_block(moved))


def classify_block(block):
    """Name Gualtieri's type of a 4x4 block or raw matrix squaring to -1.

    Write J = [[A, P], [Q, D]] on (V, V*) = ((y, x), (y*, x*)).  J is
    orthogonal for the split pairing exactly when P and Q are skew and
    D = -A^T.  The type of an orthogonal J is k = (dim V - rank P) / 2
    (Gualtieri, "Generalized complex geometry", Ann. of Math. 174 (2011)):

    complex:      full type, k = dim V / 2
    symplectic:   type 0 with A = 0
    B-symplectic: type 0 with A != 0, a symplectic block twisted by a B-field
    other:        not orthogonal, so not a generalized complex structure

    A matrix that is not 4x4 or does not square to -1 is a ValueError.
    """
    m = tuple(map(tuple, getattr(block, "matrix", block)))
    if len(m) != 4 or any(len(row) != 4 for row in m):
        raise ValueError("expected a 4x4 matrix")
    if mat_mul(m, m) != mat_neg(identity_matrix(4)):
        raise ValueError("block does not square to -1")
    n = 2
    a = tuple(row[:n] for row in m[:n])
    p = tuple(row[n:] for row in m[:n])
    q = tuple(row[:n] for row in m[n:])
    d = tuple(row[n:] for row in m[n:])
    if p != mat_neg(zip(*p)) or q != mat_neg(zip(*q)) or d != mat_neg(zip(*a)):
        return "other"
    k = (n - rank(dict(enumerate(row)) for row in p)) // 2
    if k == n // 2:
        return "complex"
    # dim V = 2 leaves only type 0, where P is invertible, so the B-field
    # B = -P^{-1} A of J = e^B J_omega e^{-B} vanishes exactly when A does
    if all(v == 0 for row in a for v in row):
        return "symplectic"
    return "B-symplectic"


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
            t = classify_block(blocks[idx])
            types.append("symplectic" if t == "B-symplectic" else t)
            idx += 1
        component_types.append(types)
        if len(set(types)) > 1:
            mixed.append(pos)
    return IntegrabilityReport(not mixed, component_types, mixed)
