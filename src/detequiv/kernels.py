"""Finite kernels and the cycle and gauge helpers built on them.

A kernel is a function of two points from a finite labelled set, stored as a
square matrix of exact field values.  Everything downstream compares products
of entries along oriented cycles and principal minors of the matrix, so this
module also owns cycles and diagonal gauges.  A two-point ratio table, such
as the cocycle of ``recovery.build_cocycle_case1``, is a kernel too.

The scans and the certificate read a kernel's integer rows; over Q a kernel
read from a document builds its Fraction values only when they are read:
to print them, or by the case table, the oracle, ``perturb`` and ``lab``.
"""

import math

from .errors import FieldMismatch, LabelMismatch
from .fields import determinant, field_from_doc, integer_rows


class Cycle:
    """An oriented cycle of pairwise-distinct vertex indices.

    Stored rotated so the smallest vertex comes first: (2, 0, 1) and
    (0, 1, 2) are the same cycle, (0, 2, 1) is its reversal.  Length-1 and
    length-2 cycles are allowed; a 1-cycle's only edge is the loop (v, v).
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        vs = tuple(vertices)
        if not vs:
            raise ValueError("a cycle needs at least one vertex")
        for v in vs:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"vertices must be nonnegative ints, got {v!r}")
        if len(set(vs)) != len(vs):
            raise ValueError(f"repeated vertex in cycle {vs!r}")
        low = vs.index(min(vs))
        self.vertices = vs[low:] + vs[:low]

    def __len__(self):
        return len(self.vertices)

    def edges(self):
        """The oriented edges (v0,v1), (v1,v2), ..., (v_last,v0)."""
        vs = self.vertices
        return tuple((vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs)))

    def reverse(self):
        return Cycle(self.vertices[::-1])

    def __eq__(self, other):
        return isinstance(other, Cycle) and other.vertices == self.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"Cycle({self.vertices!r})"


class Kernel:
    """A labelled square matrix of exact field values, ``rows``, and the
    same as integer rows, row i times a scale D_i (``integer_rows``).

    Over GF(p) the two are one.  Over Q ``from_doc`` stores the integer
    rows and builds ``rows`` when it is first read; ``Kernel(...)`` stores
    the values and derives the integer rows when they are first asked for.
    """

    __slots__ = ("field", "labels", "_rows", "_ints")

    def __init__(self, field, labels, rows):
        rows = list(rows)
        self._shape(field, labels, rows)
        self._rows = tuple(tuple(field.coerce(v) for v in row) for row in rows)
        self._ints = None

    def _shape(self, field, labels, rows):
        """Check the labels and the shape of rows, and set field and labels."""
        labels = tuple(labels)
        if not labels:
            raise ValueError("a kernel needs at least one point")
        for lab in labels:
            if not isinstance(lab, str) or not lab:
                raise ValueError(f"labels must be nonempty strings, got {lab!r}")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels")
        n = len(labels)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"entries must form an {n} x {n} matrix")
        self.field = field
        self.labels = labels

    @property
    def rows(self):
        """The entries as field values, a tuple of row tuples."""
        if self._rows is None:
            self._rows = tuple(map(self.field.values, *self._ints))
        return self._rows

    def integer_rows(self):
        """(rows, scales): row i of the values times scales[i] > 0, so each
        minor and cross minor on rows S is scaled by the product of scales
        over S (``fields.integer_rows``).  The rows are shared, not copies."""
        if self._ints is None:
            (rows,), scales = integer_rows(self.field, self._rows)
            self._ints = rows, scales
        return self._ints

    @property
    def n(self):
        return len(self.labels)

    def principal_minor(self, indices):
        """det of the submatrix on the given distinct point indices.

        The empty index set gives the field's one.  The determinant is
        taken on the integer rows and divided by their scales.
        """
        idx = tuple(indices)
        if len(set(idx)) != len(idx):
            raise ValueError(f"repeated index in {idx!r}")
        for i in idx:
            if not 0 <= i < self.n:
                raise IndexError(f"index {i} out of range for n={self.n}")
        rows, scales = self.integer_rows()
        det = determinant(self.field, [[rows[i][j] for j in idx] for i in idx])
        return self.field.div(det, math.prod(scales[i] for i in idx))

    def transpose(self):
        n = self.n
        return Kernel(self.field, self.labels,
                      [[self.rows[j][i] for j in range(n)] for i in range(n)])

    def conjugate(self, gauge):
        """The kernel (x, y) -> g(x) K(x, y) g(y)^(-1)."""
        if gauge.field != self.field:
            raise FieldMismatch("gauge and kernel live over different fields")
        if gauge.labels != self.labels:
            raise LabelMismatch("gauge and kernel have different labels")
        f = self.field
        n = self.n
        inv = [f.inv(gauge.values[j]) for j in range(n)]
        return Kernel(f, self.labels,
                      [[f.mul(f.mul(gauge.values[i], self.rows[i][j]), inv[j])
                        for j in range(n)] for i in range(n)])

    def to_doc(self):
        return {
            "field": self.field.to_doc(),
            "labels": list(self.labels),
            "entries": [[str(v) for v in row] for row in self.rows],
        }

    @classmethod
    def from_doc(cls, doc):
        """Read a kernel document, each row straight to integers and a scale
        (the field's ``parse_row``).  Errors come in one order: a bad cell
        first, then the labels, then the shape."""
        if not isinstance(doc, dict):
            raise ValueError("kernel document must be a JSON object")
        for key in ("field", "labels", "entries"):
            if key not in doc:
                raise ValueError(f"kernel document lacks {key!r}")
        field = field_from_doc(doc["field"])
        labels = doc["labels"]
        entries = doc["entries"]
        if not isinstance(labels, list):
            raise ValueError("labels must be a list of strings")
        if not isinstance(entries, list) or not all(
                isinstance(row, list) for row in entries):
            raise ValueError("entries must be a list of rows")
        parsed = list(map(field.parse_row, entries))
        rows = tuple([row for row, _ in parsed])
        kern = cls.__new__(cls)
        kern._shape(field, labels, rows)
        kern._ints = rows, [d for _, d in parsed]
        kern._rows = rows if field.kind == "prime" else None
        return kern

    def __eq__(self, other):
        return (isinstance(other, Kernel) and other.field == self.field
                and other.labels == self.labels and other.rows == self.rows)

    def __hash__(self):
        return hash((self.field, self.labels, self.rows))

    def __repr__(self):
        return f"Kernel(n={self.n}, field={self.field!r})"


class Gauge:
    """A nonzero scalar attached to each labelled point."""

    __slots__ = ("field", "labels", "values")

    def __init__(self, field, labels, values):
        labels = tuple(labels)
        vals = tuple(field.coerce(v) for v in values)
        if len(vals) != len(labels):
            raise ValueError("one gauge value per label required")
        for lab, v in zip(labels, vals):
            if not v:
                raise ValueError(f"gauge value at {lab!r} is zero")
        self.field = field
        self.labels = labels
        self.values = vals

    def to_doc(self):
        return {lab: str(v) for lab, v in zip(self.labels, self.values)}

    def __eq__(self, other):
        return (isinstance(other, Gauge) and other.field == self.field
                and other.labels == self.labels and other.values == self.values)

    def __repr__(self):
        return f"Gauge(n={len(self.labels)}, field={self.field!r})"


def require_same_points(k, q):
    """Shared precondition for every two-kernel operation."""
    if k.field != q.field:
        raise FieldMismatch(f"kernels over {k.field!r} and {q.field!r}")
    if k.labels != q.labels:
        raise LabelMismatch("kernels are over different labelled point sets")


def cycle_product(k, cycle):
    """Product of kernel entries along the cycle's oriented edges."""
    for v in cycle.vertices:
        if v >= k.n:
            raise IndexError(f"vertex {v} out of range for n={k.n}")
    f = k.field
    out = f.one
    for a, b in cycle.edges():
        out = f.mul(out, k.rows[a][b])
    return out
