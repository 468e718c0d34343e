"""The value-level character theory that the tests compare the library with.

The library builds every character from its spectrum (the multiplicities
of the linear characters of its rotation subgroup, and its reflection
value), and restricts, induces and pairs characters on spectra alone.
Nothing here reads a spectrum.  Group elements are pairs (i, e) meaning
s^i t^e in D_{2m}, multiplied as (i, e) (j, f) = (i + (-1)^e j, e xor f);
values are `Cyclotomic` elements of Z[zeta_m], added, multiplied and
conjugated coefficient by coefficient; and a class function is a group
with one value per class.  Inner products and inductions follow the
textbook definitions (Serre, Linear Representations of Finite Groups,
2.2 and 7.2), element by element where the definition walks elements.
"""

from dihedral_parity.characters import Cyclotomic, GroupMismatchError


# --- group elements ---------------------------------------------------------

def mul(m, g, h):
    """The product g h in D_{2m}."""
    (i, e), (j, f) = g, h
    return ((i + (j if e == 0 else -j)) % m, e ^ f)


def inv(m, g):
    i, e = g
    return ((-i) % m, 0) if e == 0 else (i, 1)


def conjugate(m, x, g):
    """x g x^-1 in D_{2m}."""
    return mul(m, mul(m, x, g), inv(m, x))


def elements(H):
    """The elements of the subgroup H: its count rotations (j step, 0) and,
    when it reflects, the reflections (j step, 1)."""
    rotations = [(j * H.step, 0) for j in range(H.count)]
    if H.reflects:
        return tuple(rotations + [(i, 1) for i, _ in rotations])
    return tuple(rotations)


_CLASS_SIZES = {}


def class_sizes(H):
    """The size of each class of H, in the order of H.class_reps: the orbit
    of its rep under conjugation by the elements of H.  Kept per (m, tag),
    so a loop over many pairs of characters walks the group once."""
    key = (H.m, H.tag)
    sizes = _CLASS_SIZES.get(key)
    if sizes is None:
        group = elements(H)
        sizes = _CLASS_SIZES[key] = tuple(len({conjugate(H.m, x, g) for x in group})
                                          for g in H.class_reps)
    return sizes


# --- values in Z[zeta_{p^n}] ------------------------------------------------

def integer(p, n, value):
    return Cyclotomic.make(p, n, [value])


def zeta(p, n, k):
    """zeta^k in Z[zeta_{p^n}], reduced afresh from the unit vector x^k."""
    return Cyclotomic.make(p, n, [0] * (k % p ** n) + [1])


def _ring(a, b):
    if (a.p, a.n) != (b.p, b.n):
        raise GroupMismatchError("cyclotomic values from different rings")
    return a.p, a.n


def add(a, b):
    p, n = _ring(a, b)
    return Cyclotomic(p, n, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def times(a, b):
    """a b, for b a value or an integer."""
    if isinstance(b, int):
        return Cyclotomic(a.p, a.n, tuple(x * b for x in a.coeffs))
    p, n = _ring(a, b)
    out = [0] * (2 * len(a.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return Cyclotomic.make(p, n, out)


def conj(a):
    """Complex conjugation zeta -> zeta^-1."""
    m = a.p ** a.n
    out = [0] * m
    out[0] = a.coeffs[0]
    for i, x in enumerate(a.coeffs[1:], start=1):
        out[m - i] += x
    return Cyclotomic.make(a.p, a.n, out)


def rational_value(a):
    if any(a.coeffs[1:]):
        raise ValueError(f"{a} is not rational")
    return a.coeffs[0]


def divide_exact(a, d):
    if any(c % d for c in a.coeffs):
        raise ValueError(f"coefficients not divisible by {d}")
    return Cyclotomic(a.p, a.n, tuple(c // d for c in a.coeffs))


# --- class functions --------------------------------------------------------

class ClassFunction:
    """A class function on a Subgroup, given by one value per class."""

    def __init__(self, group, values):
        if len(values) != len(group.class_reps):
            raise GroupMismatchError("value list does not match class count")
        self.group = group
        self.values = tuple(values)

    @classmethod
    def of(cls, chi):
        """The values of chi, a library character or a class function."""
        return cls(chi.group, chi.values)

    def __eq__(self, other):
        return (isinstance(other, ClassFunction) and self.group == other.group
                and self.values == other.values)

    def __repr__(self):
        return f"ClassFunction({self.group!r}, {self.values!r})"

    def __add__(self, other):
        if self.group != other.group:
            raise GroupMismatchError("class functions live on different groups")
        return ClassFunction(self.group, [add(a, b) for a, b in zip(self.values, other.values)])

    def __mul__(self, k):
        return ClassFunction(self.group, [times(a, k) for a in self.values])


def value_at(f, g):
    """f(g), for f a library character or a class function."""
    return f.values[f.group.class_index(g)]


def reference_inner_product(f1, f2):
    """(1/|H|) sum over classes of |c| a_c conj(b_c), reduced class by class."""
    H = f1.group
    total = integer(H.p, H.n, 0)
    for size, a, b in zip(class_sizes(H), f1.values, f2.values):
        total = add(total, times(times(a, conj(b)), size))
    return rational_value(divide_exact(total, H.order))


def reference_induce(chi, G):
    """The elementwise mass formula (1/|H|) sum_{x in G} chi(x g x^-1)."""
    H = chi.group
    inside = set(elements(H))
    values = []
    for g in G.class_reps:
        total = integer(G.p, G.n, 0)
        for x in elements(G):
            y = conjugate(G.m, x, g)
            if y in inside:
                total = add(total, value_at(chi, y))
        values.append(divide_exact(total, H.order))
    return ClassFunction(G, values)
