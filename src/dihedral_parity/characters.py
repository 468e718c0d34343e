"""Exact character theory of the dihedral groups D_{2p^n} (p an odd prime).

Character values live in Z[zeta_{p^n}], stored as integer vectors in the
power basis 1, zeta, ..., zeta^{phi-1} and reduced modulo the p^n-th
cyclotomic polynomial; inner products, inductions and restrictions are all
exact, with no floating point anywhere.

A character the library builds (an irreducible, a cyclic character, and
their restrictions and inductions) is its spectrum: the multiplicities
(m_0, ..., m_{c-1}) in it of the linear characters (i step, 0) ->
zeta_c^(t i) of its group's rotation subgroup, c = count, and its
reflection value v, None when the group has no reflections (Serre, 5.3
and 7.3).  One rule gives its values: at the rotation (j step, 0) the
preimage sum m_t x^(t j step mod m) in Z[x]/(x^m - 1), m = p^n, and at
the reflections v; each value is reduced from its preimage through the
context's table of zeta^k on first read of `values`, once per context.
An inner product of two spectra is sum m1_t m2_t, or half of that plus
v1 v2 on a reflecting group.  Restriction folds the multiplicities
modulo the smaller count; induction repeats them, and when only the
larger group reflects adds those of the conjugate character (Mackey's
two double cosets), with reflection value 0.  So a Frobenius check
<Ind f, g> = <f, Res g> builds no value.

A class function from the public constructor or from + - * has no
spectrum.  Its inner product sums |c| f1(c) conj(f2(c)) over the classes
in the group ring Z[x]/(x^m - 1), where conjugation negates exponents;
Phi_m divides x^m - 1, so an integer is read straight off the sum.  Its
restriction picks values through the class map of (G, H), and its
induction sums them through the class-fusion table of (G, H): for each
class g of G, the number count_d of x in G that conjugate g into each
class d of H, and count_d / |H| = |C_G(g)| / |C_H(d)| is an integer
(a count that |H| does not divide is an error).  The tower identity
restricts and induces the irreducibles' preimages the same way.

A context keeps one Subgroup per tag, so characters on one subgroup
share one group object, with its fusion tables and class maps.

Group elements are pairs (i, e) meaning rotation^i * reflection^e, with
(i, e) * (j, f) = (i + j * (-1)^e, e xor f).  Conjugacy classes are indexed
canonically: identity, then the rotation pairs {s^j, s^-j} for
1 <= j <= (p^n - 1)/2, then the single class of all reflections.

The standard subgroup tags (1, D_2, C_{p^k}, D_{2p^k}) and THETA live in
`lattice` and are re-exported here.  Subgroup derives a tag's elements,
classes, membership, containment and class fusion from one shape formula
over (step, count, reflects), the same for all four kinds, so no lattice
question walks the group; `reflects` and the order come from the tag.
"""

from __future__ import annotations

from functools import cached_property
from operator import add, mul

from .lattice import (CYCLIC, DIHEDRAL, ORDER2, THETA, TRIVIAL,  # noqa: F401 (re-exported)
                      InvalidGroupError, InvalidSubgroupError, SubgroupTag,
                      check_odd_prime, cyclic_p_power, dihedral_p_power)
from .records import Record


class GroupMismatchError(ValueError):
    """Operation mixing characters of unrelated groups."""


class Cyclotomic(Record):
    """Element of Z[zeta_{p^n}] in the power basis mod the cyclotomic
    polynomial."""
    __slots__ = ("p", "n", "coeffs", "_terms")

    def __init__(self, p: int, n: int, coeffs: tuple[int, ...]):
        self.p = p
        self.n = n
        self.coeffs = coeffs

    @property
    def m(self) -> int:
        return self.p ** self.n

    @property
    def phi(self) -> int:
        return self.p ** self.n - self.p ** (self.n - 1)

    @staticmethod
    def _reduce(p: int, n: int, cs: list[int]) -> tuple[int, ...]:
        phi = p ** n - p ** (n - 1)
        step = p ** (n - 1)
        cs = list(cs)
        # x^phi = -(1 + x^step + x^(2 step) + ... + x^((p-2) step))
        while len(cs) > phi:
            top = cs.pop()
            if top:
                d = len(cs) - phi  # degree of the cofactor x^d
                for i in range(p - 1):
                    cs[d + i * step] -= top
        cs += [0] * (phi - len(cs))
        return tuple(cs)

    @classmethod
    def make(cls, p: int, n: int, cs: list[int]) -> "Cyclotomic":
        return cls(p, n, cls._reduce(p, n, cs))

    @classmethod
    def integer(cls, p: int, n: int, value: int) -> "Cyclotomic":
        return cls.make(p, n, [value])

    @classmethod
    def zeta_power(cls, p: int, n: int, k: int) -> "Cyclotomic":
        k %= p ** n
        return cls.make(p, n, [0] * k + [1])

    def _check(self, other: "Cyclotomic"):
        if (self.p, self.n) != (other.p, other.n):
            raise GroupMismatchError("cyclotomic values from different rings")

    def __add__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        return Cyclotomic(self.p, self.n,
                          tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Cyclotomic") -> "Cyclotomic":
        self._check(other)
        return Cyclotomic(self.p, self.n,
                          tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.p, self.n, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return Cyclotomic(self.p, self.n, tuple(a * other for a in self.coeffs))
        self._check(other)
        out = [0] * (2 * self.phi - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Cyclotomic.make(self.p, self.n, out)

    __rmul__ = __mul__

    def conj(self) -> "Cyclotomic":
        """Complex conjugation zeta -> zeta^-1."""
        m = self.m
        out = [0] * m
        out[0] = self.coeffs[0]
        for i, a in enumerate(self.coeffs[1:], start=1):
            out[m - i] += a
        return Cyclotomic.make(self.p, self.n, out)

    @property
    def terms(self) -> tuple[tuple[int, int], ...]:
        """The pairs (i, c) with c != 0, the coefficient of zeta^i; built on
        first use and kept."""
        try:
            return self._terms
        except AttributeError:
            self._terms = terms = tuple((i, c) for i, c in enumerate(self.coeffs) if c)
            return terms

    @property
    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> int:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def divide_exact(self, d: int) -> "Cyclotomic":
        if any(c % d for c in self.coeffs):
            raise ValueError(f"coefficients not divisible by {d}")
        return Cyclotomic(self.p, self.n, tuple(c // d for c in self.coeffs))

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                z = "z" if i == 1 else f"z^{i}"
                if c == 1:
                    terms.append(z)
                elif c == -1:
                    terms.append(f"-{z}")
                else:
                    terms.append(f"{c}{z}")
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"


class DihedralContext:
    """The group D_{2p^n} together with its cyclotomic value ring."""

    def __init__(self, p: int, n: int = 1):
        check_odd_prime(p)
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise InvalidGroupError(f"n must be a positive integer, got {n}")
        self.p = p
        self.n = n
        self.m = p ** n
        self._subgroups = {}
        self._values = {}

    def __eq__(self, other):
        return isinstance(other, DihedralContext) and (self.p, self.n) == (other.p, other.n)

    def __hash__(self):
        return hash(("DihedralContext", self.p, self.n))

    def __repr__(self):
        return f"DihedralContext(p={self.p}, n={self.n})"

    # group element helpers ------------------------------------------------
    def mul(self, g, h):
        i, e = g
        j, f = h
        return ((i + (j if e == 0 else -j)) % self.m, e ^ f)

    def inv(self, g):
        i, e = g
        return ((-i) % self.m, 0) if e == 0 else (i, 1)

    # values ---------------------------------------------------------------
    def integer(self, v: int) -> Cyclotomic:
        return Cyclotomic.integer(self.p, self.n, v)

    def zeta(self, k: int) -> Cyclotomic:
        return Cyclotomic.zeta_power(self.p, self.n, k)

    # subgroups ------------------------------------------------------------
    def subgroup(self, tag: SubgroupTag) -> "Subgroup":
        """The one Subgroup of this context for tag, so characters on it
        share one group object and its caches."""
        H = self._subgroups.get(tag)
        if H is None:
            if tag.level > self.n:
                raise InvalidSubgroupError(f"{tag} does not fit inside D_2p^{self.n}")
            H = self._subgroups[tag] = Subgroup(self, tag)
        return H

    def full(self) -> "Subgroup":
        return self.subgroup(dihedral_p_power(self.n))

    @cached_property
    def _zetas(self) -> tuple[Cyclotomic, ...]:
        """zeta^k for 0 <= k < m, each reduced once."""
        return tuple(self.zeta(k) for k in range(self.m))

    def _value(self, preimage: tuple[tuple[int, int], ...]) -> Cyclotomic:
        """The value of the preimage sum c x^i, 0 <= i < m, reduced through
        _zetas once per context and shared by every value it gives: the
        irreducible table of D_998 has 63001 values, 253 of them distinct,
        and `chars --p 499` peaks at 27 MB so, at 273 MB without."""
        value = self._values.get(preimage)
        if value is None:
            coeffs = [0] * (self.m - self.m // self.p)
            zetas = self._zetas
            for i, c in preimage:
                for j, z in zetas[i].terms:
                    coeffs[j] += c * z
            value = self._values[preimage] = Cyclotomic(self.p, self.n, tuple(coeffs))
        return value

    @cached_property
    def _irreducibles(self) -> tuple["VirtualCharacter", ...]:
        G = self.full()
        m = self.m
        spectra = [(_unit(m, 0), 1), (_unit(m, 0), -1)]
        spectra += [(_unit(m, k, m - k), 0) for k in range(1, (m + 1) // 2)]
        return tuple([VirtualCharacter._of(G, spectrum) for spectrum in spectra])


def _unit(count: int, *indices: int) -> tuple[int, ...]:
    """The multiplicities (m_0, ..., m_{count-1}) with a 1 at each index."""
    ms = [0] * count
    for i in indices:
        ms[i] = 1
    return tuple(ms)


class Subgroup:
    """A standard subgroup with its own canonical conjugacy classes, read
    off its shape (step, count, reflects).

    C_{p^k} or D_{2p^k}, k = tag.level (k = 0 for 1 and D_2), is the
    rotations (j step, 0) for 0 <= j < count, with step = p^(n-k) and
    count = p^k, and, when it reflects, the reflections (j step, 1).  A
    reflection conjugates (i, 0) to (-i, 0), so then the rotation classes
    are 0 <= j <= (count - 1) / 2, and the reflections form one class
    after them.  Every lattice question is a closed form in the shape, and
    none walks the elements (`elements` and `element_set` are kept for
    callers that want them):

    * (i, e) lies in H iff 0 <= i < m, step_H divides i, and e = 0, or
      e = 1 and H reflects;
    * H lies in K iff step_K divides step_H, and K reflects or H does not;
    * class fusion (Serre, Linear Representations of Finite Groups, 7.2):
      the count_K rotations of K fix a rotation g = (a, 0) and each
      reflection of K sends it to (-a, 0), so the row of g in
      K.fusion(H) is empty unless step_H divides a, and is otherwise
      (d(a), count_K), then (d(-a), count_K) when K reflects, the two
      merged into (d(a), 2 count_K) when d(a) = d(-a), where d(i) is the
      class of (i, 0) in H.  Both (i, 0) and (i, 1) conjugate the
      reflection (0, 1) to (2i, 1), so its row is ((the reflection class
      of H, 2 min(count_K, count_H)),) when H reflects, else empty.
    """

    def __init__(self, ctx: DihedralContext, tag: SubgroupTag):
        self.ctx = ctx
        self.tag = tag
        self.step = ctx.p ** (ctx.n - tag.level)
        self.count = ctx.p ** tag.level
        self.reflects = tag.reflects
        self.order = tag.order(ctx.p)
        self._rotation_classes = (self.count + 1) // 2 if self.reflects else self.count
        self._hash = hash((ctx, tag))
        self._fusion = {}
        self._class_maps = {}

    def __eq__(self, other):
        return self is other or (isinstance(other, Subgroup)
                                 and self.ctx == other.ctx and self.tag == other.tag)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Subgroup({self.ctx!r}, {self.tag.label})"

    def __contains__(self, g) -> bool:
        i, e = g
        return (0 <= i < self.ctx.m and i % self.step == 0
                and (e == 0 or (e == 1 and self.reflects)))

    @cached_property
    def elements(self) -> tuple:
        rot = [(j * self.step, 0) for j in range(self.count)]
        return tuple(rot + [(i, 1) for i, _ in rot] if self.reflects else rot)

    @cached_property
    def element_set(self) -> frozenset:
        return frozenset(self.elements)

    @cached_property
    def class_reps(self) -> tuple:
        reps = tuple((j * self.step, 0) for j in range(self._rotation_classes))
        return reps + ((0, 1),) if self.reflects else reps

    @cached_property
    def class_sizes(self) -> tuple[int, ...]:
        if not self.reflects:
            return (1,) * self.count
        return (1,) + (2,) * (self._rotation_classes - 1) + (self.count,)

    def _rotation_class(self, i: int) -> int:
        """The class of the rotation (i, 0), which lies in self."""
        j = i // self.step
        return min(j, self.count - j) if self.reflects else j

    def class_index(self, g) -> int:
        if g not in self:
            raise GroupMismatchError(f"{g} not in subgroup {self.tag.label}")
        return self._rotation_classes if g[1] == 1 else self._rotation_class(g[0])

    def contains(self, other: "Subgroup") -> bool:
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise GroupMismatchError(f"{other!r} and {self!r} lie in different groups")
        return other.step % self.step == 0 and (self.reflects or not other.reflects)

    def fusion(self, H: "Subgroup") -> tuple[tuple[tuple[int, int], ...], ...]:
        """For each class rep g of self, the pairs (class index d in H,
        number of x in self with x g x^-1 in class d of H), count > 0, in
        the order a walk over `elements` meets them: the closed form in
        the class docstring."""
        table = self._fusion.get(H)
        if table is None:
            count, m = self.count, self.ctx.m
            rows = []
            for a, e in self.class_reps:
                if e:
                    row = (((H._rotation_classes, 2 * min(count, H.count)),)
                           if H.reflects else ())
                elif a % H.step:
                    row = ()
                elif not self.reflects:
                    row = ((H._rotation_class(a), count),)
                else:
                    d, d_neg = H._rotation_class(a), H._rotation_class(-a % m)
                    row = ((d, 2 * count),) if d == d_neg else ((d, count), (d_neg, count))
                rows.append(row)
            table = self._fusion[H] = tuple(rows)
        return table

    def class_map(self, H: "Subgroup") -> tuple[int, ...]:
        """For each class rep of H, the index of its class in self."""
        table = self._class_maps.get(H)
        if table is None:
            if not self.contains(H):
                raise GroupMismatchError(f"{H.tag.label} is not inside {self.tag.label}")
            table = self._class_maps[H] = tuple(self.class_index(h) for h in H.class_reps)
        return table


class VirtualCharacter(Record):
    """Exact class function with integer-combination-of-irreducibles semantics.
    A character the library builds is its _spectrum (module docstring), and
    its `values` are built on first read; one from the public constructor
    has values and the _spectrum None.  Its restrictions (_restrictions)
    are kept."""
    __slots__ = ("group", "values", "_restrictions", "_spectrum")

    def __init__(self, group: Subgroup, values: tuple[Cyclotomic, ...]):
        if len(values) != len(group.class_reps):
            raise GroupMismatchError("value list does not match class count")
        ctx = group.ctx
        if any(v.p != ctx.p or v.n != ctx.n for v in values):
            raise GroupMismatchError("values lie outside Z[zeta_m] of the group")
        self.group = group
        self.values = values
        self._spectrum = None

    @classmethod
    def _of(cls, group: Subgroup, spectrum: tuple) -> "VirtualCharacter":
        """The character of group with this spectrum."""
        chi = cls.__new__(cls)
        chi.group, chi._spectrum = group, spectrum
        return chi

    def __getattr__(self, name):
        # only a read of an unset slot (or of a name that no slot has) gets
        # here, and `values` is unset only on a character built by _of
        if name != "values":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = self.group.ctx._value
        self.values = values = tuple([value(pre) for pre in _preimages(self)])
        return values

    @property
    def degree(self) -> int:
        """chi(1): with a spectrum, the sum of its multiplicities, which
        builds no value."""
        spectrum = self._spectrum
        if spectrum is not None:
            return sum(spectrum[0])
        return self.values[0].rational_value()

    def value_at(self, g) -> Cyclotomic:
        return self.values[self.group.class_index(g)]

    def _check(self, other: "VirtualCharacter"):
        if self.group is not other.group and self.group != other.group:
            raise GroupMismatchError("characters live on different groups")

    def __add__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        self._check(other)
        return VirtualCharacter(self.group,
                                tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        self._check(other)
        return VirtualCharacter(self.group,
                                tuple(a - b for a, b in zip(self.values, other.values)))

    def __neg__(self) -> "VirtualCharacter":
        return VirtualCharacter(self.group, tuple(-a for a in self.values))

    def __mul__(self, k: int) -> "VirtualCharacter":
        return VirtualCharacter(self.group, tuple(v * k for v in self.values))

    __rmul__ = __mul__


# ---------------------------------------------------------------------------

def irreducibles(ctx: DihedralContext) -> list[VirtualCharacter]:
    """All irreducible characters of D_{2p^n}: trivial, eta, then the
    two-dimensional I(chi_k) for 1 <= k <= (p^n - 1)/2."""
    return list(ctx._irreducibles)


def eta(ctx: DihedralContext) -> VirtualCharacter:
    return ctx._irreducibles[1]


def two_dim(ctx: DihedralContext, k: int) -> VirtualCharacter:
    """I(chi_k) for 1 <= k <= (p^n - 1)/2."""
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= (ctx.m - 1) // 2:
        raise ValueError(f"k must lie in 1..{(ctx.m - 1) // 2}, got {k}")
    return ctx._irreducibles[1 + k]


def cyclic_characters(ctx: DihedralContext, level: int) -> list[VirtualCharacter]:
    """The p^level characters of the cyclic subgroup C_{p^level}, the t-th
    sending the i-th rotation to zeta_{p^level}^(t i): the t-th has the
    one multiplicity m_t = 1."""
    H = ctx.subgroup(cyclic_p_power(level))
    return [VirtualCharacter._of(H, (_unit(H.count, t), None)) for t in range(H.count)]


def _preimages(chi: VirtualCharacter,
               known: dict | None = None) -> list[tuple[tuple[int, int], ...]]:
    """For each class of chi's group, a preimage in Z[x]/(x^m - 1) of chi's
    value there, as pairs (i, c): the value rule of the module docstring
    when chi has a spectrum, else the `terms` of its values.

    A rotation preimage is looked up in known by its coefficients and
    exponents, and built only the first time, so a caller that reads many
    characters of one context through one dict shares equal preimages as
    `_value` shares values: the tower at D_686 reads 29756 rotation
    preimages and builds 344."""
    spectrum = chi._spectrum
    if spectrum is None:
        return [v.terms for v in chi.values]
    G = chi.group
    m = G.ctx.m
    ms, v = spectrum
    shifts = [(t * G.step, c) for t, c in enumerate(ms) if c]
    cs = tuple([c for _, c in shifts])
    shared = {} if known is None else known.setdefault(cs, {})
    rows = range(G._rotation_classes)
    # the exponents shift * j mod m at each class j, one column per shift
    columns = [[shift * j % m for j in rows] for shift, _ in shifts]
    out = []
    for exponents in zip(*columns):
        pre = shared.get(exponents)
        if pre is None:
            acc = {}
            for i, c in zip(exponents, cs):
                acc[i] = acc.get(i, 0) + c
            pre = shared[exponents] = tuple(sorted(acc.items()))
        out.append(pre)
    if G.reflects:
        out.append(((0, v),) if v else ())
    return out


def _fused(G: Subgroup, H: Subgroup, preimages) -> list[tuple[tuple[int, int], ...]]:
    """Induction from H up to G on preimages, one per class of H: for each
    class of G, the sum over its row of G.fusion(H) of count / |H| times
    the preimage of class d.  A count that |H| does not divide raises
    ValueError."""
    order = H.order
    out = []
    for row in G.fusion(H):
        acc = {}
        for d, count in row:
            weight, rest = divmod(count, order)
            if rest:
                raise ValueError(f"fusion count {count} not divisible by {order}")
            for i, c in preimages[d]:
                acc[i] = acc.get(i, 0) + weight * c
        out.append(tuple([(i, c) for i, c in sorted(acc.items()) if c]))
    return out


def inner_product(f1: VirtualCharacter, f2: VirtualCharacter) -> int:
    """<f1, f2> = (1/|H|) sum f1(g) conj(f2(g)); exact, and an integer for
    virtual characters.  When both carry a spectrum it is the dot product
    S of their multiplicities, or (S + v1 v2) / 2 when H reflects (an odd
    S + v1 v2 raises ValueError); else the values' terms are summed class
    by class."""
    f1._check(f2)
    H = f1.group
    s1, s2 = f1._spectrum, f2._spectrum
    if s1 is not None and s2 is not None:
        total = sum(map(mul, s1[0], s2[0]))
        if not H.reflects:
            return total
        twice = total + s1[1] * s2[1]
        if twice % 2:
            raise ValueError(f"{twice} / 2 is not an integer")
        return twice // 2
    ctx = H.ctx
    m = ctx.m
    acc = [0] * m  # coefficients of x^0 .. x^(m-1) in Z[x]/(x^m - 1)
    for size, a, b in zip(H.class_sizes, f1.values, f2.values):
        bs = b.terms
        for i, c in a.terms:
            c *= size
            for j, d in bs:
                acc[i - j] += c * d  # -m < i - j < m: index i - j mod m
    # The multiples of Phi_m in Z[x]/(x^m - 1) are the vectors of period
    # q = m/p, so acc is the rational r exactly when acc - r x^0 has period
    # q, and then r = acc[0] - acc[q].
    q = m // ctx.p
    if acc[1:m - q] == acc[1 + q:]:
        r = acc[0] - acc[q]
        if r % H.order == 0:
            return r // H.order
    # not an integer: the reduction names what fails
    total = Cyclotomic.make(ctx.p, ctx.n, acc).divide_exact(H.order)
    return total.rational_value()


def restrict(chi: VirtualCharacter, H: Subgroup) -> VirtualCharacter:
    """Restriction to H: the spectrum folded, m_u = sum of the m_s with
    s = u mod count_H, else the values picked through the class map of
    (chi.group, H).  Built on first use and kept on chi when H is of chi's
    own context, so that chi holds no other context."""
    if H.ctx is not chi.group.ctx:
        kept = {}
    elif (kept := getattr(chi, "_restrictions", None)) is None:
        kept = chi._restrictions = {}
    res = kept.get(H)
    if res is None:
        cmap = chi.group.class_map(H)  # raises unless H lies in chi.group
        spectrum = chi._spectrum
        if spectrum is None:
            values = chi.values
            res = VirtualCharacter(H, tuple([values[i] for i in cmap]))
        else:
            ms, v = spectrum
            c = H.count
            res = VirtualCharacter._of(H, (tuple([sum(ms[u::c]) for u in range(c)]),
                                           v if H.reflects else None))
        kept[H] = res
    return res


def induce(chi: VirtualCharacter, G: Subgroup) -> VirtualCharacter:
    """Induction from chi.group up to G: the spectrum repeated up to G's
    count, m_s = m_(s mod count_H), plus m_(-s) when only G reflects;
    else the values summed through `_fused`."""
    H = chi.group
    if not G.contains(H):
        raise GroupMismatchError(f"{H.tag.label} is not inside {G.tag.label}")
    spectrum = chi._spectrum
    if spectrum is None:
        value = G.ctx._value
        return VirtualCharacter(G, tuple([value(pre)
                                          for pre in _fused(G, H, _preimages(chi))]))
    ms, v = spectrum
    if G.reflects and not H.reflects:
        ms, v = tuple(map(add, ms, ms[:1] + ms[:0:-1])), 0
    return VirtualCharacter._of(G, (ms * (G.count // H.count), v))


def verify_reduction_identity(p: int, n: int, *,
                              ctx: DihedralContext | None = None) -> bool:
    """Check Ind_{D_{2p^{n-1}}}^{D_{2p^n}} Res I(chi) = sum of the I(chi0)
    over the p characters chi0 of C_{p^n} restricting to chi on C_{p^{n-1}},
    for every injective chi (index coprime to p).  Needs n >= 2.  Both
    sides are preimages in Z[x]/(x^m - 1): the left side is restricted
    through the class map and induced through `_fused`, so no value is
    reduced.  A caller that holds DihedralContext(p, n) passes it as ctx,
    so its irreducible table is reused."""
    if n < 2:
        raise InvalidGroupError("the reduction identity needs n >= 2")
    if ctx is None:
        ctx = DihedralContext(p, n)
    elif (ctx.p, ctx.n) != (p, n):
        raise GroupMismatchError(f"{ctx!r} is not the context of (p={p}, n={n})")
    G = ctx.full()
    H = ctx.subgroup(dihedral_p_power(n - 1))
    cmap = G.class_map(H)
    # I(chi_k) is ctx._irreducibles[1 + k], as in two_dim
    known = {}
    preimages = [_preimages(chi, known) for chi in ctx._irreducibles]
    m = ctx.m
    half = (m - 1) // 2
    step = m // p

    def fold(k):
        k %= m
        return min(k, m - k)

    for k in range(1, half + 1):
        if k % p == 0:
            continue
        source = preimages[1 + k]
        lhs = _fused(G, H, [source[i] for i in cmap])
        # class by class, the left side minus the p terms on the right: the
        # sides agree exactly when it is a multiple of Phi_m in
        # Z[x]/(x^m - 1), a vector of period step (inner_product)
        terms = [preimages[1 + fold(k + t * step)] for t in range(p)]
        for j, pre in enumerate(lhs):
            acc = [0] * m
            for i, c in pre:
                acc[i] += c
            for term in terms:
                for i, c in term[j]:
                    acc[i] -= c
            if acc[:m - step] != acc[step:]:
                return False
    return True
