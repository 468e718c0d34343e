"""Exact character theory of the dihedral groups D_{2p^n} (p an odd prime).

Character values live in Z[zeta_{p^n}], stored as integer vectors in the
power basis 1, zeta, ..., zeta^{phi-1} and reduced modulo the p^n-th
cyclotomic polynomial; inner products, inductions and restrictions are all
exact, with no floating point anywhere.

A character the library builds (an irreducible, a cyclic character, and
their restrictions and inductions) is its spectrum: the multiplicities
m_t in it of the linear characters (i step, 0) -> zeta_c^(t i),
0 <= t < c = count, of its group's rotation subgroup, and its reflection
value v, None when the group has no reflections (Serre, 5.3 and 7.3).
The multiplicities are kept sparse, as a dict {t: m_t} of the nonzero
ones in increasing t, built once and never changed: an irreducible or a
cyclic character has one or two, however large c is.  One rule gives its
values: at the rotation (j step, 0) the preimage sum m_t x^(t j step
mod m) in Z[x]/(x^m - 1), m = p^n, and at the reflections v.  On first
read of `values` each preimage is written out as a dense vector of
length m and reduced by `Cyclotomic.make`, once per context.
An inner product of two spectra is sum m1_t m2_t, taken over the smaller
support with each t looked up in the other, or half of that plus v1 v2
on a reflecting group.  Restriction folds the nonzero multiplicities
modulo the smaller count; induction repeats them, and when only the
larger group reflects adds those of the conjugate character (Mackey's
two double cosets), with reflection value 0.  So a Frobenius check
<Ind f, g> = <f, Res g> builds no value, and costs the supports, not c.

The tower identity checks preimages, not spectra, since folding and
repeating a spectrum is the identity itself: it restricts the
irreducibles' preimages through the class map of (G, H) and induces them
through the class-fusion table of (G, H), which gives, for each class g
of G, the number count_d of x in G that conjugate g into each class d of
H; count_d / |H| = |C_G(g)| / |C_H(d)| is an integer (a count that |H|
does not divide is an error).

A context keeps one Subgroup per tag, so characters on one subgroup
share one group object, with its fusion tables.  A Subgroup holds p, n
and the context's value table, never the context, so a context that is
no longer used is freed by reference counting.

Group elements are pairs (i, e) meaning rotation^i * reflection^e, with
(i, e) * (j, f) = (i + j * (-1)^e, e xor f).  Conjugacy classes are indexed
canonically: identity, then the rotation pairs {s^j, s^-j} for
1 <= j <= (p^n - 1)/2, then the single class of all reflections.

The standard subgroup tags (1, D_2, C_{p^k}, D_{2p^k}) and THETA live in
`lattice` and are re-exported here.  Subgroup derives a tag's classes,
membership, containment and class fusion from one shape formula over
(step, count, reflects), the same for all four kinds, so no lattice
question walks the group; `reflects` and the order come from the tag.
"""

from __future__ import annotations

from functools import cached_property

from .lattice import (CYCLIC, DIHEDRAL, ORDER2, THETA, TRIVIAL,  # noqa: F401 (re-exported)
                      InvalidGroupError, InvalidSubgroupError, SubgroupTag,
                      check_odd_prime, cyclic_p_power, dihedral_p_power)
from .records import Record


class GroupMismatchError(ValueError):
    """Operation mixing characters of unrelated groups."""


class Cyclotomic(Record):
    """Element of Z[zeta_{p^n}] in the power basis mod the cyclotomic
    polynomial."""
    __slots__ = ("p", "n", "coeffs")

    def __init__(self, p: int, n: int, coeffs: tuple[int, ...]):
        self.p = p
        self.n = n
        self.coeffs = coeffs

    @classmethod
    def make(cls, p: int, n: int, cs: list[int]) -> "Cyclotomic":
        """sum cs[i] x^i reduced modulo the cyclotomic polynomial."""
        step = p ** (n - 1)
        phi = p ** n - step
        cs = list(cs)
        # x^phi = -(1 + x^step + x^(2 step) + ... + x^((p-2) step))
        while len(cs) > phi:
            top = cs.pop()
            if top:
                d = len(cs) - phi  # degree of the cofactor x^d
                for i in range(p - 1):
                    cs[d + i * step] -= top
        cs += [0] * (phi - len(cs))
        return cls(p, n, tuple(cs))

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


class _ValueTable(dict):
    """The values of one context's characters, keyed by preimage: the value
    of a preimage sum c x^i, 0 <= i < m, is `Cyclotomic.make` of its dense
    vector, built the first time it is read and shared by every character
    of the context after that.  The irreducible table of D_998 has 63001
    values, 253 of them distinct, and `chars --p 499` peaks at 25 MB so,
    at 273 MB without."""

    def __init__(self, p: int, n: int):
        super().__init__()
        self.p = p
        self.n = n

    def __missing__(self, preimage: tuple[tuple[int, int], ...]) -> Cyclotomic:
        p, n = self.p, self.n
        dense = [0] * p ** n
        for i, c in preimage:
            dense[i] += c
        value = self[preimage] = Cyclotomic.make(p, n, dense)
        return value


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
        self._values = _ValueTable(p, n)

    def __repr__(self):
        return f"DihedralContext(p={self.p}, n={self.n})"

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
    def _irreducibles(self) -> tuple["VirtualCharacter", ...]:
        G = self.full()
        m = self.m
        spectra = [({0: 1}, 1), ({0: 1}, -1)]
        spectra += [({k: 1, m - k: 1}, 0) for k in range(1, (m + 1) // 2)]
        return tuple([VirtualCharacter._of(G, spectrum) for spectrum in spectra])


def _folded(acc: dict, ms: dict, c: int, sign: int) -> dict:
    """acc plus each multiplicity m_s of ms at index sign * s mod c: the
    sums that are not 0, in increasing index.  acc is the caller's own."""
    for s, x in ms.items():
        u = sign * s % c
        acc[u] = acc.get(u, 0) + x
    return {u: acc[u] for u in sorted(acc) if acc[u]}


class Subgroup:
    """A standard subgroup with its own canonical conjugacy classes, read
    off its shape (step, count, reflects).

    C_{p^k} or D_{2p^k}, k = tag.level (k = 0 for 1 and D_2), is the
    rotations (j step, 0) for 0 <= j < count, with step = p^(n-k) and
    count = p^k, and, when it reflects, the reflections (j step, 1).  A
    reflection conjugates (i, 0) to (-i, 0), so then the rotation classes
    are 0 <= j <= (count - 1) / 2, and the reflections form one class
    after them.  Every lattice question is a closed form in the shape, and
    none walks the elements:

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
        p, n = ctx.p, ctx.n
        self.p, self.n, self.m = p, n, ctx.m
        self._values = ctx._values
        self.tag = tag
        self.step = p ** (n - tag.level)
        self.count = p ** tag.level
        self.reflects = tag.reflects
        self.order = tag.order(p)
        self._rotation_classes = (self.count + 1) // 2 if self.reflects else self.count
        self._hash = hash((p, n, tag))
        self._fusion = {}

    def __eq__(self, other):
        return self is other or (isinstance(other, Subgroup) and self.p == other.p
                                 and self.n == other.n and self.tag == other.tag)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Subgroup(DihedralContext(p={self.p}, n={self.n}), {self.tag.label})"

    def __contains__(self, g) -> bool:
        i, e = g
        return (0 <= i < self.m and i % self.step == 0
                and (e == 0 or (e == 1 and self.reflects)))

    @cached_property
    def class_reps(self) -> tuple:
        reps = tuple((j * self.step, 0) for j in range(self._rotation_classes))
        return reps + ((0, 1),) if self.reflects else reps

    def _rotation_class(self, i: int) -> int:
        """The class of the rotation (i, 0), which lies in self."""
        j = i // self.step
        return min(j, self.count - j) if self.reflects else j

    def class_index(self, g) -> int:
        if g not in self:
            raise GroupMismatchError(f"{g} not in subgroup {self.tag.label}")
        return self._rotation_classes if g[1] == 1 else self._rotation_class(g[0])

    def contains(self, other: "Subgroup") -> bool:
        if self.p != other.p or self.n != other.n:
            raise GroupMismatchError(f"{other!r} and {self!r} lie in different groups")
        return other.step % self.step == 0 and (self.reflects or not other.reflects)

    def fusion(self, H: "Subgroup") -> tuple[tuple[tuple[int, int], ...], ...]:
        """For each class rep g of self, the pairs (class index d in H,
        number of x in self with x g x^-1 in class d of H), count > 0, in
        the order a walk over the elements of self meets them: the closed
        form in the class docstring."""
        table = self._fusion.get(H)
        if table is None:
            count, m = self.count, self.m
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
        if not self.contains(H):
            raise GroupMismatchError(f"{H.tag.label} is not inside {self.tag.label}")
        return tuple(self.class_index(h) for h in H.class_reps)


class VirtualCharacter(Record):
    """Exact class function with integer-combination-of-irreducibles
    semantics, built by the library as its _spectrum (module docstring):
    the pair of its nonzero multiplicities, a dict {t: m_t} in increasing
    t, and its reflection value, so that an inner product sums over the
    smaller support.  Its `values` are built on first read, and its
    restrictions (_restrictions) are kept."""
    __slots__ = ("group", "values", "_restrictions", "_spectrum")

    @classmethod
    def _of(cls, group: Subgroup, spectrum: tuple) -> "VirtualCharacter":
        """The character of group with this spectrum."""
        chi = cls.__new__(cls)
        chi.group, chi._spectrum = group, spectrum
        return chi

    def __getattr__(self, name):
        # only a read of an unset slot (or of a name that no slot has) gets
        # here, and `values` is unset until its first read
        if name != "values":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        values = self.group._values
        self.values = out = tuple([values[pre] for pre in _preimages(self)])
        return out

    @property
    def degree(self) -> int:
        """chi(1), the sum of the multiplicities, which builds no value."""
        return sum(self._spectrum[0].values())


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
    return [VirtualCharacter._of(H, ({t: 1}, None)) for t in range(H.count)]


def _preimages(chi: VirtualCharacter,
               known: dict | None = None) -> list[tuple[tuple[int, int], ...]]:
    """For each class of chi's group, a preimage in Z[x]/(x^m - 1) of chi's
    value there, as pairs (i, c), by the value rule of the module
    docstring.

    A rotation preimage is looked up in known by its coefficients and
    exponents, and built only the first time, so a caller that reads many
    characters of one context through one dict shares equal preimages as
    the context's value table shares values: the tower at D_686 reads 29756 rotation
    preimages and builds 344."""
    G = chi.group
    m = G.m
    ms, v = chi._spectrum
    step = G.step
    cs = tuple(ms.values())
    shared = {} if known is None else known.setdefault(cs, {})
    rows = range(G._rotation_classes)
    # the exponents shift * j mod m at each class j, one column per nonzero
    # m_t, shift = t step; the zero character has no column, and () at
    # every class
    columns = [[shift * j % m for j in rows] for shift in [t * step for t in ms]]
    out = []
    for exponents in zip(*columns) if columns else [()] * len(rows):
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
    the preimage of class d.  A count that |H| does not divide breaks the
    fusion table's invariant and raises RuntimeError."""
    order = H.order
    out = []
    for row in G.fusion(H):
        acc = {}
        for d, count in row:
            weight, rest = divmod(count, order)
            if rest:
                raise RuntimeError(f"fusion count {count} not divisible by {order}")
            for i, c in preimages[d]:
                acc[i] = acc.get(i, 0) + weight * c
        out.append(tuple([(i, c) for i, c in sorted(acc.items()) if c]))
    return out


def inner_product(f1: VirtualCharacter, f2: VirtualCharacter) -> int:
    """<f1, f2> = (1/|H|) sum f1(g) conj(f2(g)), exact: S = sum m1_t m2_t
    over the smaller support, each t looked up in the other, or
    (S + v1 v2) / 2 when H reflects (an odd S + v1 v2 breaks the
    spectrum's invariant and raises RuntimeError)."""
    H = f1.group
    if H is not f2.group and H != f2.group:
        raise GroupMismatchError("characters live on different groups")
    (ms1, v1), (ms2, v2) = f1._spectrum, f2._spectrum
    if len(ms1) > len(ms2):
        ms1, ms2 = ms2, ms1
    get = ms2.get
    total = 0
    for t, c in ms1.items():
        total += c * get(t, 0)
    if not H.reflects:
        return total
    twice = total + v1 * v2
    if twice % 2:
        raise RuntimeError(f"{twice} / 2 is not an integer")
    return twice // 2


def restrict(chi: VirtualCharacter, H: Subgroup) -> VirtualCharacter:
    """Restriction to H: the spectrum folded, m_u = sum of the nonzero m_s
    with s = u mod count_H.  Built on first use and kept on chi when H shares
    the value table of chi's context, so that chi holds no other
    context's table."""
    G = chi.group
    if H._values is not G._values:
        kept = {}
    elif (kept := getattr(chi, "_restrictions", None)) is None:
        kept = chi._restrictions = {}
    res = kept.get(H)
    if res is None:
        if not G.contains(H):
            raise GroupMismatchError(f"{H.tag.label} is not inside {G.tag.label}")
        ms, v = chi._spectrum
        res = kept[H] = VirtualCharacter._of(
            H, (_folded({}, ms, H.count, 1), v if H.reflects else None))
    return res


def induce(chi: VirtualCharacter, G: Subgroup) -> VirtualCharacter:
    """Induction from chi.group up to G: the spectrum repeated up to G's
    count, m_s = m_(s mod count_H), plus m_(-s) when only G reflects; each
    nonzero entry is repeated, and its conjugate added, on its own."""
    H = chi.group
    if not G.contains(H):
        raise GroupMismatchError(f"{H.tag.label} is not inside {G.tag.label}")
    ms, v = chi._spectrum
    c, r = H.count, G.count // H.count
    if G.reflects and not H.reflects:
        ms, v = _folded(dict(ms), ms, c, -1), 0
    if r > 1:
        ms = {s + j * c: x for j in range(r) for s, x in ms.items()}
    return VirtualCharacter._of(G, (ms, v))


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
        # Z[x]/(x^m - 1), a vector of period step
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
