"""Stacky fan data and the fan constructions the rest of the package builds on.

A fan here lives in a finitely generated abelian group N = Z^rank x Z/t1 x ...
and is recorded by the images of the ray generators in N together with the
maximal cones, stored as sorted index tuples.  Faces are implicit.  All
constructors validate simpliciality up front, so downstream code can assume
well-formed data.

The constructions provided: weighted projective stacks P(w) for coprime and
non-coprime weight vectors (the latter produce gerbes, with a torsion row),
total spaces of line bundles, projective bundles, the two-parameter orbifold
surface family, and global/local splitting certificates for product
decompositions.  A split is decided by one shape check (block pattern of the
ray images, product cones) and one exact block solver for A * lower = upper,
run over all rays of the second factor for a global certificate and over each
of its maximal cones for a local one.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Optional, Sequence, Tuple

from .intlattice import (
    AbelianGroupStructure,
    IntMatrix,
    _Value,
    _integers,
    cokernel_invariants,
    smith_normal_form,
    solve_gcd_chain_row,
    solve_linear_system,
)

__all__ = [
    "RayImage",
    "StackyFanData",
    "DivisorCoeffs",
    "point_fan",
    "wps_fan",
    "wps_gerbe_fan",
    "line_bundle_total_space",
    "projective_bundle",
    "hirzebruch_shear",
    "hirzebruch_fan",
    "check_split",
    "find_global_split",
    "find_local_splits",
    "fans_equal_up_to_ray_order",
]

# Coefficient vector of a torus-invariant divisor, one integer per ray.
DivisorCoeffs = Tuple[int, ...]


class RayImage(_Value):
    """Image of one ray generator: free coordinates plus torsion residues."""

    __slots__ = ("free", "torsion")

    def __init__(self, free: Tuple[int, ...], torsion: Tuple[int, ...] = ()):
        free = _integers(free, "ray coordinates must be integers")
        torsion = _integers(torsion, "torsion residues must be integers")
        self._store(free, torsion)


class StackyFanData(_Value):
    """A simplicial stacky fan: target group, ray images, maximal cones."""

    __slots__ = ("lattice", "rays", "max_cones")

    def __init__(self, lattice: AbelianGroupStructure,
                 rays: Tuple[RayImage, ...],
                 max_cones: Tuple[Tuple[int, ...], ...]):
        rank = lattice.free_rank
        factors = lattice.torsion
        images = []
        for ray in rays:
            if not isinstance(ray, RayImage):
                ray = RayImage(tuple(ray[0]), tuple(ray[1]) if len(ray) > 1 else ())
            if len(ray.free) != rank:
                raise ValueError("ray has %d free coordinates, lattice rank is %d"
                                 % (len(ray.free), rank))
            if len(ray.torsion) != len(factors):
                raise ValueError("ray has %d torsion residues, lattice has %d factors"
                                 % (len(ray.torsion), len(factors)))
            # store torsion residues reduced into [0, t)
            reduced = tuple(c % t for c, t in zip(ray.torsion, factors))
            images.append(RayImage(ray.free, reduced))
        cones = []
        for cone in max_cones:
            idx = tuple(sorted(_integers(
                cone, "cone indices must be integers")))
            if len(set(idx)) != len(idx):
                raise ValueError("cone %r repeats a ray" % (cone,))
            if idx and (idx[0] < 0 or idx[-1] >= len(images)):
                raise ValueError("cone %r has a ray index out of range" % (cone,))
            cones.append(idx)
        self._store(lattice, tuple(images), tuple(cones))
        self._validate_simplicial()

    def _validate_simplicial(self):
        for cone in self.max_cones:
            if not cone:
                continue
            m = IntMatrix.from_rows(
                [[self.rays[i].free[k] for i in cone]
                 for k in range(self.lattice.free_rank)]
            )
            if smith_normal_form(m).rank != len(cone):
                raise ValueError("cone %r is not simplicial" % (cone,))

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    def ray_matrix(self) -> IntMatrix:
        """Free parts of the ray images as columns (rank x n_rays)."""
        return IntMatrix.from_rows(
            [[r.free[k] for r in self.rays] for k in range(self.lattice.free_rank)]
        )

    def has_finite_cokernel(self) -> bool:
        """Whether the ray images generate a finite-index subgroup of N."""
        return cokernel_invariants(self.ray_matrix()).free_rank == 0

    def to_json(self) -> dict:
        return {
            "lattice": {
                "rank": self.lattice.free_rank,
                "torsion": [str(t) for t in self.lattice.torsion],
            },
            "rays": [
                {"free": [str(x) for x in r.free],
                 "torsion": [str(x) for x in r.torsion]}
                for r in self.rays
            ],
            "cones": [list(c) for c in self.max_cones],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "StackyFanData":
        def parsed(values):  # ``to_json`` writes group elements as strings
            return tuple(int(x) if isinstance(x, str) else x for x in values)

        lattice = AbelianGroupStructure(doc["lattice"]["rank"],
                                        parsed(doc["lattice"]["torsion"]))
        rays = tuple(RayImage(parsed(r["free"]), parsed(r.get("torsion", ())))
                     for r in doc["rays"])
        return cls(lattice, rays, tuple(map(tuple, doc["cones"])))

    def __str__(self):
        factors = "".join(" x Z/%d" % t for t in self.lattice.torsion)
        lines = ["lattice: Z^%d%s" % (self.lattice.free_rank, factors)]
        for i, ray in enumerate(self.rays):
            coords = ", ".join(str(x) for x in ray.free)
            if ray.torsion:
                coords += "; " + ", ".join(str(x) for x in ray.torsion)
            lines.append("ray %d: (%s)" % (i, coords))
        for cone in self.max_cones:
            lines.append("cone: {%s}" % ", ".join(str(i) for i in cone))
        return "\n".join(lines)


def _require_finite_cokernel(fan: StackyFanData):
    """ArithmeticError unless the fan's rays span a finite-index subgroup."""
    if not fan.has_finite_cokernel():
        raise ArithmeticError("the rays span a subgroup of infinite index")


def point_fan() -> StackyFanData:
    """The fan of a point: rank zero, no rays, only the origin cone."""
    return StackyFanData(AbelianGroupStructure(0, ()), (), ((),))


def wps_fan(weights: Sequence[int]) -> StackyFanData:
    """Fan of the weighted projective stack P(w_1, ..., w_{n+1}), gcd(w) = 1.

    The ray matrix is upper triangular with the gcd steps lam_{i+1}/lam_i on
    the diagonal; above-diagonal entries in columns 2..n-1 are normalized into
    [0, lam_{i+1}/lam_i) so that the output is canonical.  Each n-subset of
    rays spans a maximal cone.

    >>> wps_fan((1, 1)).ray_matrix().rows
    ((1, -1),)
    >>> wps_fan((2, 3)).ray_matrix().rows
    ((3, -2),)
    """
    ws = _integers(weights, "weights must be integers")
    if len(ws) < 2:
        raise ValueError("need at least two weights")
    if any(w <= 0 for w in ws):
        raise ValueError("weights must be positive")
    if math.gcd(*ws) != 1:
        raise ValueError("weights share a common factor; use wps_gerbe_fan")
    n = len(ws) - 1
    rows = [list(solve_gcd_chain_row(ws, i)) for i in range(1, n + 1)]
    # bring above-diagonal entries of columns 2..n-1 into [0, diagonal step)
    for c in range(1, n - 1):
        step = rows[c][c]
        for j in range(c):
            q = rows[j][c] // step
            if q:
                rows[j] = [x - q * y for x, y in zip(rows[j], rows[c])]
    matrix = IntMatrix.from_rows(rows)
    if any(matrix.apply(ws)):
        raise ArithmeticError("ray matrix does not annihilate the weights %s"
                              % (ws,))
    for i in range(n + 1):
        minor, want = matrix.delete_column(i).det(), (-1) ** (n - i) * ws[i]
        if minor != want:
            raise ArithmeticError("minor %d of the ray matrix is %d, not %d"
                                  % (i, minor, want))
    rays = tuple(RayImage(matrix.column(j)) for j in range(n + 1))
    cones = tuple(itertools.combinations(range(n + 1), n))
    fan = StackyFanData(AbelianGroupStructure(n), rays, cones)
    _require_finite_cokernel(fan)
    return fan


def wps_gerbe_fan(weights: Sequence[int]) -> StackyFanData:
    """Fan of P(w) when gcd(w) = lam > 1: a mu_lam gerbe over the reduced stack.

    The lattice picks up a Z/lam factor and every ray carries one torsion
    residue c_i.  The residues satisfy sum(c_i w_i/lam) = 1 mod lam and are
    chosen canonically: smallest values reading from the last coordinate back.
    """
    ws = _integers(weights, "weights must be integers")
    if len(ws) < 2 or any(w <= 0 for w in ws):
        raise ValueError("need at least two positive weights")
    lam = math.gcd(*ws)
    if lam == 1:
        raise ValueError("weights are coprime; use wps_fan")
    reduced = [w // lam for w in ws]
    base = wps_fan(reduced)
    m = len(ws)
    # d[i] = gcd(lam, reduced[0..i-1]) tells which residues a prefix can reach
    d = [lam] * (m + 1)
    for i in range(m):
        d[i + 1] = math.gcd(d[i], reduced[i])
    c = [0] * m
    target = 1 % lam
    for i in range(m - 1, -1, -1):
        for v in range(lam):
            rem = (target - v * reduced[i]) % lam
            if rem % d[i] == 0:
                c[i] = v
                target = rem
                break
        else:
            raise ArithmeticError("no admissible residue for ray %d" % i)
    if target:
        raise ArithmeticError("gerbe residues leave %d mod %d" % (target, lam))
    matrix = base.ray_matrix()
    lattice = AbelianGroupStructure(base.lattice.free_rank, (lam,))
    rays = tuple(
        RayImage(matrix.column(j), (c[j],)) for j in range(m)
    )
    return StackyFanData(lattice, rays, base.max_cones)


def line_bundle_total_space(fan: StackyFanData, coeffs: Sequence[int]) -> StackyFanData:
    """Total space of the line bundle O(sum a_i D_i) over a torsion-free fan.

    Rays keep their coordinates with -a_i appended; one new ray (0, ..., 0, 1)
    is added, and every maximal cone gains it.
    """
    if fan.lattice.torsion:
        raise ValueError("line bundle total spaces need a torsion-free lattice")
    a = _integers(coeffs, "coefficients must be integers")
    if len(a) != fan.n_rays:
        raise ValueError("need one coefficient per ray")
    rank = fan.lattice.free_rank
    rays = [RayImage(r.free + (-ai,)) for r, ai in zip(fan.rays, a)]
    rays.append(RayImage((0,) * rank + (1,)))
    new = fan.n_rays
    cones = tuple(c + (new,) for c in fan.max_cones) or ((new,),)
    return StackyFanData(AbelianGroupStructure(rank + 1), tuple(rays), cones)


def projective_bundle(fan: StackyFanData,
                      divisors: Sequence[Sequence[int]]) -> StackyFanData:
    """Fan of P(O(D_0) + ... + O(D_r)) over a torsion-free base fan.

    Base rays pick up the fiber coordinates a_{kj} - a_{0j}; the fiber
    contributes r+1 rays e_0 = -e_1 - ... - e_r, e_1, ..., e_r, appended after
    the base rays in that order.  Each maximal base cone sigma and omitted
    fiber index i give a maximal cone spanned by sigma and the other r fiber
    rays.
    """
    if fan.lattice.torsion:
        raise ValueError("projective bundles need a torsion-free lattice")
    rows = [_integers(d, "divisor coefficients must be integers")
            for d in divisors]
    if len(rows) < 2:
        raise ValueError("need at least two divisors")
    if any(len(d) != fan.n_rays for d in rows):
        raise ValueError("each divisor needs one coefficient per ray")
    r = len(rows) - 1
    rank = fan.lattice.free_rank
    rays: List[RayImage] = []
    for j, ray in enumerate(fan.rays):
        fiber = tuple(rows[k][j] - rows[0][j] for k in range(1, r + 1))
        rays.append(RayImage(ray.free + fiber))
    zero = (0,) * rank
    rays.append(RayImage(zero + (-1,) * r))
    for k in range(r):
        rays.append(RayImage(zero + tuple(1 if i == k else 0 for i in range(r))))
    n = fan.n_rays
    fiber_idx = tuple(range(n, n + r + 1))
    base_cones = fan.max_cones or ((),)
    cones = tuple(
        cone + tuple(f for f in fiber_idx if f != fiber_idx[i])
        for cone in base_cones
        for i in range(r + 1)
    )
    return StackyFanData(AbelianGroupStructure(rank + r), tuple(rays), cones)


def hirzebruch_shear(a: int, b: int, r: int) -> Tuple[int, int]:
    """Canonical (s, t) with s*a + t*b = r and 0 <= s < b.

    >>> hirzebruch_shear(2, 3, 1)
    (2, -1)
    >>> hirzebruch_shear(1, 2, 0)
    (0, 0)
    """
    a, b, r = _integers((a, b, r), "a, b, r must be integers")
    if a < 1 or b < 1 or math.gcd(a, b) != 1:
        raise ValueError("parameters must be positive and coprime")
    s = (r * pow(a, -1, b)) % b if b > 1 else 0
    return s, (r - s * a) // b


def hirzebruch_fan(a: int, b: int, r: int) -> StackyFanData:
    """Fan of the two-parameter orbifold surface with invariants (a, b, r).

    Rays (b,s), (0,1), (-a,t), (0,-1) with the canonical shear, and the four
    cones spanned by cyclically adjacent pairs.

    >>> [ray.free for ray in hirzebruch_fan(2, 1, 2).rays]
    [(1, 0), (0, 1), (-2, 2), (0, -1)]
    """
    s, t = hirzebruch_shear(a, b, r)
    rays = (RayImage((b, s)), RayImage((0, 1)), RayImage((-a, t)), RayImage((0, -1)))
    cones = ((0, 1), (1, 2), (2, 3), (0, 3))
    fan = StackyFanData(AbelianGroupStructure(2), rays, cones)
    _require_finite_cokernel(fan)
    return fan


def _split_upper_blocks(whole: StackyFanData, part1: StackyFanData,
                        part2: StackyFanData):
    """Shape checks for a split; returns fiber upper blocks, or None.

    None means the ray images do not have the required block pattern or the
    maximal cones of whole are not the products of those of the parts.
    Actual dimension mismatches raise.
    """
    if whole.lattice.torsion or part1.lattice.torsion or part2.lattice.torsion:
        raise ValueError("split checks support free lattices only")
    r1, r2 = part1.lattice.free_rank, part2.lattice.free_rank
    n1, n2 = part1.n_rays, part2.n_rays
    if whole.lattice.free_rank != r1 + r2:
        raise ValueError("lattice ranks do not add up")
    if whole.n_rays != n1 + n2:
        raise ValueError("ray counts do not add up")
    for j in range(n1):
        if whole.rays[j].free != part1.rays[j].free + (0,) * r2:
            return None
    uppers = []
    for i in range(n2):
        free = whole.rays[n1 + i].free
        if free[r1:] != part2.rays[i].free:
            return None
        uppers.append(free[:r1])
    products = {
        frozenset(c1) | frozenset(n1 + i for i in c2)
        for c1 in part1.max_cones or ((),)
        for c2 in part2.max_cones or ((),)
    }
    if {frozenset(c) for c in whole.max_cones} != products:
        return None
    return uppers


def _solve_block(part2: StackyFanData, uppers, rays, width: int) -> Optional[IntMatrix]:
    """Integer A, `width` rows, with A * (ray i of part2) = uppers[i] for i in rays.

    Each row of A is one exact integer solve, so a returned A needs no
    re-check; None when some row has no integer solution.
    """
    lower = IntMatrix.from_rows([part2.rays[i].free for i in rays])
    rows = []
    for k in range(width):
        row = solve_linear_system(lower, [uppers[i][k] for i in rays])
        if row is None:
            return None
        rows.append(row)
    return IntMatrix.from_rows(rows)


def find_global_split(whole: StackyFanData, part1: StackyFanData,
                      part2: StackyFanData) -> Optional[IntMatrix]:
    """Integer matrix A certifying whole = part1 x part2, or None."""
    uppers = _split_upper_blocks(whole, part1, part2)
    if uppers is None:
        return None
    return _solve_block(part2, uppers, range(part2.n_rays), part1.lattice.free_rank)


def find_local_splits(whole: StackyFanData, part1: StackyFanData,
                      part2: StackyFanData) -> Optional[Tuple[IntMatrix, ...]]:
    """Per-cone matrices A_j over the maximal cones of part2, or None."""
    uppers = _split_upper_blocks(whole, part1, part2)
    if uppers is None:
        return None
    blocks = tuple(_solve_block(part2, uppers, cone, part1.lattice.free_rank)
                   for cone in part2.max_cones or ((),))
    return None if None in blocks else blocks


def check_split(whole: StackyFanData, part1: StackyFanData, part2: StackyFanData,
                matrices=None, mode: str = "global") -> bool:
    """Whether whole is split by part1 (first block) and part2 (second block).

    With mode "global", `matrices` is one integer matrix A and the fiber rays
    must satisfy upper = A * lower; with mode "local" it is one matrix per
    maximal cone of part2, checked on the rays of that cone.  Passing None
    searches instead: `find_global_split` or `find_local_splits`, which share
    one shape check and one exact block solver with this check.
    """
    if mode not in ("global", "local"):
        raise ValueError("mode must be 'global' or 'local'")
    if matrices is None:
        find = find_global_split if mode == "global" else find_local_splits
        return find(whole, part1, part2) is not None
    uppers = _split_upper_blocks(whole, part1, part2)
    if uppers is None:
        return False
    if mode == "global":
        mats, cones = [matrices], (range(part2.n_rays),)
    else:
        mats, cones = matrices, part2.max_cones or ((),)
    mats = [m if isinstance(m, IntMatrix) else IntMatrix.from_rows(m) for m in mats]
    if len(mats) != len(cones):
        raise ValueError("need one matrix per maximal cone of part2")
    # a matrix without rows (part1 of rank 0) records no width; it maps
    # every ray to the empty upper block
    return all((a.apply(part2.rays[i].free) if a.rows else ()) == uppers[i]
               for a, cone in zip(mats, cones) for i in cone)


def fans_equal_up_to_ray_order(first: StackyFanData, second: StackyFanData) -> bool:
    """Equality after some relabeling of rays (cones relabeled along)."""
    if first.lattice != second.lattice or first.n_rays != second.n_rays:
        return False
    groups1: dict = {}
    groups2: dict = {}
    for i, ray in enumerate(first.rays):
        groups1.setdefault(ray, []).append(i)
    for i, ray in enumerate(second.rays):
        groups2.setdefault(ray, []).append(i)
    if set(groups1) != set(groups2):
        return False
    if any(len(groups1[v]) != len(groups2[v]) for v in groups1):
        return False
    values = list(groups1)
    cones2 = {frozenset(c) for c in second.max_cones}

    def assign(pos: int, mapping: dict) -> bool:
        if pos == len(values):
            cones1 = {
                frozenset(mapping[i] for i in c) for c in first.max_cones
            }
            return cones1 == cones2
        v = values[pos]
        src = groups1[v]
        for perm in itertools.permutations(groups2[v]):
            for i, j in zip(src, perm):
                mapping[i] = j
            if assign(pos + 1, mapping):
                return True
        return False

    return assign(0, {})
