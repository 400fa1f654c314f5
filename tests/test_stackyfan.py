import copy
import math
import random

import pytest

from orbifold.intlattice import AbelianGroupStructure, IntMatrix
from orbifold.stackyfan import (
    RayImage,
    StackyFanData,
    check_split,
    fans_equal_up_to_ray_order,
    find_global_split,
    find_local_splits,
    hirzebruch_fan,
    hirzebruch_shear,
    line_bundle_total_space,
    point_fan,
    projective_bundle,
    wps_fan,
    wps_gerbe_fan,
)


def free_fan(rays, cones):
    rank = len(rays[0]) if rays else 0
    return StackyFanData(
        AbelianGroupStructure(rank, ()),
        tuple(RayImage(tuple(r)) for r in rays),
        tuple(tuple(c) for c in cones),
    )


# ---------------------------------------------------------------- wps fans


def test_wps_fan_small_examples():
    assert wps_fan((1, 1)).ray_matrix().rows == ((1, -1),)
    assert wps_fan((2, 3)).ray_matrix().rows == ((3, -2),)
    assert wps_fan((2, 1)).ray_matrix().rows == ((1, -2),)


def test_wps_fan_matrix_invariants_1248():
    fan = wps_fan((1, 2, 4, 8))
    m = fan.ray_matrix()
    assert m.nrows == 3 and m.ncols == 4
    assert m.apply((1, 2, 4, 8)) == (0, 0, 0)
    for i, w in enumerate((1, 2, 4, 8)):
        assert m.delete_column(i).det() == (-1) ** (3 - i) * w
    # canonical range for the one normalizable column
    assert 0 <= m[0, 1] < m[1, 1]


def test_wps_fan_cones_and_validation():
    fan = wps_fan((1, 1, 1))
    assert fan.max_cones == ((0, 1), (0, 2), (1, 2))
    assert fan.has_finite_cokernel()
    with pytest.raises(ValueError):
        wps_fan((2, 4))
    with pytest.raises(ValueError):
        wps_fan((1,))
    with pytest.raises(ValueError):
        wps_fan((0, 1))


def test_wps_fans_refuse_non_integral_weights():
    with pytest.raises(ValueError, match="weights must be integers"):
        wps_fan((1.9, 2))
    with pytest.raises(ValueError, match="weights must be integers"):
        wps_gerbe_fan((2, 4.5))
    assert fans_equal_up_to_ray_order(wps_fan((1.0, 2.0)), wps_fan((1, 2)))


def test_ray_image_refuses_non_integral_coordinates():
    with pytest.raises(ValueError, match="ray coordinates must be integers"):
        RayImage((1.5, 2))
    with pytest.raises(ValueError, match="torsion residues must be integers"):
        RayImage((1, 2), (0.5,))
    assert RayImage((1.0, 2), (3.0,)) == RayImage((1, 2), (3,))


def test_line_bundle_refuses_non_integral_coefficients():
    with pytest.raises(ValueError, match="coefficients must be integers"):
        line_bundle_total_space(wps_fan((2, 1)), (-1.7, -1))
    assert line_bundle_total_space(wps_fan((2, 1)), (-1.0, -1)) == \
        line_bundle_total_space(wps_fan((2, 1)), (-1, -1))


def test_projective_bundle_refuses_non_integral_divisors():
    base = wps_fan((1, 1))
    with pytest.raises(ValueError, match="divisor coefficients must be "
                                         "integers"):
        projective_bundle(base, ((0, 0), (0.5, 1)))
    assert projective_bundle(base, ((0, 0), (1.0, 0))) == \
        projective_bundle(base, ((0, 0), (1, 0)))


def test_wps_fan_random_invariants():
    rng = random.Random(4101)
    done = 0
    while done < 100:
        n = rng.randrange(1, 5)
        ws = [rng.randrange(1, 51) for _ in range(n + 1)]
        if math.gcd(*ws) != 1:
            continue
        done += 1
        m = wps_fan(ws).ray_matrix()
        assert m.apply(ws) == (0,) * n
        minors = [m.delete_column(i).det() for i in range(n + 1)]
        for i, w in enumerate(ws):
            assert minors[i] == (-1) ** (n - i) * w
        assert math.gcd(*[abs(x) for x in minors]) == 1


def test_wps_gerbe_fan_examples():
    fan = wps_gerbe_fan((2, 2))
    assert fan.lattice == AbelianGroupStructure(1, (2,))
    assert [r.free for r in fan.rays] == [(1,), (-1,)]
    assert [r.torsion for r in fan.rays] == [(1,), (0,)]

    fan = wps_gerbe_fan((2, 4))
    assert [r.free for r in fan.rays] == [(2,), (-1,)]
    assert [r.torsion for r in fan.rays] == [(1,), (0,)]

    fan = wps_gerbe_fan((3, 3, 3))
    assert fan.lattice.torsion == (3,)
    assert [r.torsion for r in fan.rays] == [(1,), (0,), (0,)]

    with pytest.raises(ValueError):
        wps_gerbe_fan((2, 3))


def test_wps_gerbe_fan_lifted_kernel():
    # the lifted matrix [B'; c | (0,..,0,lam)] must kill (w, k) for some k
    rng = random.Random(88)
    done = 0
    while done < 60:
        n = rng.randrange(1, 4)
        lam = rng.randrange(2, 7)
        base = [rng.randrange(1, 13) for _ in range(n + 1)]
        if math.gcd(*base) != 1:
            continue
        done += 1
        ws = [lam * w for w in base]
        fan = wps_gerbe_fan(ws)
        rows = [list(r) + [0] for r in fan.ray_matrix().rows]
        rows.append([r.torsion[0] for r in fan.rays] + [lam])
        lifted = IntMatrix.from_rows(rows)
        k = -sum(c * w for c, w in zip((r.torsion[0] for r in fan.rays), base))
        # the residues must also hit 1 mod lam against the reduced weights
        assert sum(r.torsion[0] * w for r, w in zip(fan.rays, base)) % lam == 1 % lam
        assert lifted.apply(tuple(ws) + (k,)) == (0,) * (n + 1)


# ------------------------------------------------------- bundle total spaces


def test_line_bundle_total_space_examples():
    base = wps_fan((2, 1))
    total = line_bundle_total_space(base, (-1, -1))
    assert [r.free for r in total.rays] == [(1, 1), (-2, 1), (0, 1)]
    assert total.max_cones == ((0, 2), (1, 2))

    single = free_fan([(1,)], [(0,)])
    total = line_bundle_total_space(single, (-2,))
    assert [r.free for r in total.rays] == [(1, 2), (0, 1)]
    assert total.max_cones == ((0, 1),)

    p1 = wps_fan((1, 1))
    product = line_bundle_total_space(p1, (0, 0))
    assert [r.free for r in product.rays] == [(1, 0), (-1, 0), (0, 1)]


def test_line_bundle_total_space_recovers_base():
    rng = random.Random(7)
    for ws in ((1, 1), (2, 3), (1, 2, 4, 8), (5, 7)):
        base = wps_fan(ws)
        coeffs = [rng.randrange(-5, 6) for _ in range(base.n_rays)]
        total = line_bundle_total_space(base, coeffs)
        assert total.lattice.free_rank == base.lattice.free_rank + 1
        for old, new in zip(base.rays, total.rays):
            assert new.free[:-1] == old.free
        assert total.rays[-1].free == (0,) * base.lattice.free_rank + (1,)


def test_line_bundle_total_space_rejects_torsion():
    with pytest.raises(ValueError):
        line_bundle_total_space(wps_gerbe_fan((2, 2)), (0, 0))


def test_projective_bundle_over_wps21():
    base = wps_fan((2, 1))
    fan = projective_bundle(base, ((0, 0), (0, 2)))
    assert [r.free for r in fan.rays] == [(1, 0), (-2, 2), (0, -1), (0, 1)]
    assert set(map(frozenset, fan.max_cones)) == {
        frozenset(c) for c in ((0, 3), (0, 2), (1, 3), (1, 2))
    }


def test_projective_bundle_trivial_is_product():
    fan = projective_bundle(wps_fan((1, 1)), ((0, 0), (0, 0)))
    assert fans_equal_up_to_ray_order(fan, hirzebruch_fan(1, 1, 0))


def test_projective_bundle_matches_surface_fan():
    for a, b, s, t in ((1, 1, 0, 0), (2, 1, 0, 2), (2, 3, 2, -1), (1, 2, 1, 3)):
        base = wps_fan((a, b))
        fan = projective_bundle(base, ((0, 0), (s, t)))
        assert fans_equal_up_to_ray_order(fan, hirzebruch_fan(a, b, s * a + t * b))


# ------------------------------------------------------------- surface fans


def test_hirzebruch_shear():
    assert hirzebruch_shear(1, 2, 0) == (0, 0)
    assert hirzebruch_shear(2, 3, 1) == (2, -1)
    assert hirzebruch_shear(1, 1, 5) == (0, 5)
    assert hirzebruch_shear(2, 1, 2) == (0, 2)
    with pytest.raises(ValueError):
        hirzebruch_shear(2, 4, 1)
    with pytest.raises(ValueError, match="a, b, r must be integers"):
        hirzebruch_shear(3, 1, 2.5)
    with pytest.raises(ValueError, match="a, b, r must be integers"):
        hirzebruch_fan(1, 1, 0.5)
    assert hirzebruch_shear(2.0, 3, 1) == (2, -1)
    assert hirzebruch_fan(2.0, 3, 1) == hirzebruch_fan(2, 3, 1)


def test_hirzebruch_fan_examples():
    fan = hirzebruch_fan(2, 1, 2)
    assert [r.free for r in fan.rays] == [(1, 0), (0, 1), (-2, 2), (0, -1)]
    fan = hirzebruch_fan(1, 1, 0)
    assert [r.free for r in fan.rays] == [(1, 0), (0, 1), (-1, 0), (0, -1)]
    fan = hirzebruch_fan(2, 3, 1)
    assert [r.free for r in fan.rays] == [(3, 2), (0, 1), (-2, -1), (0, -1)]
    assert fan.max_cones == ((0, 1), (1, 2), (2, 3), (0, 3))


def test_hirzebruch_fan_shear_relation():
    rng = random.Random(5150)
    done = 0
    while done < 80:
        a = rng.randrange(1, 9)
        b = rng.randrange(1, 9)
        if math.gcd(a, b) != 1:
            continue
        done += 1
        r = rng.randrange(-10, 11)
        fan = hirzebruch_fan(a, b, r)
        s = fan.rays[0].free[1]
        t = fan.rays[2].free[1]
        assert 0 <= s < b
        assert s * a + t * b == r
        assert fan.has_finite_cokernel()


# ------------------------------------------------------------ split checks


def a_line_fan(length=1):
    return free_fan([(length,)], [(0,)])


def test_check_split_quotient_plane():
    # [C^2/mu_2] = C x [C/mu_2]; ray images (1,0) and (2,2)
    whole = free_fan([(1, 0), (2, 2)], [(0, 1)])
    part1 = a_line_fan(1)
    part2 = a_line_fan(2)
    found = find_global_split(whole, part1, part2)
    assert found is not None and found.rows == ((1,),)
    assert check_split(whole, part1, part2, matrices=[[1]], mode="global")
    assert not check_split(whole, part1, part2, matrices=[[2]], mode="global")
    assert check_split(whole, part1, part2)


def test_check_split_obstructed_line_bundle():
    # line bundle over [C/mu_2] with odd upper entry: no integer A works
    whole = free_fan([(1, 0), (1, 2)], [(0, 1)])
    part1 = a_line_fan(1)
    part2 = a_line_fan(2)
    assert find_global_split(whole, part1, part2) is None
    assert find_local_splits(whole, part1, part2) is None
    for a in range(-4, 5):
        assert not check_split(whole, part1, part2, matrices=[[a]], mode="global")
    assert not check_split(whole, part1, part2)


def test_check_split_local_but_not_global():
    # total space of a degree -4 line bundle over P(2,1), fiber block first
    whole = free_fan([(1, 0), (1, 1), (2, -2)], [(0, 1), (0, 2)])
    part1 = a_line_fan(1)
    part2 = wps_fan((2, 1))
    assert find_global_split(whole, part1, part2) is None
    local = find_local_splits(whole, part1, part2)
    assert local is not None
    assert [m.rows for m in local] == [((1,),), ((-1,),)]
    assert check_split(whole, part1, part2, mode="local")
    assert not check_split(whole, part1, part2, mode="global")
    with pytest.raises(ValueError):
        check_split(whole, part1, part2, matrices=local[:1], mode="local")


def test_check_split_not_even_local():
    # degree -3 bundle over P(2,1): the stacky ray needs a half-integer block
    whole = free_fan([(1, 0), (1, 1), (1, -2)], [(0, 1), (0, 2)])
    part1 = a_line_fan(1)
    part2 = wps_fan((2, 1))
    assert find_local_splits(whole, part1, part2) is None
    assert not check_split(whole, part1, part2, mode="local")


def test_check_split_against_point():
    for fan in (wps_fan((1, 1)), hirzebruch_fan(2, 3, 1)):
        assert check_split(fan, fan, point_fan())
        assert find_global_split(fan, fan, point_fan()) is not None
        # point as the first factor: the certificate has no rows
        assert find_global_split(fan, point_fan(), fan) == IntMatrix(())
        assert check_split(fan, point_fan(), fan)
        assert check_split(fan, point_fan(), fan, matrices=[], mode="global")
        assert not check_split(fan, point_fan(), fan,
                               matrices=[[0] * fan.lattice.free_rank])
        assert check_split(fan, point_fan(), fan, mode="local",
                           matrices=[[] for _ in fan.max_cones])
        assert check_split(fan, point_fan(), fan, mode="local",
                           matrices=find_local_splits(fan, point_fan(), fan))


def test_check_split_dimension_errors():
    whole = free_fan([(1, 0), (2, 2)], [(0, 1)])
    with pytest.raises(ValueError):
        check_split(whole, a_line_fan(1), wps_fan((1, 1)))
    with pytest.raises(ValueError):
        check_split(whole, a_line_fan(1), point_fan())


def test_projective_bundle_zero_divisors_splits():
    base = hirzebruch_fan(2, 3, 1)
    r = 2
    fan = projective_bundle(base, tuple((0,) * base.n_rays for _ in range(r + 1)))
    # fiber presented with the anti-diagonal ray first, as the bundle lays it out
    rays = [(-1,) * r] + [tuple(1 if i == k else 0 for i in range(r)) for k in range(r)]
    cones = [tuple(j for j in range(r + 1) if j != i) for i in range(r + 1)]
    fiber = free_fan(rays, cones)
    assert check_split(fan, base, fiber)
    found = find_global_split(fan, base, fiber)
    assert found is not None and all(x == 0 for row in found.rows for x in row)


# ----------------------------------------------------------- data plumbing


def test_fan_validation_rejects_bad_cones():
    with pytest.raises(ValueError):
        free_fan([(1, 0), (2, 0)], [(0, 1)])  # parallel rays, not simplicial
    with pytest.raises(ValueError):
        free_fan([(1, 0)], [(0, 5)])  # index out of range
    with pytest.raises(ValueError):
        free_fan([(1, 0)], [(0, 0)])  # repeated ray
    with pytest.raises(ValueError):
        StackyFanData(AbelianGroupStructure(2, ()), (RayImage((1,)),), ())


def test_torsion_residues_are_reduced():
    fan = StackyFanData(
        AbelianGroupStructure(1, (3,)),
        (RayImage((1,), (7,)), RayImage((-1,), (-1,))),
        ((0,), (1,)),
    )
    assert [r.torsion for r in fan.rays] == [(1,), (2,)]


def test_fan_refuses_non_integral_cone_indices():
    group, rays = AbelianGroupStructure(1), (RayImage((1,)), RayImage((-1,)))
    for cones in (((0.5,), (1,)), (("0",), (1,))):
        with pytest.raises(ValueError, match="cone indices must be integers"):
            StackyFanData(group, rays, cones)
    assert StackyFanData(group, rays, ((0.0,), (1,))).max_cones == ((0,), (1,))


def test_fan_json_refuses_non_integral_input():
    doc = hirzebruch_fan(2, 3, 1).to_json()
    cone_half, cone_str, rank_half, ray_half = (copy.deepcopy(doc)
                                                for _ in range(4))
    cone_half["cones"][0][0] = 0.5
    cone_str["cones"][0][0] = "0"
    rank_half["lattice"]["rank"] = 1.5
    ray_half["rays"][0]["free"][0] = 1.5
    for bad, what in ((cone_half, "cone indices"), (cone_str, "cone indices"),
                      (rank_half, "rank"), (ray_half, "ray coordinates")):
        with pytest.raises(ValueError, match=what + " must be"):
            StackyFanData.from_json(bad)


def test_fan_json_round_trip():
    for fan in (wps_fan((1, 2, 4, 8)), wps_gerbe_fan((2, 4)), hirzebruch_fan(2, 3, 1)):
        assert StackyFanData.from_json(fan.to_json()) == fan
    doc = hirzebruch_fan(1, 2, 0).to_json()
    assert doc["lattice"] == {"rank": 2, "torsion": []}
    assert doc["rays"][0] == {"free": ["2", "0"], "torsion": []}
    assert doc["cones"][0] == [0, 1]


def test_fans_equal_up_to_ray_order():
    fan = hirzebruch_fan(2, 3, 1)
    shuffled = StackyFanData(
        fan.lattice,
        (fan.rays[2], fan.rays[0], fan.rays[3], fan.rays[1]),
        ((1, 3), (0, 3), (0, 2), (1, 2)),
    )
    assert fans_equal_up_to_ray_order(fan, shuffled)
    other = hirzebruch_fan(2, 3, -1)
    assert not fans_equal_up_to_ray_order(fan, other)
