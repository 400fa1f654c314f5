"""Tests for Smith normal form, integer kernels, and the weight-row solver."""

import math
import random

import pytest

from orbifold.intlattice import (
    AbelianGroupStructure,
    IntMatrix,
    cokernel_invariants,
    hermite_row_basis,
    integer_kernel,
    lattices_equal,
    smith_normal_form,
    solve_diophantine,
    solve_gcd_chain_row,
    solve_linear_system,
)


def random_matrix(rng, max_dim=6, max_entry=50):
    nr = rng.randrange(1, max_dim + 1)
    nc = rng.randrange(1, max_dim + 1)
    return IntMatrix.from_rows(
        [[rng.randrange(-max_entry, max_entry + 1) for _ in range(nc)] for _ in range(nr)]
    )


def check_snf_invariants(m):
    res = smith_normal_form(m)
    assert res.U * m * res.V == res.D
    assert abs(res.U.det()) == 1
    assert abs(res.V.det()) == 1
    for i in range(res.D.nrows):
        for j in range(res.D.ncols):
            if i != j:
                assert res.D[i, j] == 0
    diag = res.diagonal
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    return res


def test_snf_examples():
    res = check_snf_invariants(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert res.diagonal == (2, 4)
    res = check_snf_invariants(IntMatrix.from_rows([[1, 0], [0, 1]]))
    assert res.diagonal == (1, 1)
    res = check_snf_invariants(IntMatrix.zero(2, 2))
    assert res.diagonal == (0, 0)


def test_snf_random_invariants():
    rng = random.Random(421701)
    for _ in range(200):
        check_snf_invariants(random_matrix(rng))


def test_snf_handles_wide_and_tall():
    check_snf_invariants(IntMatrix.from_rows([[3, 0, 6, 9]]))
    check_snf_invariants(IntMatrix.from_rows([[2], [4], [6]]))


def test_integer_kernel_examples():
    assert integer_kernel(IntMatrix.from_rows([[2, 4]])) == ((2, -1),)
    assert integer_kernel(IntMatrix.identity(3)) == ()
    # 1x1 zero matrix: everything is in the kernel
    assert integer_kernel(IntMatrix.zero(1, 1)) == ((1,),)


def test_integer_kernel_random_properties():
    rng = random.Random(77103)
    for _ in range(120):
        m = random_matrix(rng, max_dim=5, max_entry=9)
        basis = integer_kernel(m)
        for v in basis:
            assert m.apply(v) == tuple(0 for _ in range(m.nrows))
        rank = smith_normal_form(m).rank
        assert len(basis) == m.ncols - rank
        # the kernel lattice does not change under left-unimodular moves
        rows = [list(r) for r in m.rows]
        if m.nrows >= 2:
            rows[0] = [a + 3 * b for a, b in zip(rows[0], rows[1])]
        stirred = IntMatrix.from_rows(rows)
        assert lattices_equal(basis, integer_kernel(stirred))


def test_hirzebruch_ray_matrix_kernel():
    # columns (b,s), (0,1), (-a,t), (0,-1); the kernel records the two
    # defining relations of the Picard group
    for a, b, r in [(2, 1, 2), (1, 2, 0), (2, 3, 1), (3, 5, -4)]:
        s = next(x for x in range(b) if (x * a - r) % b == 0)
        t = (r - s * a) // b
        m = IntMatrix.from_rows([[b, 0, -a, 0], [s, 1, t, -1]])
        assert lattices_equal(integer_kernel(m), [(a, 0, b, r), (0, 1, 0, 1)])


def test_cokernel_examples():
    # transpose of the P(1,2,4,8) fan matrix has free cokernel of rank 1
    m = IntMatrix.from_rows([[2, 1, 1, -1], [0, 2, 1, -1], [0, 0, 2, -1]]).transpose()
    assert cokernel_invariants(m) == AbelianGroupStructure(free_rank=1, torsion=())
    assert cokernel_invariants(IntMatrix.from_rows([[2]])) == AbelianGroupStructure(
        free_rank=0, torsion=(2,)
    )
    assert cokernel_invariants(IntMatrix.zero(1, 1)) == AbelianGroupStructure(
        free_rank=1, torsion=()
    )


def test_cokernel_divisibility_chain_enforced():
    with pytest.raises(ValueError):
        AbelianGroupStructure(free_rank=0, torsion=(4, 2))
    with pytest.raises(ValueError):
        AbelianGroupStructure(free_rank=0, torsion=(1,))


def test_solve_diophantine_canonical():
    assert solve_diophantine((1, 1), -1) == (0, -1)
    assert solve_diophantine((4, 6), 2) == (-2, 2) or sum(
        c * x for c, x in zip((4, 6), solve_diophantine((4, 6), 2))
    ) == 2
    with pytest.raises(ValueError):
        solve_diophantine((4, 6), 3)


def test_solve_diophantine_random():
    rng = random.Random(3344)
    for _ in range(200):
        n = rng.randrange(1, 6)
        coeffs = tuple(rng.randrange(1, 40) for _ in range(n))
        g = math.gcd(*coeffs) if n > 1 else coeffs[0]
        target = g * rng.randrange(-30, 31)
        sol = solve_diophantine(coeffs, target)
        assert sum(c * x for c, x in zip(coeffs, sol)) == target
        # determinism
        assert sol == solve_diophantine(coeffs, target)


def test_solve_gcd_chain_row_examples():
    assert solve_gcd_chain_row((1, 1, 1), 1) == (1, 0, -1)
    assert solve_gcd_chain_row((2, 3), 1) == (3, -2)
    row = solve_gcd_chain_row((1, 2, 4, 8), 1)
    lam2 = math.gcd(2, 4, 8)
    assert row[0] == lam2
    assert sum(b * w for b, w in zip(row, (1, 2, 4, 8))) == 0


def test_solve_gcd_chain_row_relations_random():
    rng = random.Random(90125)
    for _ in range(100):
        n = rng.randrange(1, 5)
        ws = tuple(rng.randrange(1, 30) for _ in range(n + 1))
        for i in range(1, n + 1):
            row = solve_gcd_chain_row(ws, i)
            assert len(row) == n + 1
            assert all(x == 0 for x in row[: i - 1])
            assert sum(b * w for b, w in zip(row, ws)) == 0
            lam = [0] * (n + 2)
            for j in range(n, -1, -1):
                lam[j] = math.gcd(ws[j], lam[j + 1])
            assert row[i - 1] == (ws[n] if i == n else lam[i]) // lam[i - 1]


def test_solve_linear_system_examples():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert solve_linear_system(m, (4, 9)) == (2, 3)
    assert solve_linear_system(m, (1, 0)) is None
    # underdetermined: any solution is fine as long as it checks out
    m = IntMatrix.from_rows([[1, 2, 3]])
    x = solve_linear_system(m, (7,))
    assert x is not None and m.apply(x) == (7,)
    # inconsistent overdetermined system
    m = IntMatrix.from_rows([[1], [1]])
    assert solve_linear_system(m, (0, 1)) is None


def test_solve_linear_system_random():
    rng = random.Random(77)
    for _ in range(150):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = IntMatrix.from_rows(
            [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
        )
        x_true = [rng.randrange(-5, 6) for _ in range(cols)]
        target = m.apply(x_true)
        x = solve_linear_system(m, target)
        assert x is not None
        assert m.apply(x) == target


def test_hermite_row_basis_canonical():
    a = [(2, 0, 1), (0, 1, 0)]
    b = [(2, 1, 1), (0, 1, 0), (2, 0, 1)]
    assert hermite_row_basis(a) == hermite_row_basis(b)
    assert lattices_equal(a, b)
    assert not lattices_equal(a, [(1, 0, 0)])


def test_matrix_det():
    assert IntMatrix.from_rows([[2, 1, 1], [0, 2, 1], [0, 0, 2]]).det() == 8
    assert IntMatrix.from_rows([[1, 2], [2, 4]]).det() == 0
    rng = random.Random(616)
    for _ in range(40):
        n = rng.randrange(1, 5)
        m = IntMatrix.from_rows(
            [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
        )
        # expansion by minors as the oracle
        def minor_det(rows):
            if not rows:
                return 1
            total = 0
            for j in range(len(rows)):
                sub = [r[:j] + r[j + 1 :] for r in rows[1:]]
                sign = -1 if j % 2 else 1
                total += sign * rows[0][j] * minor_det(sub)
            return total

        assert m.det() == minor_det([list(r) for r in m.rows])


def test_from_rows_refuses_non_integral_entries():
    with pytest.raises(ValueError, match="matrix entries must be integers"):
        IntMatrix.from_rows([[1.5, 2]])
    m = IntMatrix.from_rows([[2.0, 1]])
    assert m.rows == ((2, 1),) and type(m.rows[0][0]) is int


def test_gcd_chain_row_refuses_non_integral_weights():
    with pytest.raises(ValueError, match="weights must be integers"):
        solve_gcd_chain_row((1.5, 2), 1)
    assert solve_gcd_chain_row((2.0, 3), 1) == (3, -2)


def test_solve_diophantine_refuses_non_integral_input():
    with pytest.raises(ValueError, match="coefficients must be integers"):
        solve_diophantine((1.5, 1), 1)
    with pytest.raises(ValueError, match="target must be an integer"):
        solve_diophantine((2, 3), 0.5)
    assert solve_diophantine((2.0, 3), 1.0) == solve_diophantine((2, 3), 1)


def test_hermite_basis_refuses_non_integral_vectors():
    with pytest.raises(ValueError, match="lattice vectors must be integers"):
        hermite_row_basis([[1.5, 2], [0, 1]])
    with pytest.raises(ValueError, match="lattice vectors must be integers"):
        lattices_equal([[1.5, 2]], [[1, 2]])
    assert hermite_row_basis([[2.0, 0], [0, 1]]) == ((2, 0), (0, 1))


def test_hermite_basis_refuses_ragged_vectors():
    # a shorter or a longer vector than the first is refused, not cut short
    with pytest.raises(ValueError, match="of one length"):
        hermite_row_basis([[1], [2, 3]])
    with pytest.raises(ValueError, match="of one length"):
        lattices_equal([[1], [2, 3]], [[1]])
    with pytest.raises(ValueError, match="of one length"):
        hermite_row_basis([[1, 2], [3]])


def test_group_structure_refuses_non_integral_rank_and_factors():
    with pytest.raises(ValueError, match="rank must be an integer"):
        AbelianGroupStructure(1.5)
    with pytest.raises(ValueError, match="torsion factors must be integers"):
        AbelianGroupStructure(0, (2.5,))
    group = AbelianGroupStructure(1.0, (2.0, 4))
    assert group == AbelianGroupStructure(1, (2, 4))
    assert type(group.free_rank) is int and group.torsion == (2, 4)
