"""The value-type contract of the package's sixteen immutable classes.

Each case gives a class, its fields by name and in order (already in
normal form), a second value of the class, and where the class has them,
loose arguments that normalize to the same fields, a default construction
and a refused one.  One parametrized test checks construction, validation,
equality, the hash, the exact repr, immutability, ``copy.deepcopy`` and
``pickle`` on every case, and another that the cases name every value
type the package defines.
"""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from typing import NamedTuple, Optional

import pytest

from orbifold.exact import Cyclotomic, HalfExpLaurent, RatPoly
from orbifold.genfun import CrosscheckReport
from orbifold.geometry import (
    ChartData,
    HirzebruchParams,
    InertiaComponent,
    PicClass,
)
from orbifold.intlattice import AbelianGroupStructure, IntMatrix, SnfResult
from orbifold.sheafdata import EquivLineBundle, PartitionQuadruple, Rank2Datum
from orbifold.stackyfan import RayImage, StackyFanData
from orbifold.verify import CriterionResult


class Case(NamedTuple):
    cls: type
    fields: dict
    text: str  # the exact repr
    other: tuple  # positional arguments of a different value
    loose: Optional[tuple] = None  # arguments that normalize to ``fields``
    defaults: Optional[tuple] = None  # (short arguments, their full fields)
    refused: Optional[tuple] = None  # (arguments, exception, message)


Z1 = AbelianGroupStructure(1)
LINE_RAYS = (RayImage((1,)), RayImage((-1,)))
WINDOW = HalfExpLaurent(-4, {0: 1, -4: 5})

CASES = (
    Case(IntMatrix, dict(rows=((1, 2), (3, 4))),
         "IntMatrix(rows=((1, 2), (3, 4)))", (((1, 2), (3, 5)),),
         refused=((((1, 2), (3,)),), ValueError, "ragged rows")),
    Case(SnfResult, dict(U=IntMatrix(((1,),)), D=IntMatrix(((2,),)),
                         V=IntMatrix(((-1,),))),
         "SnfResult(U=IntMatrix(rows=((1,),)), D=IntMatrix(rows=((2,),)), "
         "V=IntMatrix(rows=((-1,),)))",
         (IntMatrix(((1,),)), IntMatrix(((2,),)), IntMatrix(((1,),)))),
    Case(AbelianGroupStructure, dict(free_rank=1, torsion=(2, 4)),
         "AbelianGroupStructure(free_rank=1, torsion=(2, 4))", (1, (2,)),
         loose=(1.0, [2, 4.0]), defaults=((3,), (3, ())),
         refused=((0, (2, 3)), ValueError, "divisibility chain")),
    Case(RayImage, dict(free=(1, -2), torsion=(1,)),
         "RayImage(free=(1, -2), torsion=(1,))", ((1, -2), (0,)),
         loose=([1.0, -2], [1]), defaults=(((1, -2),), ((1, -2), ())),
         refused=(((1.5, 0),), ValueError, "ray coordinates must be integers")),
    Case(StackyFanData, dict(lattice=Z1, rays=LINE_RAYS,
                             max_cones=((0,), (1,))),
         "StackyFanData(lattice=AbelianGroupStructure(free_rank=1, "
         "torsion=()), rays=(RayImage(free=(1,), torsion=()), "
         "RayImage(free=(-1,), torsion=())), max_cones=((0,), (1,)))",
         (Z1, LINE_RAYS, ((0,),)),
         loose=(Z1, [((1,),), ((-1,),)], [[0], [1]]),
         refused=((Z1, LINE_RAYS, ((0,), (2,))), ValueError,
                  "out of range")),
    Case(Cyclotomic, dict(order=3, coeffs=(Fraction(1), Fraction(2))),
         "Cyclotomic(order=3, coeffs=[Fraction(1, 1), Fraction(2, 1)])",
         (3, (Fraction(1), Fraction(0))),
         refused=((3, (Fraction(1),)), ValueError, "wrong length")),
    Case(RatPoly, dict(coeffs=(Fraction(1), Fraction(1, 2))),
         "RatPoly(coeffs=(Fraction(1, 1), Fraction(1, 2)))",
         ((Fraction(1),),)),
    Case(PicClass, dict(m=2, n=-3), "PicClass(m=2, n=-3)", (-3, 2),
         loose=(2.0, -3), refused=((0.5, 1), ValueError, "two integers")),
    Case(HirzebruchParams,
         dict(a=2, b=3, r=1, s=2, t=-1, p=1, q=1, u=1, v1=1, v2=1, C=10),
         "HirzebruchParams(a=2, b=3, r=1, s=2, t=-1, p=1, q=1, u=1, v1=1, "
         "v2=1, C=10)", (2, 3, 1, 2, -1, 1, 1, 1, 1, 1, 11)),
    Case(ChartData, dict(index=1, coordinates=("x", "y"), group_order=3,
                         action_exponents=(2, 2),
                         t_weights=((2, 0), (0, 1)),
                         overlap_t_weights=((0, 1), (-1, 0))),
         "ChartData(index=1, coordinates=('x', 'y'), group_order=3, "
         "action_exponents=(2, 2), t_weights=((2, 0), (0, 1)), "
         "overlap_t_weights=((0, 1), (-1, 0)))",
         (2, ("x", "y"), 3, (2, 2), ((2, 0), (0, 1)), ((0, 1), (-1, 0)))),
    Case(InertiaComponent,
         dict(source="rho1", stabilizer_params=(1, 2), dimension=1),
         "InertiaComponent(source='rho1', stabilizer_params=(1, 2), "
         "dimension=1)", ("rho3", (1, 2), 1)),
    Case(EquivLineBundle, dict(b1=1, b2=0, b3=-2, b4=3),
         "EquivLineBundle(b1=1, b2=0, b3=-2, b4=3)", (1, 0, -2, 4),
         loose=(1.0, 0, -2, 3),
         refused=((1.5, 0, 0, 0), ValueError, "gradings must be integers")),
    Case(Rank2Datum, dict(b1=0, b2=-1, lam=(1, 2, 3, 4),
                          incidence=("type3", 1, 2)),
         "Rank2Datum(b1=0, b2=-1, lam=(1, 2, 3, 4), "
         "incidence=('type3', 1, 2))", (0, -1, (1, 2, 3, 4)),
         loose=(0.0, -1, [1, 2, 3, 4], ["type3", 2, 1]),
         defaults=((0, -1, (1, 2, 3, 4)), (0, -1, (1, 2, 3, 4), ("type1",))),
         refused=((0, 0, (1, 0, 1, 1)), ValueError,
                  "type1 datum needs all jumps positive")),
    Case(PartitionQuadruple, dict(p1=(2, 1), p2=(), p3=(3,), p4=(1, 1)),
         "PartitionQuadruple(p1=(2, 1), p2=(), p3=(3,), p4=(1, 1))",
         ((2, 1), (1,), (3,), (1, 1)),
         loose=([2, 1], [], [3.0], [1, 1]),
         defaults=(((2, 1),), ((2, 1), (), (), ())),
         refused=(((1, 2),), ValueError, "weakly decreasing")),
    Case(CrosscheckReport,
         dict(a=1, b=2, r=0, m=0, n=0, min2exp=-4,
              windows=(("csets", WINDOW),), agree=True,
              first_disagreement2=None),
         "CrosscheckReport(a=1, b=2, r=0, m=0, n=0, min2exp=-4, "
         "windows=(('csets', HalfExpLaurent(min2exp=-4, "
         "terms={0: 1, -4: 5})),), agree=True, first_disagreement2=None)",
         (1, 2, 0, 0, 0, -4, (("csets", WINDOW),), False, 0)),
    Case(CriterionResult,
         dict(index=3, name="euler", passed=True, detail="ok"),
         "CriterionResult(index=3, name='euler', passed=True, detail='ok')",
         (3, "euler", False, "ok")),
)


@pytest.mark.parametrize("case", CASES, ids=[c.cls.__name__ for c in CASES])
def test_value_type_contract(case):
    cls, fields = case.cls, tuple(case.fields.values())
    x = cls(*fields)
    assert cls(**case.fields) == x
    assert tuple(getattr(x, name) for name in case.fields) == fields
    if case.loose is not None:
        loose = cls(*case.loose)
        assert loose == x and repr(loose) == case.text  # 2 and 2.0 differ
    if case.defaults is not None:
        short, full = case.defaults
        assert cls(*short) == cls(*full)
    if case.refused is not None:
        args, exc, message = case.refused
        with pytest.raises(exc, match=message):
            cls(*args)

    other = cls(*case.other)
    assert x == cls(*fields) and not x != cls(*fields)
    assert x != other and not x == other
    assert x != fields and not x == fields  # never equal to a plain tuple
    try:
        expected = hash(fields)
    except TypeError:  # a field is unhashable, so the value is too
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == expected

    assert repr(x) == case.text
    name = next(iter(case.fields))
    with pytest.raises(AttributeError):
        setattr(x, name, getattr(other, name))
    with pytest.raises(AttributeError):
        delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert getattr(x, name) == case.fields[name]

    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(twin) is cls and twin == x and repr(twin) == case.text


def test_cases_cover_every_value_type():
    # the command line imports every module, so every value type exists
    import orbifold.cli
    from orbifold.intlattice import _Value
    assert sorted(c.cls.__name__ for c in CASES) == sorted(
        cls.__name__ for cls in _Value.__subclasses__())


def test_import_leaves_out_dataclasses_and_inspect():
    # the value types are plain classes: importing the command line (which
    # imports every module) loads neither module
    code = ("import sys, orbifold.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"
