"""Pinned csets, r0, lambda and closed windows over grids of inputs.

Each digest is the sha256 (first 16 hex digits) of the ``to_json()`` forms of
every window one engine gives on one surface: six classes, several depths
below the base exponent f, each from the engine's entry point, which
enumerates over the box its ``ENGINES`` row derives from the window, and
from the row's ``window`` at every cap of ``CAPS`` below that box.  The
derived-box checks in ``test_genfun`` rerun the same loops at a larger
box, so a loop limit that drops a term in the window shows up only
against these recorded values; the caps check that ``counts`` still caps
every index.  The closed engine, which covers only the (1,2;0) surface,
has one digest over its four classes, a run of cutoffs and a few caps.
Four more checks need no recorded values: lambda builds only stable data
on its grid (and raises on a datum its per-datum checks reject), its loop
that steps through every l4 (``reference_lambda``) finds no datum below
the derived l4 start or past the derived l2 end, that loop's data at
r = 0 are their own mirror image under the swap of l2 and l4, and lambda
agrees with csets (and r0 where r = 0) on the csets grid.
"""

import hashlib
import json
import math
from collections import Counter

import pytest

import reference_lambda
from orbifold import genfun
from orbifold.exact import HalfExpLaurent
from orbifold.geometry import derive_params
from orbifold.sheafdata import f4_exponent, f_exponent

CLASSES6 = ((0, 0), (1, 0), (0, 1), (1, 1), (2, -1), (-3, 2))
DEPTHS = {"csets": (0, 1, 3, 7, 12, 20), "r0": (0, 1, 3, 7, 12, 20),
          "lambda": (0, 1, 2, 3, 4)}
CAPS = {"csets": (5, 17), "r0": (5, 17), "lambda": (7,)}

# csets: coprime a <= 5, b <= 7, 0 <= r <= 4; r0 where r = 0;
# lambda: coprime a <= 3, b <= 5, 0 <= r <= 3
SURFACES = {
    "csets": [(a, b, r) for a in range(1, 6) for b in range(1, 8)
              if math.gcd(a, b) == 1 for r in range(5)],
    "r0": [(a, b, 0) for a in range(1, 6) for b in range(1, 8)
           if math.gcd(a, b) == 1],
    "lambda": [(a, b, r) for a in range(1, 4) for b in range(1, 6)
               if math.gcd(a, b) == 1 for r in range(4)],
}


def surface_digest(engine, abr):
    pr, row = derive_params(*abr), genfun.ENGINES[engine]
    h = hashlib.sha256()
    for cls in CLASSES6:
        for depth in DEPTHS[engine]:
            lo2 = 2 * (math.floor(f_exponent(pr, *cls)) - depth)
            box = row.box(pr, *cls, lo2)
            windows = [row.run(pr, cls, lo2)]
            windows += [row.window(pr, *cls, lo2, cap)
                        for cap in CAPS[engine] if cap < box]
            for window in windows:
                h.update(json.dumps(window.to_json(), sort_keys=True).encode())
    return h.hexdigest()[:16]


# recorded from the engines as they were before the window-bounded loops
PINNED = {
    "csets": {
        (1, 1, 0): "663ec16f307f770f", (1, 1, 1): "ba34139dd3a58ee5",
        (1, 1, 2): "a802fccf5c396687", (1, 1, 3): "b6f1338f5724f8e2",
        (1, 1, 4): "13391f8e42547d93", (1, 2, 0): "97dd8ed39b6e7c8d",
        (1, 2, 1): "f4dbb425a17b869a", (1, 2, 2): "da7ac84a613552e2",
        (1, 2, 3): "dcf896c1551d8155", (1, 2, 4): "d250d5338298fc9e",
        (1, 3, 0): "c505f7b661548091", (1, 3, 1): "6665337bc99976a7",
        (1, 3, 2): "99ebf0b08daa5bc5", (1, 3, 3): "9d35f399bf075d1f",
        (1, 3, 4): "42087e7811cdfbaf", (1, 4, 0): "b4882cf71de24957",
        (1, 4, 1): "d07751328e9ff0e9", (1, 4, 2): "a012dc012539ff33",
        (1, 4, 3): "5f2525b843acaa85", (1, 4, 4): "c5bd0479b36ab77f",
        (1, 5, 0): "0adfc9a436ee440f", (1, 5, 1): "2b27319f77c8bf43",
        (1, 5, 2): "db670e45d0129f42", (1, 5, 3): "463105404dd5bce2",
        (1, 5, 4): "560b97bf05ba634e", (1, 6, 0): "3dffd9e7bfbb010c",
        (1, 6, 1): "a27967d9fdce6ffa", (1, 6, 2): "acf8f40215266c08",
        (1, 6, 3): "d2371ac4ae75c5f5", (1, 6, 4): "429941e4e42fd189",
        (1, 7, 0): "f7236de581c8c7cf", (1, 7, 1): "a4bd73b455e495b4",
        (1, 7, 2): "684328318059207d", (1, 7, 3): "647cd77dbc82f310",
        (1, 7, 4): "f551de256fb21648", (2, 1, 0): "97dd8ed39b6e7c8d",
        (2, 1, 1): "4a8d0f4e0e7be5c0", (2, 1, 2): "dd7105b70822456a",
        (2, 1, 3): "61727fb90c0697c8", (2, 1, 4): "9218654be4c09156",
        (2, 3, 0): "4d521d6f84a09350", (2, 3, 1): "dd20f799fcf040b7",
        (2, 3, 2): "f77ea50b50d2fdc9", (2, 3, 3): "ee0aa56b6f797ab4",
        (2, 3, 4): "7dbca06d5ba19d83", (2, 5, 0): "e9bf0994ce74cb48",
        (2, 5, 1): "ecc41f059e04b497", (2, 5, 2): "19520ada4fc61d57",
        (2, 5, 3): "fcef0ee326edb666", (2, 5, 4): "f3a181a82adc3230",
        (2, 7, 0): "740271c24f9d9605", (2, 7, 1): "0a6f56f0913e02ba",
        (2, 7, 2): "cb24fddc122078c5", (2, 7, 3): "f968031ed213b27c",
        (2, 7, 4): "b36d8444847263a7", (3, 1, 0): "c505f7b661548091",
        (3, 1, 1): "81052666dc38b192", (3, 1, 2): "a14b3ba8701c067f",
        (3, 1, 3): "fa51fdb45ab26efe", (3, 1, 4): "2ab449b32d15aa4d",
        (3, 2, 0): "4d521d6f84a09350", (3, 2, 1): "98923e097359c5e9",
        (3, 2, 2): "1b9028c4baa742cf", (3, 2, 3): "987c7229dc16d167",
        (3, 2, 4): "267738d958dfccb8", (3, 4, 0): "77e9af37c44e4835",
        (3, 4, 1): "4cd7f92fa6d29980", (3, 4, 2): "cab4b68058950326",
        (3, 4, 3): "6944912a199217d5", (3, 4, 4): "80682829659a24ce",
        (3, 5, 0): "7d2cc6252b4fb7ba", (3, 5, 1): "03fd78da8496165e",
        (3, 5, 2): "c64324a55a1082e3", (3, 5, 3): "9de66d1e357df984",
        (3, 5, 4): "9b76959f24992815", (3, 7, 0): "f5c4af14db87fbc1",
        (3, 7, 1): "5855b26270ee6242", (3, 7, 2): "578aaf36bede12c8",
        (3, 7, 3): "0efe95253f99229b", (3, 7, 4): "169c4dfd732480b6",
        (4, 1, 0): "b4882cf71de24957", (4, 1, 1): "e5278faeb464c8b1",
        (4, 1, 2): "8f53f2b50d95e261", (4, 1, 3): "74df6511ef4a738d",
        (4, 1, 4): "2e949638d9aa9424", (4, 3, 0): "77e9af37c44e4835",
        (4, 3, 1): "4cd7f92fa6d29980", (4, 3, 2): "cab4b68058950326",
        (4, 3, 3): "6944912a199217d5", (4, 3, 4): "80682829659a24ce",
        (4, 5, 0): "b2389dba2709f4e4", (4, 5, 1): "7704a4f75ec29ab3",
        (4, 5, 2): "ff620de135fca095", (4, 5, 3): "0b27256e959e7053",
        (4, 5, 4): "442290d35fe5a321", (4, 7, 0): "c4b7e60b8f1f0e43",
        (4, 7, 1): "f80b4bb1cd60a6f3", (4, 7, 2): "9e02c4878b7052c1",
        (4, 7, 3): "038b86282da6ef83", (4, 7, 4): "e1c5818642564df3",
        (5, 1, 0): "0adfc9a436ee440f", (5, 1, 1): "e1deb8b4a767ee09",
        (5, 1, 2): "61e4dd7fdbeaaf13", (5, 1, 3): "05a0a38c2427e4bc",
        (5, 1, 4): "8b21441cbbc7c619", (5, 2, 0): "e9bf0994ce74cb48",
        (5, 2, 1): "22d16078b860862d", (5, 2, 2): "19520ada4fc61d57",
        (5, 2, 3): "e7305c024180b024", (5, 2, 4): "1705e79787a48f3d",
        (5, 3, 0): "7d2cc6252b4fb7ba", (5, 3, 1): "03fd78da8496165e",
        (5, 3, 2): "b2ef32bae28cc7dc", (5, 3, 3): "9de66d1e357df984",
        (5, 3, 4): "0b1e78f37ef729eb", (5, 4, 0): "b2389dba2709f4e4",
        (5, 4, 1): "7704a4f75ec29ab3", (5, 4, 2): "ff620de135fca095",
        (5, 4, 3): "c41590e0281c1c6f", (5, 4, 4): "239d6dce150a278e",
        (5, 6, 0): "615e23ad435fee8f", (5, 6, 1): "ac4aba14a1036464",
        (5, 6, 2): "97c4a3f6478b7496", (5, 6, 3): "c90a1078341470e9",
        (5, 6, 4): "5416654ca180fd34", (5, 7, 0): "c027d78f5afcf437",
        (5, 7, 1): "0d96cdddaf31fecb", (5, 7, 2): "b998e2f9553ea79c",
        (5, 7, 3): "fe0bc06ca6338ec9", (5, 7, 4): "e188393b9446b8b9",
    },
    "lambda": {
        (1, 1, 0): "263c0bdd9e880838", (1, 1, 1): "22d59496d9defd6d",
        (1, 1, 2): "279f3f213f48606b", (1, 1, 3): "524f5eb919c236aa",
        (1, 2, 0): "132215a02f0e5c87", (1, 2, 1): "0b9db168c121a31d",
        (1, 2, 2): "afe2e6ba98114114", (1, 2, 3): "566c1123e3cffb25",
        (1, 3, 0): "02454a28c1efc989", (1, 3, 1): "f60c73d499944ede",
        (1, 3, 2): "f233a9e578d998e6", (1, 3, 3): "681908df6ecd6064",
        (1, 4, 0): "68b5e877c8d76663", (1, 4, 1): "6a8d0dc1b2a96049",
        (1, 4, 2): "4d2e1a11bea68c00", (1, 4, 3): "d075a4b7031468a0",
        (1, 5, 0): "d5a6caa08419149d", (1, 5, 1): "0205d6c3d0ae6af4",
        (1, 5, 2): "4cbbb265cec806c2", (1, 5, 3): "2c4bfe45ddfdf514",
        (2, 1, 0): "132215a02f0e5c87", (2, 1, 1): "0b9db168c121a31d",
        (2, 1, 2): "afe2e6ba98114114", (2, 1, 3): "566c1123e3cffb25",
        (2, 3, 0): "2bb281fbe6bead6a", (2, 3, 1): "43abe2b3ef46bb3e",
        (2, 3, 2): "069cd0495be906e7", (2, 3, 3): "0f66d1790659aac9",
        (2, 5, 0): "82c53b9cf8c0e24b", (2, 5, 1): "3844200597afc36f",
        (2, 5, 2): "48e78957ce58af6f", (2, 5, 3): "964773eee1cc92f7",
        (3, 1, 0): "02454a28c1efc989", (3, 1, 1): "f60c73d499944ede",
        (3, 1, 2): "f233a9e578d998e6", (3, 1, 3): "681908df6ecd6064",
        (3, 2, 0): "2bb281fbe6bead6a", (3, 2, 1): "43abe2b3ef46bb3e",
        (3, 2, 2): "069cd0495be906e7", (3, 2, 3): "0f66d1790659aac9",
        (3, 4, 0): "6943c5f7445fb6dc", (3, 4, 1): "a485152769d6f04c",
        (3, 4, 2): "ec39cc00c78a7cec", (3, 4, 3): "808e9a7dcd21ed29",
        (3, 5, 0): "74a052ea0007da56", (3, 5, 1): "f12004368ac1ca02",
        (3, 5, 2): "934febd560b1c6b3", (3, 5, 3): "a495ac4181137d09",
    },
    "r0": {
        (1, 1, 0): "663ec16f307f770f", (1, 2, 0): "97dd8ed39b6e7c8d",
        (1, 3, 0): "c505f7b661548091", (1, 4, 0): "b4882cf71de24957",
        (1, 5, 0): "0adfc9a436ee440f", (1, 6, 0): "3dffd9e7bfbb010c",
        (1, 7, 0): "f7236de581c8c7cf", (2, 1, 0): "97dd8ed39b6e7c8d",
        (2, 3, 0): "4d521d6f84a09350", (2, 5, 0): "e9bf0994ce74cb48",
        (2, 7, 0): "740271c24f9d9605", (3, 1, 0): "c505f7b661548091",
        (3, 2, 0): "4d521d6f84a09350", (3, 4, 0): "77e9af37c44e4835",
        (3, 5, 0): "7d2cc6252b4fb7ba", (3, 7, 0): "f5c4af14db87fbc1",
        (4, 1, 0): "b4882cf71de24957", (4, 3, 0): "77e9af37c44e4835",
        (4, 5, 0): "b2389dba2709f4e4", (4, 7, 0): "c4b7e60b8f1f0e43",
        (5, 1, 0): "0adfc9a436ee440f", (5, 2, 0): "e9bf0994ce74cb48",
        (5, 3, 0): "7d2cc6252b4fb7ba", (5, 4, 0): "b2389dba2709f4e4",
        (5, 6, 0): "615e23ad435fee8f", (5, 7, 0): "c027d78f5afcf437",
    },
}


@pytest.mark.parametrize("engine", sorted(SURFACES))
def test_engine_windows_match_pins(engine):
    got = {abr: surface_digest(engine, abr) for abr in SURFACES[engine]}
    bad = [abr for abr in SURFACES[engine] if got[abr] != PINNED[engine][abr]]
    assert not bad, bad


def test_lambda_builds_only_stable_data(monkeypatch):
    # the lambda loops walk the stability polygon, so every datum they build
    # passes the stability kernel ``sheafdata._stable``; the count is that
    # of the stable data the walk visits, at r = 0 about half of them (one
    # stratum of each mirror pair, l4 >= l2 on the others)
    verdicts = []
    check = genfun._stable

    def counted(lam, parts, params):
        verdicts.append(check(lam, parts, params))
        return verdicts[-1]

    monkeypatch.setattr(genfun, "_stable", counted)
    for abr in SURFACES["lambda"]:
        surface_digest("lambda", abr)
    assert len(verdicts) == 6043
    assert all(verdicts)


def test_lambda_raises_on_an_unstable_datum(monkeypatch):
    # a datum that the stability kernel rejects is an error in the walk, not
    # a datum to drop
    verdicts = []
    check = genfun._stable

    def second_rejected(lam, parts, params):
        verdicts.append(len(verdicts) != 1 and check(lam, parts, params))
        return verdicts[-1]

    monkeypatch.setattr(genfun, "_stable", second_rejected)
    with pytest.raises(ArithmeticError, match="unstable datum"):
        genfun.rank2_vb_lambda(derive_params(1, 2, 0), (0, 0), -8)
    assert verdicts == [True, False]


def test_lambda_raises_on_a_datum_below_the_window(monkeypatch):
    # the loops bound each datum's cost by the window's depth, so a chi
    # below the window is an error in the walk
    kernel = genfun._c1_chi4

    def sunk(b1, b2, lam, stratum, params):
        m, n, chi4 = kernel(b1, b2, lam, stratum, params)
        return m, n, chi4 - 400

    monkeypatch.setattr(genfun, "_c1_chi4", sunk)
    with pytest.raises(ArithmeticError, match="below the window"):
        genfun.rank2_vb_lambda(derive_params(1, 2, 0), (0, 0), -8)


def test_lambda_raises_on_a_datum_off_its_zero_pattern(monkeypatch):
    # an l4 loop that starts at 0 on a stratum whose jumps are all positive
    # builds data that ``STRATA`` does not put on that stratum; on a twisted
    # surface, where no l4 >= l2 clamp hides the start
    monkeypatch.setattr(genfun, "_lambda_l4_start", lambda *args: 0)
    with pytest.raises(ArithmeticError, match="zero pattern"):
        genfun.rank2_vb_lambda(derive_params(2, 3, 1), (0, 0), -8)


def l2_end(corner, pq, r, span, cap):
    """The l2 at which lambda's l2 loop ends on a stratum whose l4 does not
    vanish: the first whose l4 range, from the l4 start to the cap, is
    empty."""
    l2 = 1
    while genfun._lambda_l4_start(corner, l2, pq, r, span) <= min(
            cap, span // 2 - l2):
        l2 += 1
    return l2


def oracle_windows(surfaces, deep):
    """(params, class, lo2, cap, the oracle's data) on the lambda pin grid's
    surfaces and to q^-32 on those in deep, at the box and every cap below
    it."""
    grid = [(abr, cls, 2 * (math.floor(f_exponent(derive_params(*abr), *cls))
                            - depth))
            for abr in surfaces for cls in CLASSES6
            for depth in DEPTHS["lambda"]]
    grid += [(abr, cls, -64) for abr in deep for cls in CLASSES6]
    row = genfun.ENGINES["lambda"]
    for abr, cls, lo2 in grid:
        pr = derive_params(*abr)
        box = row.box(pr, *cls, lo2)
        for cap in (box,) + tuple(c for c in CAPS["lambda"] if c < box):
            yield pr, cls, lo2, cap, reference_lambda.stable_data(
                pr, *cls, lo2, cap)


def miscounted(pr, cls, lo2, cap, data):
    """Whether lambda's window at the cap differs from the oracle's data."""
    acc = Counter()
    for _, weight, _, e2 in data:
        acc[e2] += weight
    return (HalfExpLaurent(lo2, acc)
            != genfun.ENGINES["lambda"].window(pr, *cls, lo2, cap))


def test_lambda_finds_no_datum_before_the_l4_start():
    """On the pin grid, and to q^-32 on (1,2;0) and (2,3;1), the loop that
    runs l2 to the cap and l4 step by step finds the data lambda counts,
    each at or past its l4 start and before its stratum's l2 end."""
    early, late, bad, found = [], [], [], 0
    for pr, cls, lo2, cap, data in oracle_windows(SURFACES["lambda"],
                                                  ((1, 2, 0), (2, 3, 1))):
        pq, span = pr.p * pr.q, f4_exponent(pr.C, pr.r, *cls) - 2 * lo2
        found += len(data)
        for incidence, _, (l1, l2, l3, l4), _ in data:
            corner = genfun.STRATA[incidence].corner
            where = (pr.a, pr.b, pr.r, cls, lo2, incidence, l2, l4)
            if l4 and l4 < genfun._lambda_l4_start(corner, l2, pq, pr.r, span):
                early.append(where)
            if l4 and l2 >= l2_end(corner, pq, pr.r, span, cap):
                late.append(where)
        if miscounted(pr, cls, lo2, cap, data):
            bad.append((pr.a, pr.b, pr.r, cls, lo2, cap))
    assert found > 6586  # the pin grid's data, and the deeper windows'
    assert not early, early[:5]
    assert not late, late[:5]
    assert not bad, bad[:5]


# corners 2 and 4 swapped, written out here rather than read from genfun
SWAP24 = {1: 1, 2: 4, 3: 3, 4: 2}


def mirrored(incidence, weight, lam, e2):
    l1, l2, l3, l4 = lam
    return ((incidence[0],) + tuple(sorted(SWAP24[k] for k in incidence[1:])),
            weight, (l1, l4, l3, l2), e2)


def test_lambda_mirror_holds_at_r_0():
    """At r = 0, on the pin grid and to q^-32 on (1,2;0) and (3,5;0), the
    oracle's data are their own mirror image: swapping l2 with l4 and
    corner 2 with corner 4 maps each stratum's data onto its mirror's at
    the same exponent and weight, and on a stratum that is its own mirror
    the data with l4 < l2 onto those with l4 > l2.  lambda, which walks one
    side of the mirror and counts it twice, equals the oracle there, at the
    box and at every cap below it."""
    asymmetric, bad, kinds = [], [], Counter()
    untwisted = [abr for abr in SURFACES["lambda"] if abr[2] == 0]
    for pr, cls, lo2, cap, data in oracle_windows(untwisted,
                                                  ((1, 2, 0), (3, 5, 0))):
        if Counter(mirrored(*datum) for datum in data) != Counter(data):
            asymmetric.append((pr.a, pr.b, cls, lo2, cap))
        for datum in data:
            l2, l4 = datum[2][1], datum[2][3]
            kinds["pair" if mirrored(*datum)[0] != datum[0]
                  else "l4 = l2" if l4 == l2 else "off the diagonal"] += 1
        if miscounted(pr, cls, lo2, cap, data):
            bad.append((pr.a, pr.b, cls, lo2, cap))
    assert not asymmetric, asymmetric[:5]
    assert not bad, bad[:5]
    assert min(kinds.values()) > 100 and len(kinds) == 3, kinds


# lambda against csets, and r0 where r = 0, on the csets surfaces: one window
# per class, AGREE_DEPTH below f, which holds every shallower window
AGREE_DEPTH = 14


def test_lambda_agrees_with_csets_and_r0():
    bad = []
    for abr in SURFACES["csets"]:
        pr = derive_params(*abr)
        for cls in CLASSES6:
            lo2 = 2 * (math.floor(f_exponent(pr, *cls)) - AGREE_DEPTH)
            want = genfun.rank2_vb_lambda(pr, cls, lo2).to_json()
            bad += [(engine, abr, cls) for engine in ("csets", "r0")
                    if genfun.ENGINES[engine].refusal(pr, *cls) is None
                    and genfun.run_engine(engine, pr, cls, lo2).to_json() != want]
    assert not bad, bad


# recorded from the closed engine before it moved to a list accumulator
CLOSED_PIN = "719a41af336e7693"


def test_closed_windows_match_pin():
    h = hashlib.sha256()
    for cls in ((0, 0), (1, 0), (0, 1), (1, 1)):
        for lo2 in list(range(-120, 17)) + [-400, -401]:
            windows = [genfun.rank2_vb_closed_p12(cls, lo2)]
            windows += [genfun.ENGINES["closed"].window(None, *cls, lo2, cap)
                        for cap in (1, 2, 5)]
            for window in windows:
                h.update(json.dumps(window.to_json(), sort_keys=True).encode())
    assert h.hexdigest()[:16] == CLOSED_PIN
