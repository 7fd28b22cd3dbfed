import hashlib
import json
from math import comb

import pytest

from derham import (InvalidInputError, family_for_mv, family_for_support,
                    mv_complex, mv_tensor_cech, parse_polynomial)

# sha256 of to_json() of MV(F), MV(F) (x) C(G) and C(G) = MV({1}) (x) C(G)
# over two variables, recorded while each had its own construction
PINNED = [
    (["x1", "x2"], None,
     "5679f2131fb6976d87b05c4c59d5e2b934cfa075a7b13d02843da3898dec30f4"),
    (["x1", "x2", "x1 + x2"], None,
     "770c88574c682fc92f4801328987c3702baa1e822da335434550284152b68ec3"),
    (["x1"], ["x2"],
     "dfb7131a85f2f6c005f906fca128c8bbb31e6994ac4b30bc9eac2781ba7e8176"),
    (["x1", "x2"], ["x1 - 1"],
     "80e63b81060ec0c29f353f9879c4b5431e44f47af82c45868495032e39334642"),
    (["x1"], ["1"],
     "b0224bdc32938ae68a641b74c82eaf99fbafbb8f96b419156179e9c1d2e9316d"),
    (["1"], ["x2"],
     "84ae79afdde80c3ee4cf0c753b18fcbc0625630af5f2913255b8f6c876166ca4"),
    (["1"], ["x1", "x2"],
     "5134fff5df994d7828707096a0e50efc02a501c849417a710df0e39dfec9fbe6"),
]


def polys(n, *texts):
    return [parse_polynomial(t, n) for t in texts]


def cech(n, *texts):
    """C(G) as MV({1}) (x) C(G): the block of the constant 1 is R."""
    return mv_tensor_cech(family_for_support(n, polys(n, "1"), polys(n, *texts)),
                          1, len(texts))


def test_mv_degenerates_for_one_polynomial():
    fam = family_for_mv(1, polys(1, "x1"))
    c = mv_complex(fam, 1)
    assert c.lo == 0 and c.hi == 0
    assert c.modules[0].rank == 1
    rels = [r.components[0] for r in c.modules[0].relations]
    assert [str(r) for r in rels] == ["x1*d1 + 1"]


def test_mv_two_polynomials_maps():
    fam = family_for_mv(2, polys(2, "x1", "x2"))
    c = mv_complex(fam, 2)
    assert [m.rank for m in c.modules] == [2, 1]
    rows = c.differentials[0].rows
    assert str(rows[0].components[0]) == "x2"
    assert str(rows[1].components[0]) == "-x1"
    c.check_chain()


def test_mv_component_counts():
    fam = family_for_mv(2, polys(2, "x1", "x2", "x1 + x2"))
    c = mv_complex(fam, 3)
    assert [m.rank for m in c.modules] == [comb(3, k) for k in (1, 2, 3)]
    c.check_chain()


def test_mv_rejects_empty():
    with pytest.raises(InvalidInputError):
        family_for_mv(1, [])


def test_cech_shapes():
    c = cech(2, "x2")
    assert [m.rank for m in c.modules] == [1, 1]
    # degree-0 entry is R itself: relations generated by the derivatives
    rels = sorted(str(r.components[0]) for r in c.modules[0].relations)
    assert rels == ["d1", "d2"]

    c2 = cech(2, "x1", "x2")
    assert [m.rank for m in c2.modules] == [1, 2, 1]
    c2.check_chain()


def test_cech_rejects_zero_polynomial():
    with pytest.raises(InvalidInputError):
        family_for_support(1, polys(1, "1"), polys(1, "0"))


def test_tensor_single_factors():
    fam = family_for_support(2, polys(2, "x1"), polys(2, "x2"))
    c = mv_tensor_cech(fam, 1, 1)
    assert [m.rank for m in c.modules] == [1, 1]
    # degree 0 block is R_x, degree 1 block is R_xy
    assert sorted(str(r.components[0]) for r in c.modules[1].relations) == \
        ["x1*d1 + 1", "x2*d2 + 1"]
    c.check_chain()


def test_tensor_counts():
    fam = family_for_support(2, polys(2, "x1", "x2"), polys(2, "x1 - 1"))
    c = mv_tensor_cech(fam, 2, 1)
    # total degree t has sum over |I| + |J| = t + 1 of binomial products
    expected = []
    for t in range(0, 3):
        total = 0
        for isize in range(1, 3):
            jsize = t + 1 - isize
            if 0 <= jsize <= 1:
                total += comb(2, isize) * comb(1, jsize)
        expected.append(total)
    assert [m.rank for m in c.modules] == expected
    c.check_chain()


def test_tensor_with_unit_support():
    fam = family_for_support(2, polys(2, "x1"), polys(2, "1"))
    c = mv_tensor_cech(fam, 1, 1)
    assert [m.rank for m in c.modules] == [1, 1]
    c.check_chain()


@pytest.mark.parametrize("F,G,digest", PINNED,
                         ids=[" ".join(F) + (" | " + " ".join(G) if G else "")
                              for F, G, _ in PINNED])
def test_complex_is_pinned(F, G, digest):
    if G is None:
        c = mv_complex(family_for_mv(2, polys(2, *F)), len(F))
    else:
        c = mv_tensor_cech(family_for_support(2, polys(2, *F), polys(2, *G)),
                           len(F), len(G))
    text = json.dumps(c.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
