"""Type labels: parsing, canonical form, ordering."""

import copy
import pickle
import random

import pytest

from noncross.decomp import all_labels_of_rank
from noncross.typelabel import TypeLabel, label


def test_parse_irreducible():
    t = label("E6")
    assert t.rank == 6
    assert t.is_irreducible
    assert str(t) == "E6"


def test_parse_product_canonical_order():
    assert str(label("A2*A1*A1")) == "A1^2*A2"
    assert str(label("A1^2*A2")) == "A1^2*A2"
    assert label("A2*A1*A1") == label("A1*A2*A1")


def test_empty_label():
    t = label("0")
    assert t.is_empty
    assert t.rank == 0
    assert str(t) == "0"


def test_rank_additive():
    assert label("A1^3*D4").rank == 7
    # far above any ambient, and still below the parse bound
    assert label("A1^3000*E8").rank == 3008


def test_components_roundtrip():
    t = label("A1^2*A3*D5")
    rebuilt = TypeLabel(t.components)
    assert rebuilt == t
    irr = t.irreducibles()
    assert [str(c) for c in irr] == ["A1", "A1", "A3", "D5"]


def test_product_operator():
    assert label("A1") * label("D4") == label("A1*D4")


def test_ordering_by_rank_first():
    assert label("A1") < label("A2")
    assert label("A2") < label("A1^3")
    assert sorted([label("D4"), label("A1"), label("A2^2")])[0] == label("A1")


def test_low_rank_d_synonyms_collapse():
    assert label("D3") == label("A3")
    assert label("D2") == label("A1^2")


def test_bad_labels_rejected():
    # A1^99999999999 is refused before its components are built
    for bad in ("X9", "A", "A0", "E9", "A1**2", "", " ", "\t",
                "A1^99999999999"):
        with pytest.raises((ValueError, KeyError)):
            label(bad)


def test_label_of_a_label_is_itself():
    for rank in range(9):
        for t in all_labels_of_rank(rank):
            assert label(t) is t
            assert label(str(t)) is t


def test_parses_are_memoized():
    assert label("A1^2*A3") is label("A1^2*A3")
    label("A1^2*A3")
    assert label.cache_info().hits


@pytest.mark.parametrize("bad", ["X9", "A1**2", "E9", " "])
def test_bad_text_raises_on_every_call(bad):
    for _ in range(3):
        with pytest.raises(ValueError):
            label(bad)


def test_hashable_and_dict_key():
    d = {label("A1*A2"): 5}
    assert d[label("A2*A1")] == 5


def test_labels_are_interned():
    assert label("A1^2*A3") is TypeLabel([("A", 1), ("A", 1), ("A", 3)])
    assert label("A3*A1*A1") is label("A1^2*A3")
    assert TypeLabel() is label("0")
    assert label("D4").irreducibles()[0] is label("D4")


def test_low_rank_d_synonyms_are_the_same_instance():
    assert label("D3") is label("A3")
    assert label("D2") is label("A1^2")
    assert TypeLabel([("D", 2), ("A", 3)]) is label("A1^2*A3")
    assert TypeLabel([("d", 3)]) is label("A3")


def test_pickle_and_deepcopy_return_the_same_instance():
    for text in ("0", "A1", "A1^2*A3", "A1*D5", "E8"):
        t = label(text)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(t, protocol)) is t
        assert copy.deepcopy(t) is t
        assert copy.copy(t) is t
    key = (label("A1"), label("A2*A3"))
    assert pickle.loads(pickle.dumps({key: 5})) == {key: 5}


def test_sorted_order_is_rank_then_components_on_every_label():
    # the order before interning: (rank, sorted (family, rank) components)
    labels = [t for r in range(9) for t in all_labels_of_rank(r)]
    shuffled = labels[::-1]
    random.Random(5).shuffle(shuffled)
    expected = sorted(shuffled, key=lambda t: (t.rank, t.components))
    assert sorted(shuffled) == expected == labels
    assert [str(t) for t in expected[:6]] == ["0", "A1", "A1^2", "A2",
                                              "A1^3", "A1*A2"]


def test_labels_stay_immutable():
    t = label("A1*A2")
    for name in ("components", "rank", "_key", "_str", "other"):
        with pytest.raises(AttributeError):
            setattr(t, name, None)
    assert str(label("A1*A2")) == "A1*A2"
