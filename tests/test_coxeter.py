"""Coxeter group enumeration, lengths, words and parabolic classes."""

import itertools

import numpy as np
import pytest

from steinberg.coxeter import CoxeterError, build_weyl


def poly_product(*factors):
    out = [1]
    for f in factors:
        new = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                new[i + j] += a * b
        out = new
    return out


def gauss(d):
    return [1] * d


def test_orders():
    assert build_weyl("A", 2).order == 6
    assert build_weyl("A", 3).order == 24
    assert build_weyl("B", 2).order == 8
    assert build_weyl("B", 3).order == 48


def test_bad_parameters():
    with pytest.raises(CoxeterError):
        build_weyl("A", 0)
    with pytest.raises(CoxeterError):
        build_weyl("E", 6)


def test_poincare_polynomials():
    # product of [d_i]_t over the degrees of the type
    assert build_weyl("A", 2).poincare_polynomial() == poly_product(gauss(2), gauss(3))
    assert build_weyl("A", 3).poincare_polynomial() == poly_product(gauss(2), gauss(3), gauss(4))
    assert build_weyl("B", 2).poincare_polynomial() == poly_product(gauss(2), gauss(4))
    assert build_weyl("B", 3).poincare_polynomial() == poly_product(gauss(2), gauss(4), gauss(6))


def test_type_a_matches_symmetric_group():
    W = build_weyl("A", 2)
    assert set(W.elements) == set(itertools.permutations(range(3)))
    # multiplication agrees with function composition
    for x in W.elements:
        for y in W.elements:
            z = W.elements[W.multiply(W.index[x], W.index[y])]
            assert z == tuple(x[y[i]] for i in range(3))


def test_inverse_and_identity():
    for args in (("A", 3), ("B", 2)):
        W = build_weyl(*args)
        for i in range(W.order):
            assert W.multiply(i, W.inverse(i)) == W.identity
        assert W.length(W.identity) == 0


def test_length_parity_and_subadditivity():
    rng = np.random.default_rng(2)
    for args in (("A", 3), ("B", 3)):
        W = build_weyl(*args)
        for _ in range(150):
            i, j = (int(x) for x in rng.integers(0, W.order, 2))
            k = W.multiply(i, j)
            assert W.length(k) <= W.length(i) + W.length(j)
            assert (W.length(k) - W.length(i) - W.length(j)) % 2 == 0


def test_inversion_length_matches_bfs():
    for args in (("A", 3), ("B", 2), ("B", 3)):
        W = build_weyl(*args)
        for i, x in enumerate(W.elements):
            assert W.inversion_length(x) == W.length(i), (args, x)


def test_reduced_words():
    for args in (("A", 3), ("B", 3)):
        W = build_weyl(*args)
        for i in range(W.order):
            word = W.reduced_word(i)
            assert len(word) == W.length(i)
            acc = W.identity
            for s in word:
                acc = W.multiply(acc, W.gen_index(s))
            assert acc == i


def test_longest_element():
    W = build_weyl("A", 2)
    w0 = W.longest_element()
    assert W.length(w0) == 3
    assert W.multiply(w0, w0) == W.identity
    # conjugation by w0 permutes the generators (here: swaps them)
    a, b = W.gen_index(0), W.gen_index(1)
    conj = W.multiply(W.multiply(w0, a), W.inverse(w0))
    assert conj == b


def test_w0_central_types_fix_generators():
    for args in (("A", 1), ("B", 2), ("B", 3)):
        W = build_weyl(*args)
        w0 = W.longest_element()
        for s in range(W.rank):
            g = W.gen_index(s)
            assert W.multiply(W.multiply(w0, g), W.inverse(w0)) == g


def test_coxeter_matrix_orders():
    for args in (("A", 3), ("B", 3)):
        W = build_weyl(*args)
        for s in range(W.rank):
            for t in range(W.rank):
                st = W.multiply(W.gen_index(s), W.gen_index(t))
                order = 1
                acc = st
                while acc != W.identity:
                    acc = W.multiply(acc, st)
                    order += 1
                assert order == int(W.coxeter_matrix[s, t])


def test_parabolic_classes_type_a():
    W = build_weyl("A", 2)
    classes = W.parabolic_classes()
    labels = sorted(c["label"] for c in classes)
    assert labels == ["(1,1,1)", "(2,1)", "(3)"]
    # the two single-generator subsets are conjugate
    by_label = {c["label"]: c for c in classes}
    assert sorted(by_label["(2,1)"]["subsets"]) == [(0,), (1,)]

    W3 = build_weyl("A", 3)
    assert len(W3.parabolic_classes()) == 5


def test_parabolic_classes_type_b2():
    W = build_weyl("B", 2)
    classes = W.parabolic_classes()
    # the two simple reflections are not conjugate in B2
    assert len(classes) == 4


def test_parabolic_elements():
    W = build_weyl("A", 3)
    sub = W.parabolic_elements((0, 1))
    assert len(sub) == 6  # A_2 inside A_3
    assert len(W.parabolic_elements(())) == 1
    assert len(W.parabolic_elements((0, 1, 2))) == 24


def test_summary_shape():
    W = build_weyl("B", 2)
    s = W.summary()
    assert s["type"] == "B"
    assert s["order"] == 8
    assert s["length_distribution"][0] == 1
    assert sum(s["length_distribution"]) == 8
