"""Shared fixtures."""

import pytest

from sseqlab.f2 import F2Vector, reduce_against, row_reduce


def _greedy_reference(context, candidates):
    """Candidates outside the span of the context and of those picked before.

    Re-reduces the whole context for every candidate, so it keeps no
    echelon state between candidates; the greedy quotient loops of the
    page engine and the hit solver are compared against it.
    """
    context = list(context)
    picked = []
    for v in candidates:
        if not reduce_against(row_reduce(context), v).is_zero():
            picked.append(v)
            context.append(v)
    return picked


@pytest.fixture
def greedy_reference():
    return _greedy_reference


def _rref_reference(words):
    """Full RREF after every insert, sorted once at return.

    The F_2 kernels used this loop before their pivot-dict core; every
    RREF output and every ``solve`` result is compared against it.
    """
    reduced = []
    for word in words:
        for pivot, row in reduced:
            if word >> pivot & 1:
                word ^= row
        if word == 0:
            continue
        pivot = (word & -word).bit_length() - 1
        reduced = [(p, r ^ word if r >> pivot & 1 else r) for p, r in reduced]
        reduced.append((pivot, word))
    reduced.sort()
    return reduced


def _solve_reference(m, b):
    """``solve`` read off the RREF of the augmented rows [m | b]."""
    augmented = (word | ((b.bits >> i & 1) << m.cols) for i, word in enumerate(m.row_bits))
    x = 0
    for pivot, row in _rref_reference(augmented):
        if pivot == m.cols:
            return None
        if row >> m.cols & 1:
            x |= 1 << pivot
    return F2Vector(m.cols, x)


@pytest.fixture
def rref_reference():
    return _rref_reference


@pytest.fixture
def solve_reference():
    return _solve_reference
