"""Shared fixtures."""

import pytest

from sseqlab.f2 import reduce_against, row_reduce


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
