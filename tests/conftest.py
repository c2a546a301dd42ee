"""Fixtures shared by the test modules."""

import pytest


def _bracket_matched_chains(d):
    """Partition the subsets of {1, ..., d}, as bitmasks (bit i - 1 for
    index i), into symmetric chains, each listed from its bottom, chains
    ordered by bottom.

    The recursive Greene-Kleitman bracket matching: scan coordinates left
    to right reading 0 as an opening and 1 as a closing bracket, and match
    each 1 with the innermost open 0.  A chain bottom has no unmatched 1,
    and the chain switches its unmatched zeros to 1 from the left.
    """
    chains = []

    def extend(i, bottom, unmatched):
        if i == d:
            chain = [bottom]
            for pos in unmatched:
                chain.append(chain[-1] | 1 << pos)
            chains.append(chain)
            return
        extend(i + 1, bottom, unmatched + [i])
        if unmatched:  # a 1 closes the innermost open 0
            extend(i + 1, bottom | 1 << i, unmatched[:-1])

    extend(0, 0, [])
    chains.sort()
    return chains


@pytest.fixture(scope="session")
def reference_symmetric_chains():
    """The reference symmetric chain decomposition, d -> list of mask chains."""
    return _bracket_matched_chains
