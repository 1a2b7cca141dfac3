"""``decide_mgs`` on quivers that split into smaller parts: a "no" found in a
direct-sum part or in the core left by an ending cycle is lifted to the
parent as a subquiver obstruction, and the recursion on the parts runs at
every rank, since each part is strictly smaller than its parent."""

import pytest

from quivergreen import catalog
from quivergreen.core import Quiver
from quivergreen.obstructions import (
    RFamilyObstruction,
    SubquiverObstruction,
    _no_mgs_catalog_entries,
    decide_mgs,
    recheck_obstruction,
)

R023 = catalog.get("R_0,2,3").quiver  # a divergent R-family member on 1..4
K4 = catalog.get("K4").quiver

LIFTED = {
    # the direct sum 1..4 | 5, the R part on the right
    "pendant-source": Quiver.from_arrows(5, [*R023.arrows(), (5, 1, 1)]),
    # the direct sum 1..4 | 5, the R part on the left
    "pendant-sink": Quiver.from_arrows(5, [*R023.arrows(), (1, 5, 1)]),
    # 6 | 1..5, whose part 1..5 splits again: the part's own subquiver
    # obstruction is flattened into one of the parent
    "nested-direct-sum": Quiver.from_arrows(
        6, [*R023.arrows(), (5, 1, 1), (6, 5, 1)]
    ),
    # the oriented 3-cycle 5 -> 6 -> 4 -> 5 ends at 4, leaving the core 1..4
    "cycle-ending-core": Quiver.from_arrows(
        6, [*R023.arrows(), (5, 6, 1), (6, 4, 1), (4, 5, 1)]
    ),
}


@pytest.mark.parametrize("q", list(LIFTED.values()), ids=list(LIFTED))
def test_a_no_in_a_part_is_lifted_to_the_parent(q):
    verdict = decide_mgs(q)
    assert verdict.no
    obs = verdict.obstruction
    assert isinstance(obs, SubquiverObstruction)
    assert obs.vertices == (1, 2, 3, 4)
    assert isinstance(obs.inner, RFamilyObstruction)
    assert (obs.inner.params, obs.inner.matched, obs.inner.delta) == ((0, 2, 3), "plain", 1)
    assert recheck_obstruction(q, obs)


@pytest.mark.parametrize("m", (3, 4, 5))
def test_a_chain_of_pendant_sources_into_k4_keeps_the_builder_certificate(m):
    # m + 4 -> ... -> 5 -> 1: each pendant source splits off as a direct sum
    # part, at rank 8 and above too, and the certificate is the chain
    # followed by K4's own
    chain = [(5, 1, 1)] + [(v + 1, v, 1) for v in range(5, m + 4)]
    q = Quiver.from_arrows(m + 4, [*K4.arrows(), *chain])
    k4 = decide_mgs(K4)
    assert k4.certificate.sequence == (1, 4, 2, 3, 4)
    verdict = decide_mgs(q)
    assert verdict.yes
    assert verdict.certificate.sequence == (
        *range(m + 4, 4, -1),
        *k4.certificate.sequence,
    )


def test_the_no_mgs_catalog_list_is_built_once():
    entries = _no_mgs_catalog_entries()
    assert isinstance(entries, tuple)
    assert _no_mgs_catalog_entries() is entries
    assert all(cq.n != 3 for _, cq, _, _ in entries)
