"""The cutoff-family table: each record's builder, dimension and pair agree."""

from __future__ import annotations

import pytest

from quasilab import families
from quasilab.quasimode import build_cutoff


@pytest.mark.parametrize("name", sorted(families.CUTOFF_FAMILIES))
def test_record_is_consistent(name):
    fam = families.CUTOFF_FAMILIES[name]
    n, k = fam.dim or 2, 3
    spec = fam.cutoff(n, k, families.CELLS_PER_BAND)
    assert build_cutoff(spec, 2.0 ** -4).cell_count > 0
    assert len(spec.box) == n
    assert [c.symbol for c in spec.constraints[:2]] == list(fam.pair(n, k))
