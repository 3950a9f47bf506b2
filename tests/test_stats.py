import pytest

import hahnchain
from hahnchain.chain import ChainSpec, analytic_eigensystem, mode_frequencies
from hahnchain.hahn import orthonormal_table
from hahnchain.qhahn import q_orthonormal_table


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("a,b", [(0.3, 0.2), (0.8, 0.9)])
def test_cold_deformed_build_skips_mpmath(q, a, b):
    analytic_eigensystem.cache_clear()
    q_orthonormal_table.cache_clear()
    hahnchain.reset_stats()
    spec = ChainSpec(30, a, b, q)
    analytic_eigensystem(spec)
    analytic_eigensystem(spec)
    snap = hahnchain.stats()
    entries = snap["entries"]
    assert sum(sum(per_form.values()) for per_form in entries.values()) == 2 * 31 ** 2
    assert sum(entries.get("mpmath", {}).values()) == 0
    assert snap["max_mp_dps"] == 0
    assert snap["cache"]["q_orthonormal_table"] == {"hits": 0, "misses": 2}
    assert snap["cache"]["analytic_eigensystem"] == {"hits": 1, "misses": 1}


def test_cold_plain_build_cache_counts():
    for cache in (analytic_eigensystem, orthonormal_table, q_orthonormal_table, mode_frequencies):
        cache.cache_clear()
    spec = ChainSpec(20, 0.3, 0.2)
    analytic_eigensystem(spec)
    analytic_eigensystem(spec)
    assert hahnchain.stats()["cache"] == {
        "orthonormal_table": {"hits": 0, "misses": 2},
        "q_orthonormal_table": {"hits": 0, "misses": 0},
        "mode_frequencies": {"hits": 0, "misses": 1},
        "analytic_eigensystem": {"hits": 1, "misses": 1},
    }


def test_stats_is_a_snapshot():
    hahnchain.reset_stats()
    snap = hahnchain.stats()
    q_orthonormal_table.__wrapped__(hahnchain.QHahnParams(0.3, 0.2, 0.5, 4))
    assert snap["entries"] == {}
    assert sum(hahnchain.stats()["entries"]["double"].values()) == 25
