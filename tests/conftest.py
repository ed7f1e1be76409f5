from concurrent.futures import ThreadPoolExecutor

import pytest


@pytest.fixture
def cores(monkeypatch):
    """``cores(k)`` makes the convs split their tiles as on a k-core host:
    k chunks, the first on the calling thread and k - 1 on a fresh pool."""
    from nmvg import tensor

    pools = []

    def use(k):
        pool = ThreadPoolExecutor(k - 1) if k > 1 else None
        if pool is not None:
            pools.append(pool)
        monkeypatch.setattr(tensor, "_CORES", k)
        monkeypatch.setattr(tensor, "_POOL", pool)

    yield use
    for pool in pools:
        pool.shutdown()
