"""Tests for the shared-memory traffic counters."""

from repro.hardware import SharedMemoryStats


class TestSharedMemoryModel:
    """``SharedMemoryStats``, the shared-memory model the kernels fill."""

    def test_bulk(self):
        s = SharedMemoryStats()
        s.bulk(requests=10, wavefronts_per_request=1.5, bytes_per_request=128)
        assert s.load_requests == 10
        assert s.load_wavefronts == 15
        assert s.bytes_loaded == 1280

    def test_merge(self):
        a, b = SharedMemoryStats(), SharedMemoryStats()
        a.bulk(1, 1, 128)
        b.bulk(2, 1, 128, is_store=True)
        a.merge(b)
        assert a.requests == 3
        assert a.wavefronts == 3
