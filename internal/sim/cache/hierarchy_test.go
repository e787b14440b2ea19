package cache

import "testing"

func testHierCfg() HierarchyConfig {
	return HierarchyConfig{
		L1I:               Config{SizeBytes: 4096, Assoc: 1, BlockBytes: 16},
		L1D:               Config{SizeBytes: 4096, Assoc: 1, BlockBytes: 16},
		L2:                Config{SizeBytes: 256 << 10, Assoc: 1, BlockBytes: 64},
		L1ILatency:        1,
		L1DLatency:        1,
		L2Latency:         10,
		ITLBEntries:       32,
		ITLBAssoc:         2,
		DTLBEntries:       32,
		DTLBAssoc:         2,
		PageBytes:         4096,
		ITLBLatency:       30,
		DTLBLatency:       30,
		MemLatencyFirst:   100,
		MemLatencyRest:    2,
		MemBandwidthBytes: 8,
	}
}

func mustHier(t *testing.T, cfg HierarchyConfig) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHierarchyLatencyLadder(t *testing.T) {
	h := mustHier(t, testHierCfg())
	// First access: DTLB miss (30) + L1 (1) + L2 (10) + memory.
	// Memory: 64B block over 8B chunks = 8 chunks: 100 + 7*2 = 114.
	lat := h.DataAccess(0x100, 0)
	want := int64(30 + 1 + 10 + 114)
	if lat != want {
		t.Errorf("cold access latency = %d, want %d", lat, want)
	}
	// Same block immediately after: everything hits; latency = L1.
	lat = h.DataAccess(0x104, 1000)
	if lat != 1 {
		t.Errorf("hot access latency = %d, want 1", lat)
	}
	// Same page, different L1 block within the same L2 block:
	// L1 miss, L2 hit: 1 + 10.
	lat = h.DataAccess(0x110, 2000)
	if lat != 11 {
		t.Errorf("L2-hit latency = %d, want 11", lat)
	}
	if h.DRAMAccesses != 1 {
		t.Errorf("DRAM accesses = %d, want 1", h.DRAMAccesses)
	}
}

func TestInstFetchLadder(t *testing.T) {
	h := mustHier(t, testHierCfg())
	lat := h.InstFetch(0x400000, 0)
	want := int64(30 + 1 + 10 + 114)
	if lat != want {
		t.Errorf("cold fetch latency = %d, want %d", lat, want)
	}
	if lat := h.InstFetch(0x400004, 500); lat != 1 {
		t.Errorf("hot fetch latency = %d, want 1", lat)
	}
}

func TestDRAMAccessesOverlap(t *testing.T) {
	h := mustHier(t, testHierCfg())
	// Two cold accesses to different pages at the same cycle overlap
	// freely (the SimpleScalar memory model): apart from the second
	// page's TLB walk, the DRAM portions are identical.
	lat1 := h.DataAccess(0x0000, 0)
	lat2 := h.DataAccess(0x100000, 0)
	if lat1 != lat2 {
		t.Errorf("DRAM accesses should overlap: %d vs %d", lat1, lat2)
	}
	if h.DRAMAccesses != 2 {
		t.Errorf("DRAM accesses = %d", h.DRAMAccesses)
	}
}

func TestBandwidthMatters(t *testing.T) {
	narrow := testHierCfg()
	narrow.MemBandwidthBytes = 4
	wide := testHierCfg()
	wide.MemBandwidthBytes = 32
	hn := mustHier(t, narrow)
	hw := mustHier(t, wide)
	ln := hn.DataAccess(0x5000, 0)
	lw := hw.DataAccess(0x5000, 0)
	if ln <= lw {
		t.Errorf("narrow bus (%d cycles) should be slower than wide bus (%d)", ln, lw)
	}
}

func TestHierarchyValidation(t *testing.T) {
	cfg := testHierCfg()
	cfg.MemBandwidthBytes = 0
	if _, err := NewHierarchy(cfg); err == nil {
		t.Error("zero bandwidth accepted")
	}
	cfg = testHierCfg()
	cfg.MemLatencyFirst = 0
	if _, err := NewHierarchy(cfg); err == nil {
		t.Error("zero first latency accepted")
	}
	cfg = testHierCfg()
	cfg.L1I.BlockBytes = 7
	if _, err := NewHierarchy(cfg); err == nil {
		t.Error("bad L1I accepted")
	}
	cfg = testHierCfg()
	cfg.L1D.SizeBytes = -1
	if _, err := NewHierarchy(cfg); err == nil {
		t.Error("bad L1D accepted")
	}
	cfg = testHierCfg()
	cfg.L2.Assoc = 3
	if _, err := NewHierarchy(cfg); err == nil {
		t.Error("bad L2 accepted")
	}
	cfg = testHierCfg()
	cfg.ITLBEntries = 0
	if _, err := NewHierarchy(cfg); err == nil {
		t.Error("bad ITLB accepted")
	}
	cfg = testHierCfg()
	cfg.DTLBEntries = 0
	if _, err := NewHierarchy(cfg); err == nil {
		t.Error("bad DTLB accepted")
	}
	h := mustHier(t, testHierCfg())
	if h.Config().L2Latency != 10 {
		t.Error("Config accessor")
	}
}

func TestPrewarm(t *testing.T) {
	h := mustHier(t, testHierCfg())
	h.PrewarmData(0x10000, 8192)
	// Statistics must be untouched by warming.
	if h.L1D.Stats().Accesses != 0 || h.L2.Stats().Accesses != 0 || h.DTLB.Stats().Accesses != 0 {
		t.Error("prewarm polluted statistics")
	}
	if h.DRAMAccesses != 0 {
		t.Error("prewarm counted DRAM accesses")
	}
	// But the content must be resident: a data access near the end of
	// the warmed range (the warmed range exceeds the 4 KB L1D, so the
	// tail survives) is now an L1 hit.
	if lat := h.DataAccess(0x10000+8192-64, 0); lat != int64(h.Config().L1DLatency) {
		t.Errorf("post-prewarm access latency = %d, want L1 hit", lat)
	}
	h.PrewarmCode(0x400000, 4096)
	if h.L1I.Stats().Accesses != 0 || h.ITLB.Stats().Accesses != 0 {
		t.Error("code prewarm polluted statistics")
	}
	if lat := h.InstFetch(0x400100, 0); lat != int64(h.Config().L1ILatency) {
		t.Errorf("post-prewarm fetch latency = %d, want L1 hit", lat)
	}
}

func TestPrewarmLargerThanCache(t *testing.T) {
	// Warming a range larger than the cache leaves the tail resident
	// (LRU), like a sequential lap of a big working set.
	h := mustHier(t, testHierCfg())
	size := uint64(2 * h.Config().L1D.SizeBytes)
	h.PrewarmData(0, size)
	if !h.L1D.Contains(size - 64) {
		t.Error("tail of the warmed range should be resident")
	}
	if h.L1D.Contains(0) {
		t.Error("head of an oversized warmed range should be evicted")
	}
}
