package mem

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/xrand"
)

func TestLoadLatencyLevels(t *testing.T) {
	h := NewHierarchy()
	addr := uint64(0x100000)
	// Cold: misses the DTLB, L1 and L2 -> page walk plus the full path.
	if lat := h.LoadLatency(0, addr); lat != PageWalkCost+L1Latency+L2Latency+MemLatency {
		t.Errorf("cold load latency %d", lat)
	}
	// Now resident in both.
	if lat := h.LoadLatency(0, addr); lat != L1Latency {
		t.Errorf("warm load latency %d", lat)
	}
	// Evict from L1 only (walk 64KB > 32KB L1, < 2MB L2), then the line
	// should hit in L2.
	for a := uint64(0x200000); a < 0x200000+64<<10; a += 64 {
		h.LoadLatency(1, a)
	}
	if lat := h.LoadLatency(0, addr); lat != L1Latency+L2Latency {
		t.Errorf("L2-hit latency %d, want %d", lat, L1Latency+L2Latency)
	}
}

func TestStoreNeverStalls(t *testing.T) {
	h := NewHierarchy()
	if lat := h.StoreAccess(0, 0x5000); lat != 1 {
		t.Errorf("store latency %d, want 1 (store buffer)", lat)
	}
	// The store allocated the line: a following load hits.
	if lat := h.LoadLatency(0, 0x5000); lat != L1Latency {
		t.Errorf("load after store latency %d", lat)
	}
}

// TestFetchLatency: a cold fetch of a line pays its miss penalties at the
// fetch stage, and a warm one hits the pipelined L1I and stalls nothing.
func TestFetchLatency(t *testing.T) {
	h := NewHierarchy()
	if stall := h.FetchStall(0x40, 4); stall <= 0 {
		t.Errorf("cold fetch stall %d, want > 0", stall)
	}
	if stall := h.FetchStall(0x40, 4); stall != 0 {
		t.Errorf("warm fetch stall %d, want 0", stall)
	}
}

func TestFlushL1sKeepsL2(t *testing.T) {
	h := NewHierarchy()
	h.LoadLatency(0, 0x9000)
	h.FlushL1s()
	// L1 and TLB cold, but the L2 still holds the line.
	want := PageWalkCost + L1Latency + L2Latency
	if lat := h.LoadLatency(0, 0x9000); lat != want {
		t.Errorf("post-flush latency %d, want walk + L2 hit = %d", lat, want)
	}
}

func TestTrafficCounters(t *testing.T) {
	h := NewHierarchy()
	h.LoadLatency(0, 0xA000) // miss both: 1 L1->L2 line, 1 L2->mem line
	h.LoadLatency(0, 0xA000) // L1 hit: no traffic
	reg := telemetry.NewRegistry()
	h.PublishTelemetry(reg, "core0.mem")
	got := reg.Snapshot().Counters
	for _, name := range []string{"core0.mem.bus.l1_l2_lines", "core0.mem.bus.l2_mem_lines"} {
		if got[name] != 1 {
			t.Errorf("%s = %d, want 1 (one miss, then a hit that moves no line)", name, got[name])
		}
	}
}

func TestStridedWalkerWraps(t *testing.T) {
	w := NewWalker(trace.StreamSpec{Base: 0x1000, Stride: 8, WorkingSet: 32}, xrand.New(1))
	var got []uint64
	for i := 0; i < 6; i++ {
		got = append(got, w.Next())
	}
	want := []uint64{0x1000, 0x1008, 0x1010, 0x1018, 0x1000, 0x1008}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walker step %d = %#x, want %#x", i, got[i], want[i])
		}
	}
}

func TestRandomWalkerStaysInWorkingSet(t *testing.T) {
	spec := trace.StreamSpec{Kind: trace.StreamRandom, Base: 0x4000, WorkingSet: 4096}
	w := NewWalker(spec, xrand.New(2))
	for i := 0; i < 1000; i++ {
		a := w.Next()
		if a < spec.Base || a >= spec.Base+spec.WorkingSet {
			t.Fatalf("random address %#x outside [%#x, %#x)", a, spec.Base, spec.Base+spec.WorkingSet)
		}
	}
}

func TestRandomWalkerDeterministic(t *testing.T) {
	spec := trace.StreamSpec{Kind: trace.StreamRandom, Base: 0, WorkingSet: 1 << 20}
	a := NewWalker(spec, xrand.New(3))
	b := NewWalker(spec, xrand.New(3))
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same-seed walkers diverged")
		}
	}
}

// TestRandomWalkerMaskMatchesModulo: a power-of-two working set reduces a
// draw with a mask, which must give the address % gives, as it does for
// any other working set.
func TestRandomWalkerMaskMatchesModulo(t *testing.T) {
	for _, ws := range []uint64{8, 64, 4096, 1 << 20, 1 << 40, 3000, 1<<20 + 8} {
		rng := xrand.New(ws)
		w := NewWalker(trace.StreamSpec{Kind: trace.StreamRandom, Base: 1 << 32, WorkingSet: ws}, rng)
		for i := 0; i < 1000; i++ {
			if got, want := w.Next(), 1<<32+(rng.Uint64()%ws)&^7; got != want {
				t.Fatalf("working set %d draw %d: address %#x, want %#x", ws, i, got, want)
			}
		}
	}
}

func TestWalkerZeroWorkingSet(t *testing.T) {
	w := NewWalker(trace.StreamSpec{Base: 0x10}, xrand.New(4))
	// Defaulted to a tiny set; must not panic or divide by zero.
	for i := 0; i < 10; i++ {
		w.Next()
	}
	if w.spec.WorkingSet == 0 {
		t.Error("working set not defaulted")
	}
}

func TestPrefetcherCoversStream(t *testing.T) {
	h := NewHierarchy()
	// Stream through memory-resident data with a constant line stride: the
	// L2 stride prefetcher should turn most L2 misses into hits after lock.
	memMisses := 0
	for i := 0; i < 64; i++ {
		addr := 0x4000000 + uint64(i)*64
		if lat := h.LoadLatency(7, addr); lat > L1Latency+L2Latency {
			memMisses++
		}
	}
	if memMisses > 16 {
		t.Errorf("prefetcher left %d/64 memory misses on a strided stream", memMisses)
	}
}

func TestTLBBasics(t *testing.T) {
	tlb := NewTLB()
	if w := tlb.Access(0x1000); w != PageWalkCost {
		t.Errorf("cold translation walk %d", w)
	}
	if w := tlb.Access(0x1800); w != 0 {
		t.Errorf("same-page translation walked (%d)", w)
	}
	if w := tlb.Access(0x2000); w != PageWalkCost {
		t.Errorf("new page should walk, got %d", w)
	}
	hits, misses := tlb.Stats()
	if hits != 1 || misses != 2 {
		t.Errorf("stats %d/%d", hits, misses)
	}
}

func TestTLBLRUCapacity(t *testing.T) {
	tlb := NewTLB()
	for p := 0; p < TLBEntries+1; p++ {
		tlb.Access(uint64(p) * PageBytes)
	}
	if tlb.Len() > TLBEntries {
		t.Errorf("TLB holds %d entries", tlb.Len())
	}
	// Page 0 was LRU and must have been evicted; page 1 survives.
	if w := tlb.Access(0); w != PageWalkCost {
		t.Error("LRU page survived eviction")
	}
}

func TestTLBFlush(t *testing.T) {
	tlb := NewTLB()
	tlb.Access(0x4000)
	tlb.Flush()
	if tlb.Len() != 0 {
		t.Error("flush left translations")
	}
}

func TestFetchStallWarmsUp(t *testing.T) {
	h := NewHierarchy()
	cold := h.FetchStall(0x10000, 256)
	if cold == 0 {
		t.Error("cold code fetch should stall")
	}
	warm := h.FetchStall(0x10000, 256)
	if warm != 0 {
		t.Errorf("warm code fetch stalls %d cycles", warm)
	}
	h.FlushL1s()
	if again := h.FetchStall(0x10000, 256); again == 0 {
		t.Error("post-migration code fetch should stall again")
	}
}

// TestLatencyScratchReused: LoadLatencies and FetchGates hand out the
// hierarchy's scratch, so a steady-state measurement allocates nothing for
// its resolved latencies and gates.
func TestLatencyScratchReused(t *testing.T) {
	tr := &trace.Trace{ID: 0x4000, Insts: []isa.Inst{
		{Op: isa.Load, Dst: 1, Src1: 2},
		{Op: isa.Store, Src1: 1},
		{Op: isa.Branch, Dst: isa.NoReg, Src1: 1},
	}}
	ws := []*Walker{NewWalker(trace.StreamSpec{WorkingSet: 1 << 16, Stride: 64}, xrand.New(1))}
	h := NewHierarchy()
	measure := func() {
		if lats, loads, _ := h.LoadLatencies(tr, ws, 8); len(lats) != loads || loads != 8 {
			t.Fatalf("LoadLatencies returned %d latencies for %d loads", len(lats), loads)
		}
		if gates := h.FetchGates(tr, 8); len(gates) != 8 {
			t.Fatalf("FetchGates returned %d gates for 8 iterations", len(gates))
		}
	}
	measure()
	if n := testing.AllocsPerRun(20, measure); n != 0 {
		t.Errorf("a repeated measurement allocates %.0f times, want 0", n)
	}
}
