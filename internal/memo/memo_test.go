package memo

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestMemoHashFixed pins the hash to fixed values: a per-process seed would
// make fingerprint clashes, and so the memo_hits counters of identical
// serial runs, differ from process to process.
func TestMemoHashFixed(t *testing.T) {
	for in, want := range map[string]uint64{
		"":                             0xe220a8397b1dcdaf,
		"mirage":                       0xaf4152d4688ca3db,
		"an exact repeat of a request": 0x57e69d32b208c472,
	} {
		if got := Hash([]byte(in)); got != want {
			t.Errorf("Hash(%q) = %#x, want %#x", in, got, want)
		}
	}
}

// TestSightedAdmitsEightPerBucket: eight keys sharing a bucket are each
// admitted on their second sighting, whatever the order; a ninth pushes the
// oldest fingerprint out, and the next bucket is untouched.
func TestSightedAdmitsEightPerBucket(t *testing.T) {
	const buckets = 16
	tb := newTable[int](1<<20, buckets)
	sum := func(i int) uint64 { return uint64(i)<<33 | 5 } // bucket 5, fingerprint 2i+1
	for i := 0; i < ways; i++ {
		if tb.Sighted(sum(i)) {
			t.Fatalf("key %d admitted on its first sighting", i)
		}
	}
	for i := ways - 1; i >= 0; i-- {
		if !tb.Sighted(sum(i)) {
			t.Fatalf("key %d not admitted on its second sighting, with %d keys in its bucket", i, ways)
		}
	}
	if tb.Sighted(6) {
		t.Fatal("a key in the next bucket counted as sighted")
	}
	if tb.Sighted(sum(ways)) {
		t.Fatal("a ninth key admitted on its first sighting")
	}
	// A sighting puts a fingerprint in at the front and a hit leaves it
	// where it is, so key 0 is the oldest, and the ninth pushed it out.
	if tb.Sighted(sum(0)) {
		t.Fatal("the oldest fingerprint survived a ninth key in its bucket")
	}
	for i := 2; i <= ways; i++ {
		if !tb.Sighted(sum(i)) {
			t.Fatalf("key %d lost its fingerprint", i)
		}
	}
}

// TestFindExactUnderCollision stores keys that share a root slot, and
// children that share a parent: each is found by its own owner and key
// alone, and a key that shares the hash but not the bytes misses.
func TestFindExactUnderCollision(t *testing.T) {
	tb := newTable[string](1<<20, 16)
	const sum = 42
	a := tb.Add(0, 0, sum, []byte("alpha"), []byte("A"))
	b := tb.Add(0, 0, sum, []byte("beta"), []byte("B"))
	c := tb.Add(0, 1, sum, []byte("alpha"), []byte("C")) // another owner
	if a == 0 || b == 0 || c == 0 {
		t.Fatal("an entry was not stored")
	}
	for _, tc := range []struct {
		owner uint64
		key   string
		id    uint32
		val   string
	}{
		{0, "alpha", a, "A"}, {0, "beta", b, "B"}, {1, "alpha", c, "C"},
		{0, "alphA", 0, ""}, {1, "beta", 0, ""}, {0, "", 0, ""},
	} {
		id, val := tb.Find(0, tc.owner, sum, []byte(tc.key))
		if id != tc.id || string(val) != tc.val {
			t.Errorf("Find(owner %d, %q) = %d %q, want %d %q", tc.owner, tc.key, id, val, tc.id, tc.val)
		}
	}
	if id, _ := tb.Find(0, 0, sum+1, []byte("alpha")); id != 0 {
		t.Error("a root child found under another hash")
	}

	x := tb.Add(a, 0, 0, []byte("x"), []byte("ax"))
	y := tb.Add(a, 0, 0, []byte("y"), []byte("ay"))
	z := tb.Add(b, 0, 0, []byte("x"), []byte("bx"))
	for _, tc := range []struct {
		parent uint32
		key    string
		id     uint32
	}{{a, "x", x}, {a, "y", y}, {b, "x", z}, {b, "y", 0}, {0, "x", 0}} {
		if id, _ := tb.Find(tc.parent, 0, 0, []byte(tc.key)); id != tc.id {
			t.Errorf("Find(parent %d, %q) = %d, want %d", tc.parent, tc.key, id, tc.id)
		}
	}

	// A newer entry with an equal key is the one found.
	if d := tb.Add(0, 0, sum, []byte("alpha"), []byte("D")); d == 0 {
		t.Fatal("the replacing entry was not stored")
	}
	if _, val := tb.Find(0, 0, sum, []byte("alpha")); string(val) != "D" {
		t.Errorf("found %q, want the newest entry's D", val)
	}
}

// TestTableBudget fills a table of a few chunks: its charge never exceeds
// the budget, an entry that would overflow it clears the table and bumps
// the generation, and an entry longer than a chunk is never stored.
func TestTableBudget(t *testing.T) {
	const budget = 3*chunkSize + 10*rootCharge
	tb := newTable[int](budget, 16)
	if id := tb.Add(0, 0, 1, make([]byte, chunkSize), nil); id != 0 {
		t.Fatal("an entry longer than a chunk was stored")
	}
	clears := 0
	val := bytes.Repeat([]byte{7}, 1000)
	for i := 0; i < 500; i++ {
		gen, before := tb.Gen(), tb.entries
		id := tb.Add(0, uint64(i%3), uint64(i), []byte(fmt.Sprint(i)), val)
		if tb.bytes > budget {
			t.Fatalf("entry %d: charged %d bytes, over the %d budget", i, tb.bytes, budget)
		}
		switch {
		case id == 0 && (tb.Gen() != gen+1 || tb.entries != 0 || tb.bytes != 0):
			t.Fatalf("entry %d not stored, but the table did not clear: gen %d → %d, %d entries", i, gen, tb.Gen(), tb.entries)
		case id == 0:
			clears++
		case tb.Gen() != gen || tb.entries != before+1:
			t.Fatalf("entry %d stored, but gen %d → %d, entries %d → %d", i, gen, tb.Gen(), before, tb.entries)
		}
	}
	if clears == 0 {
		t.Fatal("500 KB of entries never cleared a table of three 16 KiB chunks")
	}
}

// TestClearBumpsGeneration: a clear drops every entry and owner and
// advances the generation, and keeps the first sightings.
func TestClearBumpsGeneration(t *testing.T) {
	tb := newTable[*int](1<<20, 16)
	p := new(int)
	owner, _ := tb.Owner(p, true)
	tb.Add(0, owner, 9, []byte("k"), []byte("v"))
	tb.Sighted(77)
	gen := tb.Gen()
	tb.clear()
	if tb.Gen() != gen+1 {
		t.Errorf("generation %d after a clear from %d", tb.Gen(), gen)
	}
	if id, _ := tb.Find(0, owner, 9, []byte("k")); id != 0 || tb.entries != 0 || tb.bytes != 0 {
		t.Errorf("after a clear: found %d, %d entries, %d bytes", id, tb.entries, tb.bytes)
	}
	if _, ok := tb.Owner(p, false); ok {
		t.Error("an owner survived the clear")
	}
	if !tb.Sighted(77) {
		t.Error("a clear dropped the first sightings")
	}
}

// TestResetEmptiesSightings: Reset empties every table New made, first
// sightings included.
func TestResetEmptiesSightings(t *testing.T) {
	tb := New[int](1<<20, 16)
	tb.Lock()
	tb.Sighted(77)
	tb.Add(0, 0, 9, []byte("k"), []byte("v"))
	tb.Unlock()
	Reset()
	if n, b := tb.Stats(); n != 0 || b != 0 {
		t.Errorf("after Reset: %d entries, %d bytes", n, b)
	}
	tb.Lock()
	defer tb.Unlock()
	if tb.Sighted(77) {
		t.Error("a first sighting survived Reset")
	}
}

// TestTableConcurrent runs Find and Add from 8 goroutines over a budget
// that clears now and then; every value found must be the one stored under
// its key. Under -race it is the table's locking test: values are read
// after unlocking, while other goroutines append to the same chunk.
func TestTableConcurrent(t *testing.T) {
	tb := newTable[int](4*chunkSize, 64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := (i*7 + w*13) % 300
				key := []byte(fmt.Sprint("key", k))
				want := bytes.Repeat([]byte{byte(k)}, 1+k%50)
				tb.Lock()
				owner, _ := tb.Owner(k%4, true)
				id, val := tb.Find(0, owner, uint64(k%17), key)
				if id == 0 {
					tb.Add(0, owner, uint64(k%17), key, want)
				}
				tb.Unlock()
				if id != 0 && !bytes.Equal(val, want) {
					t.Errorf("key %d: found %v", k, val)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzTable runs random adds, finds, clears and resets on a table of a few
// chunks against a map oracle of a two-level trie: root entries by owner
// and key, children by parent and key. Keys share root hashes on purpose.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 5, 9, 200, 4, 1, 2})
	f.Add(bytes.Repeat([]byte{0, 7, 0x81, 1, 1, 0xff, 3}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		tb := newTable[byte](2*chunkSize+4*rootCharge, 4)
		type rootKey struct {
			owner byte
			key   byte
		}
		type childKey struct {
			parent uint32
			key    byte
		}
		roots := map[rootKey]uint32{}
		vals := map[uint32][]byte{}
		children := map[childKey]uint32{}
		forget := func() {
			clear(roots)
			clear(vals)
			clear(children)
		}
		val := func(a, b byte) []byte { return bytes.Repeat([]byte{a ^ b}, int(b)*int(a%16)) }
		owner := func(o byte) uint64 { idx, _ := tb.Owner(o%4, true); return idx }
		for ; len(data) >= 3; data = data[3:] {
			op, a, b := data[0], data[1], data[2]
			rk := rootKey{a % 4, b % 8}
			gen := tb.Gen()
			switch op % 5 {
			case 0: // add a root entry
				v := val(a, b)
				id := tb.Add(0, owner(rk.owner), uint64(rk.key%3), []byte{rk.key}, v)
				if id == 0 {
					if tb.Gen() == gen {
						t.Fatalf("a root add of %d bytes was not stored, and the table did not clear", len(v))
					}
					break
				}
				roots[rk], vals[id] = id, v
			case 1: // add a child of a root entry
				parent, ok := roots[rk]
				if !ok {
					break
				}
				ck := childKey{parent, a >> 2}
				v := val(b, a)
				id := tb.Add(parent, owner(rk.owner), 0, []byte{ck.key}, v)
				if id == 0 {
					break
				}
				children[ck], vals[id] = id, v
			case 2: // find
				want := roots[rk]
				idx, ok := tb.Owner(rk.owner, false)
				var id uint32
				var v []byte
				if ok {
					id, v = tb.Find(0, idx, uint64(rk.key%3), []byte{rk.key})
				}
				if id != want || !bytes.Equal(v, vals[want]) {
					t.Fatalf("root %+v: found %d %v, want %d %v", rk, id, v, want, vals[want])
				}
				if want != 0 {
					ck := childKey{want, a >> 2}
					cw := children[ck]
					if id, v = tb.Find(want, idx, 0, []byte{ck.key}); id != cw || !bytes.Equal(v, vals[cw]) {
						t.Fatalf("child %+v: found %d %v, want %d %v", ck, id, v, cw, vals[cw])
					}
				}
			case 3:
				tb.clear()
			case 4:
				tb.reset()
			}
			if tb.Gen() != gen {
				forget()
			}
			if tb.bytes > tb.budget || tb.entries != len(vals) {
				t.Fatalf("charged %d of %d bytes, %d entries; the oracle holds %d", tb.bytes, tb.budget, tb.entries, len(vals))
			}
		}
	})
}
