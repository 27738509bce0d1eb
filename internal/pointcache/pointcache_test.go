package pointcache

import (
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"

	"msgroofline/internal/machine"
	"msgroofline/internal/sim"
)

// testConfig builds a standalone config (not from the catalog) so the
// perturbation walker can mutate it freely.
func testConfig() *machine.Config {
	return &machine.Config{
		Name:           "test-cpu",
		Title:          "Test CPU",
		Kind:           machine.CPU,
		MaxRanks:       64,
		TheoreticalGBs: 32,
		Transports: map[machine.Transport]machine.TransportParams{
			machine.TwoSided: {
				OpOverhead: 150 * sim.Nanosecond, OpsPerMsg: 2,
				SoftLatency: 2700 * sim.Nanosecond, Gap: 50 * sim.Nanosecond,
				AtomicTime: sim.Microsecond, SyncRoundTrips: 1,
			},
			machine.OneSided: {
				OpOverhead: 30 * sim.Nanosecond, OpsPerMsg: 4,
				SoftLatency: 2250 * sim.Nanosecond, Gap: 40 * sim.Nanosecond,
				AtomicTime: 1600 * sim.Nanosecond, SyncRoundTrips: 2,
				AtomicLinkOccupancy: 5 * sim.Nanosecond,
				CrossSocketExtra:    100 * sim.Nanosecond,
				HostStaged:          true,
			},
		},
		GPU: &machine.GPUConfig{
			ComputeScale: 4,
			KernelLaunch: 6 * sim.Microsecond, Channels: 4,
		},
		MemBandwidth: 100e9,
		MemLatency:   90 * sim.Nanosecond,
		TableRow:     machine.TableRow{CPUs: "2x64", CPUInterconnect: "IF"},
		// All three topology specs at once: semantically invalid (Build
		// enforces exactly-one-of) but ideal for the walker, which must
		// see every fingerprinted field of every spec kind.
		Topology: machine.Topology{
			Explicit: &machine.Explicit{
				Links: []machine.LinkSpec{
					{A: "t:s0", B: "t:s1", GBs: 32, LatencyNs: 150, Channels: 4, Class: "socket"},
				},
				Place: machine.Placement{
					Kind:    machine.PlaceBlock,
					Nodes:   []string{"t:s0", "t:s1"},
					Sockets: []int{0, 1},
					Hosts:   []string{"t:h", "t:h"},
				},
				Detours: []string{"t:s0"},
			},
			Dragonfly: &machine.Dragonfly{
				Groups: 2, RoutersPerGroup: 2, NodesPerRouter: 1, GlobalLinksPerRouter: 1,
				RanksPerNode: 1,
				NodeGBs:      1, NodeLatencyNs: 1,
				LocalGBs: 1, LocalLatencyNs: 1,
				GlobalGBs: 1, GlobalLatencyNs: 1,
				Prefix: "x",
			},
			FatTree: &machine.FatTree{
				Radix: 4, Levels: 3, RanksPerHost: 1,
				HostGBs: 1, HostLatencyNs: 1,
				EdgeGBs: 1, EdgeLatencyNs: 1,
				CoreGBs: 1, CoreLatencyNs: 1,
				Prefix: "y",
			},
			Routing: machine.RoutingAdaptive,
		},
	}
}

func cloneConfig(c *machine.Config) *machine.Config {
	cp := *c
	cp.Transports = make(map[machine.Transport]machine.TransportParams, len(c.Transports))
	for k, v := range c.Transports {
		cp.Transports[k] = v
	}
	if c.GPU != nil {
		g := *c.GPU
		cp.GPU = &g
	}
	return &cp
}

// TestKeySensitivity walks every exported leaf field of
// machine.Config (including nested TransportParams and GPUConfig)
// via reflection, perturbs each one in isolation, and asserts the
// content key changes. Because the walk enumerates fields
// reflectively, adding a new Config field without extending
// AppendFingerprint fails this test — the fingerprint can never
// silently fall behind the struct.
func TestKeySensitivity(t *testing.T) {
	cfg := testConfig()
	base := KeyOf(cfg, KindSweep, "two-sided", 2, 16, 512)
	perturbLeaves(t, reflect.ValueOf(cfg).Elem(), "Config", func(path string) {
		if got := KeyOf(cfg, KindSweep, "two-sided", 2, 16, 512); got == base {
			t.Errorf("perturbing %s did not change the key", path)
		}
	})
	// Coordinates and identity components must each change the key too.
	variants := []Key{
		KeyOf(cfg, KindCAS, "two-sided", 2, 16, 512),
		KeyOf(cfg, KindSplit, "two-sided", 2, 16, 512),
		KeyOf(cfg, KindSweep, "one-sided", 2, 16, 512),
		KeyOf(cfg, KindSweep, "one-sided-strict", 2, 16, 512),
		KeyOf(cfg, KindSweep, "two-sided", 4, 16, 512),
		KeyOf(cfg, KindSweep, "two-sided", 2, 17, 512),
		KeyOf(cfg, KindSweep, "two-sided", 2, 16, 513),
	}
	seen := map[Key]bool{base: true}
	for i, k := range variants {
		if seen[k] {
			t.Errorf("variant %d collides with an earlier key", i)
		}
		seen[k] = true
	}
}

// perturbLeaves mutates each exported leaf under v one at a time,
// invoking check after each mutation and restoring the old value.
func perturbLeaves(t *testing.T, v reflect.Value, path string, check func(path string)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		st := v.Type()
		for i := 0; i < st.NumField(); i++ {
			f := st.Field(i)
			if f.PkgPath != "" { // unexported (e.g. the fabric builder func)
				continue
			}
			perturbLeaves(t, v.Field(i), path+"."+f.Name, check)
		}
	case reflect.Map:
		for _, mk := range v.MapKeys() {
			elem := reflect.New(v.Type().Elem()).Elem()
			orig := v.MapIndex(mk)
			elem.Set(orig)
			perturbLeaves(t, elem, fmt.Sprintf("%s[%v]", path, mk), func(p string) {
				v.SetMapIndex(mk, elem)
				check(p)
			})
			v.SetMapIndex(mk, orig)
		}
		// Removing an entry and adding a new one must both change keys.
		mk := v.MapKeys()[0]
		orig := v.MapIndex(mk)
		v.SetMapIndex(mk, reflect.Value{})
		check(path + " (entry removed)")
		v.SetMapIndex(mk, orig)
		novel := reflect.ValueOf(machine.NotifiedAccess)
		if !v.MapIndex(novel).IsValid() {
			v.SetMapIndex(novel, reflect.New(v.Type().Elem()).Elem())
			check(path + " (entry added)")
			v.SetMapIndex(novel, reflect.Value{})
		}
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		perturbLeaves(t, v.Elem(), path, check)
		old := v.Interface()
		v.Set(reflect.Zero(v.Type()))
		check(path + " (nil)")
		v.Set(reflect.ValueOf(old))
	case reflect.String:
		old := v.String()
		v.SetString(old + "x")
		check(path)
		v.SetString(old)
	case reflect.Bool:
		old := v.Bool()
		v.SetBool(!old)
		check(path)
		v.SetBool(old)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		old := v.Int()
		v.SetInt(old + 1)
		check(path)
		v.SetInt(old)
	case reflect.Float32, reflect.Float64:
		old := v.Float()
		v.SetFloat(old + 1)
		check(path)
		v.SetFloat(old)
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			perturbLeaves(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), check)
		}
		// Length must be fingerprinted too: growing the slice by a
		// zero element must change the key (two dragonfly placements
		// differing only in node count must never collide).
		old := v.Interface()
		v.Set(reflect.Append(v, reflect.New(v.Type().Elem()).Elem()))
		check(path + " (element appended)")
		v.Set(reflect.ValueOf(old))
	case reflect.Func:
		// not fingerprintable; covered by the schema salt policy
	default:
		t.Fatalf("unhandled field kind %v at %s: extend AppendFingerprint and this walker", v.Kind(), path)
	}
}

// TestKeyIgnoresSerializationIrrelevantVariation: value-equal configs
// hash identically regardless of map insertion order or copying.
func TestKeyIgnoresSerializationIrrelevantVariation(t *testing.T) {
	a := testConfig()
	// Rebuild the transports map in reverse insertion order.
	b := cloneConfig(a)
	keys := []machine.Transport{}
	for k := range a.Transports {
		keys = append(keys, k)
	}
	b.Transports = map[machine.Transport]machine.TransportParams{}
	for i := len(keys) - 1; i >= 0; i-- {
		b.Transports[keys[i]] = a.Transports[keys[i]]
	}
	ka := KeyOf(a, KindSweep, "two-sided", 2, 16, 512)
	kb := KeyOf(b, KindSweep, "two-sided", 2, 16, 512)
	if ka != kb {
		t.Fatal("map insertion order leaked into the key")
	}
	if kc := KeyOf(cloneConfig(a), KindSweep, "two-sided", 2, 16, 512); kc != ka {
		t.Fatal("copying the config changed the key")
	}
	// And twice on the very same config, for determinism.
	if k2 := KeyOf(a, KindSweep, "two-sided", 2, 16, 512); k2 != ka {
		t.Fatal("KeyOf is not deterministic")
	}
}

func TestMemTier(t *testing.T) {
	c, err := New(Mem, "")
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf(testConfig(), KindSweep, "two-sided", 2, 1, 8)
	if _, _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, 42*sim.Microsecond)
	el, tier, ok := c.Get(k)
	if !ok || el != 42*sim.Microsecond || tier != TierMem {
		t.Fatalf("Get = (%v, %v, %v)", el, tier, ok)
	}
	s := c.Stats()
	if s.Lookups != 2 || s.Hits != 1 || s.MemHits != 1 || s.Misses != 1 || s.Stores != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDiskTierPersistsAcrossProcessesAndPromotes(t *testing.T) {
	dir := t.TempDir()
	k := KeyOf(testConfig(), KindSweep, "one-sided", 2, 16, 4096)
	c1, err := New(Disk, dir)
	if err != nil {
		t.Fatal(err)
	}
	c1.Put(k, 7*sim.Microsecond)

	// A fresh cache over the same directory models a new process.
	c2, err := New(Disk, dir)
	if err != nil {
		t.Fatal(err)
	}
	el, tier, ok := c2.Get(k)
	if !ok || el != 7*sim.Microsecond || tier != TierDisk {
		t.Fatalf("disk Get = (%v, %v, %v)", el, tier, ok)
	}
	// Promotion: the second lookup is served from memory.
	if _, tier, _ := c2.Get(k); tier != TierMem {
		t.Fatalf("second Get tier = %v, want mem", tier)
	}
}

// TestCorruptDiskEntryFallsBackToSimulating proves the self-check: a
// corrupted or mismatched entry is a miss (counted as bad), never a
// served value.
func TestCorruptDiskEntryFallsBackToSimulating(t *testing.T) {
	cfg := testConfig()
	k := KeyOf(cfg, KindSweep, "two-sided", 2, 4, 64)
	k2 := KeyOf(cfg, KindSweep, "two-sided", 2, 4, 128)
	cases := []struct {
		name    string
		corrupt func(c *Cache)
	}{
		{"garbage bytes", func(c *Cache) {
			os.WriteFile(c.path(k), []byte("{not json"), 0o644)
		}},
		{"truncated", func(c *Cache) {
			data, _ := os.ReadFile(c.path(k))
			os.WriteFile(c.path(k), data[:len(data)/2], 0o644)
		}},
		{"wrong schema", func(c *Cache) {
			os.WriteFile(c.path(k), []byte(`{"schema":"pointcache-entry/v999","key":"`+k.String()+`","elapsed_ps":1}`), 0o644)
		}},
		{"key mismatch (entry moved)", func(c *Cache) {
			data, _ := os.ReadFile(c.path(k2))
			os.WriteFile(c.path(k), data, 0o644)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(Disk, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			c.Put(k, 3*sim.Microsecond)
			c.Put(k2, 9*sim.Microsecond)
			tc.corrupt(c)
			// Drop the memory tier so the corrupted file is consulted.
			c.mu.Lock()
			c.mem = map[Key]sim.Time{}
			c.mu.Unlock()
			if el, _, ok := c.Get(k); ok {
				t.Fatalf("corrupt entry served: %v", el)
			}
			if c.Stats().BadEntries != 1 {
				t.Fatalf("bad entries = %d, want 1", c.Stats().BadEntries)
			}
			// The caller re-simulates and overwrites; the entry heals.
			c.Put(k, 3*sim.Microsecond)
			if el, _, ok := c.Get(k); !ok || el != 3*sim.Microsecond {
				t.Fatalf("healed Get = (%v, %v)", el, ok)
			}
		})
	}
}

func TestNilAndOffCacheAreInert(t *testing.T) {
	var c *Cache
	k := Key{1}
	if c.Enabled() {
		t.Fatal("nil cache enabled")
	}
	c.Put(k, 1)
	c.AddBytesSaved(10)
	if _, _, ok := c.Get(k); ok {
		t.Fatal("nil cache hit")
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("nil stats = %+v", s)
	}
	off, err := New(Off, "")
	if err != nil || off != nil {
		t.Fatalf("New(Off) = (%v, %v), want nil cache", off, err)
	}
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{"off": Off, "mem": Mem, "disk": Disk} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = (%v, %v)", s, got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("want error for unknown mode")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c, err := New(Disk, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := KeyOf(cfg, KindSweep, "two-sided", 2, i%10, int64(i%7))
				if el, _, ok := c.Get(k); ok && el != sim.Time(i%10*7+i%7) {
					t.Errorf("stale value %v", el)
				}
				c.Put(k, sim.Time(i%10*7+i%7))
			}
		}(w)
	}
	wg.Wait()
}
