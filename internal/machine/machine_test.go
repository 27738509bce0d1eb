package machine

import (
	"testing"

	"msgroofline/internal/netsim"
)

// mustRoute resolves the route from a to b on the instance's fabric,
// failing the test when there is none.
func mustRoute(t testing.TB, in *Instance, a, b string) netsim.Route {
	t.Helper()
	r, err := in.Net.RouteTo(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCatalogComplete(t *testing.T) {
	want := []string{
		"dragonfly-10k", "dragonfly-1k", "fattree-1k",
		"frontier-cpu", "frontier-gpu", "perlmutter-cpu", "perlmutter-gpu", "summit-cpu", "summit-gpu",
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("catalog = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("catalog = %v, want %v", got, want)
		}
	}
	if len(All()) != len(want) {
		t.Fatalf("All() should return %d configs (5 paper platforms + frontier-gpu + 3 generated)", len(want))
	}
	if NameList() == "" {
		t.Fatal("NameList() should render the catalog")
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nersc-12"); err == nil {
		t.Fatal("expected error for unknown machine")
	}
	c, err := Get("perlmutter-cpu")
	if err != nil || c.Name != "perlmutter-cpu" {
		t.Fatalf("Get = %v, %v", c, err)
	}
}

func TestInstantiateBounds(t *testing.T) {
	c, _ := Get("perlmutter-cpu")
	if _, err := c.Instantiate(0); err == nil {
		t.Fatal("0 ranks should fail")
	}
	if _, err := c.Instantiate(129); err == nil {
		t.Fatal("129 ranks should exceed Perlmutter CPU capacity")
	}
	in, err := c.Instantiate(128)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Places) != 128 {
		t.Fatalf("places = %d", len(in.Places))
	}
}

func TestPerlmutterCPUPlacement(t *testing.T) {
	c, _ := Get("perlmutter-cpu")
	in, err := c.Instantiate(128)
	if err != nil {
		t.Fatal(err)
	}
	if in.Places[0].Socket != 0 || in.Places[127].Socket != 1 {
		t.Fatalf("block placement broken: %+v %+v", in.Places[0], in.Places[127])
	}
	if !in.SameNode(0, 1) {
		t.Fatal("ranks 0 and 1 should share socket 0")
	}
	if in.SameNode(0, 127) {
		t.Fatal("ranks 0 and 127 should be on different sockets")
	}
	if in.Places[0].Socket == in.Places[127].Socket {
		t.Fatal("ranks 0 and 127 should sit on different sockets")
	}
	// Cross-socket peak must be the IF 32 GB/s.
	if bw := mustRoute(t, in, "pm:s0", "pm:s1").PeakBandwidth(); bw != 32e9 {
		t.Fatalf("IF bandwidth = %v, want 32e9", bw)
	}
}

func TestSummitGPUTopology(t *testing.T) {
	c, _ := Get("summit-gpu")
	in, err := c.Instantiate(6)
	if err != nil {
		t.Fatal(err)
	}
	// In-island: direct, 1 hop.
	if h := mustRoute(t, in, "sg:g0", "sg:g2").Hops(); h != 1 {
		t.Fatalf("in-island hops = %d, want 1", h)
	}
	// Cross-island: g -> s0 -> s1 -> g, 3 hops.
	cross := mustRoute(t, in, "sg:g0", "sg:g3")
	if h := cross.Hops(); h != 3 {
		t.Fatalf("cross-island hops = %d, want 3", h)
	}
	// Cross-island aggregate bottleneck is the X-Bus (32 GB/s, §II);
	// a single channel stream is limited by one NVLink2 brick.
	if bw := cross.AggregateBandwidth(); bw != 32e9 {
		t.Fatalf("cross-island aggregate bw = %v, want 32e9", bw)
	}
	if bw := cross.PeakBandwidth(); bw != 25e9 {
		t.Fatalf("cross-island single-channel bw = %v, want 25e9", bw)
	}
	if in.Places[2].Socket == in.Places[3].Socket {
		t.Fatal("GPUs 2 and 3 must be on different sockets")
	}
	if in.Places[0].Socket != in.Places[2].Socket {
		t.Fatal("GPUs 0 and 2 share an island")
	}
}

func TestPerlmutterGPUChannels(t *testing.T) {
	c, _ := Get("perlmutter-gpu")
	in, err := c.Instantiate(4)
	if err != nil {
		t.Fatal(err)
	}
	r := mustRoute(t, in, "pg:g0", "pg:g1")
	if ch := r.Channels(); ch != 4 {
		t.Fatalf("channels = %d, want 4", ch)
	}
	if bw := r.PeakBandwidth(); bw != 25e9 {
		t.Fatalf("single-channel bw = %v, want 25e9", bw)
	}
	if bw := r.AggregateBandwidth(); bw != 100e9 {
		t.Fatalf("aggregate bw = %v, want 100e9 (paper: 100 GB/s/dir/pair)", bw)
	}
	if c.GPU == nil {
		t.Fatal("Perlmutter GPU should carry a GPU device config")
	}
}

func TestTransportAvailability(t *testing.T) {
	cpu, _ := Get("perlmutter-cpu")
	if _, ok := cpu.Params(GPUShmem); ok {
		t.Fatal("CPU partition should not offer GPUShmem")
	}
	if _, ok := cpu.Params(TwoSided); !ok {
		t.Fatal("CPU partition must offer two-sided MPI")
	}
	gpu, _ := Get("perlmutter-gpu")
	if _, ok := gpu.Params(OneSided); ok {
		t.Fatal("GPU partition has no CPU one-sided MPI")
	}
	if _, ok := gpu.Params(GPUShmem); !ok {
		t.Fatal("GPU partition must offer GPUShmem")
	}
	// Host-initiated MPI exists on GPU machines, staged through the
	// host (the paper's introduction's "communicate via the host").
	host, ok := gpu.Params(TwoSided)
	if !ok || !host.HostStaged {
		t.Fatal("GPU partition must offer host-staged two-sided MPI")
	}
	in, _ := gpu.Instantiate(4)
	if in.Places[0].Host != "pg:host" {
		t.Fatalf("GPU rank host = %q", in.Places[0].Host)
	}
}

func TestKindAndTransportStrings(t *testing.T) {
	if CPU.String() != "CPU" || GPU.String() != "GPU" {
		t.Fatal("Kind.String broken")
	}
	if TwoSided.String() != "two-sided" || OneSided.String() != "one-sided" || GPUShmem.String() != "gpu-shmem" {
		t.Fatal("Transport.String broken")
	}
}
