package cliflags

import (
	"flag"
	"io"
	"os"
	"testing"
)

func statFile(p string) (int64, error) {
	fi, err := os.Stat(p)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// TestRegisterDefinesSharedSurface pins the unified flag surface:
// every command registers exactly these shared knobs, with the same
// names and defaults. -jobs is not among them: only the multi-point
// commands define it.
func TestRegisterDefinesSharedSurface(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c := Register(fs, "test")
	for _, name := range []string{"shards", "cpuprofile", "memprofile"} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
	if fs.Lookup("jobs") != nil {
		t.Error("flag -jobs registered; it belongs to the multi-point commands only")
	}
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if c.Shards != 1 {
		t.Errorf("default -shards = %d, want 1", c.Shards)
	}
	if err := fs.Parse([]string{"-shards", "4"}); err != nil {
		t.Fatal(err)
	}
	if c.Shards != 4 {
		t.Fatalf("parsed Shards=%d", c.Shards)
	}
}

func TestStartProfilesNoopWithoutFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := Register(fs, "test")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	stop, err := c.StartProfiles()
	if err != nil {
		t.Fatal(err)
	}
	stop() // must be safe with neither profile requested
}

func TestStartProfilesWritesCPUProfile(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := Register(fs, "test")
	dir := t.TempDir()
	if err := fs.Parse([]string{"-cpuprofile", dir + "/cpu.pprof", "-memprofile", dir + "/mem.pprof"}); err != nil {
		t.Fatal(err)
	}
	stop, err := c.StartProfiles()
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, p := range []string{dir + "/cpu.pprof", dir + "/mem.pprof"} {
		if fi, err := statFile(p); err != nil || fi == 0 {
			t.Errorf("%s: size=%d err=%v", p, fi, err)
		}
	}
}
