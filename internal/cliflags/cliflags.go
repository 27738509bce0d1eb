// Package cliflags unifies the flag surface of the msgroofline
// commands. Every binary — cmd/experiments, cmd/msgroof and the
// per-kernel cmds (cmd/stencil, cmd/sptrsv, cmd/hashtable) — registers
// the same shared knobs with identical names, defaults and help text:
//
//	-jobs N            worker concurrency for multi-point commands
//	-shards N          engine shard count recorded on simulated worlds
//	-cpuprofile FILE   pprof CPU profile
//	-memprofile FILE   pprof heap profile on exit
//
// Commands that run a single simulation (the per-kernel cmds) accept
// -jobs for surface uniformity; the knob only changes how the
// multi-point commands schedule work, never what any command prints
// on stdout. Stderr reporting goes through ReportSched and
// ReportShards so every binary summarizes host scheduling and engine
// utilization in the same format.
package cliflags

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	simruntime "msgroofline/internal/runtime"
	"msgroofline/internal/sched"
)

// Common holds the shared flag values after parsing.
type Common struct {
	// Jobs caps worker concurrency for commands that schedule many
	// independent simulations (sweep points, experiments). Output is
	// byte-identical at any value.
	Jobs int
	// Shards sets the window worker parallelism of every simulated
	// world (0 means 1). Worlds decompose into per-node-group
	// sequential engines coupled by a conservative-lookahead window
	// protocol; -shards only caps how many groups execute a window
	// concurrently, so command output is byte-identical at any
	// -shards setting (see DESIGN.md §11).
	Shards int
	// CPUProfile and MemProfile are pprof output paths ("" disables).
	CPUProfile string
	MemProfile string

	prog    string
	cpuFile *os.File
}

// Register installs the shared flags on fs. prog names the command in
// error and summary output. Call after flag definitions specific to
// the command, before fs.Parse.
func Register(fs *flag.FlagSet, prog string) *Common {
	c := &Common{prog: prog}
	fs.IntVar(&c.Jobs, "jobs", runtime.NumCPU(),
		"number of independent simulations run concurrently (output is byte-identical at any value)")
	fs.IntVar(&c.Shards, "shards", 1,
		"window worker parallelism of simulated worlds (output is byte-identical at any value)")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a pprof heap profile to this file on exit")
	return c
}

// StartProfiles begins the CPU profile when -cpuprofile was given.
// The returned stop function ends the CPU profile and writes the heap
// profile when -memprofile was given; defer it immediately after a
// successful call. With neither flag set it is a cheap no-op.
func (c *Common) StartProfiles() (stop func(), err error) {
	if c.CPUProfile != "" {
		f, err := os.Create(c.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.prog, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("%s: %w", c.prog, err)
		}
		c.cpuFile = f
	}
	return func() {
		if c.cpuFile != nil {
			pprof.StopCPUProfile()
			c.cpuFile.Close()
			c.cpuFile = nil
		}
		if c.MemProfile != "" {
			f, err := os.Create(c.MemProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", c.prog, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", c.prog, err)
			}
		}
	}, nil
}

// ReportSched prints the shared one-line host-scheduling summary to
// stderr: "<label>: <stats>". It is wall-clock metadata and never
// part of stdout.
func (c *Common) ReportSched(label string, stats *sched.Stats) {
	if stats == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: %s\n", label, stats)
}

// ReportShards prints the shared one-line shard-utilization summary
// to stderr: how many worlds ran, how many of them decomposed into
// multiple node groups, the conservative windows executed, the
// per-phase wall split of the window loops (group execution vs
// barrier deferred-op application vs window-bound maintenance — the
// engine-layer start of a Breaking-Band-style cost attribution), the
// events barrier ops delivered to node groups and how many of them the
// worker pool applied, the largest window worker parallelism used, the
// executed events, the largest node-group count of any one world, and
// the worst per-world event imbalance across groups (busiest group
// over the mean). The CI shard-determinism job greps this line to
// assert the grouped path really ran — a silent fallback to one
// sequential engine would show grouped=0 — and the
// topology-determinism job to assert pool deliveries ran (par > 0).
func (c *Common) ReportShards(label string) {
	u := simruntime.Usage()
	if u.Worlds == 0 {
		return
	}
	var events int64
	for _, e := range u.Events {
		events += e
	}
	fmt.Fprintf(os.Stderr, "%s: worlds=%d grouped=%d windows=%d exec=%v barrier=%v scan=%v deliveries=%d par=%d workers<=%d events=%d groups<=%d imbalance<=%.2f\n",
		label, u.Worlds, u.Grouped, u.Windows,
		u.ExecWall.Round(time.Millisecond), u.BarrierWall.Round(time.Millisecond),
		u.ScanWall.Round(time.Millisecond), u.Deliveries, u.ParDeliveries,
		u.MaxWorkers, events, u.MaxGroups, u.Imbalance)
}
