// Package sim provides a deterministic discrete-event simulation engine.
//
// Simulated time is an integer count of picoseconds, which keeps every
// arithmetic operation exact: at 100 GB/s a single byte serializes in
// 10 ps, and an int64 of picoseconds still spans more than 100 days of
// simulated time, far beyond any experiment in this repository.
//
// Simulated processes (see Proc) are coroutines that execute one at a
// time under control of an Engine's event loop, so runs are fully
// reproducible: same inputs, same event order, same timings. A
// CoupledEngine runs one Engine per node group under conservative
// windows (coupled.go). A run fails only on a deadlock, on a group
// that defers more than DefaultMailboxCap ops in one window, or on a
// panic in an event or process, which Run re-raises.
package sim

import "fmt"

// Time is a point in (or duration of) simulated time, in picoseconds.
type Time int64

// Duration units. These mirror time.Duration but at picosecond
// resolution and in simulated, not wall-clock, time.
const (
	Picosecond  Time = 1
	Nanosecond       = 1000 * Picosecond
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Microseconds converts t to floating-point microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Nanoseconds converts t to floating-point nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// String renders t with an auto-selected unit, e.g. "3.300us".
func (t Time) String() string {
	switch {
	case t == 0:
		return "0s"
	case t < Nanosecond && t > -Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond && t > -Microsecond:
		return fmt.Sprintf("%.3fns", t.Nanoseconds())
	case t < Millisecond && t > -Millisecond:
		return fmt.Sprintf("%.3fus", t.Microseconds())
	case t < Second && t > -Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.6fs", t.Seconds())
	}
}

// FromSeconds converts floating-point seconds to simulated Time,
// rounding to the nearest picosecond.
func FromSeconds(s float64) Time { return Time(s*float64(Second) + 0.5) }

// FromMicroseconds converts floating-point microseconds to Time.
func FromMicroseconds(us float64) Time { return Time(us*float64(Microsecond) + 0.5) }

// FromNanoseconds converts floating-point nanoseconds to Time.
func FromNanoseconds(ns float64) Time { return Time(ns*float64(Nanosecond) + 0.5) }

// TransferTime returns the serialization time of b bytes at rate
// bytesPerSecond. It rounds up so that a transfer never takes zero
// time for a non-empty payload.
func TransferTime(b int64, bytesPerSecond float64) Time {
	if b <= 0 || bytesPerSecond <= 0 {
		return 0
	}
	ps := float64(b) / bytesPerSecond * float64(Second)
	t := Time(ps)
	if float64(t) < ps {
		t++
	}
	return t
}
