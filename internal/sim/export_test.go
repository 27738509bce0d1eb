package sim

// SetPoolHook installs h, which pool worker w runs as it enters a task:
// the coordinator (w = 0) after opening the gate and before claiming,
// a helper (w > 0) after its wake and before joining. Tests block or
// delay in it to choose who claims the task's blocks.
func SetPoolHook(ce *CoupledEngine, h func(w int)) { ce.poolHook = h }

// WakeMin is the fewest active groups for which a pooled window wakes
// the helpers after the first.
const WakeMin = wakeMin
