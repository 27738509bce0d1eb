// Integration certification of device-stream scheduling: the fire
// times a full transport run records must be invariant across the
// engine shard count and the host job count, certified by the world's
// event digest, which folds each fire as its injection event.
package gpu_test

import (
	"testing"

	"msgroofline/internal/comm"
	"msgroofline/internal/machine"
	"msgroofline/internal/sched"
)

const (
	sdSlots     = 8
	sdSlotBytes = 16
)

// streamDigest runs one stream-triggered delivery window at the given
// shard count and returns the run's event digest.
func streamDigest(t *testing.T, shards int) uint64 {
	t.Helper()
	cfg, err := machine.Get("perlmutter-gpu")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := comm.New(comm.Spec{
		Machine: cfg, Kind: comm.StreamTriggered, Ranks: 2,
		StreamSlots: []int{0, sdSlots}, SlotBytes: sdSlotBytes,
		Shards: shards, NoTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = tr.Launch(func(ep comm.Endpoint) {
		switch ep.Rank() {
		case 0:
			payload := make([]byte, sdSlotBytes)
			for s := 0; s < sdSlots; s++ {
				ep.Deliver(1, s, payload)
			}
			ep.Quiet()
		case 1:
			for n := 0; n < sdSlots; n++ {
				ep.WaitAnySlot()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	ins, ok := tr.(comm.StreamInspector)
	if !ok {
		t.Fatal("stream-triggered transport does not expose its stream")
	}
	if n := ins.Stream(0).Fired(); n != sdSlots {
		t.Fatalf("stream fired %d descriptors, want %d", n, sdSlots)
	}
	return tr.Digest()
}

// TestStreamDigestShardAndJobInvariant pins the certification: the
// same delivery window replayed at shards 1/2/4 and scheduled across
// 1 or 8 concurrent jobs always folds the identical fire schedule.
func TestStreamDigestShardAndJobInvariant(t *testing.T) {
	want := streamDigest(t, 1)
	if want == 0 {
		t.Fatal("event digest folded nothing")
	}
	for _, shards := range []int{2, 4} {
		if got := streamDigest(t, shards); got != want {
			t.Fatalf("shards=%d: event digest %016x, want %016x", shards, got, want)
		}
	}
	for _, jobs := range []int{1, 8} {
		digests, _, err := sched.Map(jobs, 8, func(i int) (uint64, error) {
			return streamDigest(t, 1+i%4), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range digests {
			if d != want {
				t.Fatalf("jobs=%d run %d: event digest %016x, want %016x", jobs, i, d, want)
			}
		}
	}
}
