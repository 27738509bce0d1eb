package mpi_test

import (
	"fmt"

	"msgroofline/internal/machine"
	"msgroofline/internal/mpi"
)

// ExampleComm_Launch shows the minimal two-sided program: a ring of
// ranks passing a token.
func ExampleComm_Launch() {
	cfg, _ := machine.Get("perlmutter-cpu")
	c, _ := mpi.NewComm(cfg, 4)
	err := c.Launch(func(r *mpi.Rank) {
		next := (r.Rank() + 1) % r.Size()
		prev := (r.Rank() - 1 + r.Size()) % r.Size()
		r.Isend(next, 0, []byte{byte(r.Rank())})
		req := r.Recv(prev, 0)
		if r.Rank() == 0 {
			fmt.Printf("rank 0 received token from rank %d\n", req.Data[0])
		}
	})
	fmt.Println("err:", err)
	// Output:
	// rank 0 received token from rank 3
	// err: <nil>
}

// ExampleRank_PutNotify shows the extension operation: a fused
// one-sided put with a hardware notification.
func ExampleRank_PutNotify() {
	cfg, _ := machine.Get("perlmutter-cpu")
	c, _ := mpi.NewComm(cfg, 2)
	w, _ := c.NewWin(64)
	_ = c.Launch(func(r *mpi.Rank) {
		switch r.Rank() {
		case 0:
			_ = r.PutNotify(w, 1, 0, []byte("hello"), 32, 1)
		case 1:
			r.WaitNotify(w, 32, 1)
			fmt.Printf("rank 1 sees %q\n", w.Local(1)[:5])
		}
	})
	// Output:
	// rank 1 sees "hello"
}
