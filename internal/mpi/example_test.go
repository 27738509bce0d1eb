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
	c, _ := mpi.NewCommSharded(cfg, 4, 1)
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
