package server

import (
	"fmt"
	"math"
	"testing"
	"time"

	"stsmatch/internal/core"
	"stsmatch/internal/fsm"
	"stsmatch/internal/plr"
	"stsmatch/internal/store"
)

// BenchmarkSnapshotHold is the time one Server.snapshot holds s.mu, over
// a history of 10 k and 100 k vertices (streams of 1 000): every ingest,
// predict and WAL append on the node waits that long. The lock is taken
// uncontended, so the time per op is the hold.
func BenchmarkSnapshotHold(b *testing.B) {
	const perStream = 1000
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("vertices=%dk", n/1000), func(b *testing.B) {
			db := store.NewDB()
			seq := make(plr.Sequence, perStream)
			for j := range seq {
				seq[j] = plr.Vertex{T: float64(j), Pos: []float64{math.Sin(float64(j))}, State: plr.State(j % 3)}
			}
			for i := 0; i < n/perStream; i++ {
				p, err := db.AddPatient(store.PatientInfo{ID: fmt.Sprintf("P%03d", i)})
				if err != nil {
					b.Fatal(err)
				}
				if err := p.AddStream("S").Append(seq...); err != nil {
					b.Fatal(err)
				}
			}
			srv, err := NewWithOptions(db, core.DefaultParams(), fsm.DefaultConfig(), Options{
				DataDir:       b.TempDir(),
				FsyncInterval: 50 * time.Millisecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { srv.Close() })
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := srv.snapshot(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
