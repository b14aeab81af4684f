package wal

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"stsmatch/internal/dataset"
	"stsmatch/internal/fsm"
	"stsmatch/internal/plr"
	"stsmatch/internal/signal"
)

// benchRecord is a representative hot-path record: a vertex-append of
// one segment boundary (1-D position) as the server emits at ~1 Hz per
// session, amortized over many sessions.
func benchRecord(i int) Record {
	return Record{
		Type:      TypeVertexAppend,
		PatientID: "P01",
		SessionID: "S01",
		Vertices: plr.Sequence{{
			T:     float64(i),
			Pos:   []float64{12.5},
			State: plr.State(uint8(i) % 3),
		}},
	}
}

// BenchmarkWALAppend measures the buffered (group-commit) append path
// the ingestion hot loop pays per mutation.
func BenchmarkWALAppend(b *testing.B) {
	l, _, err := Open(Options{Dir: b.TempDir(), FsyncInterval: 1e9}, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(benchRecord(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppendSync measures the fully synchronous path
// (FsyncInterval 0): one fsync per append, the durability ceiling.
func BenchmarkWALAppendSync(b *testing.B) {
	l, _, err := Open(Options{Dir: b.TempDir()}, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(benchRecord(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecovery measures a full Open (snapshot scan + replay of
// 10k records) against a prebuilt log directory. Its appends are of
// one stream: with no subscription named they record no subscription
// op ("bare"), and after a subscription record their boundaries are one
// op ("subscribed").
func BenchmarkRecovery(b *testing.B) {
	for _, c := range []struct {
		name string
		lead []Record
		ops  int
	}{
		{"bare", nil, 0},
		{"subscribed", []Record{{Type: TypeSubUpsert, Sub: testSubState()}}, 2},
	} {
		b.Run(c.name, func(b *testing.B) {
			dir := b.TempDir()
			l, _, err := Open(Options{Dir: dir, FsyncInterval: 1e9}, nil)
			if err != nil {
				b.Fatal(err)
			}
			const appends = 10_000
			records := uint64(len(c.lead) + appends)
			for _, rec := range c.lead {
				if err := l.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < appends; i++ {
				if err := l.Append(benchRecord(i)); err != nil {
					b.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l, res, err := Open(Options{Dir: dir, FsyncInterval: 1e9}, nil)
				if err != nil {
					b.Fatal(err)
				}
				if res.RecordsReplayed != records || len(res.SubOps) != c.ops {
					b.Fatalf("replayed %d records into %d subscription ops, want %d into %d", res.RecordsReplayed, len(res.SubOps), records, c.ops)
				}
				l.Close()
			}
		})
	}
}

// BenchmarkSnapshotRecovery measures Open on a directory whose snapshot
// holds a corpus of bench/'s corpus_large size (200 patients x 600 s,
// ~100k vertices) and whose log tail is 100 records, and reports the
// peak HeapInuse of one Open (sampled every 100 µs) and the snapshot's
// size beside ns/op.
func BenchmarkSnapshotRecovery(b *testing.B) {
	cfg := signal.DefaultCohort()
	cfg.NumPatients, cfg.SessionsPer, cfg.SessionDur = 200, 1, 600
	db, _, err := dataset.Build(cfg, fsm.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	l, _, err := Open(Options{Dir: dir, FsyncInterval: 1e9}, db) // snapshots db
	if err != nil {
		b.Fatal(err)
	}
	const records = 100
	for i := 0; i < records; i++ {
		if err := l.Append(benchRecord(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	recoverOnce := func() {
		l, res, err := Open(Options{Dir: dir, FsyncInterval: 1e9}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.SnapshotLSN == 0 || res.RecordsReplayed != records {
			b.Fatalf("snapshot LSN %d, %d records replayed; want a snapshot and %d", res.SnapshotLSN, res.RecordsReplayed, records)
		}
		l.Close()
	}

	db = nil
	runtime.GC()
	var peak uint64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapInuse)
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}()
	recoverOnce()
	close(stop)
	<-done

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recoverOnce()
	}
	b.ReportMetric(float64(peak)/(1<<20), "peak-heap-MiB")
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.db"))
	if err != nil || len(snaps) != 1 {
		b.Fatalf("snapshots %v, %v", snaps, err)
	}
	if fi, err := os.Stat(snaps[0]); err == nil {
		b.ReportMetric(float64(fi.Size())/(1<<20), "snapshot-MiB")
	}
}
