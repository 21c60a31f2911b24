package service

import (
	"context"
	"testing"
	"time"
)

// BenchmarkServiceSubmit measures the service overhead per job — admit,
// enqueue, claim, engine construction, run, terminal fan-out — on the
// smallest real sweep (one adversary, one protocol), i.e. the fixed cost
// a job pays on top of its sweep. Gated in CI by benchguard against the
// pr10_post baseline, the label the bench-regression job passes.
func BenchmarkServiceSubmit(b *testing.B) {
	p := Default()
	p.Workers = 2
	p.QueueDepth = 64
	p.JobDeadline = time.Minute
	p.EngineParallelism = 2
	p.ProgressInterval = time.Second
	s, err := New(p)
	if err != nil {
		b.Fatal(err)
	}
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			b.Fatal(err)
		}
	}()

	req := JobRequest{Kind: KindSweep, Refs: []string{"optmin"}, Workload: "collapse:k=1,r=2"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := s.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		j, ok := s.store.get(st.ID)
		if !ok {
			b.Fatalf("submitted job %s not in store", st.ID)
		}
		for range j.subscribe() {
		}
		if final := j.status(); final.State != StateDone {
			b.Fatalf("job %s finished %s (%s)", st.ID, final.State, final.Error)
		}
	}
}
