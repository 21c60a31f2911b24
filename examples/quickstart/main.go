// Quickstart: run the unbeatable Optmin[k] protocol on a small system
// through the Engine facade, inspect the knowledge that drives its
// decisions, and verify the task.
package main

import (
	"context"
	"fmt"
	"log"

	setconsensus "setconsensus"
)

func main() {
	// Six processes, 2-set consensus, at most three crashes. Process 0
	// holds the low value 0; process 5 crashes in round 1, delivering its
	// final message only to process 4.
	adv := setconsensus.NewBuilder(6, 2).
		Input(0, 0).
		Input(5, 1).
		CrashSendingTo(5, 1, 4).
		MustBuild()

	// The engine resolves protocols by name and defaults to the oracle
	// backend; t and k are engine-level configuration, n comes from the
	// adversary.
	eng := setconsensus.New(
		setconsensus.WithCrashBound(3),
		setconsensus.WithDegree(2),
	)
	res, err := eng.Run(context.Background(), "optmin", adv)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run of %s on %s\n\n", res.Protocol, adv)
	for i := 0; i < adv.N(); i++ {
		if d := res.Decisions[i]; d != nil {
			fmt.Printf("  process %d decides %d at time %d\n", i, d.Value, d.Time)
		} else {
			fmt.Printf("  process %d crashes undecided\n", i)
		}
	}

	// Why did process 1 decide when it did? Ask the knowledge graph the
	// oracle backend consulted, which KnowledgeGraph rebuilds on demand.
	g := res.KnowledgeGraph()
	k := res.Params.K
	fmt.Printf("\nknowledge of process 1 over time (k = %d):\n", k)
	for m := 0; m <= 2; m++ {
		fmt.Printf("  t=%d: Min=%d low=%v HC=%d\n",
			m, g.Min(1, m), g.Low(1, m, k), g.HiddenCapacity(1, m))
	}

	if err := res.Verify(setconsensus.Task{K: 2}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nnonuniform 2-set consensus verified ✓")
}
