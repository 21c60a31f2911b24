// Command experiments regenerates the paper-reproduction tables E1–E10
// (one per figure/theorem; see DESIGN.md §4 and EXPERIMENTS.md) through
// the library facade, and runs ad-hoc workload sweeps in the same table
// format.
//
// Usage:
//
//	experiments                  # run everything
//	experiments -id E4           # run one experiment
//	experiments -list            # list experiment ids and titles
//
//	# Ad-hoc sweep: stream a named workload through named protocols and
//	# print the online-aggregated summary table.
//	experiments -workload "collapse:k=3,r=2..8" -protocols upmin,floodmin -k 3
//	experiments -workload "space:n=4,t=2,r=2,v=0..1" -protocols optmin -t 2
//
//	# Named unbeatability analyses on the Engine's pipeline, same table
//	# format:
//	experiments -analyze "search:upmin:n=3,t=2,r=2,width=2"
//	experiments -analyze "lemma2" -k 3
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	setconsensus "setconsensus"
	"setconsensus/internal/cli"
	"setconsensus/internal/experiments"
)

func main() {
	id := flag.String("id", "", "experiment id (E1..E10); empty runs all")
	list := flag.Bool("list", false, "list experiments and exit")
	analyze := flag.String("analyze", "", "run a named analysis family instead of E1..E10 (see setconsensus -list-analyses)")
	workload := flag.String("workload", "", "sweep a named workload instead of running E1..E10 (see setconsensus -list-workloads)")
	protocols := flag.String("protocols", "optmin,upmin", "comma-separated protocols for -workload sweeps")
	backendName := flag.String("backend", "oracle", "execution backend for -workload sweeps")
	k := flag.Int("k", 1, "coordination degree k for -workload sweeps")
	t := flag.Int("t", -1, "crash bound t for -workload sweeps (default: each adversary's failure count)")
	timeout := flag.Duration("timeout", 0, "abort -workload/-analyze after this duration (0 = no limit); exits 130 on expiry, like SIGINT/SIGTERM")
	flag.Parse()

	// Long sweeps and analyses cancel cleanly on SIGINT/SIGTERM or
	// -timeout — the engine drains its worker pool and the run exits
	// with the distinct cancellation code instead of dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *analyze != "" {
		if *workload != "" {
			fmt.Fprintln(os.Stderr, "-analyze and -workload are mutually exclusive")
			os.Exit(1)
		}
		backend, err := setconsensus.ParseBackend(*backendName)
		if err == nil {
			var rep *setconsensus.AnalysisReport
			if rep, err = cli.RunAnalysis(ctx, os.Stdout, *analyze, backend, *k); err == nil && !rep.OK() {
				err = fmt.Errorf("analysis FAILED: %s", rep)
			}
		}
		if err != nil {
			fail(err)
		}
		return
	}

	if *workload != "" {
		if err := sweep(ctx, *workload, *protocols, *backendName, *k, *t); err != nil {
			fail(err)
		}
		return
	}

	// -list prints the registry's titles without running an experiment.
	found := false
	for _, e := range experiments.Registry() {
		if *id != "" && e.ID != *id {
			continue
		}
		found = true
		if *list {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
			continue
		}
		tbl, err := e.Gen()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println(tbl.Render())
	}
	if !found {
		fmt.Fprintf(os.Stderr, "%s: experiments: unknown experiment %q\n", *id, *id)
		os.Exit(1)
	}
}

// fail reports a runtime failure, exiting with the distinct
// cancellation code when the context was cut short.
func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	if cli.Cancelled(err) {
		os.Exit(cli.ExitCancelled)
	}
	os.Exit(1)
}

// sweep streams the workload through the protocols and prints the
// summary in the experiment table format.
func sweep(ctx context.Context, workload, protocols, backendName string, k, t int) error {
	backend, err := setconsensus.ParseBackend(backendName)
	if err != nil {
		return err
	}
	sum, err := cli.SweepWorkload(ctx, os.Stdout, workload, cli.SplitList(protocols), backend, k, t)
	if err != nil {
		return err
	}
	if v, u := sum.Violations(), sum.Undecided(); v > 0 || u > 0 {
		return fmt.Errorf("%d task verification failures, %d undecided runs", v, u)
	}
	return nil
}
