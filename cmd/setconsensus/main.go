// Command setconsensus runs k-set consensus protocols against a single
// adversary described on the command line, or against a whole named
// workload, and prints the decision table or the sweep summary.
//
// Protocols are resolved by name in the library's Registry — run with
// -list to see every registered protocol — and executed through the
// Engine facade on any of the three backends: the full-information
// oracle simulator (default), the goroutine message-passing engine, or
// the compact wire protocol with bit accounting. Workloads are resolved
// the same way in the WorkloadRegistry (-list-workloads), so adversary
// families are named, not hand-rolled.
//
// Examples:
//
//	# Optmin[2] on 6 processes with inputs 0,2,2,2,2,2 and one silent
//	# round-1 crash of process 1:
//	setconsensus -protocol optmin -k 2 -t 3 -inputs 0,2,2,2,2,2 -crash "1@1:"
//
//	# Sweep three protocols over the Fig. 4 collapse family, R = 2..6:
//	setconsensus -protocol upmin,optmin,floodmin -k 3 -workload "collapse:k=3,r=2..6"
//
//	# Exhaustive conformance sweep, streamed in constant memory:
//	setconsensus -protocol optmin -t 2 -workload "space:n=4,t=2,r=2,v=0..1"
//
//	# The compact wire backend with bandwidth stats:
//	setconsensus -protocol upmin -k 3 -workload "collapse:k=3" -backend wire
//
//	# Unbeatability analyses (deviation search, Lemma 1/2/3 certificates)
//	# on the same engine; see -list-analyses for the families:
//	setconsensus -analyze "search:optmin:n=3,t=2,r=3,width=2"
//	setconsensus -analyze "forced" -k 3
//
//	# Submit the same sweep to a running setconsensusd as a remote job —
//	# output is identical to executing locally:
//	setconsensus -server http://127.0.0.1:8372 -protocol optmin -t 2 \
//	    -workload "space:n=4,t=2,r=2,v=0..1"
//
//	# Coordinate the sweep across 4 local workers with checkpointed
//	# resume: killed mid-flight, the same invocation picks up where the
//	# checkpoint left off, and the final table is byte-identical to the
//	# single-process run. -join enlists setconsensusd servers as extra
//	# workers via range-scoped jobs.
//	setconsensus -coordinate -workers 4 -checkpoint sweep.ckpt \
//	    -protocol optmin -t 2 -workload "space:n=4,t=2,r=2,v=0..1"
//	setconsensus -coordinate -join http://10.0.0.2:8372,http://10.0.0.3:8372 \
//	    -protocol optmin -t 2 -workload "space:n=4,t=2,r=2,v=0..1"
//
//	# The same sweep under a seeded fault schedule (crashes, stragglers,
//	# one torn checkpoint append): the table is still byte-identical, the
//	# fault tally and breaker/retry counters go to stderr.
//	setconsensus -coordinate -workers 3 -checkpoint sweep.ckpt \
//	    -chaos "seed=7,crash=0.1,straggler=0.2,torn#1" \
//	    -protocol optmin -t 2 -workload "space:n=4,t=2,r=2,v=0..1"
//
// Crash syntax: "p@r:a,b" crashes process p in round r delivering only to
// a and b; "p@r:" is a silent crash; "p@r:*" is a complete send. Multiple
// crashes are separated by ';'. Workload syntax: "name" or
// "name:key=val,...", where integer values may be ranges like "2..6".
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"

	setconsensus "setconsensus"
	"setconsensus/internal/cli"
	"setconsensus/internal/govern"
)

func main() {
	protoNames := flag.String("protocol", "optmin", "comma-separated protocol names in the registry (see -list)")
	backendName := flag.String("backend", "oracle", "execution backend: oracle | goroutines | wire")
	k := flag.Int("k", 1, "coordination degree k")
	t := flag.Int("t", -1, "crash bound t (single run: default n−1; workload sweeps: default each adversary's failure count)")
	inputsFlag := flag.String("inputs", "", "comma-separated initial values (single-run mode)")
	crashFlag := flag.String("crash", "", "crash spec, e.g. \"1@1:2;3@2:*\" (single-run mode)")
	workload := flag.String("workload", "", "named workload to sweep, e.g. \"collapse:k=3,r=2..6\" (see -list-workloads)")
	coordinate := flag.Bool("coordinate", false, "shard the -workload sweep across workers with leases and checkpointed resume")
	workers := flag.Int("workers", 0, "coordinated sweep: number of in-process engine workers (default 2 when -join is empty)")
	join := flag.String("join", "", "coordinated sweep: comma-separated setconsensusd base URLs to enlist as remote workers")
	checkpoint := flag.String("checkpoint", "", "coordinated sweep: checkpoint journal; each finished range is appended as it completes, and an existing journal is resumed from")
	rangeSize := flag.Int("range-size", 0, "coordinated sweep: adversaries per work range (0 = default)")
	lease := flag.Duration("lease", 0, "coordinated sweep: per-range worker lease before re-issue (0 = default)")
	chaosSpec := flag.String("chaos", "", "coordinated sweep: fault-injection spec, e.g. \"seed=7,crash=0.1,straggler=0.2,delay=20ms,torn#1\"; faults tally to stderr, output stays byte-identical")
	analyze := flag.String("analyze", "", "named analysis to run, e.g. \"search:optmin:width=2\" or \"forced:k=3\" (see -list-analyses)")
	server := flag.String("server", "", "setconsensusd base URL; -workload/-analyze submit as remote jobs, e.g. http://127.0.0.1:8372")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit); exits 130 on expiry, like SIGINT/SIGTERM")
	memLimit := flag.String("memlimit", "", "Go runtime memory limit (GOMEMLIMIT), e.g. 4GiB; empty = unlimited")
	list := flag.Bool("list", false, "list registered protocols and exit")
	listWorkloads := flag.Bool("list-workloads", false, "list registered workloads and exit")
	listAnalyses := flag.Bool("list-analyses", false, "list registered analysis families and exit")
	flag.Parse()

	if *memLimit != "" {
		n, err := govern.ParseBytes(*memLimit)
		if err != nil {
			fmt.Fprintf(os.Stderr, "setconsensus: -memlimit: %v\n", err)
			os.Exit(2)
		}
		if n > 0 {
			debug.SetMemoryLimit(n)
		}
	}

	// A long sweep or analysis must cancel cleanly — worker pools
	// drained, summaries unwritten rather than half-written — instead of
	// dying mid-write: SIGINT/SIGTERM and -timeout all flow through one
	// context, and cancellation exits with its own code (130).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *list {
		for _, spec := range setconsensus.DefaultRegistry().Specs() {
			wire := ""
			if spec.WireCapable() {
				wire = "  [wire-capable]"
			}
			fmt.Printf("%-14s %s%s\n", spec.Name, spec.Summary, wire)
		}
		return
	}
	if *listWorkloads {
		for _, spec := range setconsensus.DefaultWorkloads().Specs() {
			fmt.Printf("%-14s %s\n", spec.Name, spec.Summary)
			fmt.Printf("%-14s   params: %s\n", "", spec.Params)
		}
		return
	}
	if *listAnalyses {
		cli.ListAnalyses(os.Stdout)
		return
	}

	backend, err := setconsensus.ParseBackend(*backendName)
	if err != nil {
		fatal(err)
	}

	if *analyze != "" {
		if *workload != "" || *inputsFlag != "" || *crashFlag != "" {
			fatal(fmt.Errorf("-analyze and -workload/-inputs/-crash are mutually exclusive"))
		}
		var rep *setconsensus.AnalysisReport
		var err error
		if *server != "" {
			rep, err = cli.RunAnalysisRemote(ctx, os.Stdout, *server, *analyze, backend, *k)
		} else {
			rep, err = cli.RunAnalysis(ctx, os.Stdout, *analyze, backend, *k)
		}
		if err != nil {
			fatalRun(err)
		}
		// Same exit contract as the sweep modes: 1 = the paper's claim
		// failed to verify (a beating deviation or an uncertified node),
		// 2 = bad invocation.
		if !rep.OK() {
			fmt.Fprintf(os.Stderr, "analysis: FAILED: %s\n", rep)
			os.Exit(1)
		}
		return
	}
	refs := cli.SplitList(*protoNames)
	if len(refs) == 0 {
		fatal(fmt.Errorf("need -protocol"))
	}
	if *coordinate && *workload == "" {
		fatal(fmt.Errorf("-coordinate requires -workload"))
	}
	if *chaosSpec != "" && !*coordinate {
		fatal(fmt.Errorf("-chaos injects faults into coordinated sweeps; it requires -coordinate"))
	}

	if *workload != "" {
		if *inputsFlag != "" || *crashFlag != "" {
			fatal(fmt.Errorf("-workload and -inputs/-crash are mutually exclusive"))
		}
		var sum *setconsensus.Summary
		var err error
		switch {
		case *coordinate:
			if *server != "" {
				fatal(fmt.Errorf("-coordinate runs the coordinator here; enlist servers with -join, not -server"))
			}
			opts := cli.CoordinateOpts{
				Workers:    *workers,
				Join:       cli.SplitList(*join),
				Checkpoint: *checkpoint,
				RangeSize:  *rangeSize,
				Lease:      *lease,
				Chaos:      *chaosSpec,
			}
			if opts.Workers == 0 && len(opts.Join) == 0 {
				opts.Workers = 2
			}
			sum, err = cli.CoordinateWorkload(ctx, os.Stdout, *workload, refs, backend, *k, *t, opts)
		case *server != "":
			sum, err = cli.SweepWorkloadRemote(ctx, os.Stdout, *server, *workload, refs, backend, *k, *t)
		default:
			sum, err = cli.SweepWorkload(ctx, os.Stdout, *workload, refs, backend, *k, *t)
		}
		if err != nil {
			fatalRun(err)
		}
		// Same exit contract as single-run mode: 1 = task violation
		// (including a correct process never deciding), 2 = bad
		// invocation.
		if v, u := sum.Violations(), sum.Undecided(); v > 0 || u > 0 {
			fmt.Fprintf(os.Stderr, "verification: FAILED: %d task violations, %d undecided runs\n", v, u)
			os.Exit(1)
		}
		return
	}

	if len(refs) > 1 {
		fatal(fmt.Errorf("single-run mode takes one -protocol (got %d); use -workload to sweep", len(refs)))
	}
	if *server != "" {
		fatal(fmt.Errorf("-server submits -workload sweeps and -analyze jobs; single runs execute locally"))
	}
	adv, tBound, err := buildAdversary(*inputsFlag, *crashFlag, *t)
	if err != nil {
		fatal(err)
	}
	if err := runSingle(ctx, refs[0], adv, backend, *k, tBound); err != nil {
		fatalRun(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

// fatalRun reports a runtime failure, distinguishing cancellation
// (SIGINT/SIGTERM/-timeout → 130) from bad invocations (2).
func fatalRun(err error) {
	fmt.Fprintln(os.Stderr, err)
	if cli.Cancelled(err) {
		os.Exit(cli.ExitCancelled)
	}
	os.Exit(2)
}

// runSingle executes one protocol against one adversary and prints the
// decision table.
func runSingle(ctx context.Context, ref string, adv *setconsensus.Adversary, backend setconsensus.BackendKind, k, tBound int) error {
	spec, err := setconsensus.LookupProtocol(ref)
	if err != nil {
		return err
	}
	eng := setconsensus.New(
		setconsensus.WithBackend(backend),
		setconsensus.WithCrashBound(tBound),
		setconsensus.WithDegree(k),
	)
	res, err := eng.Run(ctx, spec.Name, adv)
	if err != nil {
		return err
	}

	fmt.Printf("adversary: %s\n", adv)
	fmt.Printf("protocol:  %s on %s backend (n=%d, t=%d, k=%d)\n\n",
		res.Protocol, res.Backend, res.Params.N, res.Params.T, res.Params.K)
	fmt.Println("proc  decision  time")
	for i := 0; i < adv.N(); i++ {
		d := res.Decisions[i]
		status := ""
		if adv.Pattern.Faulty(i) {
			status = fmt.Sprintf("  (crashes in round %d)", adv.Pattern.CrashRound(i))
		}
		if d == nil {
			fmt.Printf("%4d  %8s  %4s%s\n", i, "⊥", "-", status)
		} else {
			fmt.Printf("%4d  %8d  %4d%s\n", i, d.Value, d.Time, status)
		}
	}
	if res.Bits != nil {
		fmt.Printf("\nbandwidth: max %d bits on any link, %d bits total\n", res.Bits.MaxPair, res.Bits.Total)
	}
	task := spec.Task(k)
	if err := res.Verify(task); err != nil {
		fmt.Printf("\nverification: FAILED: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\nverification: %s satisfied\n", task)
	return nil
}

// buildAdversary parses the single-run flags -inputs, -crash and -t into
// an adversary and its crash bound, n−1 when t < 0. It rejects what the
// engine would refuse to run: an adversary that fails Validate, or a
// bound outside 0..n−1.
func buildAdversary(inputs, crash string, t int) (*setconsensus.Adversary, int, error) {
	if inputs == "" {
		return nil, 0, fmt.Errorf("need -inputs (or -workload)")
	}
	var vals []int
	for _, f := range strings.Split(inputs, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, 0, fmt.Errorf("bad input %q: %v", f, err)
		}
		vals = append(vals, v)
	}
	n := len(vals)
	b := setconsensus.NewBuilder(n, 0).Inputs(vals...)
	if crash != "" {
		for _, spec := range strings.Split(crash, ";") {
			if err := applyCrash(b, spec, n); err != nil {
				return nil, 0, err
			}
		}
	}
	adv, err := b.Build()
	if err != nil {
		return nil, 0, err
	}
	if err := adv.Validate(-1, -1); err != nil {
		return nil, 0, err
	}
	if t < 0 {
		t = n - 1
	}
	if err := (setconsensus.Params{N: n, T: t, K: 1}).Validate(); err != nil {
		return nil, 0, err
	}
	return adv, t, nil
}

func applyCrash(b *setconsensus.Builder, spec string, n int) error {
	at := strings.SplitN(spec, "@", 2)
	if len(at) != 2 {
		return fmt.Errorf("bad crash spec %q (want p@r:recv)", spec)
	}
	colon := strings.SplitN(at[1], ":", 2)
	if len(colon) != 2 {
		return fmt.Errorf("bad crash spec %q (want p@r:recv)", spec)
	}
	p, err := strconv.Atoi(strings.TrimSpace(at[0]))
	if err != nil {
		return fmt.Errorf("bad process in %q", spec)
	}
	r, err := strconv.Atoi(strings.TrimSpace(colon[0]))
	if err != nil {
		return fmt.Errorf("bad round in %q", spec)
	}
	recv := strings.TrimSpace(colon[1])
	switch recv {
	case "":
		b.CrashSilent(p, r)
	case "*":
		b.CrashSendingToAll(p, r)
	default:
		var rs []int
		for _, f := range strings.Split(recv, ",") {
			q, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || q < 0 || q >= n {
				return fmt.Errorf("bad receiver %q in %q", f, spec)
			}
			rs = append(rs, q)
		}
		b.CrashSendingTo(p, r, rs...)
	}
	return nil
}
