package unbeat

import (
	"context"
	"fmt"
	"sort"

	"setconsensus/internal/bitset"
	"setconsensus/internal/knowledge"
	"setconsensus/internal/model"
)

// This file executes the constructive combinatorial proof of Lemma 1 and
// Lemma 3 (Appendix B) as machine-checked certificates. A certificate does
// not quantify over protocols symbolically; instead it materializes every
// run the proof constructs (the Lemma 2 run r′, the per-witness
// recursions, and the "change" runs r^k, …, r^0 for every possible order
// in which a dominating protocol could assign low values to the hidden
// processes j_1..j_k) and checks every side condition the proof relies
// on: view-fingerprint indistinguishability, the exact low-value sets, and
// the hidden/high classifications. A successfully built certificate is
// precisely the paper's argument instantiated on this run.

// ForcedCert certifies that, in any protocol P that solves nonuniform
// k-set consensus and decides every low process immediately (as any
// protocol dominating Optmin[k] must), the process Node decides its unique
// low value Value at time Time in the run it was built from (Lemma 1).
type ForcedCert struct {
	Node  model.Proc
	Time  int
	Value model.Value
	K     int

	// Hidden is the Lemma 2 construction used by the induction step
	// (nil at the base case m = 0, and for k = 1 where no extra chains
	// are needed).
	Hidden *HiddenRunResult
	// Senders maps each low value to the process that carries it at time
	// Time−1 in the constructed run (the i_w of the proof; Senders[Value]
	// is the i_v message sender). Empty at the base case.
	Senders map[model.Value]model.Proc
	// Sub holds the induction-hypothesis certificates, one per low value,
	// forcing Senders[w] to decide w by Time−1.
	Sub map[model.Value]*ForcedCert
	// Js are the k hidden high processes of condition 4.
	Js []model.Proc
	// Orders counts the change-run orderings explored (k! at an
	// induction step, 0 at the base).
	Orders int
}

// String renders the certificate's conclusion in the report convention
// (typed fields carry the data; String is the display form).
func (c *ForcedCert) String() string {
	if c == nil {
		return "<no certificate>"
	}
	s := fmt.Sprintf("forced: ⟨%d,%d⟩ decides %d (k=%d", c.Node, c.Time, c.Value, c.K)
	if c.Orders > 0 {
		s += fmt.Sprintf(", %d change orderings", c.Orders)
	}
	if len(c.Senders) > 0 {
		vals := make([]int, 0, len(c.Senders))
		for v := range c.Senders {
			vals = append(vals, v)
		}
		sort.Ints(vals)
		s += ", senders"
		for _, v := range vals {
			s += fmt.Sprintf(" %d←%d", v, c.Senders[v])
		}
	}
	return s + ")"
}

// TotalOrders sums the change-run orderings validated by this
// certificate and its whole induction tree — the work metric the
// "forced" analysis family aggregates.
func (c *ForcedCert) TotalOrders() int {
	if c == nil {
		return 0
	}
	total := c.Orders
	for _, sub := range c.Sub {
		total += sub.TotalOrders()
	}
	return total
}

// conditions verifies the four hypotheses of Lemma 1 for ⟨w,m⟩ in g and
// returns the unique low value and the k condition-4 processes.
func conditions(g *knowledge.Graph, w model.Proc, m, k int) (model.Value, []model.Proc, error) {
	lows := lowsOf(g, w, m, k)
	if lows.Count() != 1 {
		return 0, nil, fmt.Errorf("unbeat: ⟨%d,%d⟩ has %d low values, need exactly 1", w, m, lows.Count())
	}
	v, _ := lows.Min()
	if m > 0 && lowsOf(g, w, m-1, k).Count() != 0 {
		return 0, nil, fmt.Errorf("unbeat: ⟨%d,%d⟩ is not low for the first time", w, m)
	}
	if hc := g.HiddenCapacity(w, m); hc < k-1 {
		return 0, nil, fmt.Errorf("unbeat: HC⟨%d,%d⟩ = %d < k−1 = %d", w, m, hc, k-1)
	}
	var js []model.Proc
	for j := 0; j < g.Adv.N() && len(js) < k; j++ {
		if j == w || !g.Active(j, m) || !g.Hidden(w, m, j, m) {
			continue
		}
		if m > 0 && lowsOf(g, j, m-1, k).Count() != 0 {
			continue // must be high at m−1
		}
		js = append(js, j)
	}
	if len(js) < k {
		return 0, nil, fmt.Errorf("unbeat: condition 4 fails at ⟨%d,%d⟩: only %d hidden high processes", w, m, len(js))
	}
	return v, js, nil
}

func lowsOf(g *knowledge.Graph, i model.Proc, m, k int) *bitset.Set {
	out := &bitset.Set{}
	g.Vals(i, m).ForEach(func(v int) bool {
		if v < k {
			out.Add(v)
		}
		return true
	})
	return out
}

// ForcedLow builds the Lemma 1 certificate for ⟨w,m⟩ in the run of g: the
// full induction of the paper, materialized. The context is checked at
// every induction step and change-run ordering, so cancelling it aborts
// a deep certificate promptly.
func ForcedLow(ctx context.Context, g *knowledge.Graph, w model.Proc, m, k int) (*ForcedCert, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v, js, err := conditions(g, w, m, k)
	if err != nil {
		return nil, err
	}
	cert := &ForcedCert{Node: w, Time: m, Value: v, K: k, Js: js}
	if m == 0 {
		// Base: Vals⟨w,0⟩ = {v}; Validity alone forces the decision.
		if c := g.Vals(w, 0).Count(); c != 1 {
			return nil, fmt.Errorf("unbeat: base case needs Vals⟨%d,0⟩ = {v}, have %d values", w, c)
		}
		return cert, nil
	}

	// Induction step. Build r′ carrying the other low values through
	// hidden chains (Lemma 2); for k = 1 there are none and r′ = r.
	gp := g
	var otherLows []model.Value
	for lw := 0; lw < k; lw++ {
		if lw != v {
			otherLows = append(otherLows, lw)
		}
	}
	if len(otherLows) > 0 {
		h, err := HiddenRun(g, w, m, otherLows)
		if err != nil {
			return nil, fmt.Errorf("unbeat: step Lemma-2 run at ⟨%d,%d⟩: %w", w, m, err)
		}
		gp, err = h.Verify(ctx, g)
		if err != nil {
			return nil, fmt.Errorf("unbeat: step Lemma-2 verification: %w", err)
		}
		cert.Hidden = h
	}

	// Locate the senders i_w carrying each low value at time m−1 in r′.
	senders := make(map[model.Value]model.Proc, k)
	if cert.Hidden != nil {
		for b, lw := range otherLows {
			iw := cert.Hidden.Witnesses[m-1][b]
			if got := lowsOf(gp, iw, m-1, k); got.Count() != 1 || !got.Contains(lw) {
				return nil, fmt.Errorf("unbeat: witness ⟨%d,%d⟩ carries lows %s, want {%d}", iw, m-1, got, lw)
			}
			senders[lw] = iw
		}
	}
	iv, err := findValueSender(gp, w, m, v, k)
	if err != nil {
		return nil, err
	}
	senders[v] = iv
	cert.Senders = senders

	// Induction hypothesis: each sender is forced to decide its value at
	// m−1 in r′.
	cert.Sub = make(map[model.Value]*ForcedCert, k)
	for lw, s := range senders {
		sub, err := ForcedLow(ctx, gp, s, m-1, k)
		if err != nil {
			return nil, fmt.Errorf("unbeat: recursion on sender %d of value %d at time %d: %w", s, lw, m-1, err)
		}
		if sub.Value != lw {
			return nil, fmt.Errorf("unbeat: recursion forced %d, want %d", sub.Value, lw)
		}
		cert.Sub[lw] = sub
	}

	// Change phase: for every order in which a dominating protocol could
	// assign low values to j_1..j_k, the corresponding chain of change
	// runs exists and is locally invisible. The proof processes changes
	// k, k−1, …, 1, each pinning j_b's decision into the complement of
	// the already-taken values.
	base := gp.Adv
	wFp := gp.Fingerprint(w, m)
	orders, err := exploreChanges(ctx, base, gp, w, m, k, js, senders, wFp)
	if err != nil {
		return nil, err
	}
	cert.Orders = orders
	return cert, nil
}

// findValueSender locates i_v: a process whose round-m message brought v
// to w, with Lows⟨i_v,m−1⟩ = {v} (as the proof derives).
func findValueSender(g *knowledge.Graph, w model.Proc, m int, v model.Value, k int) (model.Proc, error) {
	for x := 0; x < g.Adv.N(); x++ {
		if x == w || !g.Adv.Pattern.Delivered(x, w, m) {
			continue
		}
		lows := lowsOf(g, x, m-1, k)
		if lows.Count() == 1 && lows.Contains(v) {
			return x, nil
		}
	}
	return 0, fmt.Errorf("unbeat: no round-%d sender of value %d to process %d", m, v, w)
}

// exploreChanges walks every order in which values can be taken by
// j_k, …, j_1, materializing each change run and checking the proof's
// invariants. It returns the number of complete orderings validated.
// The walk is the k!-sized inner loop of a forced certificate, so the
// context is polled at every frame.
func exploreChanges(ctx context.Context, base *model.Adversary, gBase *knowledge.Graph, w model.Proc, m, k int,
	js []model.Proc, senders map[model.Value]model.Proc, wFp string) (int, error) {

	type frame struct {
		run   *model.Adversary
		jFps  map[model.Proc]string // pinned fingerprints of processed j's
		taken *bitset.Set
	}
	var walk func(fr frame, b int) (int, error)
	walk = func(fr frame, b int) (int, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if b == 0 {
			return 1, nil
		}
		jb := js[b-1]
		next, g2, err := applyChange(fr.run, jb, m, k, js, senders, fr.taken)
		if err != nil {
			return 0, err
		}
		// Invariants: w's view at m is unchanged, and so is every
		// already-processed j's.
		if got := g2.Fingerprint(w, m); got != wFp {
			return 0, fmt.Errorf("unbeat: change for j=%d altered ⟨%d,%d⟩'s view", jb, w, m)
		}
		for jp, fp := range fr.jFps {
			if got := g2.Fingerprint(jp, m); got != fp {
				return 0, fmt.Errorf("unbeat: change for j=%d altered pinned ⟨%d,%d⟩", jb, jp, m)
			}
		}
		// j_b's low set must be exactly the untaken values.
		gotLows := lowsOf(g2, jb, m, k)
		want := bitset.New(k)
		for lw := 0; lw < k; lw++ {
			if !fr.taken.Contains(lw) {
				want.Add(lw)
			}
		}
		if !gotLows.Equal(want) {
			return 0, fmt.Errorf("unbeat: change for j=%d: Lows⟨%d,%d⟩ = %s, want %s", jb, jb, m, gotLows, want)
		}
		// Auxiliary run s (the proof's agreement-forcing step): j_b and
		// every process it hears from at time m never fail, yet j_b's view
		// at m is unchanged — so, with the untaken senders now correct and
		// deciding their values (their time-(m−1) views are intact), j_b
		// cannot decide a high value without a (k+1)-st correct decision.
		aux := next.Clone()
		for _, s := range senders {
			if cr, faulty := aux.Pattern.Crash(s); faulty && cr.Round >= m && cr.Delivered.Contains(jb) {
				aux.Pattern.RemoveCrash(s)
			}
		}
		gAux := knowledge.New(aux, m)
		if gAux.Fingerprint(jb, m) != g2.Fingerprint(jb, m) {
			return 0, fmt.Errorf("unbeat: auxiliary run distinguishable to ⟨%d,%d⟩", jb, m)
		}
		for lw, s := range senders {
			if fr.taken.Contains(lw) {
				continue
			}
			if gAux.Fingerprint(s, m-1) != gBase.Fingerprint(s, m-1) {
				return 0, fmt.Errorf("unbeat: auxiliary run altered sender ⟨%d,%d⟩", s, m-1)
			}
		}
		// The protocol may assign j_b any untaken value; recurse over all.
		total := 0
		pinned := g2.Fingerprint(jb, m)
		var decideErr error
		want.ForEach(func(lw int) bool {
			fps := make(map[model.Proc]string, len(fr.jFps)+1)
			for p, fp := range fr.jFps {
				fps[p] = fp
			}
			fps[jb] = pinned
			sub, err := walk(frame{run: next, jFps: fps, taken: fr.taken.Clone().Add(lw)}, b-1)
			if err != nil {
				decideErr = err
				return false
			}
			total += sub
			return true
		})
		if decideErr != nil {
			return 0, decideErr
		}
		return total, nil
	}
	return walk(frame{run: base, jFps: map[model.Proc]string{}, taken: &bitset.Set{}}, k)
}

// applyChange materializes "change b" of the proof: j never fails, and its
// round-m receipts are exactly the untaken senders, plus every correct
// process (which necessarily includes i and the other j's).
func applyChange(run *model.Adversary, j model.Proc, m, k int, js []model.Proc,
	senders map[model.Value]model.Proc, taken *bitset.Set) (*model.Adversary, *knowledge.Graph, error) {

	out := run.Clone()
	if cr, faulty := out.Pattern.Crash(j); faulty {
		if cr.Round <= m {
			return nil, nil, fmt.Errorf("unbeat: j=%d crashed in round %d ≤ m=%d; cannot be revived invisibly", j, cr.Round, m)
		}
		out.Pattern.RemoveCrash(j)
	}
	isJ := make(map[model.Proc]bool, len(js))
	for _, p := range js {
		isJ[p] = true
	}
	isSender := make(map[model.Proc]model.Value, len(senders))
	for lw, p := range senders {
		isSender[p] = lw
	}
	for x := 0; x < out.N(); x++ {
		if x == j {
			continue
		}
		if lw, ok := isSender[x]; ok {
			if taken.Contains(lw) {
				if err := suppressDelivery(out, x, m, j); err != nil {
					return nil, nil, err
				}
			} else if err := forceDelivery(out, x, m, j); err != nil {
				return nil, nil, err
			}
			continue
		}
		if isJ[x] {
			continue // the j's stay mutually connected
		}
		// "Exactly": any other process that crashes in round m must not
		// reach j — its time-(m−1) state could carry stray low values.
		if cr, faulty := out.Pattern.Crash(x); faulty && cr.Round == m {
			cr.Delivered.Remove(j)
		}
	}
	g := knowledge.New(out, gHorizon(out, m))
	return out, g, nil
}

// suppressDelivery makes x's round-m message not reach j: by trimming a
// crash-round delivery set, or by crashing a correct x in round m with a
// full send except to j (invisible to everyone else's time-m view).
func suppressDelivery(adv *model.Adversary, x model.Proc, m int, j model.Proc) error {
	if cr, faulty := adv.Pattern.Crash(x); faulty {
		switch {
		case cr.Round == m:
			cr.Delivered.Remove(j)
			return nil
		case cr.Round < m:
			return nil // already silent in round m
		}
		// Crashes later: pull the crash forward to round m.
	}
	adv.Pattern.SetCrash(model.Crash{Proc: x, Round: m, Delivered: bitset.Full(adv.N()).Remove(j)})
	return nil
}

// forceDelivery makes x's round-m message reach j.
func forceDelivery(adv *model.Adversary, x model.Proc, m int, j model.Proc) error {
	if cr, faulty := adv.Pattern.Crash(x); faulty {
		switch {
		case cr.Round == m:
			cr.Delivered.Add(j)
			return nil
		case cr.Round < m:
			return fmt.Errorf("unbeat: sender %d is dead before round %d; cannot deliver", x, m)
		}
	}
	return nil // correct (or crashing later): delivers anyway
}

func gHorizon(adv *model.Adversary, m int) int {
	return m
}

// CannotDecideCert certifies Lemma 3 for one node: a high process with
// hidden capacity ≥ k cannot decide at ⟨i,m⟩ in any protocol that solves
// nonuniform k-set consensus and decides low processes immediately.
type CannotDecideCert struct {
	Node   model.Proc
	Time   int
	K      int
	Hidden *HiddenRunResult
	// Forced certifies, per low value b, that the layer-m witness of
	// chain b decides b at time m in the Lemma 2 run — so a decision by
	// ⟨i,m⟩ (necessarily on a high value, by Validity) would be a
	// (k+1)-st distinct value among correct processes.
	Forced []*ForcedCert
}

// String renders the certificate's conclusion.
func (c *CannotDecideCert) String() string {
	if c == nil {
		return "<no certificate>"
	}
	return fmt.Sprintf("cannot-decide: ⟨%d,%d⟩ undecidable in any protocol dominating Optmin[%d] (%d forced witnesses, %d change orderings)",
		c.Node, c.Time, c.K, len(c.Forced), c.TotalOrders())
}

// TotalOrders sums the change-run orderings validated across the
// certificate's forced witnesses.
func (c *CannotDecideCert) TotalOrders() int {
	if c == nil {
		return 0
	}
	total := 0
	for _, f := range c.Forced {
		total += f.TotalOrders()
	}
	return total
}

// CannotDecide builds the Lemma 3 certificate for ⟨i,m⟩ in the run of g.
// Cancelling the context aborts the certificate's forcing recursions
// promptly.
func CannotDecide(ctx context.Context, g *knowledge.Graph, i model.Proc, m, k int) (*CannotDecideCert, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if lows := lowsOf(g, i, m, k); lows.Count() != 0 {
		return nil, fmt.Errorf("unbeat: ⟨%d,%d⟩ is low; Lemma 3 concerns high nodes", i, m)
	}
	if hc := g.HiddenCapacity(i, m); hc < k {
		return nil, fmt.Errorf("unbeat: HC⟨%d,%d⟩ = %d < k = %d", i, m, hc, k)
	}
	values := make([]model.Value, k)
	for b := range values {
		values[b] = b
	}
	h, err := HiddenRun(g, i, m, values)
	if err != nil {
		return nil, err
	}
	gp, err := h.Verify(ctx, g)
	if err != nil {
		return nil, err
	}
	cert := &CannotDecideCert{Node: i, Time: m, K: k, Hidden: h}
	for b := 0; b < k; b++ {
		wb := h.Witnesses[m][b]
		sub, err := ForcedLow(ctx, gp, wb, m, k)
		if err != nil {
			return nil, fmt.Errorf("unbeat: forcing witness %d (value %d): %w", wb, b, err)
		}
		if sub.Value != b {
			return nil, fmt.Errorf("unbeat: witness %d forced to %d, want %d", wb, sub.Value, b)
		}
		cert.Forced = append(cert.Forced, sub)
	}
	return cert, nil
}
