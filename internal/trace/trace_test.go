package trace

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"xmlsec/internal/obs"
)

func TestUntracedPathIsFreeAndNilSafe(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		ctx2, sp := StartSpan(ctx, "label")
		if sp.Traced() { // hot callers guard annotations with Traced()
			sp.Lazyf("never formatted %d", 1)
		}
		sp.End()
		if ctx2 != ctx {
			t.Fatal("untraced StartSpan must return the context unchanged")
		}
	})
	if allocs != 0 {
		t.Errorf("untraced StartSpan allocated %v times per run, want 0", allocs)
	}
	// Neither does an untraced request's record: StartSpan returns its
	// context unchanged, and the stage timer adds to the record's card
	// (outside a request it reads no clock).
	rctx, rc := Begin(ctx, nil, "id", "GET", "/docs/")
	defer rc.Release()
	allocs = testing.AllocsPerRun(100, func() {
		if ctx2, sp := StartSpan(rctx, "label"); ctx2 != rctx || sp != nil {
			t.Fatal("untraced StartSpan must return the record's context and a nil span")
		}
	})
	if allocs != 0 {
		t.Errorf("StartSpan on an untraced record allocated %v times per run, want 0", allocs)
	}
	card := &rc.Cost
	for _, c := range []context.Context{ctx, rctx} {
		allocs = testing.AllocsPerRun(100, func() {
			ctx2, tm := StartStage(c, obs.StageLabel)
			if tm.Traced() {
				tm.Lazyf("never formatted %d", 1)
			}
			tm.End()
			StartStageChild(ctx2, obs.StagePrune).End()
			if ctx2 != c {
				t.Fatal("untraced StartStage must return the context unchanged")
			}
		})
		if allocs != 0 {
			t.Errorf("untraced stage timer allocated %v times per run, want 0", allocs)
		}
	}
	if card.Stages[obs.StageLabel] <= 0 || card.Stages[obs.StagePrune] <= 0 {
		t.Errorf("stage timer did not record on the card: %v", card.Stages)
	}
	if rc.Trace != nil || SpanFromContext(rctx) != nil || RequestID(rctx) != "id" || CostFromContext(rctx) != card {
		t.Errorf("untraced record: trace %v, span %v, ID %q", rc.Trace, SpanFromContext(rctx), RequestID(rctx))
	}
	var zero Timer
	zero.End()
	// Nil-safety of everything a caller can reach without a recorder.
	var tr *Trace
	if tr.Root() != nil {
		t.Error("nil trace Root should be nil")
	}
	var rec *Recorder
	if rec.start("id", "GET", "/x", time.Now()) != nil {
		t.Error("nil recorder must not trace")
	}
	if rec.Recent() != nil || rec.Lookup("id") != nil {
		t.Error("nil recorder should hold no traces")
	}
	if SpanFromContext(ctx) != nil || RecordFromContext(ctx) != nil || CostFromContext(ctx) != nil {
		t.Error("empty context should carry no record")
	}
	if RequestID(ctx) != "" {
		t.Error("empty context should carry no request ID")
	}
}

// countingCtx counts the Value lookups made through it.
type countingCtx struct {
	context.Context
	n *int
}

func (c countingCtx) Value(key any) any {
	*c.n++
	return c.Context.Value(key)
}

// TestOneContextLookup pins the one-record contract: each accessor
// finds everything it needs with a single ctx.Value, untraced or
// traced, inside a request or outside one.
func TestOneContextLookup(t *testing.T) {
	traced := NewRecorder(Options{SampleEvery: 1})
	for _, rec := range []*Recorder{nil, traced} {
		ctx, rc := Begin(context.Background(), rec, "", "GET", "/docs/")
		for _, base := range []context.Context{context.Background(), ctx} {
			var n int
			c := countingCtx{base, &n}
			for name, call := range map[string]func(){
				"StartStageChild": func() { StartStageChild(c, obs.StagePrune).End() },
				"StartStage":      func() { _, tm := StartStage(c, obs.StageLabel); tm.End() },
				"StartSpan":       func() { _, sp := StartSpan(c, "s"); sp.End() },
				"StartChild":      func() { StartChild(c, "s").End() },
				"CostFromContext": func() { CostFromContext(c) },
				"SpanFromContext": func() { SpanFromContext(c) },
				"RequestID":       func() { RequestID(c) },
			} {
				n = 0
				call()
				if n != 1 {
					t.Errorf("traced=%v in-request=%v: %s made %d context lookups, want 1",
						rec != nil, base == ctx, name, n)
				}
			}
		}
		rc.End(200)
		rc.Release()
	}
}

func TestSpanTreeAndStages(t *testing.T) {
	rec := NewRecorder(Options{Capacity: 4, SampleEvery: 1})
	ctx, rc := Begin(context.Background(), rec, "", "GET", "/docs/")
	tr := rc.Trace
	if tr == nil {
		t.Fatal("SampleEvery 1 must trace every request")
	}
	if RecordFromContext(ctx) != rc || SpanFromContext(ctx) != tr.Root() {
		t.Fatal("record and root span not recoverable from context")
	}
	if RequestID(ctx) != tr.ID || len(tr.ID) != 16 {
		t.Fatalf("RequestID = %q, want the minted trace ID %q", RequestID(ctx), tr.ID)
	}

	lctx, label := StartStage(ctx, obs.StageLabel)
	_, fill := StartSpan(lctx, "authindex.fill")
	fill.Lazyf("auth %s selected %d nodes", "<public,/lab,read,+,R>", 7)
	time.Sleep(time.Millisecond)
	fill.End()
	label.End()
	StartStageChild(ctx, obs.StagePrune).End()
	rc.End(204)
	if rc.Status != 204 || rc.Duration < time.Millisecond {
		t.Errorf("record ended with status %d after %v", rc.Status, rc.Duration)
	}
	dur := rc.Duration
	rc.Release()

	snap := tr.Snapshot(true)
	if snap.ID != tr.ID || snap.Name != "GET /docs/" {
		t.Errorf("snapshot header wrong: %+v", snap)
	}
	if snap.DurationNs != dur.Nanoseconds() {
		t.Errorf("trace duration %d ns, want the record's %d ns", snap.DurationNs, dur.Nanoseconds())
	}
	if rec.Lookup(tr.ID) != tr {
		t.Error("ended trace not in the recorder's ring")
	}
	if len(snap.Spans) != 4 { // root, label, fill, prune
		t.Fatalf("got %d spans, want 4", len(snap.Spans))
	}
	depths := map[string]int{}
	for _, s := range snap.Spans {
		depths[s.Name] = s.Depth
	}
	if depths["GET /docs/"] != 0 || depths["label"] != 1 || depths["authindex.fill"] != 2 || depths["prune"] != 1 {
		t.Errorf("span depths wrong: %v", depths)
	}
	// The stage table is the card's: a stage's span and its card entry
	// carry the one duration the timer took; nested plain spans (the
	// fill) are not stages.
	if snap.Cost == nil {
		t.Fatal("snapshot lost the cost card")
	}
	var fillSnap *SpanSnapshot
	for i := range snap.Spans {
		switch sp := &snap.Spans[i]; sp.Name {
		case "authindex.fill":
			fillSnap = sp
		case "label":
			if got := snap.Cost.Stages[obs.StageLabel]; got != sp.DurationNs || got < int64(time.Millisecond) {
				t.Errorf("card label = %d ns, span = %d ns; want equal and >= 1ms", got, sp.DurationNs)
			}
		case "prune":
			if got := snap.Cost.Stages[obs.StagePrune]; got != max(sp.DurationNs, 1) {
				t.Errorf("card prune = %d ns, span = %d ns", got, sp.DurationNs)
			}
		}
	}
	if len(fillSnap.Annotations) != 1 || !strings.Contains(fillSnap.Annotations[0], "selected 7 nodes") {
		t.Errorf("annotation missing or unformatted: %v", fillSnap.Annotations)
	}
	if root := snap.Spans[0].Annotations; len(root) != 1 || !strings.Contains(root[0], "status 204") {
		t.Errorf("root span lacks the status annotation: %v", root)
	}
	// Summary view omits spans but keeps the card.
	sum := tr.Snapshot(false)
	if sum.Spans != nil || sum.Cost == nil || sum.Cost.Stages != snap.Cost.Stages {
		t.Errorf("summary snapshot wrong: %+v", sum)
	}
}

func TestAnnotationAndSpanBounds(t *testing.T) {
	rec := NewRecorder(Options{Capacity: 2, SampleEvery: 1})
	ctx, rc := Begin(context.Background(), rec, "", "GET", "/r")
	tr := rc.Trace
	root := tr.Root()
	for i := 0; i < maxAnnotations+5; i++ {
		root.Lazyf("a%d", i)
	}
	for i := 0; i < maxSpans+10; i++ {
		_, sp := StartSpan(ctx, "s")
		sp.End()
	}
	rc.End(200)
	rc.Release()
	snap := tr.Snapshot(true)
	if snap.DroppedSpans != 11 { // maxSpans includes the root
		t.Errorf("DroppedSpans = %d, want 11", snap.DroppedSpans)
	}
	if got := snap.Spans[0].DroppedAnnotations; got != 6 { // 5 + End's status line
		t.Errorf("DroppedAnnotations = %d, want 6", got)
	}
	if len(snap.Spans[0].Annotations) != maxAnnotations {
		t.Errorf("kept %d annotations, want %d", len(snap.Spans[0].Annotations), maxAnnotations)
	}
}

// TestRingEvictionAndSlowCapture pins the split of duties between the
// recorder and the slow board: the ring keeps only the last Capacity
// traces, while a trace held past its eviction — as the slow board
// holds the traces of the requests it admits — still renders its
// waterfall and card after its record has gone back to the pool.
func TestRingEvictionAndSlowCapture(t *testing.T) {
	rec := NewRecorder(Options{Capacity: 3, SampleEvery: 1})
	var held *Trace
	var heldID string
	for i := 0; i < 6; i++ {
		ctx, rc := Begin(context.Background(), rec, "", "GET", "/docs/")
		tm := StartStageChild(ctx, obs.StagePrune)
		if i == 0 {
			time.Sleep(2 * time.Millisecond)
			held, heldID = rc.Trace, rc.ID
		}
		tm.End()
		rc.Cost.NodesSwept = int64(i + 1)
		rc.End(200)
		rc.Release()
	}
	recent := rec.Recent()
	if len(recent) != 3 {
		t.Fatalf("ring holds %d, want 3", len(recent))
	}
	for _, tr := range recent {
		if tr == held {
			t.Error("the first trace should have been evicted by newer traffic")
		}
	}
	if rec.Lookup(held.ID) != nil {
		t.Error("Lookup found an evicted trace")
	}
	snap := held.Snapshot(true)
	if snap.ID != heldID || len(snap.Spans) != 2 || snap.Spans[1].Name != "prune" {
		t.Fatalf("held trace lost its waterfall: %+v", snap)
	}
	if snap.Cost == nil || snap.Cost.NodesSwept != 1 || snap.Cost.Stages[obs.StagePrune] < int64(2*time.Millisecond) {
		t.Errorf("held trace lost its card: %+v", snap.Cost)
	}
	if rec.Lookup("no-such-id") != nil {
		t.Error("Lookup of unknown ID should be nil")
	}
}

func TestSampling(t *testing.T) {
	rec := NewRecorder(Options{Capacity: 100, SampleEvery: 10})
	traced := 0
	for i := 0; i < 100; i++ {
		_, rc := Begin(context.Background(), rec, "", "GET", "/r")
		if rc.Trace != nil {
			traced++
		}
		rc.End(200)
		rc.Release()
	}
	if traced != 10 {
		t.Errorf("SampleEvery=10 traced %d of 100, want 10", traced)
	}
	reqs, sampled := rec.Stats()
	if reqs != 100 || sampled != 10 {
		t.Errorf("Stats = (%d, %d), want (100, 10)", reqs, sampled)
	}
}

func TestConcurrentSpansAndFinish(t *testing.T) {
	rec := NewRecorder(Options{Capacity: 8, SampleEvery: 1})
	const workers = 8
	for round := 0; round < 4; round++ {
		ctx, rc := Begin(context.Background(), rec, "", "GET", "/r")
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					_, sp := StartSpan(ctx, "fill")
					sp.Lazyf("worker %d iter %d", w, i)
					sp.End()
				}
			}(w)
		}
		wg.Wait()
		rc.End(200)
		rc.Release()
	}
	// Snapshots concurrent with new traffic (the /debug/traces reader).
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			ctx, rc := Begin(context.Background(), rec, "", "GET", "/r")
			_, sp := StartSpan(ctx, "s")
			sp.End()
			rc.End(200)
			rc.Release()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			for _, tr := range rec.Recent() {
				_ = tr.Snapshot(true)
			}
		}
	}()
	wg.Wait()
}

func TestNewIDShape(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewID()
		if len(id) != 16 || strings.ToLower(id) != id {
			t.Fatalf("bad ID %q", id)
		}
		if seen[id] {
			t.Fatalf("duplicate ID %q", id)
		}
		seen[id] = true
	}
}
