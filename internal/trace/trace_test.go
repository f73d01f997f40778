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
	// The stage timer allocates nothing either, with a cost card (it
	// adds to the card's array) or without one (it reads no clock).
	card := &obs.CostCard{}
	for _, c := range []context.Context{ctx, WithRequest(ctx, "id", card)} {
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
	var zero Timer
	zero.End()
	// Nil-safety of everything a caller can reach without a recorder.
	var tr *Trace
	tr.Finish()
	if tr.Root() != nil {
		t.Error("nil trace Root should be nil")
	}
	var rec *Recorder
	if rec.Start("x") != nil {
		t.Error("nil recorder must not trace")
	}
	if got, _ := rec.Recent(); got != nil {
		t.Error("nil recorder Recent should be empty")
	}
	if SpanFromContext(ctx) != nil || FromContext(ctx) != nil {
		t.Error("empty context should carry no span")
	}
	if RequestID(ctx) != "" {
		t.Error("empty context should carry no request ID")
	}
}

func TestSpanTreeAndStages(t *testing.T) {
	rec := NewRecorder(Options{Capacity: 4, SampleEvery: 1, SlowThreshold: -1})
	tr := rec.Start("GET /docs/")
	if tr == nil {
		t.Fatal("SampleEvery default must trace every request")
	}
	ctx := NewContext(context.Background(), tr.Root())
	if FromContext(ctx) != tr {
		t.Fatal("trace not recoverable from context")
	}
	if RequestID(ctx) != tr.ID {
		t.Fatalf("RequestID = %q, want trace ID %q", RequestID(ctx), tr.ID)
	}

	card := &obs.CostCard{}
	ctx = WithRequest(ctx, tr.ID, card)
	lctx, label := StartStage(ctx, obs.StageLabel)
	_, fill := StartSpan(lctx, "authindex.fill")
	fill.Lazyf("auth %s selected %d nodes", "<public,/lab,read,+,R>", 7)
	time.Sleep(time.Millisecond)
	fill.End()
	label.End()
	StartStageChild(ctx, obs.StagePrune).End()
	tr.SetCost(*card)
	tr.Finish()

	snap := tr.Snapshot(true)
	if snap.ID != tr.ID || snap.Name != "GET /docs/" {
		t.Errorf("snapshot header wrong: %+v", snap)
	}
	if snap.DurationNs <= 0 {
		t.Error("finished trace must have a duration")
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
	// Summary view omits spans but keeps the card.
	sum := tr.Snapshot(false)
	if sum.Spans != nil || sum.Cost == nil || sum.Cost.Stages != snap.Cost.Stages {
		t.Errorf("summary snapshot wrong: %+v", sum)
	}
}

func TestAnnotationAndSpanBounds(t *testing.T) {
	rec := NewRecorder(Options{Capacity: 2, SampleEvery: 1, SlowThreshold: -1})
	tr := rec.Start("r")
	root := tr.Root()
	for i := 0; i < maxAnnotations+5; i++ {
		root.Lazyf("a%d", i)
	}
	ctx := NewContext(context.Background(), root)
	for i := 0; i < maxSpans+10; i++ {
		_, sp := StartSpan(ctx, "s")
		sp.End()
	}
	tr.Finish()
	snap := tr.Snapshot(true)
	if snap.DroppedSpans != 11 { // maxSpans includes the root
		t.Errorf("DroppedSpans = %d, want 11", snap.DroppedSpans)
	}
	if got := snap.Spans[0].DroppedAnnotations; got != 5 {
		t.Errorf("DroppedAnnotations = %d, want 5", got)
	}
	if len(snap.Spans[0].Annotations) != maxAnnotations {
		t.Errorf("kept %d annotations, want %d", len(snap.Spans[0].Annotations), maxAnnotations)
	}
}

func TestRingEvictionAndSlowCapture(t *testing.T) {
	rec := NewRecorder(Options{Capacity: 3, SlowCapacity: 2, SampleEvery: 1, SlowThreshold: 5 * time.Millisecond})
	slowIDs := make(map[string]bool)
	for i := 0; i < 6; i++ {
		tr := rec.Start("r")
		if i == 0 || i == 1 {
			time.Sleep(7 * time.Millisecond)
			slowIDs[tr.ID] = true
		}
		tr.Finish()
	}
	recent, slow := rec.Recent()
	if len(recent) != 3 {
		t.Fatalf("recent ring holds %d, want 3", len(recent))
	}
	for _, tr := range recent {
		if slowIDs[tr.ID] {
			t.Error("slow traces should have been evicted from the recent ring by newer traffic")
		}
	}
	if len(slow) != 2 {
		t.Fatalf("slow ring holds %d, want 2", len(slow))
	}
	for _, tr := range slow {
		if !slowIDs[tr.ID] {
			t.Errorf("fast trace %s in slow ring", tr.ID)
		}
		if !tr.Snapshot(false).Slow {
			t.Error("slow trace snapshot not marked Slow")
		}
		if rec.Lookup(tr.ID) != tr {
			t.Error("Lookup must find slow-ring traces after recent-ring eviction")
		}
	}
	if rec.Lookup("no-such-id") != nil {
		t.Error("Lookup of unknown ID should be nil")
	}
}

func TestSampling(t *testing.T) {
	rec := NewRecorder(Options{Capacity: 100, SampleEvery: 10, SlowThreshold: -1})
	traced := 0
	for i := 0; i < 100; i++ {
		if tr := rec.Start("r"); tr != nil {
			traced++
			tr.Finish()
		}
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
	rec := NewRecorder(Options{Capacity: 8, SampleEvery: 1, SlowThreshold: -1})
	const workers = 8
	for round := 0; round < 4; round++ {
		tr := rec.Start("r")
		ctx := NewContext(context.Background(), tr.Root())
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
		tr.Finish()
	}
	// Snapshots concurrent with new traffic (the /debug/traces reader).
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			tr := rec.Start("r")
			_, sp := StartSpan(NewContext(context.Background(), tr.Root()), "s")
			sp.End()
			tr.Finish()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			recent, _ := rec.Recent()
			for _, tr := range recent {
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
