package obs

import "encoding/json"

// Stage names one timed stage of a request: the paper's §7 cycle plus
// the write path's merge, update application and log append. The cost
// card is the only record of stage times; every per-stage report is
// derived from it.
type Stage uint8

const (
	StageParse Stage = iota
	StageLabel
	StagePrune
	StageValidate
	StageUnparse
	StageMerge
	StageUpdateApply
	StageWALAppend
	NumStages
)

var stageNames = [NumStages]string{
	"parse", "label", "prune", "validate", "unparse", "merge", "update.apply", "wal.append",
}

// String returns the stage's name: its metric label and stages_ns key.
func (s Stage) String() string { return stageNames[s] }

// StageTimes holds a request's nanoseconds per stage, indexed by Stage;
// a stage is nonzero exactly when the request ran it. Its JSON form is
// an object naming only those stages ({} when it ran none).
type StageTimes [NumStages]int64

// MarshalJSON encodes the nonzero stages as {"name": ns, ...}.
func (t StageTimes) MarshalJSON() ([]byte, error) {
	m := make(map[string]int64, NumStages)
	for st, ns := range t {
		if ns != 0 {
			m[stageNames[st]] = ns
		}
	}
	return json.Marshal(m)
}

// UnmarshalJSON decodes the object form, ignoring unknown names.
func (t *StageTimes) UnmarshalJSON(b []byte) error {
	var m map[string]int64
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	*t = StageTimes{}
	for st, name := range stageNames {
		t[st] = m[name]
	}
	return nil
}

// CostCard is one request's itemized work receipt: every hot-path
// subsystem the request touched adds what it did with plain field
// increments. Where the metric registry aggregates across requests and
// a trace records *when* time was spent, the cost card records *what*
// was done — how many nodes this request labeled, which caches it hit
// or filled, how many bytes it serialized, how long each stage of its
// cycle took — so a single outlier request is explainable after the
// fact.
//
// A card belongs to exactly one request: it is part of the request's
// record (trace.Record, reached through trace.CostFromContext) and is
// written only by the goroutine serving that request, so increments
// are plain adds, not atomics. Subsystems that do work on behalf of
// several requests at once (the auth-index singleflight, the view
// cache's in-flight computation) charge the card of the request that
// actually performed the work; coalesced followers record only that
// they coalesced. The access decision copies the card into the audit
// record; after the response is written the card is immutable: the
// middleware feeds the stage histograms from it, and the trace and the
// slow-request board copy it, before the record returns to its pool.
//
// All fields are int64 (or a fixed array of them) so a card is a flat,
// copyable value with a stable JSON shape (/debug/slowz, audit records,
// trace snapshots all emit it).
type CostCard struct {
	// Stages is the time spent in each stage of the request's cycle
	// (see trace.StartStage); zero for cache hits, which run none.
	Stages StageTimes `json:"stages_ns"`

	// Class is the requester's authorization-equivalence class
	// (subjects.ClassID), or -1 when the request was not classified
	// (cache disabled, unresolvable requester).
	Class int64 `json:"class"`

	// NodesLabeled counts the element+attribute nodes labeled one at a
	// time: the named nodes, their ancestor chains and the attributes
	// of those elements. Every other node takes its sign from its
	// nearest labeled ancestor at no per-node cost. Zero for cache
	// hits, which run no cycle at all.
	NodesLabeled int64 `json:"nodes_labeled,omitempty"`
	// NodesSwept counts the element+attribute nodes the visibility
	// (prune) sweep decided: the whole document, most of it as whole
	// unlabeled subtrees rather than node by node.
	NodesSwept int64 `json:"nodes_swept,omitempty"`
	// NodesKept counts nodes the sweep kept in the view.
	NodesKept int64 `json:"nodes_kept,omitempty"`

	// ArenaXPathEvals counts XPath evaluations, each a sweep of the
	// struct-of-arrays document (authorization paths and view queries
	// alike).
	ArenaXPathEvals int64 `json:"xpath_arena_evals,omitempty"`
	// XPathBudgetStops counts arena evaluations stopped for exceeding
	// the node-visit budget (xpath.MaxVisits); XPathCancels those
	// stopped because the request's context was done.
	XPathBudgetStops int64 `json:"xpath_budget_stops,omitempty"`
	XPathCancels     int64 `json:"xpath_cancels,omitempty"`

	// View-cache outcome for this request: at most one of the three is
	// nonzero per processed document.
	ViewCacheHits      int64 `json:"viewcache_hits,omitempty"`
	ViewCacheMisses    int64 `json:"viewcache_misses,omitempty"`
	ViewCacheCoalesced int64 `json:"viewcache_coalesced,omitempty"`

	// Node-set index effectiveness: hits found a cached set, misses
	// waited for one, fills are the XPath evaluations this request's
	// goroutine actually ran (concurrent misses share a fill, which is
	// charged to the goroutine that performed it).
	AuthIndexHits   int64 `json:"authindex_hits,omitempty"`
	AuthIndexMisses int64 `json:"authindex_misses,omitempty"`
	AuthIndexFills  int64 `json:"authindex_fills,omitempty"`

	// Class-resolution cost: memo hits classified the requester with
	// one map probe; rebuilds paid a full universe refresh (generation
	// change observed by this request).
	ClassMemoHits int64 `json:"class_memo_hits,omitempty"`
	ClassRebuilds int64 `json:"class_rebuilds,omitempty"`

	// BytesSerialized counts view bytes this request unparsed (zero on
	// cache hits: the cached XML is reused, not re-serialized).
	BytesSerialized int64 `json:"bytes_serialized,omitempty"`

	// WALAppends counts durable mutation records this request logged;
	// the time it spent blocked on them (under -fsync always, the
	// synchronous fsync wait) is Stages[StageWALAppend].
	WALAppends int64 `json:"wal_appends,omitempty"`

	// Update-script accounting: OpsApplied counts the script operations
	// a targeted update committed, TargetsChecked the nodes its
	// write-authorization pass judged (subtree deletions charge every
	// node of the subtree), and NodesCopied the copy-on-write bill —
	// the cloned document plus every inserted fragment node.
	OpsApplied     int64 `json:"update_ops,omitempty"`
	TargetsChecked int64 `json:"update_targets_checked,omitempty"`
	NodesCopied    int64 `json:"update_nodes_copied,omitempty"`
}

// StageHistograms is a stage-labelled family with every child resolved
// up front: each stage is listed before its first observation, and
// feeding a card takes no map lookup.
type StageHistograms [NumStages]*Histogram

// NewStageHistograms resolves v's child for every stage.
func NewStageHistograms(v *HistogramVec) *StageHistograms {
	var h StageHistograms
	for st := range h {
		h[st] = v.With(stageNames[st])
	}
	return &h
}

// Observe records the card's stage times in seconds: one observation
// per stage the request ran, none for the others.
func (h *StageHistograms) Observe(c *CostCard) {
	for st, ns := range c.Stages {
		if ns != 0 {
			h[st].Observe(float64(ns) / 1e9)
		}
	}
}
