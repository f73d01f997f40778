package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"time"

	"xmlsec/internal/authz"
	"xmlsec/internal/core"
	"xmlsec/internal/obs"
	"xmlsec/internal/trace"
	"xmlsec/internal/update"
	"xmlsec/internal/wal"
)

// DefaultSnapshotBytes is the compaction threshold: once recovery
// would replay more than this much log, the compactor folds the tail
// into a fresh snapshot.
const DefaultSnapshotBytes int64 = 8 << 20

// DurabilityOptions configures EnableDurability.
type DurabilityOptions struct {
	// Sync is the WAL fsync policy (default wal.SyncAlways).
	Sync wal.SyncPolicy
	// SyncInterval is the flush period under wal.SyncInterval.
	SyncInterval time.Duration
	// SnapshotBytes triggers background compaction once the replayable
	// log tail exceeds it; ≤0 selects DefaultSnapshotBytes.
	SnapshotBytes int64
	// SegmentBytes caps individual log segment files (default 4 MiB).
	SegmentBytes int64
}

// mutation is the WAL record format for site state changes: the
// operation plus exactly the inputs needed to re-apply it. Sources are
// logged as text — replay re-runs the same parse/validate path the
// original request took, so a record that was applied once always
// applies again.
type mutation struct {
	// Op is "doc" (document add/replace), "update" (targeted update
	// delta), "dtd" (DTD registration), "xacl" (authorization list
	// load), "grant" (single authorization), or "policy" (per-document
	// policy change).
	Op string `json:"op"`
	// URI names the document (doc, update, dtd, policy).
	URI string `json:"uri,omitempty"`
	// Source is the XML/DTD/XACL text (doc, dtd, xacl).
	Source string `json:"src,omitempty"`
	// Level and Tuple carry a grant ("instance" or "schema").
	Level string `json:"level,omitempty"`
	Tuple string `json:"tuple,omitempty"`
	// Conflict and Open carry a policy change.
	Conflict string `json:"conflict,omitempty"`
	Open     bool   `json:"open,omitempty"`

	// Ver versions structured payloads. "update" records carry
	// updateRecordVersion; replay refuses a version it does not
	// understand rather than guessing at its semantics.
	Ver int `json:"v,omitempty"`
	// Script and Targets are the update delta: the script's canonical
	// JSON form and the resolved target indexes (dense preorder, into
	// the pre-update document) per operation. The delta is what makes the
	// record small — the document itself is never re-journaled.
	Script  string    `json:"script,omitempty"`
	Targets [][]int32 `json:"targets,omitempty"`
	// PreHash and PostHash fingerprint the document source before and
	// after a "doc" or "update" mutation (see contentHash). Replay
	// verifies both, so state divergence — a log edited by hand, a
	// serializer that changed between versions — fails recovery loudly
	// instead of silently installing the wrong document. Records
	// without hashes (logs written before this field existed) replay
	// unchecked; an empty PreHash on a "doc" record also covers fresh
	// registrations, which have no pre-state to fingerprint.
	PreHash  string `json:"pre,omitempty"`
	PostHash string `json:"post,omitempty"`
}

// updateRecordVersion is the current "update" delta record layout.
const updateRecordVersion = 1

// contentHash fingerprints document source text for replay divergence
// detection.
func contentHash(src string) string {
	h := sha256.Sum256([]byte(src))
	return hex.EncodeToString(h[:])
}

// siteSnapshot is the snapshot payload: the site's full mutable state.
// Static identity configuration (users, groups, resolver) is not here —
// it has no runtime mutation path and keeps coming from the site
// directory. Maps serialize with sorted keys and the XACL list is
// built in sorted URI order, so snapshot bytes are deterministic for a
// given state.
type siteSnapshot struct {
	DTDs     map[string]string      `json:"dtds,omitempty"`
	Docs     map[string]string      `json:"docs,omitempty"`
	XACLs    []string               `json:"xacls,omitempty"`
	Policies map[string]policyState `json:"policies,omitempty"`
}

type policyState struct {
	Conflict string `json:"conflict"`
	Open     bool   `json:"open,omitempty"`
}

// EnableDurability opens (or creates) the write-ahead log in dataDir
// and recovers the site's mutable state from it: the newest valid
// snapshot replaces the in-memory stores, then the log tail replays on
// top. On a fresh data directory the site's current state (typically
// the loaded site directory) is written as the initial snapshot, so
// the data directory alone is always sufficient for recovery. After
// this returns, every mutation is WAL-logged before its in-memory
// commit. Call CloseDurability on shutdown.
func (s *Site) EnableDurability(dataDir string, opts DurabilityOptions) error {
	if s.wal.Load() != nil {
		return fmt.Errorf("server: durability already enabled")
	}
	s.initMetrics()
	if opts.SnapshotBytes <= 0 {
		opts.SnapshotBytes = DefaultSnapshotBytes
	}
	wlog := s.logger().With("component", "wal")
	l, err := wal.Open(wal.Options{
		Dir:          dataDir,
		Sync:         opts.Sync,
		SyncInterval: opts.SyncInterval,
		SegmentBytes: opts.SegmentBytes,
		FsyncObserver: func(d time.Duration) {
			s.lastFsyncNs.Store(int64(d))
			s.metrics.walFsync.Observe(d.Seconds())
		},
		Logf: func(format string, args ...any) {
			wlog.Warn(fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		return err
	}
	snap, snapLSN, err := l.Snapshot()
	if err != nil {
		l.Close()
		return err
	}
	if snap != nil {
		if err := s.restoreSnapshot(snap); err != nil {
			l.Close()
			return fmt.Errorf("server: restoring snapshot at LSN %d: %w", snapLSN, err)
		}
	}
	if err := l.Replay(func(lsn uint64, payload []byte) error {
		var m mutation
		if err := json.Unmarshal(payload, &m); err != nil {
			return fmt.Errorf("record %d: %w", lsn, err)
		}
		if err := s.applyMutation(m); err != nil {
			return fmt.Errorf("record %d: %w", lsn, err)
		}
		return nil
	}); err != nil {
		l.Close()
		return fmt.Errorf("server: replaying log: %w", err)
	}
	s.wal.Store(l)
	s.snapshotBytes = opts.SnapshotBytes
	if snap == nil && l.LastLSN() == 0 {
		// Fresh data directory: persist the baseline so recovery never
		// depends on the site directory's mutable files again.
		if err := s.Compact(); err != nil {
			s.wal.Store(nil)
			l.Close()
			return fmt.Errorf("server: writing initial snapshot: %w", err)
		}
	}
	return nil
}

// CloseDurability flushes and closes the WAL. Mutations attempted
// afterwards fail rather than succeeding non-durably.
func (s *Site) CloseDurability() error {
	l := s.wal.Load()
	if l == nil {
		return nil
	}
	return l.Close()
}

// Durable reports whether the site persists mutations.
func (s *Site) Durable() bool { return s.wal.Load() != nil }

// WALStats returns the log's counters (zeros when durability is off),
// the source of the xmlsec_wal_* metric families.
func (s *Site) WALStats() wal.Stats {
	l := s.wal.Load()
	if l == nil {
		return wal.Stats{}
	}
	return l.Stats()
}

// errWALAppend marks log-append failures so the HTTP layer can report
// them as a server fault (500) rather than a caller fault (422): the
// mutation itself validated, the disk did not cooperate.
var errWALAppend = errors.New("write-ahead log append failed")

// logMutation makes a mutation durable. Callers hold persistMu and
// commit to the in-memory stores only after this returns nil, so a
// record in the log is always a mutation that validated, and the log
// order is the commit order. The append is timed as the "wal.append"
// stage: under SyncAlways it blocks on fsync, so the stage time is the
// request's durability wait.
func (s *Site) logMutation(ctx context.Context, m mutation) error {
	l := s.wal.Load()
	if l == nil {
		return nil
	}
	b, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("server: encoding %s mutation: %w", m.Op, err)
	}
	tm := trace.StartStageChild(ctx, obs.StageWALAppend)
	_, err = l.Append(b)
	tm.End()
	if card := trace.CostFromContext(ctx); card != nil {
		card.WALAppends++
	}
	if err != nil {
		return fmt.Errorf("server: %w: %v", errWALAppend, err)
	}
	return nil
}

// applyMutation re-applies a logged mutation to the in-memory state;
// recovery's half of the logMutation contract.
func (s *Site) applyMutation(m mutation) error {
	switch m.Op {
	case "doc":
		var oldSource string
		if sd := s.Docs.Doc(m.URI); sd != nil {
			oldSource = sd.Source
		}
		if m.PreHash != "" && contentHash(oldSource) != m.PreHash {
			return fmt.Errorf("server: replaying %q: pre-state hash mismatch (log diverges from replayed state)", m.URI)
		}
		if m.PostHash != "" && contentHash(m.Source) != m.PostHash {
			return fmt.Errorf("server: replaying %q: record content does not match its own hash", m.URI)
		}
		_, err := s.commitDocLocked(context.Background(), m.URI, m.Source, m)
		return err
	case "update":
		return s.replayUpdate(m)
	case "dtd":
		return s.Docs.AddDTD(m.URI, m.Source)
	case "xacl":
		x, err := authz.ParseXACL(m.Source)
		if err != nil {
			return err
		}
		return s.Auths.AddAll(x.Level, x.Auths)
	case "grant":
		a, err := authz.Parse(m.Tuple)
		if err != nil {
			return err
		}
		return s.Auths.Add(parseLevel(m.Level), a)
	case "policy":
		rule, err := core.ParseConflictRule(m.Conflict)
		if err != nil {
			return err
		}
		s.Engine.SetPolicy(m.URI, core.Policy{Conflict: rule, Open: m.Open})
		return nil
	}
	return fmt.Errorf("server: unknown mutation op %q", m.Op)
}

// replayUpdate re-applies an update delta record: parse the journaled
// script, re-execute it against the recorded target indexes on the
// replayed document, and install the result — the recovery half of
// ApplyUpdate. Authorization is not re-checked: the record exists only
// because the original request passed it, and the identity predicates
// would need state the log does not carry. The pre/post content hashes
// guard the substituted trust: if the replayed document is not the one
// the delta was resolved against, or the re-applied result is not the
// document the site served afterwards, recovery fails rather than
// serving a silently different document.
func (s *Site) replayUpdate(m mutation) error {
	if m.Ver != updateRecordVersion {
		return fmt.Errorf("server: update record for %q has version %d; this build understands %d", m.URI, m.Ver, updateRecordVersion)
	}
	sd := s.Docs.Doc(m.URI)
	if sd == nil {
		return fmt.Errorf("server: update record for unknown document %q", m.URI)
	}
	if m.PreHash != "" && contentHash(sd.Source) != m.PreHash {
		return fmt.Errorf("server: replaying update of %q: pre-state hash mismatch (log diverges from replayed state)", m.URI)
	}
	script, err := update.ParseScript(m.Script)
	if err != nil {
		return fmt.Errorf("server: update record for %q: %w", m.URI, err)
	}
	out, _, err := update.Apply(sd.Doc, script, m.Targets)
	if err != nil {
		return fmt.Errorf("server: replaying update of %q: %w", m.URI, err)
	}
	newSource := out.String()
	if m.PostHash != "" && contentHash(newSource) != m.PostHash {
		return fmt.Errorf("server: replaying update of %q: post-state hash mismatch (replay diverged from the committed document)", m.URI)
	}
	_, err = s.commitDocLocked(context.Background(), m.URI, newSource, m)
	return err
}

func parseLevel(s string) authz.Level {
	if s == "schema" {
		return authz.SchemaLevel
	}
	return authz.InstanceLevel
}

// PutDocument registers or replaces a document durably: parse and
// validate, append the WAL record, then commit — so a crash at any
// point leaves either the old document or the new one.
func (s *Site) PutDocument(uri, source string) error {
	return s.PutDocumentContext(context.Background(), uri, source)
}

// PutDocumentContext is PutDocument under a request context.
func (s *Site) PutDocumentContext(ctx context.Context, uri, source string) error {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	_, err := s.commitDocLocked(ctx, uri, source, mutation{Op: "doc", Source: source})
	return err
}

// commitDocLocked is the one commit step of a document write: PUT, an
// update script and the replay of either come through it. It parses
// and validates source as the document at uri, stamps m with uri and
// the pre- and post-state hashes, appends m to the log, commits, starts
// a compaction when one is due, and releases the replaced document from
// the node-set index. Callers hold persistMu; recovery calls it before
// the log is installed, so a replayed record is not appended again.
// The parse and the validation are timed onto ctx's cost card, so every
// write reports the same prepare stages.
func (s *Site) commitDocLocked(ctx context.Context, uri, source string, m mutation) (*StoredDoc, error) {
	sd, err := prepareDocument(ctx, s.Docs.loader(), uri, source)
	if err != nil {
		return nil, err
	}
	prev := s.Docs.Doc(uri)
	m.URI, m.PreHash, m.PostHash = uri, "", contentHash(source)
	if prev != nil {
		m.PreHash = contentHash(prev.Source)
	}
	if err := s.logMutation(ctx, m); err != nil {
		return nil, err
	}
	s.Docs.commitDocument(sd)
	s.maybeCompact()
	if prev != nil {
		if idx := s.Engine.AuthIndex(); idx != nil {
			idx.InvalidateDoc(prev.Doc)
		}
	}
	return sd, nil
}

// PutDTD registers a DTD durably.
func (s *Site) PutDTD(uri, source string) error {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	d, err := prepareDTD(uri, source)
	if err != nil {
		return err
	}
	if err := s.logMutation(context.Background(), mutation{Op: "dtd", URI: uri, Source: source}); err != nil {
		return err
	}
	s.Docs.commitDTD(uri, source, d)
	s.maybeCompact()
	return nil
}

// SetPolicy durably installs a per-document policy.
func (s *Site) SetPolicy(uri string, p core.Policy) error {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	if err := s.logMutation(context.Background(), mutation{
		Op: "policy", URI: uri, Conflict: p.Conflict.String(), Open: p.Open,
	}); err != nil {
		return err
	}
	s.Engine.SetPolicy(uri, p)
	s.maybeCompact()
	return nil
}

// maybeCompact starts one background compaction when the replayable
// log tail has outgrown the snapshot threshold. Callers hold
// persistMu; the compactor runs without it until it captures state.
func (s *Site) maybeCompact() {
	l := s.wal.Load()
	if l == nil || s.snapshotBytes <= 0 {
		return
	}
	if l.SizeSinceSnapshot() < s.snapshotBytes {
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return // one compaction at a time; the next mutation re-checks
	}
	go func() {
		defer s.compacting.Store(false)
		if err := s.Compact(); err != nil {
			s.logger().Error("background compaction failed",
				"component", "compactor", "error", err.Error())
		}
	}()
}

// Compact captures the site's mutable state and writes it as a WAL
// snapshot at the newest logged position, letting the log prune
// replayed segments. Mutations are briefly blocked during capture;
// reads are not. Exposed for deterministic tests and operator tooling;
// the background compactor calls it automatically.
func (s *Site) Compact() error {
	l := s.wal.Load()
	if l == nil {
		return fmt.Errorf("server: durability not enabled")
	}
	start := time.Now()
	s.persistMu.Lock()
	lsn := l.LastLSN()
	payload, err := s.captureSnapshot()
	s.persistMu.Unlock()
	if err != nil {
		return err
	}
	if err := l.WriteSnapshot(lsn, payload); err != nil {
		return err
	}
	s.metrics.walSnapshot.ObserveSince(start)
	return nil
}

// captureSnapshot serializes the mutable state. Callers hold persistMu
// so no mutation lands between reading the stores and stamping the
// snapshot's LSN.
func (s *Site) captureSnapshot() ([]byte, error) {
	st := siteSnapshot{
		DTDs:     make(map[string]string),
		Docs:     make(map[string]string),
		Policies: make(map[string]policyState),
	}
	for _, uri := range s.Docs.DTDURIs() {
		if src, ok := s.Docs.DTDSource(uri); ok {
			st.DTDs[uri] = src
		}
	}
	for _, uri := range s.Docs.URIs() {
		if sd := s.Docs.Doc(uri); sd != nil {
			st.Docs[uri] = sd.Source
		}
	}
	for _, level := range []authz.Level{authz.InstanceLevel, authz.SchemaLevel} {
		for _, uri := range s.Auths.URIs(level) {
			auths := s.Auths.ForDocument(uri)
			if level == authz.SchemaLevel {
				auths = s.Auths.ForSchema(uri)
			}
			if len(auths) == 0 {
				continue
			}
			x := &authz.XACL{About: uri, Level: level, Auths: auths}
			st.XACLs = append(st.XACLs, x.String())
		}
	}
	for uri, p := range s.Engine.Policies() {
		st.Policies[uri] = policyState{Conflict: p.Conflict.String(), Open: p.Open}
	}
	// Sources are mostly markup: with HTML escaping each '<', '>' and
	// '&' would cost six bytes. Decoding reads either form.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(st); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
}

// restoreSnapshot replaces the site's mutable state with a snapshot's.
// Only recovery calls it, before the site serves traffic.
func (s *Site) restoreSnapshot(payload []byte) error {
	var st siteSnapshot
	if err := json.Unmarshal(payload, &st); err != nil {
		return err
	}
	s.Docs.Reset()
	s.Auths.Reset()
	s.Engine.ClearPolicies()
	for _, uri := range sortedKeys(st.DTDs) {
		if err := s.Docs.AddDTD(uri, st.DTDs[uri]); err != nil {
			return err
		}
	}
	uris := sortedKeys(st.Docs)
	srcs := make([]string, len(uris))
	for i, uri := range uris {
		srcs[i] = st.Docs[uri]
	}
	if _, err := s.Docs.addDocuments(uris, srcs); err != nil {
		return err
	}
	for _, src := range st.XACLs {
		x, err := authz.ParseXACL(src)
		if err != nil {
			return err
		}
		if err := s.Auths.AddAll(x.Level, x.Auths); err != nil {
			return err
		}
	}
	for uri, p := range st.Policies {
		rule, err := core.ParseConflictRule(p.Conflict)
		if err != nil {
			return err
		}
		s.Engine.SetPolicy(uri, core.Policy{Conflict: rule, Open: p.Open})
	}
	if idx := s.Engine.AuthIndex(); idx != nil {
		idx.InvalidateAll()
	}
	return nil
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
