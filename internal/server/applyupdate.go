package server

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"xmlsec/internal/obs"
	"xmlsec/internal/subjects"
	"xmlsec/internal/trace"
	"xmlsec/internal/update"
)

// ErrConflict is returned when an update script does not fit the
// document's current state: a target that selects nothing the requester
// can see, or one that an earlier operation of the same script removed.
// The HTTP layer maps it to 409.
var ErrConflict = errors.New("server: update conflicts with document state")

func isConflict(err error) bool { return errors.Is(err, ErrConflict) }

// ScriptError rejects an update script with the full per-operation
// report, so a client can repair every failing operation in one round
// trip. Reasons are view-safe: they never name nodes outside the
// requester's read view (see update.Resolve).
type ScriptError struct {
	Report []update.OpError
}

func (e *ScriptError) Error() string {
	parts := make([]string, len(e.Report))
	for i, r := range e.Report {
		parts[i] = r.Error()
	}
	return "server: update rejected: " + strings.Join(parts, "; ")
}

func (e *ScriptError) hasClass(class string) bool {
	for _, r := range e.Report {
		if r.Class == class {
			return true
		}
	}
	return false
}

// Is maps the report onto the server's error ladder: any forbidden
// operation makes the whole rejection a forbidden one (403), otherwise
// any conflicting operation makes it a conflict (409); a report of only
// invalid operations is neither — the generic client error (422).
func (e *ScriptError) Is(target error) bool {
	switch target {
	case ErrForbidden:
		return e.hasClass(update.ClassForbidden)
	case ErrConflict:
		return !e.hasClass(update.ClassForbidden) && e.hasClass(update.ClassConflict)
	}
	return false
}

// ApplyUpdate executes an update script (see update.ParseScript for the
// two script forms) against the document at uri on the requester's
// behalf, atomically: either every operation commits or none does.
//
// The authorization discipline extends write-through-views to targeted
// edits. Each operation's target node-set is intersected with the
// requester's *read* view first — content the view hides can neither be
// edited nor probed; a hidden target reads exactly like an absent one —
// and the surviving targets are then checked against the requester's
// write labeling (action "write") under core.MergeView's authority
// mapping. A denied script fails whole with a *ScriptError carrying the
// per-operation report.
//
// Commits are copy-on-write: the update builds a whole new StoredDoc
// under a new store generation while concurrent readers keep the old
// one (and any views cached from it; the generation key retires them).
// Durability is a delta: the WAL journals the canonical script plus the
// resolved target indexes and pre/post content hashes — not the
// document — and replay re-applies it deterministically.
func (s *Site) ApplyUpdate(ctx context.Context, rq subjects.Requester, uri, scriptSrc string) (err error) {
	defer func() { s.auditOp(ctx, "update", rq, uri, nil, err) }()
	script, err := update.ParseScript(scriptSrc)
	if err != nil {
		return fmt.Errorf("server: update of %q: %w", uri, err)
	}
	// The whole resolve→apply→log→commit sequence runs under the
	// persistence lock: targets are indexes into the exact document the
	// commit replaces, so no concurrent write may slide between
	// resolution and commit. Readers never take this lock.
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	sd := s.Docs.Doc(uri)
	if sd == nil {
		return ErrNotFound
	}
	view, writable, err := s.writeAccess(ctx, rq, sd)
	if err != nil {
		return err
	}
	res, report := update.Resolve(ctx, sd.Doc, script, view.Mask.VisibleIdx, writable)
	if report != nil {
		return &ScriptError{Report: report}
	}
	tm := trace.StartStageChild(ctx, obs.StageUpdateApply)
	out, copied, err := update.Apply(sd.Doc, script, res.Targets)
	tm.End()
	if err != nil {
		var ce *update.ConflictError
		if errors.As(err, &ce) {
			return fmt.Errorf("%w: %v", ErrConflict, err)
		}
		return err
	}
	// Commit through the same step as a PUT: the committed StoredDoc is
	// parse(serialize(apply)), the same document replay reconstructs,
	// and an update that breaks DTD validity fails with nothing
	// committed.
	nd, err := s.commitDocLocked(ctx, uri, out.String(), mutation{
		Op: "update", Ver: updateRecordVersion,
		Script: script.Canonical(), Targets: res.Targets,
	})
	if err != nil {
		return err
	}
	if card := trace.CostFromContext(ctx); card != nil {
		card.OpsApplied += int64(len(script.Ops))
		card.TargetsChecked += int64(res.TargetsChecked)
		card.NodesCopied += int64(copied)
	}
	// Pre-warm the successor, as after a PUT.
	s.Engine.WarmAuthIndex(nd.Doc, uri, nd.DTDURI, 4)
	return nil
}
