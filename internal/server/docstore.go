package server

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"xmlsec/internal/dom"
	"xmlsec/internal/dtd"
	"xmlsec/internal/obs"
	"xmlsec/internal/trace"
	"xmlsec/internal/xmlparse"
)

// StoredDoc is a document registered at the site: its source text, its
// arena, and its DTD binding.
type StoredDoc struct {
	// URI is the document's identifier (the authorization object key).
	URI string
	// Source is the original XML text.
	Source string
	// DTDURI is the URI of the DTD the document is an instance of;
	// empty for DTD-less documents.
	DTDURI string
	// Doc is the parsed document (attribute defaults applied) as the
	// parser returns it, arena-only: it carries the arena the parser
	// wrote (Doc.ReadArena), which validation, labeling, masking,
	// masked serialization, XPath and update resolution run over, and
	// no pointer tree — Doc.Node is nil. The few consumers that need a
	// tree (the PUT merge, update apply, oracles) take a private copy
	// with Doc.ReadTree. Without a tree each stored document's live
	// heap is less than half what it was with one (docs/ARENA.md).
	// Doc is immutable for the lifetime of this registration: a PUT
	// installs a whole new StoredDoc under a new generation.
	Doc *dom.Document
	// DTD is the parsed document type definition, or nil.
	DTD *dtd.DTD
}

// DocStore is the site's registry of protected resources: XML documents
// and the DTDs they are instances of. It also caches the loosened
// version of each DTD (Section 6.2), which is what requesters receive.
type DocStore struct {
	mu    sync.RWMutex
	gen   uint64
	docs  map[string]*StoredDoc
	dtds  map[string]*dtd.DTD // DTD URI → parsed DTD
	srcs  map[string]string   // DTD URI → source text
	loose map[string]*dtd.DTD // DTD URI → loosened DTD (lazily built)
}

// NewDocStore returns an empty registry.
func NewDocStore() *DocStore {
	return &DocStore{
		docs:  make(map[string]*StoredDoc),
		dtds:  make(map[string]*dtd.DTD),
		srcs:  make(map[string]string),
		loose: make(map[string]*dtd.DTD),
	}
}

// AddDTD registers a DTD under its URI.
func (s *DocStore) AddDTD(uri, source string) error {
	d, err := prepareDTD(uri, source)
	if err != nil {
		return err
	}
	s.commitDTD(uri, source, d)
	return nil
}

// prepareDTD parses and compiles a DTD without touching the store, so
// callers can validate (and log) a registration before committing it.
func prepareDTD(uri, source string) (*dtd.DTD, error) {
	d, err := dtd.Parse(source)
	if err != nil {
		return nil, fmt.Errorf("server: DTD %q: %w", uri, err)
	}
	d.CompileAll()
	return d, nil
}

// commitDTD installs a prepared DTD.
func (s *DocStore) commitDTD(uri, source string, d *dtd.DTD) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dtds[uri] = d
	s.srcs[uri] = source
	delete(s.loose, uri)
	s.gen++
}

// Generation returns a counter that changes whenever registered content
// changes, for cache invalidation.
func (s *DocStore) Generation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// AddDocument parses and registers a document. The document's DOCTYPE
// system identifier, if any, must name a DTD already registered with
// AddDTD (the registry is the store's closed world; nothing is fetched).
// If the document is not valid with respect to its DTD, registration
// fails: the processor's contract takes valid documents as input.
func (s *DocStore) AddDocument(uri, source string) error {
	sd, err := prepareDocument(context.Background(), s.loader(), uri, source)
	if err != nil {
		return err
	}
	s.commitDocument(sd)
	return nil
}

// loader returns a snapshot of the registered DTD sources, the closed
// world a document's external subset resolves in.
func (s *DocStore) loader() xmlparse.MapLoader {
	s.mu.RLock()
	defer s.mu.RUnlock()
	loader := make(xmlparse.MapLoader, len(s.srcs))
	for u, src := range s.srcs {
		loader[u] = src
	}
	return loader
}

// prepareDocument parses a document into its arena and validates the
// arena without committing it, so callers can make the registration
// durable in between. Every registration path (site load, AddDocument,
// PUT, update scripts, WAL replay and snapshot restore) comes through
// here, so each goes bytes → arena → validate → store. The parse and
// the validation are timed onto ctx's cost card as the parse and
// validate stages.
func prepareDocument(ctx context.Context, loader xmlparse.MapLoader, uri, source string) (*StoredDoc, error) {
	tm := trace.StartStageChild(ctx, obs.StageParse)
	res, err := xmlparse.Parse(source, xmlparse.Options{Loader: loader, ApplyDefaults: true})
	tm.End()
	if err != nil {
		return nil, fmt.Errorf("server: document %q: %w", uri, err)
	}
	sd := &StoredDoc{URI: uri, Source: source}
	if res.Doc.DocType != nil && res.Doc.DocType.SystemID != "" {
		sd.DTDURI = res.Doc.DocType.SystemID
	}
	if res.DTD != nil {
		sd.DTD = res.DTD
		sd.DTD.Name = res.Doc.DocType.Name
		tm = trace.StartStageChild(ctx, obs.StageValidate)
		errs := sd.DTD.Validate(res.Doc, dtd.ValidateOptions{})
		tm.End()
		if errs != nil {
			return nil, fmt.Errorf("server: document %q is not valid: %w", uri, errs)
		}
	}
	sd.Doc = res.Doc
	return sd, nil
}

// addDocuments registers a batch of documents, sorted by URI, with the
// effect of calling AddDocument on each in order: the documents are
// parsed and validated on up to GOMAXPROCS workers, then committed one
// at a time in order, each advancing the generation. On failure the
// documents before the first failing one stay committed, and its index
// and error are returned.
func (s *DocStore) addDocuments(uris, sources []string) (int, error) {
	loader := s.loader()
	prepared := make([]*StoredDoc, len(uris))
	errs := make([]error, len(uris))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(uris)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(uris); i = int(next.Add(1)) - 1 {
				prepared[i], errs[i] = prepareDocument(context.Background(), loader, uris[i], sources[i])
			}
		}()
	}
	wg.Wait()
	for i, sd := range prepared {
		if errs[i] != nil {
			return i, errs[i]
		}
		s.commitDocument(sd)
	}
	return -1, nil
}

// commitDocument installs a prepared document.
func (s *DocStore) commitDocument(sd *StoredDoc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.docs[sd.URI] = sd
	s.gen++
}

// Doc returns the stored document for uri, or nil.
func (s *DocStore) Doc(uri string) *StoredDoc {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.docs[uri]
}

// DocWithGeneration returns the stored document for uri together with
// the store generation, under one lock acquisition. Cache keying must
// use this rather than Doc+Generation: between two separate calls a
// concurrent PUT can replace the document, and a view of the OLD tree
// would then be filed under the NEW generation's key — a poisoned
// entry that no later store change ever invalidates.
func (s *DocStore) DocWithGeneration(uri string) (*StoredDoc, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.docs[uri], s.gen
}

// DTD returns the registered DTD for uri, or nil.
func (s *DocStore) DTD(uri string) *dtd.DTD {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dtds[uri]
}

// DTDSource returns the registered DTD source text for uri.
func (s *DocStore) DTDSource(uri string) (string, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	src, ok := s.srcs[uri]
	return src, ok
}

// Loosened returns the loosened version of the DTD registered at uri,
// building and caching it on first use. Requesters only ever see the
// loosened DTD: delivering the original would reveal which components
// security enforcement may have pruned.
func (s *DocStore) Loosened(uri string) *dtd.DTD {
	s.mu.RLock()
	if l, ok := s.loose[uri]; ok {
		s.mu.RUnlock()
		return l
	}
	d := s.dtds[uri]
	s.mu.RUnlock()
	if d == nil {
		return nil
	}
	l := d.Loosen()
	l.CompileAll()
	s.mu.Lock()
	defer s.mu.Unlock()
	// Re-check under the write lock: two first requests may both have
	// built a loosened DTD, and exactly one must win so every requester
	// shares one compiled automaton (and pointer comparisons hold).
	if prev, ok := s.loose[uri]; ok {
		return prev
	}
	if s.dtds[uri] != d {
		// The DTD was replaced while we loosened; the loosening of the
		// old one must not be cached under the new registration.
		return l
	}
	s.loose[uri] = l
	return l
}

// URIs returns the registered document URIs, sorted: listings,
// snapshot manifests, and golden tests all need a deterministic order.
func (s *DocStore) URIs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.docs))
	for u := range s.docs {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// DTDURIs returns the registered DTD URIs, sorted.
func (s *DocStore) DTDURIs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.dtds))
	for u := range s.dtds {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// Reset drops every registered document and DTD (recovery replaces the
// store's content with a snapshot's). The generation still advances,
// so caches keyed on it cannot serve pre-reset state.
func (s *DocStore) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.docs = make(map[string]*StoredDoc)
	s.dtds = make(map[string]*dtd.DTD)
	s.srcs = make(map[string]string)
	s.loose = make(map[string]*dtd.DTD)
	s.gen++
}
